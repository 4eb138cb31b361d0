// openSAGE -- `sage serve`: the multi-tenant session service.
//
// The paper's run-time infrastructure exists to *serve* compiled
// programs; everything below the service line already scales -- the
// Compiler -> Program -> Executor split lets N sessions share one
// immutable CompiledProgram, and Session::submit()/wait() overlaps data
// sets on one machine epoch. The Server is the missing front end that
// *drives* N sessions at once (cf. bscheduler's daemon multiplexing
// kernel pipelines over executors):
//
//   fleets     -- one warm-session fleet per registered program,
//                 keyed by the program's content-addressed fingerprint
//                 (the plan-cache key) and lazily grown up to a
//                 per-program cap as concurrent demand arrives;
//   admission  -- a bounded queue with shed-beyond-it: a request that
//                 would wait behind more than `max_queue_depth` others
//                 is rejected immediately with a typed verdict, never
//                 blocked (the overload contract);
//   coalescing -- consecutive requests for one program ride a shared
//                 streaming epoch: the scheduler submits a whole batch
//                 onto one session before collecting, so data set i+1
//                 enters the pipeline while i is in flight;
//   tenancy    -- per-tenant quotas (max concurrent requests, max total
//                 requests) and per-tenant metrics, exported through the
//                 same MetricsRegistry / viz::report machinery as the
//                 session probes.
//
// Scheduling model: admission decisions, fleet growth, and
// session assignment all happen at submit() time, under one lock, in
// *virtual time* -- each fleet session keeps a deterministic
// busy-until clock advanced by the program's calibrated solo latency
// (idle start) or streamed period (coalesced start). The worker
// threads then merely realize that plan on the emulated machines. This
// keeps the whole load test deterministic: given one arrival schedule,
// the admit/shed pattern, session assignment, and every reported
// latency are pure functions of the schedule and the calibration --
// host thread interleaving never enters the accounting. Real execution
// results (sink checksums) stay bit-identical to solo Session::run by
// the streaming executor's determinism contract.
//
// Thread safety: every public member is callable from any thread
// concurrently; the Server serializes internally. (Individual Sessions
// stay single-host-threaded underneath -- each fleet slot is driven by
// at most one scheduler worker at a time.)
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "runtime/program.hpp"
#include "runtime/registry.hpp"
#include "runtime/session.hpp"
#include "support/clock.hpp"
#include "viz/metrics.hpp"

namespace sage::serve {

/// Per-tenant admission limits. Zero means unlimited.
struct TenantQuota {
  /// Max requests of this tenant in flight at once, measured in virtual
  /// time (admitted requests whose finish time lies beyond the new
  /// arrival). Exceeding it sheds with Admission::kTenantQuota.
  int max_in_flight = 0;
  /// Lifetime cap on admitted requests for this tenant.
  std::uint64_t max_requests = 0;
};

struct ServerOptions {
  /// Scheduler worker threads realizing the execution plan (>= 1).
  int workers = 2;
  /// Fleet cap: warm sessions per registered program. Fleets start at
  /// one session (created and calibrated at add_program) and grow
  /// lazily, one session at a time, when a request arrives while every
  /// existing session is busy in virtual time.
  int max_sessions_per_program = 2;
  /// Admission bound: a request that would find this many admitted
  /// requests still waiting (virtually queued, not yet started) is shed
  /// with Admission::kQueueFull instead of queued.
  int max_queue_depth = 64;
  /// Data sets streamed once per program at registration to calibrate
  /// the steady-state period used by the virtual-time accounting.
  int calibration_sets = 4;
  /// Replay hooks: when both are positive the measuring calibration is
  /// skipped and every fleet's virtual-time model is pinned to these
  /// values (solo latency / streamed period, virtual seconds). Measured
  /// calibration rides thread-CPU time and so jitters run to run; a
  /// pinned model makes two servers driven by one arrival schedule
  /// agree bit-for-bit on every admission verdict and latency.
  support::VirtualSeconds calibration_latency = 0.0;
  support::VirtualSeconds calibration_period = 0.0;
  /// Base execution options for every fleet session (fabric model, cpu
  /// scales, iterations, plan-cache dir...). Callers going through
  /// core::Project should pass Project::resolved_options() so the
  /// hardware model's fabric/CPU derivation applies.
  runtime::ExecuteOptions execute;
};

/// The admission verdict carried by every ticket: rejects surface as
/// typed values, never as blocked callers.
enum class Admission : std::uint8_t {
  kAdmitted,
  kQueueFull,      // bounded queue exceeded: shed (overload)
  kTenantQuota,    // per-tenant quota exceeded: shed
  kUnknownProgram, // program fingerprint never registered
  kShutdown,       // server no longer accepting work
};

const char* to_string(Admission admission);

/// One client request: who is asking (tenant), when it arrives on the
/// open-loop virtual clock, and the per-run overrides to execute with.
struct RunRequest {
  std::string tenant = "default";
  /// Open-loop arrival timestamp in virtual seconds. Negative (the
  /// default) means "now": the latest arrival time seen so far, which
  /// makes closed-loop callers that never set it behave as one burst.
  support::VirtualSeconds arrival_vt = -1.0;
  runtime::RunOverrides overrides;
};

/// Handle to one submission. `admitted()` is the admission-control
/// verdict; only admitted tickets are redeemable via Server::wait.
struct ServeTicket {
  std::uint64_t id = 0;
  Admission admission = Admission::kAdmitted;

  bool admitted() const { return admission == Admission::kAdmitted; }
};

/// One completed request: the real run's stats plus the virtual-time
/// queueing facts the load harness reports.
struct Response {
  std::uint64_t id = 0;
  std::string tenant;
  /// Empty on success; the session error message otherwise.
  std::string error;
  runtime::RunStats stats;
  support::VirtualSeconds arrival_vt = 0.0;
  support::VirtualSeconds start_vt = 0.0;
  support::VirtualSeconds finish_vt = 0.0;
  /// True when the request started back-to-back behind another request
  /// on the same session (rode the shared streaming epoch).
  bool coalesced = false;
  /// Fleet slot index that served the request.
  int session_index = -1;

  bool ok() const { return error.empty(); }
  /// Modeled end-to-end latency: queueing + service, virtual seconds.
  support::VirtualSeconds latency_vt() const { return finish_vt - arrival_vt; }
  /// Modeled queueing delay alone.
  support::VirtualSeconds queue_vt() const { return start_vt - arrival_vt; }
};

struct TenantStats {
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;

  bool operator==(const TenantStats&) const = default;
};

/// Registration-time facts about one program's fleet, including the
/// calibration the virtual-time accounting runs on.
struct ProgramInfo {
  std::uint64_t key = 0;  // content-addressed fingerprint (plan-cache key)
  std::string name;
  /// Calibrated solo run time (virtual makespan of one request).
  support::VirtualSeconds solo_latency_vt = 0.0;
  /// Calibrated steady-state streamed period (virtual time between
  /// consecutive completions on one session's epoch).
  support::VirtualSeconds stream_period_vt = 0.0;
  int sessions = 0;     // fleet size right now
  int session_cap = 0;  // lazy-growth bound

  /// Offered load at which the fleet saturates: one completion per
  /// period per session once every pipeline is primed.
  double saturation_rate() const {
    return stream_period_vt > 0.0
               ? static_cast<double>(session_cap) / stream_period_vt
               : 0.0;
  }
};

struct ServerStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed_queue = 0;
  std::uint64_t shed_quota = 0;
  std::uint64_t shed_shutdown = 0;
  std::uint64_t shed_unknown = 0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  std::uint64_t coalesced = 0;
  int peak_queue_depth = 0;
  int sessions = 0;  // across all fleets
  std::map<std::string, TenantStats> tenants;

  std::uint64_t shed_total() const {
    return shed_queue + shed_quota + shed_shutdown + shed_unknown;
  }
};

/// The multi-tenant session service. See the file comment for the
/// scheduling model; lifecycle is construct -> add_program ->
/// submit/wait from any threads -> shutdown (or destruction).
class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Registers a compiled program under its content-addressed
  /// fingerprint and calibrates its fleet (one solo run + a short
  /// calibration stream on the first session). Returns the fingerprint
  /// key submissions name. Re-registering the same fingerprint is
  /// idempotent and returns the existing fleet's key. `session_cap`
  /// overrides options.max_sessions_per_program for this fleet.
  std::uint64_t add_program(std::string name,
                            std::shared_ptr<const runtime::CompiledProgram>
                                program,
                            const runtime::FunctionRegistry& registry,
                            std::optional<int> session_cap = {});

  /// Convenience: compile (or load through the plan cache when
  /// options.execute.plan_cache_dir is set) and register.
  std::uint64_t add_program(std::string name, runtime::GlueConfig config,
                            const runtime::FunctionRegistry& registry,
                            std::optional<int> session_cap = {});

  /// Installs (or replaces) a tenant's quota.
  void set_quota(const std::string& tenant, TenantQuota quota);

  /// Admission-controlled submission; never blocks behind execution.
  /// The returned ticket carries the typed verdict: on any shed the
  /// request was NOT enqueued and the ticket is not redeemable.
  ServeTicket submit(std::uint64_t program, RunRequest request = {});

  /// True when an admitted ticket has completed (wait will not block).
  /// Throws sage::RuntimeError for rejected, unknown, or
  /// already-collected tickets.
  bool poll(const ServeTicket& ticket) const;

  /// Blocks until the admitted ticket completes and returns its
  /// response (exactly-once redemption). Session-level failures come
  /// back in Response::error, not as exceptions; rejected, unknown, and
  /// already-collected tickets throw sage::RuntimeError.
  Response wait(const ServeTicket& ticket);

  /// Waits for every outstanding admitted request, in submission order.
  std::vector<Response> drain();

  /// Synchronous convenience: submit + wait. Throws sage::RuntimeError
  /// when the request is shed (the typed verdict is in the message).
  Response run(std::uint64_t program, RunRequest request = {});

  /// Admitted-but-uncollected requests.
  int in_flight() const;

  ProgramInfo program_info(std::uint64_t program) const;
  std::vector<ProgramInfo> programs() const;
  ServerStats stats() const;

  /// Snapshot of the serve metric families (sage_serve_queue_depth,
  /// sage_serve_admitted_total{tenant=}, sage_serve_shed_total{tenant=,
  /// reason=}, sage_serve_latency_seconds, ...). Feed viz::report /
  /// viz::prometheus_text like any session snapshot.
  viz::MetricsSnapshot metrics() const;

  const ServerOptions& options() const { return options_; }

  /// Graceful shutdown: stops admitting (further submits shed with
  /// Admission::kShutdown), lets the workers finish every admitted
  /// request, and joins them. Uncollected responses stay redeemable
  /// through wait()/drain(). Idempotent; the destructor calls it.
  void shutdown();

 private:
  struct Pending;
  struct Slot;
  struct Fleet;

  Slot* claim_locked_();
  void grow_fleet_locked_(Fleet& fleet);
  void worker_();
  void complete_locked_(Pending& pending);
  int waiting_at_locked_(support::VirtualSeconds arrival) const;
  int tenant_in_flight_at_locked_(const std::string& tenant,
                                  support::VirtualSeconds arrival) const;
  ServeTicket shed_locked_(const std::string& tenant, Admission reason);
  int admitted_series_locked_(const std::string& tenant);
  int shed_series_locked_(const std::string& tenant, Admission reason);
  void calibrate_(Fleet& fleet);

  ServerOptions options_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers: new request / shutdown
  std::condition_variable done_cv_;  // clients: request completed

  std::vector<std::unique_ptr<Fleet>> fleets_;
  std::map<std::uint64_t, std::size_t> fleet_by_key_;
  std::map<std::string, TenantQuota> quotas_;

  /// Admitted requests by id (monotone -> submission-ordered map).
  std::map<std::uint64_t, std::shared_ptr<Pending>> pending_;

  /// Virtual-time marks of every admitted request, for the queue-depth
  /// and quota counts (tenant, start, finish).
  struct Mark {
    std::string tenant;
    support::VirtualSeconds start_vt = 0.0;
    support::VirtualSeconds finish_vt = 0.0;
  };
  std::vector<Mark> marks_;
  support::VirtualSeconds last_arrival_vt_ = 0.0;

  std::uint64_t next_id_ = 1;
  bool accepting_ = true;  // flips at shutdown: submits shed kShutdown
  bool stopping_ = false;  // workers exit once queues are empty
  ServerStats stats_;

  // Serve metric families. Every write and snapshot happens under mu_.
  viz::MetricsRegistry metrics_;
  int queue_depth_id_ = -1;
  int sessions_total_id_ = -1;
  int coalesced_id_ = -1;
  int completed_id_ = -1;
  int errors_id_ = -1;
  int latency_hist_id_ = -1;
  int queue_hist_id_ = -1;
  std::map<std::string, int> admitted_ids_;                 // by tenant
  std::map<std::pair<std::string, std::string>, int> shed_ids_;
  std::map<std::uint64_t, int> fleet_session_ids_;          // by program key

  std::vector<std::thread> workers_;
};

}  // namespace sage::serve

namespace sage::runtime {
/// The service front end lives in sage::serve; this alias keeps the
/// runtime-layer spelling working for callers that reach it from the
/// executor side.
using Server = serve::Server;
}  // namespace sage::runtime
