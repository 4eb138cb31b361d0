// openSAGE -- warm run-time sessions: the executor layer.
//
// The paper's run-time kernel is a long-lived resident service: "the
// SAGE run-time kernel is responsible for all sequencing of functions,
// data striping, and buffer management." A Session reproduces that
// shape -- but planning and execution are separate layers:
//
//   runtime::Compiler  lowers a GlueConfig + registry into an immutable
//                      runtime::CompiledProgram (one-time planning);
//   runtime::Session   executes a shared_ptr<const CompiledProgram>,
//                      owning only mutable state: one staging arena
//                      and logical-buffer scratch per node (laid out
//                      by runtime::plan_node_memory), the emulated
//                      machine (one parked host thread per node), the
//                      metrics registry, and per-run parameters.
//
// N concurrent sessions can execute one program; the content-addressed
// plan cache (see compiler.hpp) lets a warm process restart skip the
// planner entirely. Repeated run() calls pay only a per-run state
// reset: node threads are woken instead of re-spawned, and buffer
// memory is reused instead of reallocated -- the separation of a
// one-time compile/allocate phase from cheap repeated invocations
// (cf. DaCe's stateful dataflow graphs).
//
// Buffer management policies reproduce the paper's observation that the
// runtime "assigns unique logical buffers to the data per function which
// can cause extra data access times":
//   kUniquePerFunction -- every transfer stages through the logical
//                         buffer's own storage (the shipped behaviour);
//   kShared            -- transfers move straight from producer staging
//                         to message/consumer staging (the planned
//                         "90% of hand-coded" improvement).
//
// Streaming: the paper's Table 1 separates *period* (time between data
// sets) from *latency* (time through the chain). Session::submit()
// opens that gap: consecutive submissions overlap inside one machine
// *epoch* -- one dispatch of the node threads spanning many tickets --
// with credit-based flow control (ring bounds computed by the compiler,
// see TransferOp::ring_depth) keeping every producer at most k
// iterations ahead of its consumers. The steady-state period is then
// set by the slowest stage, not the whole chain. run() is a thin
// synchronous wrapper over submit()+wait().
//
// Lifecycle: create -> run()/submit()* -> close (or destruction). Each
// synchronous run is bit-equivalent to a cold run: virtual clocks
// restart at zero, the fabric is drained and its totals zeroed,
// trace buffers and result series are cleared, and every ticket starts
// with zeroed staging wherever a kernel can read before the ticket
// writes (see memory_plan.hpp). Overlapped submissions keep
// bit-identical *results* (checksums) -- flow-control traffic and
// virtual times may differ from the sequential schedule, and
// fabric/pool counters are epoch-cumulative at collection time.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/fault.hpp"
#include "net/machine.hpp"
#include "runtime/glue_config.hpp"
#include "runtime/program.hpp"
#include "runtime/registry.hpp"
#include "support/error.hpp"
#include "viz/metrics.hpp"
#include "viz/trace.hpp"

namespace sage::runtime {

enum class BufferPolicy { kUniquePerFunction, kShared };

std::string to_string(BufferPolicy policy);

/// The unified execution option set, shared by runtime::Session and the
/// core::Project facade (which derives the fabric model and CPU scales
/// from the hardware model for any field left unset).
struct ExecuteOptions {
  BufferPolicy buffer_policy = BufferPolicy::kUniquePerFunction;
  /// Iterations per run; -1 uses the config's iterations-default.
  int iterations = -1;
  /// Collect a Visualizer trace (small overhead in host time only; probe
  /// costs are excluded from virtual time).
  bool collect_trace = true;
  /// Collect the always-on metrics (per-function busy time and
  /// invocations, per-link fabric traffic, iteration latency histogram,
  /// fault counters) into RunStats::metrics. Cheaper than tracing --
  /// fixed-size accumulators instead of per-event records -- and like
  /// probes the cost lands in host time only, never in virtual time.
  bool collect_metrics = true;
  /// Latency threshold monitor: iterations whose end-to-end latency
  /// exceeds this are counted in the sage_latency_violations_total
  /// metric (the paper's "violated latency thresholds"). 0 disables.
  support::VirtualSeconds latency_threshold = 0.0;
  /// Interconnect model. Unset: the Project facade derives it from the
  /// hardware model; a bare Session falls back to the CSPI-like
  /// net::myrinet_fabric().
  std::optional<net::FabricModel> fabric;
  /// Per-node CPU scale (empty: the Project facade derives from the
  /// hardware model; a bare Session uses 1.0 everywhere).
  std::vector<double> cpu_scales;
  /// Which mechanism carries fabric messages (see net/transport.hpp):
  /// the in-process zero-copy path (default), shared-memory rings
  /// between forked node processes. The compiled program, flow
  /// control, and fault verdicts are transport-blind -- results are
  /// bit-identical across backends.
  net::TransportOptions transport;
  /// Host wall-clock budget for each blocking receive; expired waits
  /// throw sage::CommError (schedule bugs surface as failures, not
  /// hangs).
  double recv_timeout_s = 60.0;
  /// Physical-buffer depth per logical-buffer channel: a producer may
  /// run at most this many iterations ahead of its consumer (credit
  /// flow control). For synchronous run()s, 0 = unbounded (pipelining
  /// limited only by the schedule); for streamed submissions, 0 = use
  /// each channel's compiler-computed static bound
  /// (TransferOp::ring_depth). Models the finite physical buffers the
  /// paper's runtime allocated per logical buffer.
  int buffer_depth = 0;
  /// Content-addressed plan-cache directory. Non-empty: Session::create
  /// (from a GlueConfig) consults `<dir>/<fingerprint>.plan` before
  /// compiling, and stores freshly compiled programs there. Empty (the
  /// default): compile directly, no disk access. Irrelevant when the
  /// session is constructed from an already-compiled program.
  std::string plan_cache_dir;
  /// Deterministic fault schedule (see net/fault.hpp). nullptr or an
  /// empty (inactive) plan leaves every run bit-identical to today's
  /// fault-free path. An active plan switches remote transfers --
  /// including flow-control credits -- onto the framed reliable path
  /// (checksummed frames, per-transfer loss detection, bounded
  /// retransmits with exponential virtual-time backoff); plans naming
  /// dead nodes trigger a degraded-mode remap before the run (see
  /// Session::recover()).
  std::shared_ptr<const net::FaultPlan> fault_plan;
};

/// Fault-injection and recovery counters for one run. All counters are
/// deterministic for a given (config, plan, seed): they depend only on
/// the plan's counter-mode draws and the per-link message order, never
/// on host timing.
struct FaultStats {
  /// Faults injected by the fabric (sender side).
  std::uint64_t injected_drops = 0;
  std::uint64_t injected_corruptions = 0;
  std::uint64_t injected_delays = 0;
  /// Retransmit attempts issued after a detected loss/corruption.
  std::uint64_t retries = 0;
  /// Loss-detection timeouts waited out by receivers (drop tombstones).
  std::uint64_t timeouts = 0;
  /// Frames rejected by receivers (corruption caught by checksum/flag).
  std::uint64_t corruptions_detected = 0;
  /// Modeled node stalls applied at iteration boundaries.
  std::uint64_t stalls = 0;
  /// Nodes the session is running without (degraded mode).
  int degraded_nodes = 0;

  bool operator==(const FaultStats&) const = default;
};

/// Data-plane accounting for one run. `bytes_copied`/`bytes_moved` are
/// derived from the compiled transfer program (which ops ran, at which
/// policy) and are fully deterministic; the buffer-pool counters depend
/// on host-thread interleaving, so they are reported here and as
/// time-based metrics but never enter the deterministic snapshot subset.
struct DataPlaneStats {
  /// Bytes memcpy'd on the host inside the data plane (packs, unpacks,
  /// logical-buffer stagings, local deliveries; each pass counted).
  std::uint64_t bytes_copied = 0;
  /// Payload bytes handed to the fabric by handle (the wire traffic the
  /// zero-copy path moves without extra host passes).
  std::uint64_t bytes_moved = 0;
  /// Buffer-pool activity during this run (per-run deltas).
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  /// Pool footprint at the end of the run (cumulative for the session).
  std::uint64_t pool_blocks = 0;
  std::uint64_t pool_bytes_reserved = 0;

  bool operator==(const DataPlaneStats&) const = default;
};

struct RunStats {
  int iterations = 0;
  /// Modeled end-to-end run time (max final node virtual time).
  support::VirtualSeconds makespan = 0.0;
  /// Per-iteration latency: source start -> sink end, virtual seconds.
  std::vector<support::VirtualSeconds> latencies;
  /// Mean time between consecutive iteration completions.
  support::VirtualSeconds period = 0.0;
  /// Sum of kernel-reported results per function per iteration
  /// (function name -> one value per iteration), e.g. sink checksums.
  std::map<std::string, std::vector<double>> results;
  /// Merged Visualizer trace (empty when collect_trace is false).
  viz::Trace trace;
  /// Merged metrics snapshot (empty when collect_metrics is false).
  /// Export with viz::prometheus_text / viz::metrics_csv / viz::report;
  /// metrics.deterministic_subset() is bit-identical across cold runs,
  /// warm re-runs, and fresh sessions.
  viz::MetricsSnapshot metrics;
  /// Fabric totals for the whole run (data messages + flow-control
  /// credits).
  std::uint64_t fabric_messages = 0;
  std::uint64_t fabric_bytes = 0;
  /// Host wall-clock cost of this run() call -- the cold-start vs
  /// warm-run comparison the bench harness reports. Virtual time is
  /// unaffected.
  double host_seconds = 0.0;
  /// Fault-injection and recovery counters (all zero without an active
  /// fault plan).
  FaultStats faults;
  /// Zero-copy data-plane accounting (see DataPlaneStats).
  DataPlaneStats data_plane;
  /// Ticket id this stats object answers (0 for pre-streaming callers
  /// that never see tickets -- run() fills it in too).
  std::uint64_t ticket = 0;
  /// Achieved streaming period: virtual time between this ticket's
  /// completion and the previous ticket's completion inside one epoch.
  /// 0 when the ticket opened its epoch (first submission, or any
  /// synchronous run()) -- the steady-state measure only exists once
  /// the pipeline is primed.
  support::VirtualSeconds stream_period = 0.0;
  /// Virtual time from the first node starting this ticket to its
  /// completion: the ticket's latency through the machine, all
  /// iterations included.
  support::VirtualSeconds span = 0.0;
  /// Per-stage occupancy: each function's kernel-busy virtual seconds
  /// (summed over threads) divided by (ticket span x thread count) --
  /// the fraction of the stage's capacity this data set used. Near 1.0
  /// identifies the stage that sets the steady-state period.
  std::map<std::string, double> occupancy;

  support::VirtualSeconds mean_latency() const;
};

/// The per-run-overridable parameter subset, in optional form: a field
/// left unset inherits the session's ExecuteOptions value. One struct
/// serves both the streaming submit() surface and the synchronous
/// run() wrapper; ExecuteOptions carries the same fields in plain
/// resolved form.
struct RunOverrides {
  /// Iterations for this run; 0 inherits the session default.
  int iterations = 0;
  std::optional<BufferPolicy> buffer_policy;
  std::optional<bool> collect_trace;
  std::optional<bool> collect_metrics;
  std::optional<support::VirtualSeconds> latency_threshold;
  /// Per-submission flow-control depth; unset inherits the session's
  /// buffer_depth (see its streaming-vs-synchronous semantics).
  std::optional<int> buffer_depth;
  /// Per-run fault plan; unset inherits the session's plan, an explicit
  /// nullptr disables faults for this run.
  std::optional<std::shared_ptr<const net::FaultPlan>> fault_plan;
};

/// Handle to one streamed submission; redeem with Session::poll /
/// Session::wait. Value-semantic and cheap (an id).
struct Ticket {
  std::uint64_t id = 0;
};

/// What Session::recover() did.
struct RecoveryReport {
  /// Ranks excluded by this recovery call.
  std::vector<int> dead_nodes;
  /// Function threads moved off dead nodes onto survivors.
  int moved_threads = 0;
};

/// A persistent executor over the emulated machine, driving one
/// immutable CompiledProgram. Thread compatibility: drive one Session
/// from one host thread at a time; any number of Sessions may share one
/// program concurrently (the program is read-only).
class Session {
 public:
  /// Compatibility constructor, semantics unchanged from the monolithic
  /// Session: compiles `config` (consulting the plan cache when
  /// `options.plan_cache_dir` is set), binds every kernel, pre-allocates
  /// all buffers, and spawns the (parked) node threads; throws
  /// sage::ConfigError / sage::RuntimeError on inconsistency.
  Session(GlueConfig config, const FunctionRegistry& registry,
          ExecuteOptions options = {});

  /// Executor constructor: attach to an already-compiled program
  /// (shared; the session takes a reference, never a copy). Binds
  /// kernels against `registry` and builds only this session's mutable
  /// state.
  Session(std::shared_ptr<const CompiledProgram> program,
          const FunctionRegistry& registry, ExecuteOptions options = {});

  /// Non-throwing counterparts: config problems come back as an error
  /// message instead of an exception (for validators and CLIs).
  static Result<std::unique_ptr<Session>> create(
      GlueConfig config, const FunctionRegistry& registry,
      ExecuteOptions options = {});
  static Result<std::unique_ptr<Session>> create(
      std::shared_ptr<const CompiledProgram> program,
      const FunctionRegistry& registry, ExecuteOptions options = {});

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  ~Session();

  /// The program this session executes. After recover() this is a
  /// session-private recompile; until then it may be shared with other
  /// sessions.
  const CompiledProgram& program() const { return *program_; }
  std::shared_ptr<const CompiledProgram> program_ptr() const {
    return program_;
  }

  const GlueConfig& config() const { return program_->config; }
  const ExecuteOptions& options() const { return options_; }

  /// Executes one run on the warm machine and reports its stats.
  /// Synchronous wrapper over submit()+wait(): quiesces any in-flight
  /// streaming work first, so every run() stays bit-equivalent to a
  /// cold run.
  RunStats run(const RunOverrides& request = {});

  // --- streaming ------------------------------------------------------------
  /// Enqueues one data-set run and returns immediately with a ticket.
  /// Consecutive submissions overlap: all tickets of one epoch execute
  /// on a single machine dispatch with epoch-continuous virtual clocks,
  /// and credit flow control (explicit buffer_depth, or the compiled
  /// per-channel ring_depth when the resolved depth is 0) lets a
  /// producer run iteration i+k while its consumer finishes i. A new
  /// epoch starts -- with the full cold-equivalent reset -- whenever
  /// submit() finds the pipeline idle; a submission whose resolved
  /// fault plan or depth differs from the active epoch's quiesces the
  /// epoch first. Results are bit-identical to back-to-back run()s;
  /// fabric totals and pool counters in the returned stats are
  /// epoch-cumulative at collection time.
  Ticket submit(const RunOverrides& request = {});

  /// True when `ticket` has finished executing (wait() will not block).
  /// A ticket already redeemed by wait()/drain() is *collected*, not
  /// pending: polling it throws the same "unknown or already-collected
  /// ticket" sage::RuntimeError as wait() would (pinned in
  /// streaming_test.cpp) -- completion state lives exactly as long as
  /// the ticket is redeemable.
  /// Throws sage::RuntimeError for unknown or already-collected ids.
  bool poll(Ticket ticket) const;

  /// Blocks until `ticket` completes and returns its stats. Each ticket
  /// is redeemable exactly once; node errors surface here (first
  /// erroring rank wins, matching Machine::run). Collect tickets in
  /// submission order for deterministic metrics snapshots.
  RunStats wait(Ticket ticket);

  /// Waits for every outstanding ticket, in submission order. With zero
  /// tickets in flight this is a documented no-op returning an empty
  /// vector -- it does not throw, block, or disturb the active epoch
  /// (the epoch stays open for further compatible submissions).
  std::vector<RunStats> drain();

  /// Submitted-but-not-yet-collected tickets.
  int in_flight() const;

  /// Number of completed (collected) runs since construction.
  int runs_completed() const { return runs_completed_; }

  /// Degraded-mode recovery: marks `dead_ranks` dead and deterministically
  /// moves every function thread mapped there onto the least-loaded
  /// surviving node (ties to the lowest rank), rebuilds the per-node
  /// schedules in function-id order (matching the code generator's
  /// emission), revalidates the config, compiles a session-private
  /// replacement program for the new placement (a shared program is
  /// immutable -- co-executors are unaffected), and reallocates
  /// node-local buffers. The emulated machine keeps its size; dead nodes
  /// simply receive no work. Idempotent per rank; throws
  /// sage::RuntimeError if no survivor would remain. Runs whose fault
  /// plan names dead nodes invoke this automatically.
  RecoveryReport recover(const std::vector<int>& dead_ranks);

  /// Ranks currently excluded by recover() (sorted).
  const std::vector<int>& dead_nodes() const { return dead_nodes_; }

  /// Online-tuning hot-swap: replaces the executing program with `next`,
  /// which must describe the same application on the same machine --
  /// identical node count and an identical function table (names,
  /// kernels, thread counts, ids) -- differing only in placement
  /// (thread_nodes / schedules / transfer program). Placements naming
  /// ranks recover() has marked dead are rejected. Uses the same
  /// quiesce-and-swap machinery as recover(): the active epoch drains
  /// (every queued ticket lands; uncollected tickets stay redeemable
  /// across the swap), node-local staging is reallocated, and the
  /// buffer pool is re-prewarmed for the new placement. Kernel bindings
  /// and metric series carry over (both are keyed by function id).
  ///
  /// Unlike the rest of the Session surface this call MAY come from a
  /// second thread (the tuner thread): while a swap is in flight the
  /// owning host thread must limit itself to poll()/wait()/drain() --
  /// submit()/run()/recover() may only resume after the swap returns.
  void swap_program(std::shared_ptr<const CompiledProgram> next);

  /// The live fabric under this session (test hook: transport kind and
  /// node_pid for kill -9 drills). Throws sage::RuntimeError once
  /// closed.
  net::Fabric& fabric();

  /// Parks down the emulated machine (joins node threads). Further run()
  /// calls throw sage::RuntimeError. Idempotent; the destructor closes
  /// implicitly.
  void close();
  bool closed() const { return machine_ == nullptr; }

 private:
  /// One node's lowered steps, arena, scratch and bound kernel
  /// contexts (session.cpp), rebuilt whenever the program changes.
  struct NodeState;
  struct StreamTicket;
  /// Per-ticket resolved execution parameters (RunOverrides folded over
  /// ExecuteOptions; the single resolution point for both surfaces).
  struct TicketParams {
    int iterations = 0;
    BufferPolicy policy = BufferPolicy::kUniquePerFunction;
    bool trace = true;
    bool metrics = true;
    support::VirtualSeconds threshold = 0.0;
    int depth = 0;  // resolved explicit depth (0: ring bounds / off)
    std::shared_ptr<const net::FaultPlan> plan;
  };

  TicketParams resolve_(const RunOverrides& request) const;
  Ticket submit_(const RunOverrides& request, bool streaming);
  void begin_epoch_(const TicketParams& params, bool streaming);
  /// Waits for all queued tickets, parks the epoch, and joins the
  /// machine dispatch. Uncollected tickets stay redeemable.
  void end_epoch_();
  /// One node's worker loop for an epoch: pulls tickets in submission
  /// order and executes this node's share of each.
  void stream_worker_(net::NodeContext& node);
  /// Runs one stage of iteration `iter` of `ticket` on `node`: a range
  /// of the node's lowered steps (see lower_node), the head [0, head)
  /// -- opening the ticket and the iteration -- or the tail. Each step
  /// receives, fires, delivers or sends; credits ride inside the
  /// receive and send steps. `credit` caches the node's flow-control
  /// credit block.
  enum class Stage { kHead, kTail };
  void run_node_ticket_(net::NodeContext& node, StreamTicket& ticket,
                        int iter, Stage stage, net::Payload& credit);
  /// The flow-control depth of `op` in the active epoch (0: unbounded).
  int op_depth_(const TransferOp& op) const;
  /// Host-side collection: aggregates a completed ticket into RunStats
  /// (latencies, results, trace merge, metrics fold + snapshot). Reads
  /// the program through the caller-captured pointer, never program_
  /// directly: a tuner-thread swap_program() may retarget program_
  /// while the host thread is still collecting a pre-swap ticket.
  RunStats collect_(StreamTicket& ticket, const CompiledProgram& program);
  void reset_between_runs_();
  /// Lowers every node's share of the program once, lays out its
  /// staging arena and logical-buffer scratch from the memory plan of
  /// those steps, allocates them for overwrite, and binds each firing's
  /// kernel contexts.
  void allocate_states_();
  /// Tops the fabric's buffer pool up to the steady-state working set of
  /// the compiled program, so even a first run stays allocation-free on
  /// credit-bounded channels.
  void prewarm_pool_();

  /// The immutable plan this executor drives. Replaced only by
  /// recover() (private recompile) and swap_program() (online tuning);
  /// everything else reads through it. Writes and the host-side read in
  /// wait() happen under stream_mu_ because swap_program() may run on a
  /// tuner thread.
  std::shared_ptr<const CompiledProgram> program_;
  ExecuteOptions options_;
  std::vector<Kernel> kernels_;        // by function id
  std::vector<OutputAccess> access_;  // by function id, for the planner

  std::unique_ptr<net::Machine> machine_;
  std::vector<std::unique_ptr<NodeState>> states_;

  // Always-on metrics, declared by the table in session.cpp. The
  // function and scalar rows are defined at construction, per-link and
  // plan-cache series on first sight, so series ids -- and therefore
  // snapshot order -- are stable across warm runs; values are zeroed by
  // reset_between_runs_(). Written and snapshotted on the host thread
  // only, during collection.
  viz::MetricsRegistry metrics_;
  std::vector<int> metric_ids_;  // function then scalar rows, row order
  /// Pool counters at epoch start (collection-time deltas for
  /// DataPlaneStats; exact per run on the synchronous path, cumulative
  /// under overlap).
  net::BufferPoolStats pool_mark_;

  // --- streaming epoch state ------------------------------------------------
  // One epoch = one Machine::dispatch spanning >= 1 tickets. The host
  // thread (submit/wait/drain -- Sessions stay single-host-threaded)
  // owns epoch boundaries; node workers and the host meet on stream_mu_.
  mutable std::mutex stream_mu_;
  // Workers: new ticket, demanded ticket, close. poll() demands too.
  mutable std::condition_variable stream_cv_;
  std::condition_variable stream_done_cv_;  // host: ticket completion
  std::vector<std::shared_ptr<StreamTicket>> epoch_tickets_;
  std::map<std::uint64_t, std::shared_ptr<StreamTicket>> tickets_;
  net::Machine::NodeProgram epoch_program_;  // alive across the dispatch
  bool epoch_active_ = false;
  bool epoch_closing_ = false;
  bool epoch_failed_ = false;
  /// Epoch-wide execution parameters (fabric-level state that cannot
  /// change between overlapped tickets).
  bool epoch_streaming_ = false;  // ring-depth defaults + period stats
  bool epoch_faulty_ = false;
  int epoch_depth_ = 0;
  std::shared_ptr<const net::FaultPlan> epoch_plan_;
  std::uint64_t next_ticket_id_ = 1;

  // Degraded-mode state: ranks excluded by recover(), and a pending
  // report to surface as kRecovery trace events on the next run.
  std::vector<int> dead_nodes_;
  std::vector<RecoveryReport> pending_recoveries_;

  int runs_completed_ = 0;
};

}  // namespace sage::runtime
