#include "serve/server.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "runtime/compiler.hpp"
#include "support/error.hpp"

namespace sage::serve {

const char* to_string(Admission admission) {
  switch (admission) {
    case Admission::kAdmitted: return "admitted";
    case Admission::kQueueFull: return "queue-full";
    case Admission::kTenantQuota: return "tenant-quota";
    case Admission::kUnknownProgram: return "unknown-program";
    case Admission::kShutdown: return "shutdown";
  }
  return "?";
}

/// One admitted request flowing through the scheduler. The admission
/// path fills the virtual-time plan; a worker fills the execution
/// outcome and flips `done` under the server lock.
struct Server::Pending {
  std::uint64_t id = 0;
  std::string tenant;
  runtime::RunOverrides overrides;
  support::VirtualSeconds arrival_vt = 0.0;
  support::VirtualSeconds start_vt = 0.0;
  support::VirtualSeconds finish_vt = 0.0;
  bool coalesced = false;
  int session_index = -1;
  std::uint64_t fleet_key = 0;

  bool done = false;
  std::string error;
  runtime::RunStats stats;
};

/// One warm session of a fleet. `active` marks a worker currently
/// driving the session (Sessions are single-host-threaded); the queue
/// holds admitted requests planned onto this slot, in arrival order.
struct Server::Slot {
  std::unique_ptr<runtime::Session> session;
  support::VirtualSeconds busy_until = 0.0;
  std::deque<std::shared_ptr<Pending>> queue;
  bool active = false;
};

struct Server::Fleet {
  std::uint64_t key = 0;
  std::string name;
  std::shared_ptr<const runtime::CompiledProgram> program;
  runtime::FunctionRegistry registry;
  runtime::ExecuteOptions options;
  int cap = 1;
  support::VirtualSeconds latency_vt = 0.0;
  support::VirtualSeconds period_vt = 0.0;
  std::vector<std::unique_ptr<Slot>> slots;
};

namespace {

/// Latency/queueing histogram bounds: decades from 100us to 10s, the
/// range the emulated platforms' virtual run times live in.
std::vector<double> latency_buckets() {
  return {1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2,
          5e-2, 1e-1, 2.5e-1, 5e-1, 1.0, 2.5, 5.0, 10.0};
}

std::string hex_key(std::uint64_t key) {
  std::ostringstream os;
  os << std::hex << key;
  return os.str();
}

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {
  SAGE_CHECK_AS(RuntimeError, options_.workers >= 1,
                "Server needs at least one worker, got ", options_.workers);
  SAGE_CHECK_AS(RuntimeError, options_.max_sessions_per_program >= 1,
                "Server needs a session cap >= 1, got ",
                options_.max_sessions_per_program);
  SAGE_CHECK_AS(RuntimeError, options_.max_queue_depth >= 0,
                "Server needs a queue bound >= 0, got ",
                options_.max_queue_depth);

  queue_depth_id_ = metrics_.gauge(
      viz::families::kServeQueueDepth,
      "Peak number of admitted requests waiting (virtually queued)");
  sessions_total_id_ = metrics_.gauge(
      viz::families::kServeSessions, "Warm sessions across all fleets");
  coalesced_id_ = metrics_.counter(
      viz::families::kServeCoalesced,
      "Requests that rode an already-streaming session epoch");
  completed_id_ = metrics_.counter(viz::families::kServeCompleted,
                                   "Requests completed by the fleet");
  errors_id_ = metrics_.counter(viz::families::kServeErrors,
                                "Requests that failed in execution");
  latency_hist_id_ = metrics_.histogram(
      viz::families::kServeLatency,
      "End-to-end request latency (queueing + service, virtual seconds)",
      latency_buckets());
  queue_hist_id_ = metrics_.histogram(
      viz::families::kServeQueueSeconds,
      "Queueing delay before service (virtual seconds)", latency_buckets());

  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this] { worker_(); });
  }
}

Server::~Server() { shutdown(); }

void Server::calibrate_(Fleet& fleet) {
  if (options_.calibration_latency > 0.0 &&
      options_.calibration_period > 0.0) {
    fleet.latency_vt = options_.calibration_latency;
    fleet.period_vt =
        std::min(options_.calibration_period, options_.calibration_latency);
    return;
  }
  // The fleet's first session doubles as the calibration bench: one
  // solo run pins the unloaded latency, a short stream pins the
  // steady-state period. Both are virtual times, so the calibration --
  // and everything the admission model derives from it -- is
  // deterministic and machine-independent.
  Slot& slot = *fleet.slots.front();
  const runtime::RunStats solo = slot.session->run();
  fleet.latency_vt = solo.makespan;

  double period_sum = 0.0;
  int period_count = 0;
  std::vector<runtime::Ticket> tickets;
  tickets.reserve(static_cast<std::size_t>(options_.calibration_sets));
  for (int i = 0; i < options_.calibration_sets; ++i) {
    tickets.push_back(slot.session->submit());
  }
  for (const runtime::Ticket ticket : tickets) {
    const runtime::RunStats stats = slot.session->wait(ticket);
    if (stats.stream_period > 0.0) {
      period_sum += stats.stream_period;
      ++period_count;
    }
  }
  fleet.period_vt =
      period_count > 0 ? period_sum / period_count : fleet.latency_vt;
  // A period beyond the solo latency means the "pipeline" serializes;
  // clamp so the model never claims coalescing is slower than solo.
  fleet.period_vt = std::min(fleet.period_vt, fleet.latency_vt);
}

std::uint64_t Server::add_program(
    std::string name, std::shared_ptr<const runtime::CompiledProgram> program,
    const runtime::FunctionRegistry& registry,
    std::optional<int> session_cap) {
  SAGE_CHECK_AS(RuntimeError, program != nullptr,
                "add_program needs a program");
  const std::uint64_t key = program->fingerprint;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = fleet_by_key_.find(key);
    if (it != fleet_by_key_.end()) return key;  // idempotent
  }

  // Build and calibrate the fleet's first session outside the lock --
  // machine spawn and the calibration stream are the expensive part,
  // and the fleet is invisible to submissions until registered below.
  auto fleet = std::make_unique<Fleet>();
  fleet->key = key;
  fleet->name = std::move(name);
  fleet->program = std::move(program);
  fleet->registry = registry;
  fleet->options = options_.execute;
  fleet->cap = std::max(1, session_cap.value_or(
                               options_.max_sessions_per_program));
  auto slot = std::make_unique<Slot>();
  slot->session = std::make_unique<runtime::Session>(fleet->program,
                                                     fleet->registry,
                                                     fleet->options);
  fleet->slots.push_back(std::move(slot));
  calibrate_(*fleet);

  std::lock_guard<std::mutex> lock(mu_);
  const auto it = fleet_by_key_.find(key);
  if (it != fleet_by_key_.end()) return key;  // raced: keep the first
  fleet_by_key_[key] = fleets_.size();
  fleet_session_ids_[key] = metrics_.gauge(
      viz::families::kServeSessions, "Warm sessions serving this program",
      {{"program", hex_key(key)}});
  metrics_.set(fleet_session_ids_[key], 1.0);
  ++stats_.sessions;
  metrics_.set(sessions_total_id_, static_cast<double>(stats_.sessions));
  fleets_.push_back(std::move(fleet));
  return key;
}

std::uint64_t Server::add_program(std::string name, runtime::GlueConfig config,
                                  const runtime::FunctionRegistry& registry,
                                  std::optional<int> session_cap) {
  std::shared_ptr<const runtime::CompiledProgram> program =
      runtime::compile_or_load(std::move(config), registry,
                               options_.execute.plan_cache_dir);
  return add_program(std::move(name), std::move(program), registry,
                     session_cap);
}

void Server::set_quota(const std::string& tenant, TenantQuota quota) {
  std::lock_guard<std::mutex> lock(mu_);
  quotas_[tenant] = quota;
}

int Server::waiting_at_locked_(support::VirtualSeconds arrival) const {
  int waiting = 0;
  for (const Mark& mark : marks_) {
    if (mark.start_vt > arrival) ++waiting;
  }
  return waiting;
}

int Server::tenant_in_flight_at_locked_(
    const std::string& tenant, support::VirtualSeconds arrival) const {
  int in_flight = 0;
  for (const Mark& mark : marks_) {
    if (mark.tenant == tenant && mark.finish_vt > arrival) ++in_flight;
  }
  return in_flight;
}

int Server::admitted_series_locked_(const std::string& tenant) {
  const auto it = admitted_ids_.find(tenant);
  if (it != admitted_ids_.end()) return it->second;
  const int id = metrics_.counter(viz::families::kServeAdmitted,
                                  "Requests admitted past admission control",
                                  {{"tenant", tenant}});
  admitted_ids_[tenant] = id;
  return id;
}

int Server::shed_series_locked_(const std::string& tenant, Admission reason) {
  const auto key = std::make_pair(tenant, std::string(to_string(reason)));
  const auto it = shed_ids_.find(key);
  if (it != shed_ids_.end()) return it->second;
  const int id = metrics_.counter(
      viz::families::kServeShed, "Requests shed by admission control",
      {{"tenant", tenant}, {"reason", key.second}});
  shed_ids_[key] = id;
  return id;
}

ServeTicket Server::shed_locked_(const std::string& tenant,
                                 Admission reason) {
  ++stats_.submitted;
  ++stats_.tenants[tenant].shed;
  switch (reason) {
    case Admission::kQueueFull: ++stats_.shed_queue; break;
    case Admission::kTenantQuota: ++stats_.shed_quota; break;
    case Admission::kShutdown: ++stats_.shed_shutdown; break;
    case Admission::kUnknownProgram: ++stats_.shed_unknown; break;
    case Admission::kAdmitted: break;
  }
  metrics_.add(shed_series_locked_(tenant, reason), 1.0);
  ServeTicket ticket;
  ticket.id = next_id_++;
  ticket.admission = reason;
  return ticket;
}

void Server::grow_fleet_locked_(Fleet& fleet) {
  auto slot = std::make_unique<Slot>();
  slot->session = std::make_unique<runtime::Session>(fleet.program,
                                                     fleet.registry,
                                                     fleet.options);
  fleet.slots.push_back(std::move(slot));
  ++stats_.sessions;
  metrics_.set(sessions_total_id_, static_cast<double>(stats_.sessions));
  metrics_.set(fleet_session_ids_[fleet.key],
               static_cast<double>(fleet.slots.size()));
}

ServeTicket Server::submit(std::uint64_t program, RunRequest request) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!accepting_) return shed_locked_(request.tenant, Admission::kShutdown);
  const auto fleet_it = fleet_by_key_.find(program);
  if (fleet_it == fleet_by_key_.end()) {
    return shed_locked_(request.tenant, Admission::kUnknownProgram);
  }
  Fleet& fleet = *fleets_[fleet_it->second];

  const support::VirtualSeconds arrival =
      request.arrival_vt >= 0.0 ? request.arrival_vt : last_arrival_vt_;
  last_arrival_vt_ = std::max(last_arrival_vt_, arrival);

  // Quotas first: a tenant over its limits is shed before it can claim
  // queue space.
  const auto quota_it = quotas_.find(request.tenant);
  if (quota_it != quotas_.end()) {
    const TenantQuota& quota = quota_it->second;
    if (quota.max_requests > 0 &&
        stats_.tenants[request.tenant].admitted >= quota.max_requests) {
      return shed_locked_(request.tenant, Admission::kTenantQuota);
    }
    if (quota.max_in_flight > 0 &&
        tenant_in_flight_at_locked_(request.tenant, arrival) >=
            quota.max_in_flight) {
      return shed_locked_(request.tenant, Admission::kTenantQuota);
    }
  }

  // Bounded queue: shed instead of waiting behind a full backlog.
  const int waiting = waiting_at_locked_(arrival);
  if (waiting >= options_.max_queue_depth &&
      // A request that would start immediately occupies no queue slot.
      [&] {
        for (const auto& slot : fleet.slots) {
          if (slot->busy_until <= arrival) return false;
        }
        return static_cast<int>(fleet.slots.size()) >= fleet.cap;
      }()) {
    return shed_locked_(request.tenant, Admission::kQueueFull);
  }

  // Assignment: least-loaded warm session (min busy-until, ties to the
  // lowest slot), growing the fleet by one when everyone is busy at the
  // arrival instant and the cap allows.
  std::size_t chosen = 0;
  for (std::size_t s = 1; s < fleet.slots.size(); ++s) {
    if (fleet.slots[s]->busy_until < fleet.slots[chosen]->busy_until) {
      chosen = s;
    }
  }
  if (fleet.slots[chosen]->busy_until > arrival &&
      static_cast<int>(fleet.slots.size()) < fleet.cap) {
    grow_fleet_locked_(fleet);
    chosen = fleet.slots.size() - 1;
  }
  Slot& slot = *fleet.slots[chosen];

  auto pending = std::make_shared<Pending>();
  pending->id = next_id_++;
  pending->tenant = request.tenant;
  pending->overrides = request.overrides;
  pending->arrival_vt = arrival;
  pending->fleet_key = fleet.key;
  pending->session_index = static_cast<int>(chosen);
  if (slot.busy_until <= arrival) {
    // Idle start: the request opens (or re-opens) the pipeline and pays
    // the full solo latency.
    pending->start_vt = arrival;
    pending->finish_vt = arrival + fleet.latency_vt;
    pending->coalesced = false;
  } else {
    // Back-to-back start: the request rides the session's streaming
    // epoch and advances the clock by one steady-state period.
    pending->start_vt = slot.busy_until;
    pending->finish_vt = slot.busy_until + fleet.period_vt;
    pending->coalesced = true;
    ++stats_.coalesced;
    metrics_.add(coalesced_id_, 1.0);
  }
  slot.busy_until = pending->finish_vt;

  marks_.push_back(Mark{pending->tenant, pending->start_vt,
                        pending->finish_vt});
  ++stats_.submitted;
  ++stats_.admitted;
  ++stats_.tenants[pending->tenant].admitted;
  stats_.peak_queue_depth = std::max(
      stats_.peak_queue_depth,
      waiting + (pending->start_vt > pending->arrival_vt ? 1 : 0));
  metrics_.set(queue_depth_id_, static_cast<double>(stats_.peak_queue_depth));
  metrics_.add(admitted_series_locked_(pending->tenant), 1.0);
  metrics_.observe(latency_hist_id_,
                   pending->finish_vt - pending->arrival_vt);
  metrics_.observe(queue_hist_id_, pending->start_vt - pending->arrival_vt);

  ServeTicket ticket;
  ticket.id = pending->id;
  pending_[pending->id] = pending;
  slot.queue.push_back(std::move(pending));
  lock.unlock();
  work_cv_.notify_all();
  return ticket;
}

Server::Slot* Server::claim_locked_() {
  for (const auto& fleet : fleets_) {
    for (const auto& slot : fleet->slots) {
      if (!slot->active && !slot->queue.empty()) return slot.get();
    }
  }
  return nullptr;
}

void Server::complete_locked_(Pending& pending) {
  pending.done = true;
  ++stats_.completed;
  ++stats_.tenants[pending.tenant].completed;
  metrics_.add(completed_id_, 1.0);
  if (!pending.error.empty()) {
    ++stats_.errors;
    ++stats_.tenants[pending.tenant].errors;
    metrics_.add(errors_id_, 1.0);
  }
}

void Server::worker_() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    Slot* slot = nullptr;
    work_cv_.wait(lock, [&] {
      slot = claim_locked_();
      return stopping_ || slot != nullptr;
    });
    if (slot == nullptr) return;  // stopping, queues empty
    slot->active = true;
    while (!slot->queue.empty()) {
      // Take the whole backlog as one batch: every request submits onto
      // the session before the first wait, so the batch shares one
      // streaming epoch (the request-coalescing path).
      std::vector<std::shared_ptr<Pending>> batch(slot->queue.begin(),
                                                  slot->queue.end());
      slot->queue.clear();
      lock.unlock();

      std::vector<std::optional<runtime::Ticket>> tickets(batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        try {
          tickets[i] = slot->session->submit(batch[i]->overrides);
        } catch (const std::exception& e) {
          batch[i]->error = e.what();
        }
      }
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (tickets[i].has_value()) {
          try {
            batch[i]->stats = slot->session->wait(*tickets[i]);
          } catch (const std::exception& e) {
            batch[i]->error = e.what();
          }
        }
        std::lock_guard<std::mutex> done_lock(mu_);
        complete_locked_(*batch[i]);
        done_cv_.notify_all();
      }

      lock.lock();
    }
    slot->active = false;
  }
}

bool Server::poll(const ServeTicket& ticket) const {
  SAGE_CHECK_AS(RuntimeError, ticket.admitted(), "Server::poll on a ticket "
                "shed by admission control (", to_string(ticket.admission),
                ")");
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = pending_.find(ticket.id);
  SAGE_CHECK_AS(RuntimeError, it != pending_.end(),
                "Server::poll: unknown or already-collected ticket ",
                ticket.id);
  return it->second->done;
}

Response Server::wait(const ServeTicket& ticket) {
  SAGE_CHECK_AS(RuntimeError, ticket.admitted(), "Server::wait on a ticket "
                "shed by admission control (", to_string(ticket.admission),
                ")");
  std::shared_ptr<Pending> pending;
  {
    std::unique_lock<std::mutex> lock(mu_);
    const auto it = pending_.find(ticket.id);
    SAGE_CHECK_AS(RuntimeError, it != pending_.end(),
                  "Server::wait: unknown or already-collected ticket ",
                  ticket.id);
    pending = it->second;
    done_cv_.wait(lock, [&] { return pending->done; });
    pending_.erase(ticket.id);
  }
  Response response;
  response.id = pending->id;
  response.tenant = pending->tenant;
  response.error = pending->error;
  response.stats = std::move(pending->stats);
  response.arrival_vt = pending->arrival_vt;
  response.start_vt = pending->start_vt;
  response.finish_vt = pending->finish_vt;
  response.coalesced = pending->coalesced;
  response.session_index = pending->session_index;
  return response;
}

std::vector<Response> Server::drain() {
  std::vector<std::uint64_t> ids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ids.reserve(pending_.size());
    for (const auto& [id, pending] : pending_) ids.push_back(id);
  }
  std::vector<Response> all;
  all.reserve(ids.size());
  for (const std::uint64_t id : ids) {
    ServeTicket ticket;
    ticket.id = id;
    all.push_back(wait(ticket));
  }
  return all;
}

Response Server::run(std::uint64_t program, RunRequest request) {
  const ServeTicket ticket = submit(program, std::move(request));
  SAGE_CHECK_AS(RuntimeError, ticket.admitted(), "Server::run: request shed (",
                to_string(ticket.admission), ")");
  return wait(ticket);
}

int Server::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(pending_.size());
}

ProgramInfo Server::program_info(std::uint64_t program) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = fleet_by_key_.find(program);
  SAGE_CHECK_AS(RuntimeError, it != fleet_by_key_.end(),
                "program_info: unknown program ", program);
  const Fleet& fleet = *fleets_[it->second];
  ProgramInfo info;
  info.key = fleet.key;
  info.name = fleet.name;
  info.solo_latency_vt = fleet.latency_vt;
  info.stream_period_vt = fleet.period_vt;
  info.sessions = static_cast<int>(fleet.slots.size());
  info.session_cap = fleet.cap;
  return info;
}

std::vector<ProgramInfo> Server::programs() const {
  std::vector<std::uint64_t> keys;
  {
    std::lock_guard<std::mutex> lock(mu_);
    keys.reserve(fleets_.size());
    for (const auto& fleet : fleets_) keys.push_back(fleet->key);
  }
  std::vector<ProgramInfo> all;
  all.reserve(keys.size());
  for (const std::uint64_t key : keys) all.push_back(program_info(key));
  return all;
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

viz::MetricsSnapshot Server::metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.snapshot();
}

void Server::shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    accepting_ = false;
    // Admitted work still completes: wait for the workers to land every
    // pending request before telling them to exit.
    done_cv_.wait(lock, [&] {
      for (const auto& [id, pending] : pending_) {
        if (!pending->done) return false;
      }
      return true;
    });
    if (stopping_) return;  // idempotent: a previous call already joined
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  // Sessions close with their fleets at destruction; collected
  // responses were moved out, uncollected ones stay redeemable.
}

}  // namespace sage::serve
