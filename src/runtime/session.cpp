// The executor layer: drives an immutable CompiledProgram on the warm
// emulated machine. All planning lives in runtime::Compiler; nothing in
// this file builds or mutates a program (recover() asks the Compiler
// for a fresh one).
#include "runtime/session.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <map>
#include <optional>
#include <tuple>

#include "runtime/compiler.hpp"
#include "runtime/memory_plan.hpp"
#include "support/error.hpp"

namespace sage::runtime {

std::string to_string(BufferPolicy policy) {
  switch (policy) {
    case BufferPolicy::kUniquePerFunction: return "unique-per-function";
    case BufferPolicy::kShared: return "shared";
  }
  return "?";
}

support::VirtualSeconds RunStats::mean_latency() const {
  if (latencies.empty()) return 0.0;
  support::VirtualSeconds total = 0.0;
  for (const auto lat : latencies) total += lat;
  return total / static_cast<double>(latencies.size());
}

namespace {

/// What the executor binds once per program for one of a node's
/// firings: one KernelContext per ticket parity, its port slices
/// pointing into that parity's staging, so a fire step only rearms the
/// iteration and the result.
struct BoundFiring {
  bool sink = false;
  bool probed = false;
  std::vector<KernelContext> ctx;  // by ticket parity
};

}  // namespace

/// Node-local state, allocated once per program (construction,
/// recover(), swap_program()) and reused across runs. During an epoch a
/// node's state is touched only by that node's worker thread; the host
/// touches it only between epochs (machine join/dispatch order the
/// accesses).
struct Session::NodeState {
  // The node's staging arena, laid out by plan_node_memory() and
  // allocated for overwrite: no page is touched until a ticket zeroes
  // the private prefix [0, zero_bytes) or a transfer writes a slot.
  std::unique_ptr<std::byte[]> arena;
  std::size_t zero_bytes = 0;
  // Staging views into the arena by ticket parity (position in the
  // epoch), then compiled slot id (dense; non-local slots empty). The
  // two layouts differ only on an overlap-eligible node.
  std::array<std::vector<std::span<std::byte>>, 2> staging;
  // The unique policy's logical-buffer scratch, sized to the largest op
  // this node touches; each transfer stages through its prefix.
  std::unique_ptr<std::byte[]> scratch;
  bool hosts_source = false;
  // This node's share of the program (lower_node): its firings and one
  // iteration of steps, whose range [0, head) is the head stage and the
  // rest the tail. `bound` runs parallel to its firings. `overlap`: the
  // layout lets head(i+1) run before tail(i).
  NodeProgram lowered;
  std::vector<BoundFiring> bound;
  bool overlap = false;
  // Epoch-continuous per-op send counters: how many iterations this
  // node has pushed down each channel since the epoch began. The credit
  // predicate (sends_done >= depth) generalizes the old per-run
  // `iter >= depth` across overlapped tickets.
  std::vector<std::uint32_t> sends_done;
};

/// One streamed data-set run: resolved parameters plus the per-node
/// execution record the host aggregates at collection. While a ticket
/// executes, each node worker writes only its own `nodes[rank]` share;
/// completion bookkeeping happens under Session::stream_mu_, so a
/// `done` ticket's shares are safely readable on the host.
struct Session::StreamTicket {
  std::uint64_t id = 0;
  std::size_t index = 0;  // position within its epoch
  TicketParams params;
  double submit_wall = 0.0;

  struct NodeShare {
    explicit NodeShare(int node) : events(node) {}
    viz::EventBuffer events;
    std::vector<std::tuple<int, int, double>> results;  // (fn, iter, value)
    std::vector<support::VirtualSeconds> iter_start;    // source nodes
    std::vector<support::VirtualSeconds> iter_end;      // sink nodes
    // Fault-mode observations (receiver/iteration side; sender-side
    // injection counts live on the fabric).
    std::uint64_t observed_timeouts = 0;
    std::uint64_t observed_corruptions = 0;
    std::uint64_t stalls = 0;
    // Data-plane accounting: host bytes memcpy'd (each pass counted)
    // and payload bytes handed to the fabric by pooled handle.
    std::uint64_t bytes_copied = 0;
    std::uint64_t bytes_moved = 0;
    // Kernel-busy accumulators by function id, summed in rank order
    // into the metrics registry at collection.
    std::vector<double> fn_busy;
    std::vector<double> fn_calls;
    // This node's virtual clock when it started / finished the ticket.
    support::VirtualSeconds start_vt = 0.0;
    support::VirtualSeconds end_vt = 0.0;
  };
  std::vector<NodeShare> nodes;  // by rank

  // Completion bookkeeping (guarded by Session::stream_mu_).
  // Which host call came first: the next ticket joining this epoch
  // (kFollowed: a node may run that ticket's head before this ticket's
  // last tail) or a demand for this ticket -- wait, poll, drain or an
  // epoch end (kDemanded: it runs to completion).
  enum class Successor : std::uint8_t { kUndecided, kFollowed, kDemanded };
  Successor successor = Successor::kUndecided;
  /// A host call needs this ticket finished (stream_mu_ held).
  void demand() {
    if (successor == Successor::kUndecided) successor = Successor::kDemanded;
  }
  int nodes_done = 0;
  bool done = false;
  std::exception_ptr error;  // lowest erroring rank wins
  int error_rank = -1;
  support::VirtualSeconds complete_vt = 0.0;   // max node end_vt
  support::VirtualSeconds stream_period = 0.0;  // vs previous ticket
};

namespace {

// --- data-plane framing and the one segment copy --------------------------
// Under an active fault plan every remote payload (data and flow-control
// credits) travels inside a checksummed frame, so receivers can reject
// corrupted deliveries without trusting fabric metadata: a corruption
// whose byte flips happen to cancel leaves the payload intact and is
// rightly accepted. The format (magic u32 | payload length u32 | FNV-1a
// u64) is the shared wire framing in net/framing.hpp, the same one the
// shmem transport backend puts on every cross-process parcel.

using net::fnv1a_accum;
using net::kFnvOffsetBasis;
using net::kFrameHeaderBytes;

/// Which ByteSeg offset locates a segment in a buffer: src_off in the
/// producer's staging, dst_off in the consumer's, packed_off in the
/// packed layout a payload and a logical buffer share.
using SegOffset = std::size_t ByteSeg::*;

/// Copies every compiled segment from `src` at `s.*from` to `dst` at
/// `s.*to`. With `hash`, FNV-1a folds over each segment while it is
/// still cache-hot; segments run in packed order, so a copy into the
/// packed layout returns the checksum of the whole body in one pass.
std::uint64_t copy_segs(const std::vector<ByteSeg>& segs, SegOffset from,
                        SegOffset to, std::span<const std::byte> src,
                        std::span<std::byte> dst, bool hash) {
  std::uint64_t h = kFnvOffsetBasis;
  for (const ByteSeg& s : segs) {
    std::memcpy(dst.data() + s.*to, src.data() + s.*from, s.len);
    if (hash) h = fnv1a_accum(h, dst.data() + s.*to, s.len);
  }
  return h;
}

// --- always-on metrics -------------------------------------------------------
// Every family a session emits is declared once, in the tables below,
// next to the collected fact it reads. Series are defined one family at
// a time (not one function at a time) so each family's series stay
// contiguous in snapshot order -- the Prometheus exposition groups by
// family. Counters add their row's value at collection, gauges set it.

namespace fam = viz::families;
using Labels = std::vector<std::pair<std::string, std::string>>;

/// What the metric rows read from one collected ticket.
struct Collected {
  const RunStats& stats;
  const CompiledProgram& program;
  support::VirtualSeconds threshold;
  const std::vector<double>& fn_busy;   // by function id, summed by rank
  const std::vector<double>& fn_calls;  // by function id, summed by rank
};

/// One series per function, labeled {function=<name>}.
struct FunctionMetric {
  const char* name;
  const char* help;
  viz::MetricKind kind;
  bool time_based;
  double (*value)(const Collected&, const FunctionConfig&);
};

// Virtual times are measured from host CPU time, so busy seconds and
// occupancy jitter run to run: time-based, excluded from the
// deterministic snapshot subset.
const FunctionMetric kFunctionMetrics[] = {
    {fam::kFunctionBusySeconds,
     "Virtual seconds spent executing this function's kernel",
     viz::MetricKind::kCounter, true,
     [](const Collected& c, const FunctionConfig& fn) {
       return c.fn_busy[static_cast<std::size_t>(fn.id)];
     }},
    {fam::kFunctionInvocations,
     "Kernel invocations (every thread of every iteration)",
     viz::MetricKind::kCounter, false,
     [](const Collected& c, const FunctionConfig& fn) {
       return c.fn_calls[static_cast<std::size_t>(fn.id)];
     }},
    {fam::kStageOccupancy,
     "Fraction of the stage's capacity (span x threads) spent busy",
     viz::MetricKind::kGauge, true,
     [](const Collected& c, const FunctionConfig& fn) {
       const auto it = c.stats.occupancy.find(fn.name);
       return it != c.stats.occupancy.end() ? it->second : 0.0;
     }},
};

/// One series per row. The iteration-latency histogram is the one row
/// without a value: it observes every entry of RunStats::latencies.
struct ScalarMetric {
  const char* name;
  const char* help;
  viz::MetricKind kind;
  Labels labels;
  bool time_based;
  double (*value)(const Collected&);
};

const std::vector<double> kLatencyBuckets = {1e-6, 1e-5, 1e-4, 1e-3,
                                             1e-2, 1e-1, 1.0,  10.0};

double count(std::uint64_t n) { return static_cast<double>(n); }

// Pool counters depend on host-thread interleaving (which node thread
// allocates first), and compile provenance is a host wall-clock fact, so
// both are time-based like the measured virtual times.
const ScalarMetric kScalarMetrics[] = {
    {fam::kStreamPeriod,
     "Virtual time between consecutive ticket completions in one "
     "streaming epoch (0 outside steady state)",
     viz::MetricKind::kGauge, {}, true,
     [](const Collected& c) { return c.stats.stream_period; }},
    {fam::kIterations, "Iterations completed by the run",
     viz::MetricKind::kCounter, {}, false,
     [](const Collected& c) {
       return static_cast<double>(c.stats.iterations);
     }},
    {fam::kIterationLatency,
     "End-to-end iteration latency (source start to sink end)",
     viz::MetricKind::kHistogram, {}, true, nullptr},
    {fam::kLatencyViolations,
     "Iterations whose latency exceeded the configured threshold",
     viz::MetricKind::kCounter, {}, true,
     [](const Collected& c) {
       if (c.threshold <= 0.0) return 0.0;
       return static_cast<double>(std::count_if(
           c.stats.latencies.begin(), c.stats.latencies.end(),
           [&](support::VirtualSeconds lat) { return lat > c.threshold; }));
     }},
    {fam::kLatencyThreshold, "Configured latency threshold (0 = disabled)",
     viz::MetricKind::kGauge, {}, false,
     [](const Collected& c) { return c.threshold; }},
    {fam::kMakespan, "Modeled end-to-end run time", viz::MetricKind::kGauge,
     {}, true, [](const Collected& c) { return c.stats.makespan; }},
    {fam::kFaultsInjected, "Faults injected by the fabric, by kind",
     viz::MetricKind::kCounter, {{"kind", "drop"}}, false,
     [](const Collected& c) { return count(c.stats.faults.injected_drops); }},
    {fam::kFaultsInjected, "", viz::MetricKind::kCounter,
     {{"kind", "corrupt"}}, false,
     [](const Collected& c) {
       return count(c.stats.faults.injected_corruptions);
     }},
    {fam::kFaultsInjected, "", viz::MetricKind::kCounter, {{"kind", "delay"}},
     false,
     [](const Collected& c) { return count(c.stats.faults.injected_delays); }},
    {fam::kFaultRetries, "Retransmit attempts after a detected loss",
     viz::MetricKind::kCounter, {}, false,
     [](const Collected& c) { return count(c.stats.faults.retries); }},
    {fam::kFaultTimeouts, "Loss-detection timeouts waited out by receivers",
     viz::MetricKind::kCounter, {}, false,
     [](const Collected& c) { return count(c.stats.faults.timeouts); }},
    {fam::kFaultCorruptFrames, "Frames rejected by receiver checksums",
     viz::MetricKind::kCounter, {}, false,
     [](const Collected& c) {
       return count(c.stats.faults.corruptions_detected);
     }},
    {fam::kFaultStalls, "Modeled node stalls at iteration boundaries",
     viz::MetricKind::kCounter, {}, false,
     [](const Collected& c) { return count(c.stats.faults.stalls); }},
    {fam::kDegradedNodes, "Nodes the session is running without",
     viz::MetricKind::kGauge, {}, false,
     [](const Collected& c) {
       return static_cast<double>(c.stats.faults.degraded_nodes);
     }},
    {fam::kDataBytesCopied,
     "Host bytes memcpy'd by the data plane (every pass counted)",
     viz::MetricKind::kCounter, {}, false,
     [](const Collected& c) { return count(c.stats.data_plane.bytes_copied); }},
    {fam::kDataBytesMoved,
     "Payload bytes handed to the fabric by pooled handle",
     viz::MetricKind::kCounter, {}, false,
     [](const Collected& c) { return count(c.stats.data_plane.bytes_moved); }},
    {fam::kPoolHits, "Pooled-buffer acquisitions served from a free list",
     viz::MetricKind::kCounter, {}, true,
     [](const Collected& c) { return count(c.stats.data_plane.pool_hits); }},
    {fam::kPoolMisses, "Pooled-buffer acquisitions that had to allocate",
     viz::MetricKind::kCounter, {}, true,
     [](const Collected& c) { return count(c.stats.data_plane.pool_misses); }},
    {fam::kPoolBlocks, "Blocks owned by the fabric's buffer pool",
     viz::MetricKind::kGauge, {}, true,
     [](const Collected& c) { return count(c.stats.data_plane.pool_blocks); }},
    {fam::kProgramCompileSeconds,
     "Wall seconds spent compiling (or cache-loading) the program",
     viz::MetricKind::kGauge, {}, true,
     [](const Collected& c) { return c.program.compile_seconds; }},
};

/// One counter series per directed fabric link, labeled {src, dst}.
struct LinkMetric {
  const char* name;
  const char* help;
  double (*value)(const net::LinkStats&);
};

const LinkMetric kLinkMetrics[] = {
    {fam::kLinkMessages, "Messages accepted on this directed link",
     [](const net::LinkStats& link) { return count(link.messages); }},
    {fam::kLinkBytes, "Payload bytes accepted on this directed link",
     [](const net::LinkStats& link) { return count(link.bytes); }},
    {fam::kLinkRetransmits, "Retransmit attempts issued on this directed link",
     [](const net::LinkStats& link) { return count(link.retransmits); }},
    {fam::kLinkBusySeconds,
     "Virtual seconds the board-pair channel spent serializing this "
     "link's payloads (contention model)",
     [](const net::LinkStats& link) { return link.busy_vt; }},
};

int define_series(viz::MetricsRegistry& registry, const char* name,
                  const char* help, viz::MetricKind kind, Labels labels,
                  bool time_based) {
  return registry.define(
      {.name = name,
       .help = help,
       .kind = kind,
       .labels = std::move(labels),
       .buckets = kind == viz::MetricKind::kHistogram ? kLatencyBuckets
                                                      : std::vector<double>{},
       .time_based = time_based});
}

/// Defines the function and scalar rows; the ids come back in row order.
std::vector<int> define_metrics(viz::MetricsRegistry& registry,
                                const GlueConfig& config) {
  std::vector<int> ids;
  for (const FunctionMetric& row : kFunctionMetrics) {
    for (const FunctionConfig& fn : config.functions) {
      ids.push_back(define_series(registry, row.name, row.help, row.kind,
                                  {{"function", fn.name}}, row.time_based));
    }
  }
  for (const ScalarMetric& row : kScalarMetrics) {
    ids.push_back(define_series(registry, row.name, row.help, row.kind,
                                row.labels, row.time_based));
  }
  return ids;
}

/// The counter (name, labels), defined on first sight: ids -- and with
/// them snapshot order -- persist across warm runs; values reset.
int counter_on_first_sight(viz::MetricsRegistry& registry, const char* name,
                           const char* help, const Labels& labels,
                           bool time_based) {
  if (const auto id = registry.lookup(name, labels)) return *id;
  return registry.counter(name, help, labels, time_based);
}

/// Folds one collected ticket into the (freshly reset) registry: every
/// table row, then the executing program's plan-cache lookup, then the
/// fabric's per-link totals.
void record_metrics(viz::MetricsRegistry& registry,
                    const std::vector<int>& ids, const Collected& c,
                    const std::map<std::pair<int, int>, net::LinkStats>& links) {
  const auto record = [&](int id, viz::MetricKind kind, double value) {
    if (kind == viz::MetricKind::kGauge) {
      registry.set(id, value);
    } else {
      registry.add(id, value);
    }
  };
  auto id = ids.begin();
  for (const FunctionMetric& row : kFunctionMetrics) {
    for (const FunctionConfig& fn : c.program.config.functions) {
      record(*id++, row.kind, row.value(c, fn));
    }
  }
  for (const ScalarMetric& row : kScalarMetrics) {
    if (row.value == nullptr) {
      for (const auto lat : c.stats.latencies) registry.observe(*id, lat);
      ++id;
    } else {
      record(*id++, row.kind, row.value(c));
    }
  }
  // recover() and swap_program() replace the program, so the outcome is
  // the executing program's, not the one the session was opened with.
  if (c.program.cache_outcome != PlanCacheOutcome::kNotConsulted) {
    registry.add(
        counter_on_first_sight(
            registry, fam::kPlanCacheLookups,
            "Plan-cache lookups by outcome (one per program compile)",
            {{"outcome", to_string(c.program.cache_outcome)}}, true),
        1.0);
  }
  // std::map iteration -> (src, dst) order, so first-sight definition
  // order matches across warm runs and fresh sessions with the same
  // traffic pattern.
  for (const auto& [key, link] : links) {
    const Labels labels = {{"src", std::to_string(key.first)},
                           {"dst", std::to_string(key.second)}};
    for (const LinkMetric& row : kLinkMetrics) {
      registry.add(counter_on_first_sight(registry, row.name, row.help,
                                          labels, false),
                   row.value(link));
    }
  }
}

}  // namespace

Session::Session(GlueConfig config, const FunctionRegistry& registry,
                 ExecuteOptions options)
    : Session(compile_or_load(std::move(config), registry,
                              options.plan_cache_dir),
              registry, options) {}

Session::Session(std::shared_ptr<const CompiledProgram> program,
                 const FunctionRegistry& registry, ExecuteOptions options)
    : program_(std::move(program)), options_(std::move(options)) {
  SAGE_CHECK_AS(RuntimeError, program_ != nullptr,
                "Session needs a compiled program");
  const GlueConfig& config = program_->config;

  kernels_.reserve(config.functions.size());
  for (const FunctionConfig& fn : config.functions) {
    kernels_.push_back(registry.lookup(fn.kernel));  // throws when missing
  }
  access_ = output_access(config, registry);

  if (!options_.cpu_scales.empty()) {
    SAGE_CHECK_AS(ConfigError,
                  static_cast<int>(options_.cpu_scales.size()) == config.nodes,
                  "cpu_scales size ", options_.cpu_scales.size(),
                  " != node count ", config.nodes);
  }

  // Spawn the emulated machine once; its node threads park between runs.
  net::FabricModel fabric =
      options_.fabric ? *options_.fabric : net::myrinet_fabric();
  if (options_.cpu_scales.empty()) {
    machine_ = std::make_unique<net::Machine>(config.nodes, std::move(fabric),
                                              1.0, options_.transport);
  } else {
    machine_ = std::make_unique<net::Machine>(
        std::move(fabric), options_.cpu_scales, options_.transport);
  }

  allocate_states_();
  prewarm_pool_();

  metric_ids_ = define_metrics(metrics_, config);

  machine_->start();
}

void Session::prewarm_pool_() {
  // Steady-state pooled working set: one payload per in-flight slot of
  // every remote channel, plus one cached flow-control credit per node.
  // With unbounded synchronous depth (0) the in-flight count is
  // workload-dependent, so prewarm each channel's streaming ring bound
  // (which also covers overlapped submissions) and let the first
  // iterations top the pool up if a run exceeds it.
  std::map<std::size_t, std::size_t> want;  // bucket size -> block count
  bool any_remote = false;
  for (const TransferOp& op : program_->ops) {
    if (op.src_node == op.dst_node) continue;
    any_remote = true;
    const std::size_t depth =
        static_cast<std::size_t>(options_.buffer_depth > 0
                                     ? options_.buffer_depth
                                     : op.ring_depth) +
        1;
    // Prewarm the fault-free size; framed fault-mode payloads land in
    // the next bucket only when bytes is within 16 of the bucket edge.
    want[std::bit_ceil(std::max<std::size_t>(op.bytes, 64))] += depth;
  }
  if (any_remote) {
    want[64] += static_cast<std::size_t>(program_->config.nodes);
  }
  net::BufferPool& pool = machine_->fabric().pool();
  for (const auto& [size, count] : want) pool.reserve(size, count);
}

void Session::allocate_states_() {
  // One arena and one scratch per node, laid out by the program's
  // memory plan, so warm runs reuse memory instead of reallocating it.
  // Also called by recover() and swap_program(), which change
  // thread->node placements.
  const CompiledProgram& program = *program_;
  const GlueConfig& config = program.config;
  states_.clear();
  states_.reserve(static_cast<std::size_t>(config.nodes));
  for (int r = 0; r < config.nodes; ++r) {
    auto state = std::make_unique<NodeState>();
    state->lowered = lower_node(program, r);
    const NodeMemoryPlan plan =
        plan_node_memory(program, state->lowered, access_);
    state->arena =
        std::make_unique_for_overwrite<std::byte[]>(plan.arena_bytes);
    state->zero_bytes = plan.zero_bytes;
    for (std::size_t parity = 0; parity < 2; ++parity) {
      const std::vector<ArenaRegion>& slots =
          parity == 1 && plan.overlap ? plan.odd_slots : plan.slots;
      state->staging[parity].reserve(slots.size());
      for (const ArenaRegion& region : slots) {
        state->staging[parity].emplace_back(state->arena.get() + region.offset,
                                            region.bytes);
      }
    }
    state->scratch =
        std::make_unique_for_overwrite<std::byte[]>(plan.scratch_bytes);
    state->sends_done.assign(program.ops.size(), 0);
    state->overlap = plan.overlap;

    // Bind every firing once: the params copy and port-slice build
    // happen here, not in the run loop.
    state->bound.reserve(state->lowered.firings.size());
    for (const NodeFiring& firing : state->lowered.firings) {
      const FunctionConfig& fn = config.function(firing.fn_id);
      state->hosts_source = state->hosts_source || fn.role == "source";
      BoundFiring& bound = state->bound.emplace_back();
      bound.sink = fn.role == "sink";
      bound.probed = config.probed(firing.fn_id);
      for (std::size_t parity = 0; parity < 2; ++parity) {
        KernelContext& ctx =
            bound.ctx.emplace_back(firing.thread, fn.threads, 0);
        ctx.params.insert(fn.params.begin(), fn.params.end());
        for (const PortBinding& b : program.bindings_of[firing.fti]) {
          PortSlice slice;
          slice.name = b.name;
          slice.data =
              state->staging[parity][static_cast<std::size_t>(b.slot)];
          slice.elem_bytes = b.elem_bytes;
          slice.local_dims = b.local_dims;
          slice.global_dims = b.global_dims;
          slice.runs = b.runs;
          (b.is_input ? ctx.inputs : ctx.outputs).push_back(std::move(slice));
        }
      }
    }
    states_.push_back(std::move(state));
  }
}

RecoveryReport Session::recover(const std::vector<int>& dead_ranks) {
  SAGE_CHECK_AS(RuntimeError, !closed(),
                "Session::recover on a closed session");
  // Quiesce: a remap swaps the program and reallocates node state, so
  // every in-flight ticket must land first (they stay redeemable).
  end_epoch_();
  const int nodes = program_->config.nodes;
  RecoveryReport report;
  for (const int rank : dead_ranks) {
    SAGE_CHECK_AS(RuntimeError, rank >= 0 && rank < nodes,
                  "recover: rank ", rank, " outside machine of ", nodes,
                  " nodes");
    if (std::find(dead_nodes_.begin(), dead_nodes_.end(), rank) ==
        dead_nodes_.end()) {
      dead_nodes_.push_back(rank);
      report.dead_nodes.push_back(rank);
    }
  }
  if (report.dead_nodes.empty()) return report;  // idempotent per rank
  std::sort(dead_nodes_.begin(), dead_nodes_.end());
  std::sort(report.dead_nodes.begin(), report.dead_nodes.end());
  SAGE_CHECK_AS(RuntimeError, static_cast<int>(dead_nodes_.size()) < nodes,
                "recover: no surviving node left");

  const auto is_dead = [&](int rank) {
    return std::binary_search(dead_nodes_.begin(), dead_nodes_.end(), rank);
  };

  // The shared program is immutable; work on a private copy of its
  // config and compile a session-private replacement at the end.
  GlueConfig config = program_->config;

  // Deterministic greedy remap: move each stranded thread, in function-id
  // then thread order, to the survivor with the fewest assigned threads
  // (ties to the lowest rank). Mirrors the atot greedy mapper's
  // tie-breaking so remapped placements stay reproducible.
  std::vector<int> load(static_cast<std::size_t>(config.nodes), 0);
  for (const FunctionConfig& fn : config.functions) {
    for (const int node : fn.thread_nodes) {
      if (!is_dead(node)) ++load[static_cast<std::size_t>(node)];
    }
  }
  for (FunctionConfig& fn : config.functions) {
    for (int& node : fn.thread_nodes) {
      if (!is_dead(node)) continue;
      int best = -1;
      for (int r = 0; r < config.nodes; ++r) {
        if (is_dead(r)) continue;
        if (best == -1 || load[static_cast<std::size_t>(r)] <
                              load[static_cast<std::size_t>(best)]) {
          best = r;
        }
      }
      node = best;
      ++load[static_cast<std::size_t>(best)];
      ++report.moved_threads;
    }
  }

  config.schedule = schedule_by_id(config);
  // Placement changed: remote/local classification, share groups, and
  // slot residency all shift, so compile a fresh (session-private,
  // uncached) program for the degraded placement. Other sessions
  // sharing the old program keep executing it untouched.
  {
    std::lock_guard<std::mutex> lock(stream_mu_);
    program_ = Compiler::lower(std::move(config));
  }
  allocate_states_();
  prewarm_pool_();
  pending_recoveries_.push_back(report);
  return report;
}

void Session::swap_program(std::shared_ptr<const CompiledProgram> next) {
  SAGE_CHECK_AS(RuntimeError, !closed(),
                "Session::swap_program on a closed session");
  SAGE_CHECK_AS(RuntimeError, next != nullptr,
                "Session::swap_program needs a program");
  const GlueConfig& incoming = next->config;
  {
    const GlueConfig& current = program_->config;
    SAGE_CHECK_AS(RuntimeError, incoming.nodes == current.nodes,
                  "swap_program: node count changed (", current.nodes, " -> ",
                  incoming.nodes, ")");
    SAGE_CHECK_AS(RuntimeError,
                  incoming.functions.size() == current.functions.size(),
                  "swap_program: function table changed size");
    for (std::size_t i = 0; i < incoming.functions.size(); ++i) {
      const FunctionConfig& a = current.functions[i];
      const FunctionConfig& b = incoming.functions[i];
      SAGE_CHECK_AS(RuntimeError,
                    a.id == b.id && a.name == b.name && a.kernel == b.kernel &&
                        a.threads == b.threads,
                    "swap_program: function ", a.name,
                    " changed identity; only placements may differ");
    }
  }
  for (const FunctionConfig& fn : incoming.functions) {
    for (const int node : fn.thread_nodes) {
      SAGE_CHECK_AS(
          RuntimeError,
          !std::binary_search(dead_nodes_.begin(), dead_nodes_.end(), node),
          "swap_program: function ", fn.name, " placed on dead node ", node);
    }
  }
  // Quiesce-and-swap, exactly the recover() machinery: every queued
  // ticket lands first (collected or not -- uncollected tickets stay
  // redeemable), then the program pointer flips under stream_mu_ (the
  // owning host thread may be collecting a pre-swap ticket concurrently,
  // see wait()) and node-local staging plus the warm buffer pool are
  // rebuilt for the new placement. Kernel bindings and metric series
  // are keyed by function id against an unchanged table, so both carry
  // over untouched.
  end_epoch_();
  {
    std::lock_guard<std::mutex> lock(stream_mu_);
    program_ = std::move(next);
  }
  allocate_states_();
  prewarm_pool_();
}

Session::~Session() { close(); }

Result<std::unique_ptr<Session>> Session::create(GlueConfig config,
                                                 const FunctionRegistry& registry,
                                                 ExecuteOptions options) {
  try {
    return Result<std::unique_ptr<Session>>::success(std::make_unique<Session>(
        std::move(config), registry, std::move(options)));
  } catch (const std::exception& e) {
    return Result<std::unique_ptr<Session>>::failure(e.what());
  }
}

Result<std::unique_ptr<Session>> Session::create(
    std::shared_ptr<const CompiledProgram> program,
    const FunctionRegistry& registry, ExecuteOptions options) {
  try {
    return Result<std::unique_ptr<Session>>::success(std::make_unique<Session>(
        std::move(program), registry, std::move(options)));
  } catch (const std::exception& e) {
    return Result<std::unique_ptr<Session>>::failure(e.what());
  }
}

net::Fabric& Session::fabric() {
  SAGE_CHECK_AS(RuntimeError, machine_ != nullptr,
                "Session::fabric() on a closed session");
  return machine_->fabric();
}

void Session::close() {
  if (closed()) return;
  // Land any in-flight epoch before parking the machine. Uncollected
  // tickets become unredeemable -- collect before closing.
  end_epoch_();
  machine_.reset();
  std::lock_guard<std::mutex> lock(stream_mu_);
  tickets_.clear();
}

void Session::reset_between_runs_() {
  // The fabric may hold unclaimed flow-control credits from the previous
  // epoch, accumulated totals, and link contention history; a cold
  // engine would start from scratch. The payload pool intentionally
  // survives the reset -- recycling warm buffers across runs is the
  // point.
  machine_->fabric().reset();
  // Metric values restart at zero; definitions (and ids) persist.
  metrics_.reset();
  for (const auto& state : states_) {
    std::fill(state->sends_done.begin(), state->sends_done.end(), 0u);
  }
}

Session::TicketParams Session::resolve_(const RunOverrides& request) const {
  TicketParams params;
  int iterations = request.iterations;
  if (iterations <= 0) iterations = options_.iterations;
  if (iterations <= 0) iterations = program_->config.iterations_default;
  SAGE_CHECK_AS(RuntimeError, iterations > 0, "nothing to run: ", iterations,
                " iterations");
  params.iterations = iterations;
  params.policy = request.buffer_policy.value_or(options_.buffer_policy);
  params.trace = request.collect_trace.value_or(options_.collect_trace);
  params.metrics = request.collect_metrics.value_or(options_.collect_metrics);
  params.threshold =
      request.latency_threshold.value_or(options_.latency_threshold);
  params.depth = request.buffer_depth.value_or(options_.buffer_depth);
  params.plan = request.fault_plan.value_or(options_.fault_plan);
  return params;
}

void Session::begin_epoch_(const TicketParams& params, bool streaming) {
  const bool faulty = params.plan != nullptr && params.plan->active();
  reset_between_runs_();
  // An inactive plan must leave the fabric on the exact fault-free code
  // path (bit-identical contract), so only an active plan is attached.
  machine_->fabric().set_fault_plan(faulty ? params.plan : nullptr);
  pool_mark_ = machine_->fabric().pool().stats();
  {
    std::lock_guard<std::mutex> lock(stream_mu_);
    epoch_tickets_.clear();
    epoch_active_ = true;
    epoch_closing_ = false;
    epoch_failed_ = false;
    epoch_streaming_ = streaming;
    epoch_faulty_ = faulty;
    epoch_depth_ = params.depth;
    epoch_plan_ = params.plan;
    epoch_program_ = [this](net::NodeContext& node) { stream_worker_(node); };
  }
  machine_->dispatch(epoch_program_);
}

void Session::end_epoch_() {
  if (machine_ == nullptr) return;
  {
    std::unique_lock<std::mutex> lock(stream_mu_);
    if (!epoch_active_) return;
    // Every queued ticket lands first; collected or not, tickets stay
    // redeemable after their epoch closes.
    for (const auto& ticket : epoch_tickets_) ticket->demand();
    stream_cv_.notify_all();
    stream_done_cv_.wait(lock, [&] {
      for (const auto& ticket : epoch_tickets_) {
        if (!ticket->done) return false;
      }
      return true;
    });
    epoch_closing_ = true;
    epoch_active_ = false;
  }
  stream_cv_.notify_all();
  // The workers never throw out of the node program (ticket errors are
  // stored on the ticket and surfaced by wait()), so join is clean.
  machine_->join_run();
  std::lock_guard<std::mutex> lock(stream_mu_);
  epoch_tickets_.clear();
  epoch_closing_ = false;
  epoch_failed_ = false;
  epoch_streaming_ = false;
  epoch_faulty_ = false;
  epoch_depth_ = 0;
  epoch_plan_.reset();
  epoch_program_ = nullptr;
}

Ticket Session::submit_(const RunOverrides& request, bool streaming) {
  const double submit_wall = support::wall_seconds();
  TicketParams params = resolve_(request);

  // A plan naming dead nodes runs degraded: remap before dispatch. Only
  // a *new* dead rank triggers the (epoch-quiescing) recovery, so
  // streamed submissions under a stable degraded plan keep overlapping.
  if (params.plan != nullptr && params.plan->active() &&
      !params.plan->dead_nodes.empty()) {
    bool pending = false;
    for (const int rank : params.plan->dead_nodes) {
      if (!std::binary_search(dead_nodes_.begin(), dead_nodes_.end(), rank)) {
        pending = true;
        break;
      }
    }
    if (pending) recover(params.plan->dead_nodes);
  }

  auto ticket = std::make_shared<StreamTicket>();
  ticket->id = next_ticket_id_++;
  ticket->params = std::move(params);
  ticket->submit_wall = submit_wall;
  const int nodes = program_->config.nodes;
  const std::size_t nfn = program_->config.functions.size();
  ticket->nodes.reserve(static_cast<std::size_t>(nodes));
  for (int r = 0; r < nodes; ++r) {
    auto& share = ticket->nodes.emplace_back(r);
    share.fn_busy.assign(nfn, 0.0);
    share.fn_calls.assign(nfn, 0.0);
  }

  // Surface recoveries applied since the last submission on this
  // ticket's trace (recorded pre-publication: the ticket is still
  // host-private). One event, attributed to the lowest surviving rank.
  if (ticket->params.trace) {
    for (const RecoveryReport& recovery : pending_recoveries_) {
      for (int r = 0; r < nodes; ++r) {
        if (std::binary_search(dead_nodes_.begin(), dead_nodes_.end(), r)) {
          continue;
        }
        viz::Event e;
        e.kind = viz::EventKind::kRecovery;
        e.label = "recover: moved " +
                  std::to_string(recovery.moved_threads) + " threads off " +
                  std::to_string(recovery.dead_nodes.size()) + " dead nodes";
        ticket->nodes[static_cast<std::size_t>(r)].events.record(e);
        break;
      }
    }
  }
  pending_recoveries_.clear();

  // Join the active epoch when compatible, else quiesce it and open a
  // fresh one. The compatibility check and the publication share one
  // lock scope, so a concurrent node failure cannot slip this ticket
  // into a dying epoch (its workers may already have exited).
  std::unique_lock<std::mutex> lock(stream_mu_);
  const bool join = streaming && epoch_active_ && !epoch_failed_ &&
                    epoch_streaming_ && epoch_depth_ == ticket->params.depth &&
                    epoch_plan_ == ticket->params.plan;
  if (!join) {
    lock.unlock();
    end_epoch_();
    // Synchronous runs always open a private epoch: the full
    // cold-equivalent reset is the run() contract.
    begin_epoch_(ticket->params, streaming);
    lock.lock();
  }
  if (!epoch_tickets_.empty() &&
      epoch_tickets_.back()->successor ==
          StreamTicket::Successor::kUndecided) {
    epoch_tickets_.back()->successor = StreamTicket::Successor::kFollowed;
  }
  ticket->index = epoch_tickets_.size();
  epoch_tickets_.push_back(ticket);
  tickets_[ticket->id] = ticket;
  lock.unlock();
  stream_cv_.notify_all();
  return Ticket{ticket->id};
}

RunStats Session::run(const RunOverrides& request) {
  SAGE_CHECK_AS(RuntimeError, !closed(), "Session::run on a closed session");
  return wait(submit_(request, /*streaming=*/false));
}

Ticket Session::submit(const RunOverrides& request) {
  SAGE_CHECK_AS(RuntimeError, !closed(),
                "Session::submit on a closed session");
  return submit_(request, /*streaming=*/true);
}

bool Session::poll(Ticket ticket) const {
  std::lock_guard<std::mutex> lock(stream_mu_);
  const auto it = tickets_.find(ticket.id);
  SAGE_CHECK_AS(RuntimeError, it != tickets_.end(),
                "Session::poll: unknown or already-collected ticket ",
                ticket.id);
  it->second->demand();
  stream_cv_.notify_all();
  return it->second->done;
}

RunStats Session::wait(Ticket ticket) {
  SAGE_CHECK_AS(RuntimeError, !closed(), "Session::wait on a closed session");
  std::shared_ptr<StreamTicket> t;
  std::shared_ptr<const CompiledProgram> program;
  {
    std::unique_lock<std::mutex> lock(stream_mu_);
    const auto it = tickets_.find(ticket.id);
    SAGE_CHECK_AS(RuntimeError, it != tickets_.end(),
                  "Session::wait: unknown or already-collected ticket ",
                  ticket.id);
    t = it->second;
    t->demand();
    stream_cv_.notify_all();
    stream_done_cv_.wait(lock, [&] { return t->done; });
    tickets_.erase(t->id);
    // Capture the program while stream_mu_ is held: a tuner-thread
    // swap_program() may retarget program_ between this ticket landing
    // and its collection. The function table is identical across swaps,
    // so collecting a pre-swap ticket against the successor program
    // yields the same stats.
    program = program_;
  }
  // `done` was set under stream_mu_ after the last node landed its
  // share, so the shares are quiescent and safely readable here.
  if (t->error) std::rethrow_exception(t->error);
  RunStats stats = collect_(*t, *program);
  stats.host_seconds = support::wall_seconds() - t->submit_wall;
  ++runs_completed_;
  return stats;
}

std::vector<RunStats> Session::drain() {
  std::vector<std::uint64_t> ids;
  {
    std::lock_guard<std::mutex> lock(stream_mu_);
    ids.reserve(tickets_.size());
    for (const auto& [id, ticket] : tickets_) ids.push_back(id);
  }
  std::vector<RunStats> all;
  all.reserve(ids.size());
  for (const std::uint64_t id : ids) all.push_back(wait(Ticket{id}));
  return all;
}

int Session::in_flight() const {
  std::lock_guard<std::mutex> lock(stream_mu_);
  return static_cast<int>(tickets_.size());
}

int Session::op_depth_(const TransferOp& op) const {
  // An explicit epoch depth wins; streamed epochs fall back to the
  // compiler's static ring bound (TransferOp::ring_depth); synchronous
  // epochs leave credits off (0 = unbounded), exactly the
  // pre-streaming behaviour.
  if (epoch_depth_ > 0) return epoch_depth_;
  return epoch_streaming_ ? op.ring_depth : 0;
}

void Session::stream_worker_(net::NodeContext& node) {
  const int rank = node.rank();
  const int node_count = static_cast<int>(states_.size());
  const NodeState& state = *states_[static_cast<std::size_t>(rank)];

  // Marks this node's share of `ticket` finished (stream_mu_ held). The
  // last node to land a ticket computes its completion facts -- tickets
  // complete in submission order, so the previous ticket's complete_vt
  // is already final -- and wakes the host. A real error from any rank
  // always outranks the generic poison placeholder: poison lands with
  // rank + node_count so the root cause is what wait() rethrows even
  // when a lower rank swept the ticket before the failing rank landed.
  const auto land = [&](StreamTicket& ticket, std::exception_ptr error,
                        bool poison = false) {
    auto& share = ticket.nodes[static_cast<std::size_t>(rank)];
    share.end_vt = node.now();
    if (error) {
      epoch_failed_ = true;
      const int error_rank = rank + (poison ? node_count : 0);
      if (ticket.error_rank < 0 || error_rank < ticket.error_rank) {
        ticket.error = std::move(error);
        ticket.error_rank = error_rank;
      }
    }
    if (++ticket.nodes_done == node_count) {
      support::VirtualSeconds complete = 0.0;
      for (const auto& s : ticket.nodes) {
        complete = std::max(complete, s.end_vt);
      }
      ticket.complete_vt = complete;
      if (ticket.index > 0) {
        ticket.stream_period =
            complete - epoch_tickets_[ticket.index - 1]->complete_vt;
      }
      ticket.done = true;
      stream_done_cv_.notify_all();
    }
  };

  // The tickets this node started and has not landed: `current`, whose
  // head of iteration `iter` ran, and `next`, whose first head ran ahead
  // of current's last tail.
  std::size_t cursor = 0;
  std::shared_ptr<StreamTicket> current;
  std::shared_ptr<StreamTicket> next;
  int iter = 0;

  // A node died: poison every ticket this node holds or never started so
  // completion bookkeeping converges (stream_mu_ held), and wake peers
  // into their own sweep. No further tickets can join a failed epoch
  // (submit_ checks under that mutex), so the sweep is complete.
  const auto abort = [&] {
    const auto poison = [&](StreamTicket& ticket) {
      land(ticket,
           std::make_exception_ptr(
               RuntimeError("streaming epoch aborted by a node failure")),
           /*poison=*/true);
    };
    for (std::shared_ptr<StreamTicket>* held : {&current, &next}) {
      if (*held) poison(**held);
      held->reset();
    }
    for (; cursor < epoch_tickets_.size(); ++cursor) {
      poison(*epoch_tickets_[cursor]);
    }
    stream_cv_.notify_all();
  };

  // Two-stage modulo schedule: on an overlap-eligible layout in a
  // streamed epoch the steady state is head(i+1) tail(i), so tail(i)'s
  // receive waits overlap the next head's compute. Every remote channel
  // the head sends on must hold two data sets: at depth 1, head(i+1)
  // waits for the credit of i, which the consumer returns only in its
  // own tail(i) -- after its head(i+1), which waits the same way.
  bool overlap = state.overlap && epoch_streaming_;
  const NodeProgram& lowered = state.lowered;
  for (std::size_t s = 0; s < lowered.head; ++s) {
    const Step& step = lowered.steps[s];
    if (step.kind == StepKind::kSend &&
        op_depth_(program_->ops[static_cast<std::size_t>(step.op)]) < 2) {
      overlap = false;
    }
  }

  // The cached flow-control credit block lives as long as this epoch's
  // worker, so it is back in the pool before the machine parks.
  net::Payload credit;
  StreamTicket* running = nullptr;  // the ticket of the running stage
  const auto run = [&](StreamTicket& ticket, int it, Stage stage) {
    running = &ticket;
    run_node_ticket_(node, ticket, it, stage, credit);
  };
  try {
    for (;;) {
      if (current == nullptr) {
        std::unique_lock<std::mutex> lock(stream_mu_);
        stream_cv_.wait(lock, [&] {
          return epoch_failed_ || epoch_closing_ ||
                 cursor < epoch_tickets_.size();
        });
        if (epoch_failed_) return abort();
        if (cursor >= epoch_tickets_.size()) return;  // epoch closing
        current = epoch_tickets_[cursor++];
        iter = 0;
        lock.unlock();
        run(*current, 0, Stage::kHead);
      }
      // Iterations inside one ticket never overlap.
      if (iter + 1 < current->params.iterations) {
        run(*current, iter, Stage::kTail);
        run(*current, ++iter, Stage::kHead);
        continue;
      }
      if (overlap) {
        // Host call order alone decides: the next ticket's publication
        // or a demand for this one, whichever came first.
        std::unique_lock<std::mutex> lock(stream_mu_);
        stream_cv_.wait(lock, [&] {
          return epoch_failed_ || current->successor !=
                                      StreamTicket::Successor::kUndecided;
        });
        if (epoch_failed_) return abort();
        if (current->successor == StreamTicket::Successor::kFollowed) {
          next = epoch_tickets_[cursor++];
        }
      }
      if (next != nullptr) run(*next, 0, Stage::kHead);
      run(*current, iter, Stage::kTail);

      std::lock_guard<std::mutex> lock(stream_mu_);
      land(*current, nullptr);
      current = std::move(next);
      iter = 0;
      if (epoch_failed_) return abort();
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(stream_mu_);
    land(*running, std::current_exception());
    (running == current.get() ? current : next).reset();
    abort();
  }
}

RunStats Session::collect_(StreamTicket& ticket,
                           const CompiledProgram& program) {
  const TicketParams& params = ticket.params;
  const int iterations = params.iterations;

  RunStats stats;
  stats.ticket = ticket.id;
  stats.iterations = iterations;
  stats.makespan = ticket.complete_vt;
  stats.stream_period = ticket.stream_period;
  support::VirtualSeconds span_start = ticket.complete_vt;
  for (const auto& share : ticket.nodes) {
    span_start = std::min(span_start, share.start_vt);
  }
  stats.span = ticket.complete_vt - span_start;
  // Fabric and pool counters are epoch-cumulative at collection time:
  // exact per run on the synchronous path (one ticket per epoch over a
  // freshly reset fabric), cumulative-so-far under overlap.
  stats.fabric_messages = machine_->fabric().total_messages();
  stats.fabric_bytes = machine_->fabric().total_bytes();

  const net::FaultCounters fault_counters = machine_->fabric().fault_counters();
  stats.faults.injected_drops = fault_counters.drops;
  stats.faults.injected_corruptions = fault_counters.corruptions;
  stats.faults.injected_delays = fault_counters.delays;
  stats.faults.retries = fault_counters.retransmits;
  for (const auto& share : ticket.nodes) {
    stats.faults.timeouts += share.observed_timeouts;
    stats.faults.corruptions_detected += share.observed_corruptions;
    stats.faults.stalls += share.stalls;
  }
  stats.faults.degraded_nodes = static_cast<int>(dead_nodes_.size());

  for (const auto& share : ticket.nodes) {
    stats.data_plane.bytes_copied += share.bytes_copied;
    stats.data_plane.bytes_moved += share.bytes_moved;
  }
  const net::BufferPoolStats pool_stats = machine_->fabric().pool().stats();
  stats.data_plane.pool_hits = pool_stats.hits - pool_mark_.hits;
  stats.data_plane.pool_misses = pool_stats.misses - pool_mark_.misses;
  stats.data_plane.pool_blocks =
      pool_stats.blocks_live + pool_stats.blocks_pooled;
  stats.data_plane.pool_bytes_reserved = pool_stats.bytes_reserved;

  // Latency: min source start / max sink end per iteration.
  std::vector<double> starts(static_cast<std::size_t>(iterations), 0.0);
  std::vector<double> ends(static_cast<std::size_t>(iterations), 0.0);
  std::vector<bool> has_start(static_cast<std::size_t>(iterations), false);
  std::vector<bool> has_end(static_cast<std::size_t>(iterations), false);
  for (const auto& share : ticket.nodes) {
    for (std::size_t i = 0; i < share.iter_start.size() &&
                            i < static_cast<std::size_t>(iterations);
         ++i) {
      if (!has_start[i] || share.iter_start[i] < starts[i]) {
        starts[i] = share.iter_start[i];
        has_start[i] = true;
      }
    }
    // Sinks may record several ends per iteration (multiple threads);
    // they are appended in iteration order per node, so fold by index
    // modulo the per-node count per iteration.
    const std::size_t per_iter =
        share.iter_end.empty()
            ? 0
            : share.iter_end.size() / static_cast<std::size_t>(iterations);
    for (std::size_t i = 0; i < share.iter_end.size(); ++i) {
      if (per_iter == 0) break;
      const std::size_t iter = i / per_iter;
      if (iter >= static_cast<std::size_t>(iterations)) break;
      if (!has_end[iter] || share.iter_end[i] > ends[iter]) {
        ends[iter] = share.iter_end[i];
        has_end[iter] = true;
      }
    }
  }
  for (int i = 0; i < iterations; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (has_start[idx] && has_end[idx]) {
      stats.latencies.push_back(ends[idx] - starts[idx]);
    }
  }
  // Period: mean distance between consecutive completion times.
  int completed = 0;
  double first_end = 0.0;
  double last_end = 0.0;
  for (int i = 0; i < iterations; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (has_end[idx]) {
      if (completed == 0) first_end = ends[idx];
      last_end = ends[idx];
      ++completed;
    }
  }
  if (completed > 1) {
    stats.period = (last_end - first_end) / static_cast<double>(completed - 1);
  } else if (!stats.latencies.empty()) {
    stats.period = stats.latencies.front();
  }

  // Results: sum kernel-reported values per function per iteration.
  for (const auto& share : ticket.nodes) {
    for (const auto& [fn_id, iter, value] : share.results) {
      const std::string& name = program.config.function(fn_id).name;
      auto& series = stats.results[name];
      if (series.size() < static_cast<std::size_t>(iterations)) {
        series.resize(static_cast<std::size_t>(iterations), 0.0);
      }
      series[static_cast<std::size_t>(iter)] += value;
    }
  }

  if (params.trace) {
    std::vector<const viz::EventBuffer*> buffers;
    buffers.reserve(ticket.nodes.size());
    for (const auto& share : ticket.nodes) buffers.push_back(&share.events);
    stats.trace = viz::Trace::merge(buffers);
  }

  if (params.metrics) {
    // Kernel-busy seconds and invocations per function, summed in rank
    // order.
    const GlueConfig& config = program.config;
    std::vector<double> fn_busy(config.functions.size(), 0.0);
    std::vector<double> fn_calls(config.functions.size(), 0.0);
    for (const auto& share : ticket.nodes) {
      for (std::size_t fn = 0; fn < fn_busy.size(); ++fn) {
        fn_busy[fn] += share.fn_busy[fn];
        fn_calls[fn] += share.fn_calls[fn];
      }
    }
    // Per-stage occupancy over this ticket's span: kernel-busy virtual
    // seconds (all threads) / (span x thread count). The stage nearest
    // 1.0 is the one that sets the steady-state period.
    for (const FunctionConfig& fn : config.functions) {
      const double capacity = stats.span * static_cast<double>(fn.threads);
      stats.occupancy[fn.name] =
          capacity > 0.0
              ? fn_busy[static_cast<std::size_t>(fn.id)] / capacity
              : 0.0;
    }
    // The registry is host-only: node workers never touch it.
    metrics_.reset();
    record_metrics(metrics_, metric_ids_,
                   Collected{stats, program, params.threshold, fn_busy,
                             fn_calls},
                   machine_->fabric().link_stats());
    stats.metrics = metrics_.snapshot();
  }

  return stats;
}

void Session::run_node_ticket_(net::NodeContext& node, StreamTicket& ticket,
                               int iter, Stage stage, net::Payload& credit) {
  const int rank = node.rank();
  NodeState& state = *states_[static_cast<std::size_t>(rank)];
  StreamTicket::NodeShare& share =
      ticket.nodes[static_cast<std::size_t>(rank)];
  const CompiledProgram& program = *program_;
  const GlueConfig& cfg = program.config;
  const TicketParams& params = ticket.params;
  const bool unique = params.policy == BufferPolicy::kUniquePerFunction;
  const bool trace = params.trace;
  const bool metrics = params.metrics;
  const double recv_timeout = options_.recv_timeout_s;
  const std::size_t parity = ticket.index % 2;
  const std::vector<std::span<std::byte>>& staging = state.staging[parity];

  // Fault mode is data, not a second path: with an active plan every
  // remote payload (data and credits) carries a frame header before
  // its body, and the receive validates each delivery. Without one the
  // fabric has no plan attached, so send_reliable is a plain send and
  // every delivery is clean -- the bit-identical contract.
  const net::FaultPlan* plan = epoch_plan_.get();
  const bool faulty = epoch_faulty_;
  const std::size_t frame_off = faulty ? kFrameHeaderBytes : 0;
  net::Fabric& fabric = node.fabric();
  net::BufferPool& pool = fabric.pool();

  // One trace event spanning [start_vt, now] on this node.
  const auto record_event = [&](viz::EventKind kind, int fn_id, int t,
                                int iter, double start_vt,
                                std::uint64_t bytes, std::string label) {
    viz::Event e;
    e.kind = kind;
    e.function_id = fn_id;
    e.thread = t;
    e.iteration = iter;
    e.start_vt = start_vt;
    e.end_vt = node.now();
    e.bytes = bytes;
    e.label = std::move(label);
    share.events.record(std::move(e));
  };

  const auto record_fault = [&](int fn_id, int t, int iter, double start_vt,
                                std::uint64_t bytes, std::string label) {
    if (!trace) return;
    record_event(viz::EventKind::kFault, fn_id, t, iter, start_vt, bytes,
                 std::move(label));
  };

  /// Seals `frame` under an active plan: the header before the body at
  /// frame_off, carrying the body's checksum.
  const auto seal = [&](std::span<std::byte> frame, std::uint64_t checksum) {
    if (faulty) {
      net::write_frame_header(frame, frame.size() - frame_off, checksum);
    }
  };

  /// The one send. The fabric resolves the whole retransmit exchange
  /// (one attempt without a plan), the sender's clock joins the post-ARQ
  /// time, and each retransmit is surfaced as a kRetry event.
  const auto send = [&](int dst_node, int tag, net::Payload payload,
                        std::size_t body_bytes, int fn_id, int t, int iter,
                        const std::string& label) {
    const double t_before = node.now();
    const net::SendReceipt receipt = fabric.send_reliable(
        rank, dst_node, tag, std::move(payload), node.now());
    node.clock().join(receipt.sender_after);
    if (trace) {
      for (int attempt = 1; attempt < receipt.attempts; ++attempt) {
        record_event(viz::EventKind::kRetry, fn_id, t, iter, t_before,
                     body_bytes, label);
      }
    }
  };

  /// The one receive: joins the clock to the arrival and returns the
  /// payload (its body starts at frame_off). Under an active plan it
  /// consumes deliveries in arrival order, counting drop tombstones
  /// (loss-detection timeouts) and rejecting invalid frames until a
  /// clean one lands. The frame checksum -- not the fabric's fault flag
  /// -- is the integrity oracle, so corruption whose flips cancel is
  /// rightly accepted.
  const auto recv = [&](int src_node, int tag, int fn_id, int t, int iter,
                        const std::string& label) -> net::Payload {
    for (;;) {
      const double t_before = node.now();
      net::Message msg = fabric.recv(rank, src_node, tag, recv_timeout);
      node.clock().join(msg.arrival_vt);
      if (!faulty) return std::move(msg.payload);
      if (msg.fault == net::FaultKind::kDrop) {
        ++share.observed_timeouts;
        record_fault(fn_id, t, iter, t_before, 0, label + " [timeout]");
        continue;
      }
      bool valid = false;
      {
        support::ComputeScope scope(node.clock(), node.cpu_scale());
        valid = net::frame_valid(msg.payload);
      }
      if (!valid) {
        ++share.observed_corruptions;
        record_fault(fn_id, t, iter, t_before, msg.payload.size(),
                     label + " [corrupt]");
        continue;
      }
      if (msg.fault == net::FaultKind::kDelay) {
        record_fault(fn_id, t, iter, t_before, msg.payload.size(),
                     label + " [delay]");
      }
      return std::move(msg.payload);
    }
  };

  // Flow-control credit: one zero body byte, sealed under a plan. The
  // content is constant, so one pooled block serves every credit send
  // of the epoch; the fabric's copy-on-write keeps injected corruption
  // off the shared block.
  const auto send_credit = [&](int dst_node, int tag, int fn_id, int t,
                               int iter, const std::string& label) {
    if (credit.empty()) {
      credit = pool.acquire(frame_off + 1);
      const std::span<std::byte> frame = credit.writable();
      frame[frame_off] = std::byte{0};
      seal(frame, fnv1a_accum(kFnvOffsetBasis, frame.data() + frame_off, 1));
    }
    send(dst_node, tag, credit, 1, fn_id, t, iter, label);
  };

  /// The one landing and fill: copies `op`'s bytes from `src` (located
  /// by `from`) to `dst` (located by `to`). The unique policy stages
  /// them through the node's logical-buffer scratch in the packed
  /// layout -- the extra data access the paper's "unique logical
  /// buffers per function" pays. `charged` puts the passes on the
  /// node's compute clock; `hash` folds the body checksum into the last
  /// pass.
  const auto transfer = [&](const TransferOp& op, SegOffset from,
                            std::span<const std::byte> src, SegOffset to,
                            std::span<std::byte> dst, bool charged,
                            bool hash) {
    std::optional<support::ComputeScope> scope;
    if (charged) scope.emplace(node.clock(), node.cpu_scale());
    std::uint64_t passes = 1;
    if (unique) {
      const std::span<std::byte> logical(state.scratch.get(), op.bytes);
      copy_segs(op.segs, from, &ByteSeg::packed_off, src, logical, false);
      src = logical;
      from = &ByteSeg::packed_off;
      passes = 2;
    }
    const std::uint64_t checksum = copy_segs(op.segs, from, to, src, dst, hash);
    share.bytes_copied += passes * op.bytes;
    return checksum;
  };

  const std::vector<Step>& steps = state.lowered.steps;
  std::size_t first = state.lowered.head;
  std::size_t last = steps.size();
  if (stage == Stage::kHead) {
    first = 0;
    last = state.lowered.head;
    if (iter == 0) {
      share.start_vt = node.now();
      // Every ticket starts with zeroed private staging (a host-side
      // memset on this node's thread; the virtual clock is untouched),
      // so a kernel that reads before it writes sees the same bytes
      // whether data sets ran cold, warm, back to back or overlapped.
      // Write-before-read slots are fully rewritten before every read
      // and need no zeroing.
      std::memset(state.arena.get(), 0, state.zero_bytes);
    }
    if (faulty) {
      // Modeled node hiccup entering this iteration (thermal event,
      // competing load, GC pause on the emulated host...).
      const double stall = plan->stall_vt(rank, iter);
      if (stall > 0) {
        const double t_before = node.now();
        node.clock().advance(stall);
        ++share.stalls;
        record_fault(-1, 0, iter, t_before, 0, "stall");
      }
    }
    if (state.hosts_source) {
      share.iter_start.push_back(node.now());
      if (trace) {
        record_event(viz::EventKind::kIterationStart, -1, 0, iter, node.now(),
                     0, "iteration");
      }
    }
  }

  const auto op_of = [&](const Step& step) -> const TransferOp& {
    return program.ops[static_cast<std::size_t>(step.op)];
  };
  const auto label_of = [&](const TransferOp& op) -> const std::string& {
    return program.buffers[static_cast<std::size_t>(op.buf)].label;
  };
  // The fan-out share group of the firing whose sends are running.
  int last_group = -1;
  net::Payload group_payload;
  for (std::size_t s = first; s < last; ++s) {
    const Step& step = steps[s];
    const NodeFiring& firing =
        state.lowered.firings[static_cast<std::size_t>(step.firing)];
    const int fn_id = firing.fn_id;
    const int t = firing.thread;
    switch (step.kind) {
      case StepKind::kReceive: {
        const TransferOp& op = op_of(step);
        const std::string& label = label_of(op);
        const double t_before = node.now();
        net::Payload payload = recv(op.src_node, op.tag, fn_id, t, iter, label);
        const std::span<const std::byte> body =
            payload.bytes().subspan(frame_off);
        if (trace) {
          record_event(viz::EventKind::kReceive, fn_id, t, iter, t_before,
                       body.size(), label);
        }
        transfer(op, &ByteSeg::packed_off, body, &ByteSeg::dst_off,
                 staging[static_cast<std::size_t>(op.dst_slot)],
                 /*charged=*/true, /*hash=*/false);
        // Release the pooled block before the credit round-trip so the
        // producer's next payload can reuse it.
        payload.reset();
        if (op_depth_(op) > 0) {
          send_credit(op.src_node, op.tag, fn_id, t, iter, label + " credit");
        }
        break;
      }

      case StepKind::kFire: {
        BoundFiring& bound = state.bound[static_cast<std::size_t>(step.firing)];
        KernelContext& kctx = bound.ctx[parity];
        kctx.rearm(iter);
        const double exec_start = node.now();
        {
          support::ComputeScope scope(node.clock(), node.cpu_scale());
          kernels_[static_cast<std::size_t>(fn_id)](kctx);
        }
        if (metrics) {
          // Two fixed-slot accumulator writes, folded into the metrics
          // registry at collection (the registry stays host-only while
          // tickets overlap); like the probes, charged to host time only.
          share.fn_busy[static_cast<std::size_t>(fn_id)] +=
              node.now() - exec_start;
          share.fn_calls[static_cast<std::size_t>(fn_id)] += 1.0;
        }
        if (trace && bound.probed) {
          viz::Event start;
          start.kind = viz::EventKind::kFunctionStart;
          start.function_id = fn_id;
          start.thread = t;
          start.iteration = iter;
          start.start_vt = start.end_vt = exec_start;
          start.label = cfg.function(fn_id).name;
          share.events.record(start);
          viz::Event end = start;
          end.kind = viz::EventKind::kFunctionEnd;
          end.start_vt = end.end_vt = node.now();
          share.events.record(end);
        }
        if (kctx.has_result()) {
          share.results.emplace_back(fn_id, iter, kctx.result());
        }
        if (bound.sink) {
          share.iter_end.push_back(node.now());
          if (trace) {
            record_event(viz::EventKind::kIterationEnd, -1, 0, iter,
                         node.now(), 0, "iteration");
          }
        }
        // This firing's sends start a fresh share group.
        last_group = -1;
        group_payload.reset();
        break;
      }

      case StepKind::kDeliver: {
        // Local delivery straight into the consumer's staging.
        const TransferOp& op = op_of(step);
        const double t_before = node.now();
        transfer(op, &ByteSeg::src_off,
                 staging[static_cast<std::size_t>(op.src_slot)],
                 &ByteSeg::dst_off,
                 staging[static_cast<std::size_t>(op.dst_slot)],
                 /*charged=*/true, /*hash=*/false);
        if (trace) {
          record_event(viz::EventKind::kBufferCopy, fn_id, t, iter, t_before,
                       op.bytes, label_of(op));
        }
        break;
      }

      case StepKind::kSend: {
        const TransferOp& op = op_of(step);
        const std::string& label = label_of(op);
        const int depth = op_depth_(op);
        std::uint32_t& sends_done =
            state.sends_done[static_cast<std::size_t>(step.op)];
        if (depth > 0 && sends_done >= static_cast<std::uint32_t>(depth)) {
          // Wait for a free slot in this channel's physical-buffer ring:
          // the consumer's credit for send (n - depth). The counter is
          // epoch-continuous, so a producer k tickets ahead still
          // respects the ring bound across data sets.
          (void)recv(op.dst_node, op.tag, fn_id, t, iter, label + " credit");
        }
        const double t_before = node.now();
        net::Payload payload;
        if (!unique && op.share_group >= 0 && op.share_group == last_group) {
          // Fan-out share: this destination receives the same bytes the
          // group leader packed -- send the handle, not a copy.
          payload = group_payload;
        } else {
          payload = pool.acquire(frame_off + op.bytes);
          const std::span<std::byte> frame = payload.writable();
          // A clean, shared, contiguous send borrows the staging slice
          // into the payload in one pass, modeled as a DMA gather: not
          // charged to the node's compute clock.
          const bool charged = unique || faulty || !op.contiguous;
          seal(frame,
               transfer(op, &ByteSeg::src_off,
                        staging[static_cast<std::size_t>(op.src_slot)],
                        &ByteSeg::packed_off, frame.subspan(frame_off),
                        charged, faulty));
          if (!unique && op.share_group >= 0) {
            last_group = op.share_group;
            group_payload = payload;
          }
        }
        send(op.dst_node, op.tag, std::move(payload), op.bytes, fn_id, t,
             iter, label);
        share.bytes_moved += op.bytes;
        ++sends_done;
        if (trace) {
          record_event(viz::EventKind::kSend, fn_id, t, iter, t_before,
                       op.bytes, label);
        }
        break;
      }
    }
  }
}

}  // namespace sage::runtime
