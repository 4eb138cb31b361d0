// openSAGE -- Visualizer metrics: the numeric half of the observability
// layer (the Trace is the event half).
//
// The paper's Visualizer "allows the designer to configure the
// instrumentation probes to measure application performance"; traces
// answer *when*, metrics answer *how much*. A MetricsRegistry holds a
// fixed set of metric definitions (counters, gauges, fixed-bucket
// histograms, optionally labeled) and one value cell per series.
//
// Threading model: the registry does no locking; each owner serialises
// its own calls. runtime::Session writes and snapshots on its host
// thread during collection (node threads accumulate into per-ticket
// shares and never touch the registry), serve::Server does everything
// under its mutex, and runtime::Tuner from its own thread. snapshot()
// lists series in definition order.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sage::viz {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

const char* to_string(MetricKind kind);

/// Conventional family names emitted by the runtime's always-on probes
/// (runtime::Session) and consumed by the exporters' report().
namespace families {
inline constexpr const char* kFunctionBusySeconds =
    "sage_function_busy_seconds_total";
inline constexpr const char* kFunctionInvocations =
    "sage_function_invocations_total";
inline constexpr const char* kIterations = "sage_iterations_total";
inline constexpr const char* kIterationLatency =
    "sage_iteration_latency_seconds";
inline constexpr const char* kLatencyViolations =
    "sage_latency_violations_total";
inline constexpr const char* kLatencyThreshold =
    "sage_latency_threshold_seconds";
inline constexpr const char* kMakespan = "sage_run_makespan_seconds";
inline constexpr const char* kLinkMessages = "sage_link_messages_total";
inline constexpr const char* kLinkBytes = "sage_link_bytes_total";
inline constexpr const char* kLinkRetransmits = "sage_link_retransmits_total";
inline constexpr const char* kLinkBusySeconds = "sage_link_busy_seconds_total";
inline constexpr const char* kFaultsInjected = "sage_faults_injected_total";
inline constexpr const char* kFaultRetries = "sage_fault_retries_total";
inline constexpr const char* kFaultTimeouts = "sage_fault_timeouts_total";
inline constexpr const char* kFaultCorruptFrames =
    "sage_fault_corrupt_frames_total";
inline constexpr const char* kFaultStalls = "sage_fault_stalls_total";
inline constexpr const char* kDegradedNodes = "sage_degraded_nodes";
// Data-plane probes (zero-copy accounting; see docs/RUNTIME.md "Data
// plane"). bytes copied/moved are plan-derived and deterministic; the
// buffer-pool series depend on host-thread interleaving and are
// registered time-based.
inline constexpr const char* kDataBytesCopied = "sage_data_bytes_copied_total";
inline constexpr const char* kDataBytesMoved = "sage_data_bytes_moved_total";
inline constexpr const char* kPoolHits = "sage_buffer_pool_hits_total";
inline constexpr const char* kPoolMisses = "sage_buffer_pool_misses_total";
inline constexpr const char* kPoolBlocks = "sage_buffer_pool_blocks";
// Streaming-executor probes (see docs/RUNTIME.md "Streaming
// execution"). Occupancy and the achieved period are ratios/intervals
// of measured virtual time, so they jitter run to run and are
// registered time-based.
inline constexpr const char* kStageOccupancy = "sage_stage_occupancy_ratio";
inline constexpr const char* kStreamPeriod = "sage_stream_period_seconds";
// Multi-tenant service probes (serve::Server; see docs/SERVE.md). All
// serve accounting runs in virtual time under the server's scheduling
// model, so every family below is deterministic for a fixed arrival
// schedule.
inline constexpr const char* kServeQueueDepth = "sage_serve_queue_depth";
inline constexpr const char* kServeAdmitted = "sage_serve_admitted_total";
inline constexpr const char* kServeShed = "sage_serve_shed_total";
inline constexpr const char* kServeCompleted = "sage_serve_completed_total";
inline constexpr const char* kServeErrors = "sage_serve_errors_total";
inline constexpr const char* kServeCoalesced = "sage_serve_coalesced_total";
inline constexpr const char* kServeSessions = "sage_serve_sessions";
inline constexpr const char* kServeLatency = "sage_serve_latency_seconds";
inline constexpr const char* kServeQueueSeconds =
    "sage_serve_queue_seconds";
// Program-compilation provenance (Compiler -> Program -> Executor; see
// docs/RUNTIME.md "Lifecycle"). Both are host-wall-clock / environment
// facts (compile cost, whether a plan-cache entry existed), so they are
// registered time-based and stay out of the deterministic subset.
inline constexpr const char* kProgramCompileSeconds =
    "sage_program_compile_seconds";
inline constexpr const char* kPlanCacheLookups =
    "sage_plan_cache_lookups_total";
// Online-tuning probes (runtime::Tuner; see docs/RUNTIME.md "Online
// tuning"). Decisions are driven by measured busy seconds and the swap
// cost is host wall clock, so all three families are time-based and
// stay out of the deterministic subset.
inline constexpr const char* kTuneSteps = "sage_tune_steps_total";
inline constexpr const char* kTunePredictedGain =
    "sage_tune_predicted_gain_ratio";
inline constexpr const char* kTuneSwapSeconds = "sage_tune_swap_seconds";
}  // namespace families

/// One labeled metric series. Same name + different labels = distinct
/// series of one family (the Prometheus data model).
struct MetricSpec {
  std::string name;  // snake_case family name, e.g. sage_fabric_bytes_total
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  std::vector<std::pair<std::string, std::string>> labels;
  /// Histogram bucket upper bounds, strictly increasing; an implicit
  /// +Inf bucket is always appended.
  std::vector<double> buckets;
  /// True for series derived from measured host time (busy seconds,
  /// latencies): they jitter run to run and are excluded from
  /// MetricsSnapshot::deterministic_subset().
  bool time_based = false;
};

/// Histogram state: counts per bucket (the last entry is +Inf),
/// total count, and sum of observations.
struct HistogramValue {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  double sum = 0.0;

  bool operator==(const HistogramValue&) const = default;
};

/// One series in a snapshot.
struct MetricValue {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  std::vector<std::pair<std::string, std::string>> labels;
  bool time_based = false;
  double value = 0.0;         // counters and gauges
  HistogramValue histogram;   // histograms only

  bool operator==(const MetricValue&) const = default;
};

/// Point-in-time view of a registry, in definition order.
struct MetricsSnapshot {
  std::vector<MetricValue> series;

  bool empty() const { return series.empty(); }

  /// First series of the family `name` (any labels), or nullptr.
  const MetricValue* find(std::string_view name) const;
  /// Series with exactly these labels, or nullptr.
  const MetricValue* find(
      std::string_view name,
      const std::vector<std::pair<std::string, std::string>>& labels) const;

  /// The snapshot without time-based series: invocation counts, fabric
  /// traffic, fault counters... everything that must be bit-identical
  /// across cold runs, warm re-runs, and fresh sessions.
  MetricsSnapshot deterministic_subset() const;

  bool operator==(const MetricsSnapshot&) const = default;
};

class MetricsRegistry {
 public:
  int size() const { return static_cast<int>(specs_.size()); }

  /// Registers a series and returns its id. Throws sage::Error on a
  /// duplicate (name, labels) pair or non-increasing histogram buckets.
  int define(MetricSpec spec);

  /// Convenience definers.
  int counter(std::string name, std::string help,
              std::vector<std::pair<std::string, std::string>> labels = {},
              bool time_based = false);
  int gauge(std::string name, std::string help,
            std::vector<std::pair<std::string, std::string>> labels = {},
            bool time_based = false);
  int histogram(std::string name, std::string help,
                std::vector<double> buckets,
                std::vector<std::pair<std::string, std::string>> labels = {},
                bool time_based = false);

  /// Existing id for (name, labels), if defined.
  std::optional<int> lookup(
      std::string_view name,
      const std::vector<std::pair<std::string, std::string>>& labels) const;

  void add(int id, double delta);      // counters, gauges
  void set(int id, double value);      // gauges (the last write wins)
  void observe(int id, double value);  // histograms

  /// Zeroes every cell; definitions persist (the warm-run reset).
  void reset();

  MetricsSnapshot snapshot() const;

 private:
  struct Cell {
    double value = 0.0;
    std::vector<std::uint64_t> bucket_counts;
    std::uint64_t count = 0;
    double sum = 0.0;
  };

  std::vector<MetricSpec> specs_;
  std::vector<Cell> cells_;  // by metric id
};

}  // namespace sage::viz
