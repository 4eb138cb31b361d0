// sagebench -- the measurement harness shared by every workload: sample
// statistics, failure accounting, layer spans and the result printer.
//
// Everything here is plain arithmetic over recorded numbers so that
// selftest.cpp can check it on synthetic inputs with known answers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sagebench {

/// Monotonic wall clock, seconds.
double now_s();

/// Linear-interpolation percentile (the "inclusive" definition: rank
/// q * (n - 1) between the sorted samples). q in [0, 1]; an empty
/// sample set gives 0.
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// Percentile of samples grouped in rounds: the median, over rounds
/// holding at least `min_samples` samples, of each round's q-percentile.
/// A few rounds on a disturbed host then cannot move it; a regression
/// that slows every round does. Falls back to the pooled percentile
/// when no round is large enough.
double round_percentile(const std::vector<std::vector<double>>& rounds,
                        double q, std::size_t min_samples);

/// The rounds a timed metric is taken from: among the rounds holding at
/// least `min_samples` samples (all rounds when none does), the one in
/// `keep_one_in` of them, rounded up, whose host-speed probe read
/// fastest; earlier rounds win ties. Returned in round order. The probe runs between
/// operations, so a slower program does not change which rounds count.
std::vector<std::size_t> quietest_rounds(const std::vector<double>& probe_ms,
                                         const std::vector<std::size_t>& sizes,
                                         std::size_t min_samples,
                                         std::size_t keep_one_in);

/// failed / attempted, 0 when nothing was attempted.
double failure_share(std::uint64_t attempted, std::uint64_t failed);

/// Host-speed reference. The benchmark host is a shared VM: its speed
/// drifts by up to 2x over minutes with other tenants' load, far more
/// than any code change worth measuring. Each run therefore times a
/// fixed, benchmark-owned probe (no openSAGE code) between operations,
/// while the workload is idle: one helper thread started, 30
/// condition-variable round trips with it, and the join. Every workload
/// is made of such thread hand-offs (node threads, serve workers), whose
/// cost on a shared VM follows how long an idle vCPU waits to run again;
/// of the probes tried, this one tracked the workloads' drift best.
/// Wall-clock timings are scaled towards the host speed at which one
/// probe takes kReferenceProbeMs, by the share of the timing taken as
/// hand-offs (a fixed constant: all of a timed window's samples, half of
/// a set-up time). The probe must never change: the scaled numbers of
/// two commits are comparable only while it stays the same. It reads fast when the
/// guest's own CPUs are busy, so nothing else may run beside the
/// benchmark.
double reference_probe_ms();
/// Median of `count` probe runs, after one warm-up run.
double probe_median_ms(int count);
inline constexpr double kReferenceProbeMs = 0.5;
/// Factor that scales a wall-clock duration measured when the probe took
/// `probe_ms` to the reference host speed, when `handoff_share` of the
/// duration is thread hand-offs:
/// 1 - handoff_share + handoff_share * kReferenceProbeMs / probe_ms.
double speed_scale(double probe_ms, double handoff_share);

/// Relative comparison the correctness checks use: |a - b| within
/// `rel` of max(1, |b|).
bool close_enough(double a, double b, double rel = 1e-6);

/// One timed interval around a call into a layer. `parent` indexes the
/// enclosing span (-1 for a root); `request` ties the spans of one data
/// set, ticket or serve request together (0 when there is none).
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  std::uint64_t request = 0;
};

/// In-memory span recorder. A disabled tracer records nothing, so the
/// untraced runs pay one branch per boundary.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Opens a span under the innermost open one; returns its index
  /// (-1 when disabled).
  int open(const std::string& name, std::uint64_t request = 0);
  void close(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, const std::string& name, std::uint64_t request = 0)
        : tracer_(tracer), index_(tracer.open(name, request)) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

/// Per span name: number of spans, total duration and total self time
/// (duration minus the part of the interval its children cover).
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans);

/// Self time of one span: its duration minus the union of its
/// children's intervals clipped to it.
std::vector<double> self_times(const std::vector<Span>& spans);

/// A named metric value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// The JSON result object: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}. Values keep all their digits.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Metrics& metrics);

}  // namespace sagebench
