// Metrics tests: the registry (definitions, one cell per series,
// histogram bucketing, reset semantics), the exporters (Prometheus exposition,
// metrics CSV, human report), and the runtime::Session always-on probes
// (per-function counters, latency monitors, per-link fabric series) --
// including the bit-identical determinism contract across warm re-runs
// and fresh sessions, mirroring session_test's warm/cold matrix.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "apps/benchmarks.hpp"
#include "apps/pipelines.hpp"
#include "core/project.hpp"
#include "net/fault.hpp"
#include "runtime/session.hpp"
#include "support/error.hpp"
#include "viz/exporters.hpp"
#include "viz/metrics.hpp"

namespace sage::viz {
namespace {

// --- registry ---------------------------------------------------------------

TEST(MetricsRegistryTest, CounterAccumulatesInOneCell) {
  MetricsRegistry registry;
  const int id = registry.counter("sage_test_total", "help");
  registry.add(id, 1.0);
  registry.add(id, 2.0);
  registry.add(id, 4.0);
  registry.add(id, 8.0);
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.series.size(), 1u);
  EXPECT_EQ(snap.series[0].name, "sage_test_total");
  EXPECT_EQ(snap.series[0].kind, MetricKind::kCounter);
  EXPECT_EQ(snap.series[0].value, 15.0);
}

TEST(MetricsRegistryTest, GaugeSetOverwrites) {
  MetricsRegistry registry;
  const int gauge = registry.gauge("sage_gauge", "");
  registry.gauge("sage_untouched", "");
  registry.set(gauge, 5.0);
  registry.set(gauge, -3.0);  // the last write wins, negative included
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.find("sage_gauge")->kind, MetricKind::kGauge);
  EXPECT_EQ(snap.find("sage_gauge")->value, -3.0);
  EXPECT_EQ(snap.find("sage_untouched")->value, 0.0);
}

TEST(MetricsRegistryTest, HistogramBucketsAreInclusiveUpperBounds) {
  MetricsRegistry registry;
  const int id = registry.histogram("sage_h", "", {1.0, 2.0, 4.0});
  registry.observe(id, 0.5);   // le=1
  registry.observe(id, 2.0);   // le=2 (inclusive, Prometheus style)
  registry.observe(id, 3.0);   // le=4
  registry.observe(id, 100.0); // +Inf
  const MetricsSnapshot snap = registry.snapshot();
  const HistogramValue& h = snap.series[0].histogram;
  ASSERT_EQ(h.counts.size(), 4u);  // 3 bounds + +Inf
  EXPECT_EQ(h.counts[0], 1u);
  EXPECT_EQ(h.counts[1], 1u);
  EXPECT_EQ(h.counts[2], 1u);
  EXPECT_EQ(h.counts[3], 1u);
  EXPECT_EQ(h.count, 4u);
  EXPECT_DOUBLE_EQ(h.sum, 105.5);
}

TEST(MetricsRegistryTest, LabelsDistinguishSeriesOfOneFamily) {
  MetricsRegistry registry;
  const int a = registry.counter("sage_fam", "", {{"k", "a"}});
  const int b = registry.counter("sage_fam", "", {{"k", "b"}});
  EXPECT_NE(a, b);
  registry.add(a, 1.0);
  registry.add(b, 2.0);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_DOUBLE_EQ(snap.find("sage_fam", {{"k", "a"}})->value, 1.0);
  EXPECT_DOUBLE_EQ(snap.find("sage_fam", {{"k", "b"}})->value, 2.0);
  EXPECT_EQ(snap.find("sage_fam", {{"k", "c"}}), nullptr);
  EXPECT_EQ(registry.lookup("sage_fam", {{"k", "b"}}), b);
  EXPECT_EQ(registry.lookup("sage_nope", {}), std::nullopt);
}

TEST(MetricsRegistryTest, BadDefinitionsThrow) {
  MetricsRegistry registry;
  registry.counter("sage_dup", "", {{"k", "a"}});
  EXPECT_THROW(registry.counter("sage_dup", "", {{"k", "a"}}), Error);
  EXPECT_THROW(registry.counter("", ""), Error);
  EXPECT_THROW(registry.histogram("sage_h_bad", "", {2.0, 1.0}), Error);
  EXPECT_THROW(registry.histogram("sage_h_bad2", "", {1.0, 1.0}), Error);
}

TEST(MetricsRegistryTest, ResetZeroesValuesButKeepsDefinitions) {
  MetricsRegistry registry;
  const int c = registry.counter("sage_c", "");
  const int h = registry.histogram("sage_h", "", {1.0});
  registry.add(c, 7.0);
  registry.observe(h, 0.5);
  registry.reset();
  EXPECT_EQ(registry.size(), 2);  // ids survive
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_DOUBLE_EQ(snap.find("sage_c")->value, 0.0);
  EXPECT_EQ(snap.find("sage_h")->histogram.count, 0u);
  // The zeroed snapshot equals a never-touched registry's snapshot.
  registry.add(c, 7.0);
  registry.reset();
  EXPECT_EQ(registry.snapshot(), snap);
}

TEST(MetricsSnapshotTest, DeterministicSubsetDropsTimeBasedSeries) {
  MetricsRegistry registry;
  registry.counter("sage_busy_seconds", "", {}, /*time_based=*/true);
  registry.counter("sage_calls", "");
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.series.size(), 2u);
  const MetricsSnapshot det = snap.deterministic_subset();
  ASSERT_EQ(det.series.size(), 1u);
  EXPECT_EQ(det.series[0].name, "sage_calls");
}

// --- exporters --------------------------------------------------------------

MetricsSnapshot exporter_sample() {
  MetricsRegistry registry;
  // Interleaved families, as the per-link series are defined.
  const int a0 = registry.counter("sage_a_total", "family a", {{"l", "0"}});
  const int b0 = registry.counter("sage_b_total", "family b", {{"l", "0"}});
  const int a1 = registry.counter("sage_a_total", "", {{"l", "1"}});
  const int b1 = registry.counter("sage_b_total", "", {{"l", "1"}});
  const int h = registry.histogram("sage_lat", "latency", {0.1, 1.0});
  registry.add(a0, 1.0);
  registry.add(b0, 2.0);
  registry.add(a1, 3.0);
  registry.add(b1, 4.0);
  registry.observe(h, 0.05);
  registry.observe(h, 0.5);
  registry.observe(h, 5.0);
  return registry.snapshot();
}

TEST(ExportersTest, PrometheusTextGroupsFamilies) {
  const std::string text = prometheus_text(exporter_sample());
  // One TYPE header per family, even though definitions interleaved.
  std::size_t type_a = 0;
  std::size_t pos = 0;
  while ((pos = text.find("# TYPE sage_a_total", pos)) != std::string::npos) {
    ++type_a;
    ++pos;
  }
  EXPECT_EQ(type_a, 1u);
  EXPECT_NE(text.find("# HELP sage_a_total family a"), std::string::npos);
  EXPECT_NE(text.find("sage_a_total{l=\"0\"} 1"), std::string::npos);
  EXPECT_NE(text.find("sage_a_total{l=\"1\"} 3"), std::string::npos);
  // Both sage_a series appear before the sage_b header (grouped).
  EXPECT_LT(text.find("sage_a_total{l=\"1\"}"), text.find("# TYPE sage_b"));
}

TEST(ExportersTest, PrometheusHistogramIsCumulative) {
  const std::string text = prometheus_text(exporter_sample());
  // Bounds print at max_digits10 (0.1 -> "0.10000000000000001").
  EXPECT_NE(text.find("sage_lat_bucket{le=\"0.100"), std::string::npos);
  EXPECT_NE(text.find("\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("sage_lat_bucket{le=\"1\"} 2"), std::string::npos);
  EXPECT_NE(text.find("sage_lat_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("sage_lat_sum 5.5"), std::string::npos);
  EXPECT_NE(text.find("sage_lat_count 3"), std::string::npos);
}

TEST(ExportersTest, PrometheusEscapesLabelValues) {
  MetricsRegistry registry;
  registry.counter("sage_esc_total", "", {{"f", "a\"b\\c\nd"}});
  const std::string text = prometheus_text(registry.snapshot());
  EXPECT_NE(text.find("f=\"a\\\"b\\\\c\\nd\""), std::string::npos) << text;
}

TEST(ExportersTest, MetricsCsvListsEverySeries) {
  const std::string csv = metrics_csv(exporter_sample());
  EXPECT_NE(csv.find("name,labels,kind,field,value"), std::string::npos);
  EXPECT_NE(csv.find("sage_a_total,l=0,counter,value,1"), std::string::npos);
  EXPECT_NE(csv.find("sage_lat,,histogram,le:0.100"), std::string::npos);
  EXPECT_NE(csv.find("sage_lat,,histogram,count,3"), std::string::npos);
}

// --- Session integration ----------------------------------------------------

runtime::ExecuteOptions fast_options(int iterations = 3) {
  runtime::ExecuteOptions options;
  options.iterations = iterations;
  options.collect_trace = false;
  return options;
}

TEST(SessionMetricsTest, RunStatsCarriesStructuralSeries) {
  core::Project project(apps::make_fft2d_workspace(64, 2));
  const runtime::RunStats stats = project.execute(fast_options());
  ASSERT_FALSE(stats.metrics.empty());

  // Every function ran 2 threads x 3 iterations.
  const MetricValue* calls = stats.metrics.find(
      families::kFunctionInvocations, {{"function", "src"}});
  ASSERT_NE(calls, nullptr);
  EXPECT_DOUBLE_EQ(calls->value, 6.0);

  EXPECT_DOUBLE_EQ(stats.metrics.find(families::kIterations)->value, 3.0);
  EXPECT_EQ(stats.metrics.find(families::kIterationLatency)->histogram.count,
            stats.latencies.size());
  EXPECT_DOUBLE_EQ(stats.metrics.find(families::kMakespan)->value,
                   stats.makespan);

  // The corner turn goes cross-node on 2 nodes: link series must exist
  // and agree with the fabric totals.
  double link_bytes = 0.0;
  for (const MetricValue& v : stats.metrics.series) {
    if (v.name == families::kLinkBytes) link_bytes += v.value;
  }
  EXPECT_DOUBLE_EQ(link_bytes, static_cast<double>(stats.fabric_bytes));

  // No fault plan: every fault series is zero.
  for (const MetricValue& v : stats.metrics.series) {
    if (v.name == families::kFaultsInjected ||
        v.name == families::kFaultRetries) {
      EXPECT_DOUBLE_EQ(v.value, 0.0);
    }
  }
}

TEST(SessionMetricsTest, CollectMetricsOffLeavesSnapshotEmpty) {
  core::Project project(apps::make_fft2d_workspace(64, 2));
  runtime::ExecuteOptions options = fast_options();
  options.collect_metrics = false;
  const runtime::RunStats stats = project.execute(options);
  EXPECT_TRUE(stats.metrics.empty());

  // And per-run override on a warm session.
  core::Project warm_project(apps::make_fft2d_workspace(64, 2));
  auto session = warm_project.open_session(fast_options());
  runtime::RunOverrides off;
  off.collect_metrics = false;
  EXPECT_TRUE(session->run(off).metrics.empty());
  EXPECT_FALSE(session->run().metrics.empty());
}

TEST(SessionMetricsTest, LatencyThresholdMonitorCounts) {
  core::Project project(apps::make_fft2d_workspace(64, 2));
  runtime::ExecuteOptions options = fast_options();
  options.latency_threshold = 1e-12;  // every iteration violates
  const runtime::RunStats stats = project.execute(options);
  EXPECT_DOUBLE_EQ(stats.metrics.find(families::kLatencyViolations)->value,
                   static_cast<double>(stats.latencies.size()));
  EXPECT_DOUBLE_EQ(stats.metrics.find(families::kLatencyThreshold)->value,
                   1e-12);

  // A generous threshold records zero violations.
  options.latency_threshold = 1e6;
  const runtime::RunStats calm = project.execute(options);
  EXPECT_DOUBLE_EQ(calm.metrics.find(families::kLatencyViolations)->value,
                   0.0);
}

TEST(SessionMetricsTest, RunStatsFieldsMatchTheirFamilies) {
  // Four nodes with one dead leave three survivors, so remote links --
  // and the link fault series -- remain.
  auto plan = std::make_shared<net::FaultPlan>(net::FaultPlan::parse(
      "fault-plan 1\n"
      "seed 11\n"
      "drop link=* p=0.2\n"
      "corrupt link=* p=0.2 bytes=4\n"
      "delay link=* p=0.3 vt=1e-4\n"
      "stall node=0 iter=1 vt=1e-3\n"
      "dead node=3\n"));
  runtime::ExecuteOptions options = fast_options(4);
  options.fault_plan = plan;
  core::Project project(apps::make_cornerturn_workspace(64, 4));
  const runtime::RunStats stats = project.execute(options);

  const auto value = [&](const char* name, const char* kind = nullptr) {
    const MetricValue* v =
        kind == nullptr ? stats.metrics.find(name, {})
                        : stats.metrics.find(name, {{"kind", kind}});
    EXPECT_NE(v, nullptr) << name;
    return v == nullptr ? -1.0 : v->value;
  };
  const runtime::FaultStats& faults = stats.faults;
  EXPECT_GT(faults.injected_drops, 0u);
  EXPECT_GT(faults.injected_corruptions, 0u);
  EXPECT_GT(faults.injected_delays, 0u);
  EXPECT_GT(faults.retries, 0u);
  EXPECT_GT(faults.timeouts, 0u);
  EXPECT_GT(faults.corruptions_detected, 0u);
  EXPECT_GT(faults.stalls, 0u);
  EXPECT_EQ(faults.degraded_nodes, 1);
  EXPECT_EQ(value(families::kFaultsInjected, "drop"),
            static_cast<double>(faults.injected_drops));
  EXPECT_EQ(value(families::kFaultsInjected, "corrupt"),
            static_cast<double>(faults.injected_corruptions));
  EXPECT_EQ(value(families::kFaultsInjected, "delay"),
            static_cast<double>(faults.injected_delays));
  EXPECT_EQ(value(families::kFaultRetries),
            static_cast<double>(faults.retries));
  EXPECT_EQ(value(families::kFaultTimeouts),
            static_cast<double>(faults.timeouts));
  EXPECT_EQ(value(families::kFaultCorruptFrames),
            static_cast<double>(faults.corruptions_detected));
  EXPECT_EQ(value(families::kFaultStalls), static_cast<double>(faults.stalls));
  EXPECT_EQ(value(families::kDegradedNodes),
            static_cast<double>(faults.degraded_nodes));

  const runtime::DataPlaneStats& data = stats.data_plane;
  EXPECT_GT(data.bytes_copied, 0u);
  EXPECT_GT(data.bytes_moved, 0u);
  EXPECT_EQ(value(families::kDataBytesCopied),
            static_cast<double>(data.bytes_copied));
  EXPECT_EQ(value(families::kDataBytesMoved),
            static_cast<double>(data.bytes_moved));
  EXPECT_EQ(value(families::kPoolHits), static_cast<double>(data.pool_hits));
  EXPECT_EQ(value(families::kPoolMisses),
            static_cast<double>(data.pool_misses));
  EXPECT_EQ(value(families::kPoolBlocks),
            static_cast<double>(data.pool_blocks));

  // The per-link retransmit series add up to the fault counter.
  double link_retransmits = 0.0;
  for (const MetricValue& v : stats.metrics.series) {
    if (v.name == families::kLinkRetransmits) link_retransmits += v.value;
  }
  EXPECT_EQ(link_retransmits, static_cast<double>(faults.retries));
}

/// One line per series: name{labels} kind, plus " time" when time-based.
std::vector<std::string> series_shape(const MetricsSnapshot& snapshot) {
  std::vector<std::string> out;
  for (const MetricValue& v : snapshot.series) {
    std::string line = v.name + "{";
    for (std::size_t i = 0; i < v.labels.size(); ++i) {
      line += (i > 0 ? "," : "") + v.labels[i].first + "=" +
              v.labels[i].second;
    }
    line += std::string("} ") + to_string(v.kind);
    if (v.time_based) line += " time";
    out.push_back(std::move(line));
  }
  return out;
}

TEST(SessionMetricsTest, SeriesOrderIsPinned) {
  // Snapshot order is definition order, and the Prometheus text and
  // metrics CSV follow it: pin it for a plan-cached corner turn.
  const std::string cache_dir = "metrics_test_series_order_cache";
  std::filesystem::remove_all(cache_dir);
  runtime::ExecuteOptions options = fast_options();
  options.plan_cache_dir = cache_dir;
  core::Project project(apps::make_cornerturn_workspace(64, 2));
  const runtime::RunStats stats = project.execute(options);
  std::filesystem::remove_all(cache_dir);

  const std::vector<std::string> expected = {
      "sage_function_busy_seconds_total{function=src} counter time",
      "sage_function_busy_seconds_total{function=corner_turn} counter time",
      "sage_function_busy_seconds_total{function=sink} counter time",
      "sage_function_invocations_total{function=src} counter",
      "sage_function_invocations_total{function=corner_turn} counter",
      "sage_function_invocations_total{function=sink} counter",
      "sage_stage_occupancy_ratio{function=src} gauge time",
      "sage_stage_occupancy_ratio{function=corner_turn} gauge time",
      "sage_stage_occupancy_ratio{function=sink} gauge time",
      "sage_stream_period_seconds{} gauge time",
      "sage_iterations_total{} counter",
      "sage_iteration_latency_seconds{} histogram time",
      "sage_latency_violations_total{} counter time",
      "sage_latency_threshold_seconds{} gauge",
      "sage_run_makespan_seconds{} gauge time",
      "sage_faults_injected_total{kind=drop} counter",
      "sage_faults_injected_total{kind=corrupt} counter",
      "sage_faults_injected_total{kind=delay} counter",
      "sage_fault_retries_total{} counter",
      "sage_fault_timeouts_total{} counter",
      "sage_fault_corrupt_frames_total{} counter",
      "sage_fault_stalls_total{} counter",
      "sage_degraded_nodes{} gauge",
      "sage_data_bytes_copied_total{} counter",
      "sage_data_bytes_moved_total{} counter",
      "sage_buffer_pool_hits_total{} counter time",
      "sage_buffer_pool_misses_total{} counter time",
      "sage_buffer_pool_blocks{} gauge time",
      "sage_program_compile_seconds{} gauge time",
      "sage_plan_cache_lookups_total{outcome=miss} counter time",
      "sage_link_messages_total{src=0,dst=1} counter",
      "sage_link_bytes_total{src=0,dst=1} counter",
      "sage_link_retransmits_total{src=0,dst=1} counter",
      "sage_link_busy_seconds_total{src=0,dst=1} counter",
      "sage_link_messages_total{src=1,dst=0} counter",
      "sage_link_bytes_total{src=1,dst=0} counter",
      "sage_link_retransmits_total{src=1,dst=0} counter",
      "sage_link_busy_seconds_total{src=1,dst=0} counter",
  };
  EXPECT_EQ(series_shape(stats.metrics), expected);
}

TEST(SessionMetricsTest, ReportRendersSessionMetrics) {
  core::Project project(apps::make_radar_workspace(64, 128, 2));
  runtime::ExecuteOptions options;
  options.iterations = 2;
  options.latency_threshold = 1e-12;
  const runtime::RunStats stats = project.execute(options);
  ReportOptions report_options;
  report_options.latency_threshold = options.latency_threshold;
  const std::string text = report(stats.trace, stats.metrics, report_options);
  EXPECT_NE(text.find("bottleneck:"), std::string::npos);
  EXPECT_NE(text.find("node utilization:"), std::string::npos);
  EXPECT_NE(text.find("latency violations"), std::string::npos);
  EXPECT_NE(text.find("fabric links"), std::string::npos);
}

// --- determinism matrix (mirrors session_test's warm/cold pattern) ----------

struct MetricsCase {
  std::string app;  // "fft2d" or "cornerturn"
  runtime::BufferPolicy policy = runtime::BufferPolicy::kUniquePerFunction;
  int buffer_depth = 0;
};

// gtest prints a parameter with no printer as its raw bytes -- heap
// addresses for a std::string -- and the printed value becomes part of
// each case's ctest name, so print the case itself.
void PrintTo(const MetricsCase& c, std::ostream* os) {
  *os << c.app << " " << runtime::to_string(c.policy) << " depth "
      << c.buffer_depth;
}

std::string metrics_case_name(
    const ::testing::TestParamInfo<MetricsCase>& info) {
  const bool shared = info.param.policy == runtime::BufferPolicy::kShared;
  return info.param.app + (shared ? "_shared_depth" : "_unique_depth") +
         std::to_string(info.param.buffer_depth);
}

std::unique_ptr<model::Workspace> metrics_workspace(const std::string& app) {
  if (app == "fft2d") return apps::make_fft2d_workspace(64, 2);
  return apps::make_cornerturn_workspace(64, 2);
}

runtime::ExecuteOptions metrics_options(const MetricsCase& param) {
  runtime::ExecuteOptions options;
  options.buffer_policy = param.policy;
  options.iterations = 3;
  options.buffer_depth = param.buffer_depth;
  options.collect_trace = false;
  return options;
}

class MetricsDeterminismTest
    : public ::testing::TestWithParam<MetricsCase> {};

TEST_P(MetricsDeterminismTest, DeterministicSubsetIsBitIdentical) {
  const MetricsCase& param = GetParam();
  constexpr int kRuns = 3;

  // Warm path: one session, kRuns runs.
  core::Project warm_project(metrics_workspace(param.app));
  auto session = warm_project.open_session(metrics_options(param));
  std::vector<runtime::RunStats> warm;
  for (int r = 0; r < kRuns; ++r) warm.push_back(session->run());

  const MetricsSnapshot reference = warm[0].metrics.deterministic_subset();
  ASSERT_FALSE(reference.empty());

  // Warm re-runs: bit-identical deterministic subset (operator== compares
  // doubles exactly).
  for (int r = 1; r < kRuns; ++r) {
    EXPECT_EQ(warm[static_cast<std::size_t>(r)].metrics.deterministic_subset(),
              reference)
        << "warm run " << r;
  }

  // Fresh sessions (the cold path): same subset again.
  core::Project cold_project(metrics_workspace(param.app));
  for (int r = 0; r < 2; ++r) {
    const runtime::RunStats cold =
        cold_project.execute(metrics_options(param));
    EXPECT_EQ(cold.metrics.deterministic_subset(), reference)
        << "cold run " << r;
  }

  // Time-based series exist and are positive -- they are excluded from
  // the subset because they jitter, not because they are missing.
  for (const runtime::RunStats& stats : warm) {
    const MetricValue* busy = stats.metrics.find(
        families::kFunctionBusySeconds);
    ASSERT_NE(busy, nullptr);
    EXPECT_TRUE(busy->time_based);
    EXPECT_GT(busy->value, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AppsPoliciesDepths, MetricsDeterminismTest,
    ::testing::Values(
        MetricsCase{"fft2d", runtime::BufferPolicy::kUniquePerFunction, 0},
        MetricsCase{"fft2d", runtime::BufferPolicy::kShared, 0},
        MetricsCase{"fft2d", runtime::BufferPolicy::kUniquePerFunction, 2},
        MetricsCase{"cornerturn", runtime::BufferPolicy::kUniquePerFunction,
                    0},
        MetricsCase{"cornerturn", runtime::BufferPolicy::kShared, 2}),
    metrics_case_name);

}  // namespace
}  // namespace sage::viz
