// Visualizer tests: trace merging, per-function statistics, bottleneck
// and utilization analyses, latency/period extraction, violations, and
// the export formats.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "support/error.hpp"
#include "viz/analysis.hpp"
#include "viz/exporters.hpp"
#include "viz/trace.hpp"

namespace sage::viz {
namespace {

Event fn_event(EventKind kind, int fn, int thread, int iter, double vt,
               const std::string& label) {
  Event e;
  e.kind = kind;
  e.function_id = fn;
  e.thread = thread;
  e.iteration = iter;
  e.start_vt = e.end_vt = vt;
  e.label = label;
  return e;
}

/// Two nodes, two iterations of [work(fn0), work(fn1)], fn1 slower.
Trace sample_trace() {
  EventBuffer node0(0), node1(1);
  for (int iter = 0; iter < 2; ++iter) {
    const double base = iter * 10.0;
    node0.record(fn_event(EventKind::kIterationStart, -1, 0, iter, base, ""));
    node0.record(fn_event(EventKind::kFunctionStart, 0, 0, iter, base, "a"));
    node0.record(fn_event(EventKind::kFunctionEnd, 0, 0, iter, base + 1, "a"));
    Event send = fn_event(EventKind::kSend, 0, 0, iter, base + 1, "a->b");
    send.bytes = 1024;
    node0.record(send);

    node1.record(fn_event(EventKind::kFunctionStart, 1, 0, iter, base + 2, "b"));
    node1.record(fn_event(EventKind::kFunctionEnd, 1, 0, iter, base + 5, "b"));
    node1.record(fn_event(EventKind::kIterationEnd, -1, 0, iter, base + 5, ""));
  }
  return Trace::merge({&node0, &node1});
}

TEST(TraceTest, MergeSortsByTime) {
  const Trace trace = sample_trace();
  ASSERT_FALSE(trace.empty());
  double last = -1.0;
  for (const Event& e : trace.events()) {
    EXPECT_GE(e.start_vt, last);
    last = e.start_vt;
  }
}

TEST(TraceTest, NodeTagAssigned) {
  EventBuffer buffer(3);
  buffer.record(fn_event(EventKind::kMarker, -1, 0, 0, 0.0, "m"));
  EXPECT_EQ(buffer.events()[0].node, 3);
}

TEST(TraceTest, EventsOfKindFilters) {
  const Trace trace = sample_trace();
  EXPECT_EQ(trace.events_of_kind(EventKind::kSend).size(), 2u);
  EXPECT_EQ(trace.events_of_kind(EventKind::kFunctionStart).size(), 4u);
}

TEST(AnalysisTest, FunctionStatsAggregate) {
  const auto stats = function_stats(sample_trace());
  ASSERT_EQ(stats.size(), 2u);
  const FunctionStats& a = stats[0];
  const FunctionStats& b = stats[1];
  EXPECT_EQ(a.name, "a");
  EXPECT_EQ(a.invocations, 2);
  EXPECT_NEAR(a.total_time, 2.0, 1e-12);
  EXPECT_NEAR(a.mean_time(), 1.0, 1e-12);
  EXPECT_NEAR(b.total_time, 6.0, 1e-12);
  EXPECT_NEAR(b.max_time, 3.0, 1e-12);
}

TEST(AnalysisTest, BottleneckIsLargestTotal) {
  const auto bn = bottleneck(sample_trace());
  ASSERT_TRUE(bn.has_value());
  EXPECT_EQ(bn->name, "b");
}

TEST(AnalysisTest, BottleneckEmptyWithoutFunctionEvents) {
  // Regression: an empty trace -- or one that carries only non-function
  // events (marker/fault-only traces) -- used to raise instead of
  // reporting "no bottleneck".
  EXPECT_EQ(bottleneck(Trace{}), std::nullopt);
  EventBuffer node0(0);
  node0.record(fn_event(EventKind::kMarker, -1, 0, 0, 1.0, "m"));
  node0.record(fn_event(EventKind::kFault, -1, 0, 0, 2.0, "stall"));
  EXPECT_EQ(bottleneck(Trace::merge({&node0})), std::nullopt);
}

TEST(AnalysisTest, UtilizationMergesOverlappingThreadIntervals) {
  // Regression: two threads of one node executing concurrently used to
  // have their busy intervals summed independently, reporting >100%
  // utilization. Busy time is the union of the intervals.
  EventBuffer node0(0);
  node0.record(fn_event(EventKind::kFunctionStart, 0, 0, 0, 0.0, "a"));
  node0.record(fn_event(EventKind::kFunctionEnd, 0, 0, 0, 10.0, "a"));
  node0.record(fn_event(EventKind::kFunctionStart, 0, 1, 0, 5.0, "a"));
  node0.record(fn_event(EventKind::kFunctionEnd, 0, 1, 0, 15.0, "a"));
  const auto util = node_utilization(Trace::merge({&node0}));
  ASSERT_EQ(util.size(), 1u);
  EXPECT_NEAR(util[0].span, 15.0, 1e-12);
  EXPECT_NEAR(util[0].busy, 15.0, 1e-12);  // union of [0,10] and [5,15]
  EXPECT_LE(util[0].utilization(), 1.0);
  EXPECT_NEAR(util[0].utilization(), 1.0, 1e-12);
}

TEST(AnalysisTest, UtilizationCountsDisjointIntervalsSeparately) {
  EventBuffer node0(0);
  node0.record(fn_event(EventKind::kFunctionStart, 0, 0, 0, 0.0, "a"));
  node0.record(fn_event(EventKind::kFunctionEnd, 0, 0, 0, 2.0, "a"));
  node0.record(fn_event(EventKind::kFunctionStart, 0, 1, 0, 6.0, "a"));
  node0.record(fn_event(EventKind::kFunctionEnd, 0, 1, 0, 10.0, "a"));
  const auto util = node_utilization(Trace::merge({&node0}));
  ASSERT_EQ(util.size(), 1u);
  EXPECT_NEAR(util[0].busy, 6.0, 1e-12);  // 2 + 4, gap not counted
}

TEST(AnalysisTest, DegenerateTracesDoNotThrow) {
  // Every analysis handles an empty trace gracefully.
  const Trace empty;
  EXPECT_TRUE(function_stats(empty).empty());
  EXPECT_EQ(bottleneck(empty), std::nullopt);
  EXPECT_TRUE(node_utilization(empty).empty());
  EXPECT_TRUE(iteration_latencies(empty).empty());
  EXPECT_TRUE(latency_violations(empty, 1.0).empty());
  EXPECT_EQ(mean_period(empty), 0.0);
  EXPECT_EQ(total_transfer_bytes(empty), 0u);
  EXPECT_TRUE(transfer_stats(empty).empty());
  EXPECT_FALSE(report(empty, {}).empty());

  // A start without a matching end (truncated trace) must not blow up.
  EventBuffer node0(0);
  node0.record(fn_event(EventKind::kFunctionStart, 0, 0, 0, 1.0, "a"));
  node0.record(fn_event(EventKind::kIterationStart, -1, 0, 0, 0.0, ""));
  const Trace truncated = Trace::merge({&node0});
  EXPECT_NO_THROW(function_stats(truncated));
  EXPECT_NO_THROW(node_utilization(truncated));
  // A start-only iteration reports zero latency, not garbage.
  const auto latencies = iteration_latencies(truncated);
  ASSERT_EQ(latencies.size(), 1u);
  EXPECT_EQ(latencies[0].latency(), 0.0);
  EXPECT_NO_THROW(report(truncated, {}));
}

TEST(AnalysisTest, UtilizationPerNode) {
  const auto util = node_utilization(sample_trace());
  ASSERT_EQ(util.size(), 2u);
  // Span is 0..15 across both nodes.
  EXPECT_NEAR(util[0].span, 15.0, 1e-12);
  EXPECT_NEAR(util[0].busy, 2.0, 1e-12);
  EXPECT_NEAR(util[1].busy, 6.0, 1e-12);
  EXPECT_NEAR(util[1].utilization(), 0.4, 1e-12);
}

TEST(AnalysisTest, IterationLatenciesAndPeriod) {
  const auto latencies = iteration_latencies(sample_trace());
  ASSERT_EQ(latencies.size(), 2u);
  EXPECT_NEAR(latencies[0].latency(), 5.0, 1e-12);
  EXPECT_NEAR(latencies[1].latency(), 5.0, 1e-12);
  EXPECT_NEAR(mean_period(sample_trace()), 10.0, 1e-12);
}

TEST(AnalysisTest, LatencyViolations) {
  EXPECT_EQ(latency_violations(sample_trace(), 6.0).size(), 0u);
  EXPECT_EQ(latency_violations(sample_trace(), 4.0).size(), 2u);
}

TEST(AnalysisTest, TransferBytes) {
  EXPECT_EQ(total_transfer_bytes(sample_trace()), 2048u);
}

TEST(AnalysisTest, TransferStatsGroupByBuffer) {
  EventBuffer node0(0);
  Event send = fn_event(EventKind::kSend, 0, 0, 0, 1.0, "a->b");
  send.end_vt = 1.5;
  send.bytes = 100;
  node0.record(send);
  Event send2 = send;
  send2.start_vt = 2.0;
  send2.end_vt = 2.25;
  send2.bytes = 300;
  node0.record(send2);
  Event copy = fn_event(EventKind::kBufferCopy, 0, 0, 0, 3.0, "b->c");
  copy.end_vt = 3.1;
  copy.bytes = 5000;
  node0.record(copy);

  const auto stats = transfer_stats(Trace::merge({&node0}));
  ASSERT_EQ(stats.size(), 2u);
  // Sorted by total bytes: b->c (5000) first.
  EXPECT_EQ(stats[0].label, "b->c");
  EXPECT_EQ(stats[0].local_copies, 1);
  EXPECT_EQ(stats[0].local_bytes, 5000u);
  EXPECT_EQ(stats[1].label, "a->b");
  EXPECT_EQ(stats[1].fabric_messages, 2);
  EXPECT_EQ(stats[1].fabric_bytes, 400u);
  EXPECT_NEAR(stats[1].total_time, 0.75, 1e-12);
}

TEST(ExportTest, CsvHasHeaderAndRows) {
  const std::string csv = sample_trace().to_csv();
  EXPECT_NE(csv.find("kind,node,function_id"), std::string::npos);
  EXPECT_NE(csv.find("function_start,0,0"), std::string::npos);
  // Header + 14 events.
  std::size_t lines = 0;
  for (char c : csv) lines += (c == '\n');
  EXPECT_EQ(lines, 15u);
}

TEST(ExportTest, CsvRoundTripsThroughFromCsv) {
  const Trace original = sample_trace();
  const Trace reloaded = Trace::from_csv(original.to_csv());
  ASSERT_EQ(reloaded.events().size(), original.events().size());
  for (std::size_t i = 0; i < original.events().size(); ++i) {
    const Event& a = original.events()[i];
    const Event& b = reloaded.events()[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.node, b.node);
    EXPECT_EQ(a.function_id, b.function_id);
    EXPECT_EQ(a.iteration, b.iteration);
    EXPECT_DOUBLE_EQ(a.start_vt, b.start_vt);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.label, b.label);
  }
  // The analyses agree on the reloaded trace.
  EXPECT_EQ(bottleneck(reloaded)->name, bottleneck(original)->name);
  EXPECT_DOUBLE_EQ(mean_period(reloaded), mean_period(original));
}

/// Round-trips `original` through CSV and checks field-for-field
/// equality (bit-identical doubles included).
void expect_csv_round_trip(const Trace& original) {
  const Trace reloaded = Trace::from_csv(original.to_csv());
  ASSERT_EQ(reloaded.events().size(), original.events().size());
  for (std::size_t i = 0; i < original.events().size(); ++i) {
    const Event& a = original.events()[i];
    const Event& b = reloaded.events()[i];
    EXPECT_EQ(a.kind, b.kind) << "event " << i;
    EXPECT_EQ(a.node, b.node) << "event " << i;
    EXPECT_EQ(a.function_id, b.function_id) << "event " << i;
    EXPECT_EQ(a.thread, b.thread) << "event " << i;
    EXPECT_EQ(a.iteration, b.iteration) << "event " << i;
    EXPECT_EQ(a.start_vt, b.start_vt) << "event " << i;  // bit-exact
    EXPECT_EQ(a.end_vt, b.end_vt) << "event " << i;
    EXPECT_EQ(a.bytes, b.bytes) << "event " << i;
    EXPECT_EQ(a.label, b.label) << "event " << i;
  }
}

TEST(ExportTest, CsvRoundTripsAwkwardLabels) {
  // Regression: labels with embedded commas used to shift the column
  // split and get rejected (or silently truncated).
  EventBuffer node0(0);
  for (const std::string& label :
       {std::string("a,b->c,d"), std::string("fft.out->sink.in"),
        std::string("quoted \"label\""), std::string("tab\there"),
        std::string("newline\nhere"), std::string("back\\slash"),
        std::string("  padded  "), std::string("trailing,"),
        std::string(",leading"), std::string("")}) {
    node0.record(fn_event(EventKind::kSend, 0, 0, 0, 1.0, label));
  }
  expect_csv_round_trip(Trace::merge({&node0}));
}

TEST(ExportTest, CsvRoundTripsHugeByteCounts) {
  // Regression: bytes >= 2^63 used to go through a signed parse and come
  // back mangled.
  EventBuffer node0(0);
  for (const std::uint64_t bytes :
       {std::uint64_t{0}, std::uint64_t{1} << 62, std::uint64_t{1} << 63,
        (std::uint64_t{1} << 63) + 12345,
        std::numeric_limits<std::uint64_t>::max()}) {
    Event e = fn_event(EventKind::kSend, 0, 0, 0, 1.0, "big");
    e.bytes = bytes;
    node0.record(e);
  }
  expect_csv_round_trip(Trace::merge({&node0}));
}

TEST(ExportTest, CsvRoundTripsFullPrecisionTimes) {
  EventBuffer node0(0);
  Event e = fn_event(EventKind::kFunctionStart, 0, 0, 0, 0.0, "p");
  e.start_vt = 1.0 + std::numeric_limits<double>::epsilon();  // 17 digits
  e.end_vt = 1e6 + 1e-7;  // collapses at default 6-digit precision
  node0.record(e);
  expect_csv_round_trip(Trace::merge({&node0}));
}

TEST(ExportTest, FromCsvRejectsNegativeBytes) {
  EXPECT_THROW(Trace::from_csv("marker,0,-1,0,0,0,0,-1,x\n"), Error);
}

TEST(ExportTest, FromCsvRejectsGarbage) {
  EXPECT_THROW(Trace::from_csv("not,a,trace\n"), Error);
  EXPECT_THROW(Trace::from_csv("warp,0,0,0,0,0,0,0,x\n"), Error);
  EXPECT_TRUE(Trace::from_csv("").empty());
}

TEST(ExportTest, ChromeJsonWellFormedish) {
  const std::string json = sample_trace().to_chrome_json();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
  // Balanced braces.
  int depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
  }
  EXPECT_EQ(depth, 0);
}

TEST(ExportTest, ChromeJsonKeepsFullTimestampPrecision) {
  // Regression: the default 6-significant-digit stream precision
  // collapsed distinct timestamps once they passed ~1 virtual second
  // (1e6 microseconds).
  EventBuffer node0(0);
  // 2.0000001 s = 2000000.1 us: the .1 vanishes at 6 significant digits.
  Event a = fn_event(EventKind::kFunctionStart, 0, 0, 0, 2.0000001, "p");
  node0.record(a);
  const std::string json = Trace::merge({&node0}).to_chrome_json();
  // Full precision: the fractional microsecond survives (the exact
  // digits are the double's shortest round-trip form).
  EXPECT_NE(json.find("\"ts\":2000000.0999999999"), std::string::npos)
      << json;
}

TEST(ExportTest, AsciiTimelineShowsBusyCells) {
  const std::string timeline = ascii_timeline(sample_trace(), 30);
  EXPECT_NE(timeline.find("node 0"), std::string::npos);
  EXPECT_NE(timeline.find("node 1"), std::string::npos);
  EXPECT_NE(timeline.find('#'), std::string::npos);
  EXPECT_EQ(ascii_timeline(Trace{}), "(empty trace)\n");
}

TEST(ExportTest, ReportMentionsEverything) {
  const std::string text = report(sample_trace(), {});
  EXPECT_NE(text.find("bottleneck: b"), std::string::npos);
  EXPECT_NE(text.find("utilization"), std::string::npos);
  EXPECT_NE(text.find("iterations: 2"), std::string::npos);
  EXPECT_NE(text.find("fabric bytes: 2.0 KiB"), std::string::npos);
  EXPECT_NE(text.find("buffers:\n  a->b: 2 msgs"), std::string::npos);
}

}  // namespace
}  // namespace sage::viz
