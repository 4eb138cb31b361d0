// Harness self-test: percentile, quiet-round selection, failure-share
// and span self-time arithmetic on synthetic inputs with known answers.
// Exits non-zero on the first mismatch.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

int failures = 0;

void expect_near(const std::string& what, double got, double want) {
  if (std::abs(got - want) > 1e-12 * std::max(1.0, std::abs(want))) {
    std::printf("FAIL %s: got %.17g, want %.17g\n", what.c_str(), got, want);
    ++failures;
  }
}

sagebench::Span span(const char* name, double start, double end, int parent) {
  sagebench::Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.parent = parent;
  return s;
}

}  // namespace

int main() {
  using namespace sagebench;

  // Percentiles: rank q * (n - 1), linear between neighbours.
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  expect_near("p0", percentile(ten, 0.0), 1.0);
  expect_near("p50 of 1..10", percentile(ten, 0.5), 5.5);
  expect_near("p90 of 1..10", percentile(ten, 0.9), 9.1);
  expect_near("p100", percentile(ten, 1.0), 10.0);
  expect_near("median of odd count", median({3, 1, 2}), 2.0);
  expect_near("single sample", percentile({4.25}, 0.9), 4.25);
  expect_near("empty", percentile({}, 0.5), 0.0);
  expect_near("q clamped", percentile({1, 2}, 1.5), 2.0);

  // Round percentiles: the median of per-round percentiles over rounds
  // with at least 5 samples; a disturbed round does not move it.
  const std::vector<std::vector<double>> rounds = {
      {1, 2, 3, 4, 5}, {2, 3, 4, 5, 6}, {100, 200, 300, 400, 500}, {9, 9}};
  expect_near("round p50", round_percentile(rounds, 0.5, 5), 4.0);
  expect_near("round p90", round_percentile(rounds, 0.9, 5), 5.6);
  expect_near("round fallback", round_percentile({{1, 2}, {3}}, 0.5, 5), 2.0);

  // Quietest rounds: the fastest-probing third of the rounds with at
  // least 5 samples, in round order; all rounds when none has 5.
  const std::vector<double> probes = {0.9, 0.5, 0.4, 2.0, 0.5, 0.6, 0.45};
  const std::vector<std::size_t> sizes = {9, 9, 3, 9, 9, 9, 9};
  const std::vector<std::size_t> third = quietest_rounds(probes, sizes, 5, 3);
  const std::vector<std::size_t> small = quietest_rounds({0.7, 0.6}, {2, 1}, 5, 2);
  if (third != std::vector<std::size_t>{1, 6} ||
      small != std::vector<std::size_t>{1} ||
      quietest_rounds({}, {}, 5, 2) != std::vector<std::size_t>{}) {
    std::printf("FAIL quietest_rounds\n");
    ++failures;
  }

  // Host-speed scaling towards the reference probe time, by the share
  // of the timing that is hand-offs.
  expect_near("scale at reference", speed_scale(kReferenceProbeMs, 0.5), 1.0);
  expect_near("scale at half speed", speed_scale(2 * kReferenceProbeMs, 0.5),
              0.75);
  expect_near("full scale at double speed",
              speed_scale(kReferenceProbeMs / 2, 1.0), 2.0);

  // Failure share.
  expect_near("share 0/0", failure_share(0, 0), 0.0);
  expect_near("share 3/12", failure_share(12, 3), 0.25);
  expect_near("share 0/7", failure_share(7, 0), 0.0);

  // Relative checksum comparison.
  if (!close_enough(1e9 + 1.0, 1e9) || close_enough(1e9 + 2e3, 1e9) ||
      !close_enough(1e-9, 0.0) || close_enough(std::nan(""), 0.0)) {
    std::printf("FAIL close_enough\n");
    ++failures;
  }

  // Span self time. root [0, 10) has children a [1, 4) and b [3, 6)
  // (overlapping: they cover [1, 6), 5 units) and c [8, 12), clipped to
  // [8, 10) (2 units): self = 10 - 7 = 3. a has one child d [2, 3):
  // self 2. b, c and d have no children.
  const std::vector<Span> spans = {
      span("root", 0, 10, -1), span("a", 1, 4, 0), span("b", 3, 6, 0),
      span("c", 8, 12, 0),     span("d", 2, 3, 1), span("a", 20, 21, -1),
  };
  const std::vector<double> self = self_times(spans);
  expect_near("root self", self[0], 3.0);
  expect_near("a self", self[1], 2.0);
  expect_near("b self", self[2], 3.0);
  expect_near("c self", self[3], 4.0);
  expect_near("d self", self[4], 1.0);
  const auto totals = span_totals(spans);
  expect_near("a count", static_cast<double>(totals.at("a").count), 2.0);
  expect_near("a total", totals.at("a").total_s, 4.0);
  expect_near("a self total", totals.at("a").self_s, 3.0);
  expect_near("root total", totals.at("root").total_s, 10.0);

  // A live tracer nests spans under the innermost open one; a disabled
  // one records nothing.
  Tracer tracer(true);
  {
    Tracer::Scope outer(tracer, "outer");
    Tracer::Scope inner(tracer, "inner", 7);
  }
  Tracer::Scope after(tracer, "after");
  if (tracer.spans().size() != 3 || tracer.spans()[1].parent != 0 ||
      tracer.spans()[1].request != 7 || tracer.spans()[2].parent != -1 ||
      tracer.spans()[0].end < tracer.spans()[1].end) {
    std::printf("FAIL tracer nesting\n");
    ++failures;
  }
  Tracer off(false);
  { Tracer::Scope s(off, "x"); }
  if (!off.spans().empty()) {
    std::printf("FAIL disabled tracer recorded a span\n");
    ++failures;
  }

  // The result line keeps every digit.
  const std::string json = result_json(
      true, 3, 0, {{"x_ms", Metric{1.2345678901234567, "ms"}}});
  if (json != "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
              "\"metrics\": {\"x_ms\": {\"value\": 1.2345678901234567, "
              "\"unit\": \"ms\"}}}") {
    std::printf("FAIL result_json: %s\n", json.c_str());
    ++failures;
  }

  std::printf(failures == 0 ? "harness self-test passed\n"
                            : "harness self-test: %d failure(s)\n",
              failures);
  return failures == 0 ? 0 : 1;
}
