// Instrumentation overhead: what the always-on observability layer
// costs in host time.
//
// The paper's probes are meant to be cheap enough to leave enabled; the
// metrics registry doubles down (fixed per-function accumulators
// instead of per-event records). This bench drives the same warm
// session through three configurations -- instrumentation off, metrics
// only, metrics+trace -- and compares median host cost per run. Virtual
// time is untouched by construction (probe cost is excluded from the
// emulated clocks), so host overhead is the only cost to measure.
//
// Environment knobs (see bench_util.hpp): SAGE_BENCH_RUNS (default 2)
// scales the measured repetitions, SAGE_BENCH_ITERS the iterations per
// run.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "apps/benchmarks.hpp"
#include "bench_util.hpp"
#include "core/project.hpp"
#include "runtime/session.hpp"

namespace {

using namespace sage;

double median_host_seconds(runtime::Session& session,
                           const runtime::RunOverrides& request, int repeats) {
  std::vector<double> costs;
  costs.reserve(static_cast<std::size_t>(repeats));
  session.run(request);  // warmup: exclude any first-touch cost
  for (int r = 0; r < repeats; ++r) {
    costs.push_back(session.run(request).host_seconds);
  }
  std::sort(costs.begin(), costs.end());
  return costs[costs.size() / 2];
}

}  // namespace

int main() {
  const bench::BenchEnv env = bench::bench_env();
  const int repeats = std::max(5, env.runs * 5);

  runtime::ExecuteOptions options;
  options.iterations = std::max(10, env.iterations * 10);
  core::Project project(apps::make_fft2d_workspace(128, 4));
  auto session = project.open_session(options);

  runtime::RunOverrides off;
  off.collect_trace = false;
  off.collect_metrics = false;
  runtime::RunOverrides metrics_only;
  metrics_only.collect_trace = false;
  metrics_only.collect_metrics = true;
  runtime::RunOverrides full;
  full.collect_trace = true;
  full.collect_metrics = true;

  std::printf("Instrumentation overhead -- fft2d 128x128, 4 nodes, %d "
              "iterations, median of %d warm runs\n\n",
              options.iterations, repeats);

  const double base = median_host_seconds(*session, off, repeats);
  const double with_metrics =
      median_host_seconds(*session, metrics_only, repeats);
  const double with_both = median_host_seconds(*session, full, repeats);

  const auto pct = [&](double cost) { return (cost / base - 1.0) * 100.0; };
  std::printf("%-16s %10.3f ms/run\n", "off", base * 1e3);
  std::printf("%-16s %10.3f ms/run  (%+.2f%%)\n", "metrics", with_metrics * 1e3,
              pct(with_metrics));
  std::printf("%-16s %10.3f ms/run  (%+.2f%%)\n", "metrics+trace",
              with_both * 1e3, pct(with_both));
  std::printf("\ncsv,instrumentation,off,%.6f\n", base);
  std::printf("csv,instrumentation,metrics,%.6f,%.4f\n", with_metrics,
              pct(with_metrics));
  std::printf("csv,instrumentation,metrics_trace,%.6f,%.4f\n", with_both,
              pct(with_both));
  return 0;
}
