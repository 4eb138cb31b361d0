// Transport-backend overhead: what does moving real bytes cost, per
// run, relative to the historical in-process fabric?
//
// One warm session per {configuration x backend}; the first run is the
// cold column (machine spawn, and for shmem the node-process fork),
// the mean of the rest is the warm column. Virtual-time results
// are identical across backends by construction (the fabric resolves
// arrival times and fault verdicts before the transport moves a byte)
// -- the bench asserts that -- so host time is the only axis.
//
// The regression gate (scripts/check_bench_regression.py) pins the
// inproc labels: the transport seam must not tax the default path. The
// shmem labels are reported for tracking but their baselines are
// machine-sensitive; keep them visible, gate them only once stable.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "apps/benchmarks.hpp"
#include "bench_util.hpp"
#include "core/project.hpp"
#include "net/transport.hpp"
#include "runtime/session.hpp"

namespace {

using namespace sage;

std::unique_ptr<model::Workspace> make_workspace(const std::string& app,
                                                 std::size_t n, int nodes) {
  return app == "fft2d" ? apps::make_fft2d_workspace(n, nodes)
                        : apps::make_cornerturn_workspace(n, nodes);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchEnv env = bench::bench_env();
  const int runs = env.runs + 1;  // first = cold column

  struct Config {
    std::string app;
    std::size_t n = 0;
    int nodes = 0;
  };
  const std::vector<Config> configs = {
      {"cornerturn", 256, 4},
      {"fft2d", 256, 4},
  };

  bench::JsonReport report;
  report.bench = "transport_overhead";
  report.runs = env.runs;
  report.iterations = env.iterations;

  std::printf("transport_overhead: %d runs per backend (first = cold),"
              " %d iterations per run\n",
              runs, env.iterations);
  for (const Config& config : configs) {
    const std::string tag = config.app + "-" + std::to_string(config.n) +
                            "x" + std::to_string(config.nodes);
    std::map<std::string, std::vector<double>> results_by_backend;
    for (const net::TransportKind kind :
         {net::TransportKind::kInProc, net::TransportKind::kShmem}) {
      core::Project project(
          make_workspace(config.app, config.n, config.nodes));
      runtime::ExecuteOptions options;
      options.iterations = env.iterations;
      options.collect_trace = false;
      options.transport.kind = kind;

      auto session = project.open_session(options);
      std::vector<double> seconds;
      seconds.reserve(static_cast<std::size_t>(runs));
      std::map<std::string, std::vector<double>> results;
      for (int r = 0; r < runs; ++r) {
        const runtime::RunStats stats = session->run();
        seconds.push_back(stats.host_seconds);
        results = stats.results;
      }

      // Bit-identity sanity: the mechanism must not change the answer.
      const std::string backend = net::to_string(kind);
      if (results_by_backend.empty()) {
        results_by_backend = results;
      } else if (results != results_by_backend) {
        std::fprintf(stderr,
                     "transport_overhead: %s results diverge on %s\n",
                     tag.c_str(), backend.c_str());
        return 1;
      }

      const bench::HostCost cost =
          bench::host_cost(tag + "-" + backend, seconds);
      bench::print_host_cost(cost);
      report.hosts.push_back(cost);
    }
  }

  if (const char* path = bench::json_path(argc, argv)) {
    if (!bench::write_json(report, path)) return 1;
    std::printf("wrote %s\n", path);
  }
  return 0;
}
