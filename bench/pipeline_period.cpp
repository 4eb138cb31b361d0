// Period vs latency (paper §3.3).
//
// "A period is defined to be the time between input data sets while
// latency is the time required to process a single data set." The two
// differ exactly when the mapping pipelines stages across processors.
// This bench runs the same 4-stage chain under two mappings:
//   data-parallel -- every stage spread over all nodes (the Table-1
//                    layout): period ~= latency;
//   pipelined     -- stage i on node i: consecutive data sets overlap,
//                    so the period drops toward the slowest stage while
//                    latency stays the sum of stages.
//
// The streaming section then sustains the pipelined chain with
// Session::submit()/wait(): overlapped data sets on one machine epoch,
// credit flow control bounding each producer's lead. It reports the
// achieved steady-state period per depth (virtual time, deterministic)
// and the host cost of streaming vs the old sequential run loop
// (`--json` feeds scripts/check_bench_regression.py; the depth-1 host
// row is the gated one).
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/project.hpp"
#include "model/app.hpp"
#include "model/hardware.hpp"
#include "model/mapping.hpp"
#include "runtime/session.hpp"

namespace {

using namespace sage;

constexpr std::size_t kN = 256;
constexpr int kStages = 4;
constexpr int kDataSets = 8;  // submissions per streaming repetition

std::unique_ptr<model::Workspace> make_chain(bool pipelined,
                                             bool contention = false) {
  auto ws = std::make_unique<model::Workspace>("chain");
  model::ModelObject& root = ws->root();
  if (contention) {
    // One processor per board so every hop crosses a serialized link.
    model::ModelObject& hw = model::add_hardware(root, "cspi");
    hw.set_property("model_contention", true);
    for (int b = 0; b < kStages; ++b) {
      model::add_processor(
          model::add_board(hw, "board_" + std::to_string(b)),
          "ppc603e_" + std::to_string(b), 200.0, std::int64_t{64} << 20);
    }
  } else {
    model::add_cspi_platform(root, kStages);
  }
  model::ModelObject& app = model::add_application(root, "stage_chain");
  const std::vector<std::size_t> dims{kN, kN};
  const int threads = pipelined ? 1 : kStages;

  model::ModelObject& src =
      model::add_function(app, "src", "matrix_source", threads);
  src.set_property("role", "source");
  model::add_port(src, "out", model::PortDirection::kOut,
                  model::Striping::kStriped, "cfloat", dims, 0);

  std::string prev = "src";
  for (int s = 0; s < kStages - 2; ++s) {
    const std::string name = "fft_stage" + std::to_string(s);
    model::ModelObject& fn =
        model::add_function(app, name, "isspl.fft_rows", threads);
    model::add_port(fn, "in", model::PortDirection::kIn,
                    model::Striping::kStriped, "cfloat", dims, 0);
    model::add_port(fn, "out", model::PortDirection::kOut,
                    model::Striping::kStriped, "cfloat", dims, 0);
    model::connect(app, prev + ".out", name + ".in");
    prev = name;
  }

  model::ModelObject& sink =
      model::add_function(app, "sink", "matrix_sink", threads);
  sink.set_property("role", "sink");
  model::add_port(sink, "in", model::PortDirection::kIn,
                  model::Striping::kStriped, "cfloat", dims, 0);
  model::connect(app, prev + ".out", "sink.in");

  model::ModelObject& mapping = model::add_mapping(root, "mapping", "cspi");
  const std::vector<std::string> fns = {"src", "fft_stage0", "fft_stage1",
                                        "sink"};
  for (int i = 0; i < kStages; ++i) {
    if (pipelined) {
      model::assign_ranks(root, mapping, fns[static_cast<std::size_t>(i)],
                          {i});
    } else {
      model::assign_ranks(root, mapping, fns[static_cast<std::size_t>(i)],
                          {0, 1, 2, 3});
    }
  }
  ws->validate_or_throw();
  return ws;
}

void report(const char* label, bool pipelined, int iterations,
            bool contention = false) {
  core::Project project(make_chain(pipelined, contention));

  // Unloaded latency: a single data set through the empty pipeline.
  runtime::ExecuteOptions single;
  single.iterations = 1;
  single.collect_trace = false;
  const double latency = project.execute(single).mean_latency();

  // Period under steady load.
  runtime::ExecuteOptions loaded;
  loaded.iterations = iterations;
  loaded.collect_trace = false;
  const runtime::RunStats stats = project.execute(loaded);

  std::printf("%-14s latency %8.3f ms   period %8.3f ms   overlap %.2fx\n",
              label, latency * 1e3, stats.period * 1e3,
              stats.period > 0 ? latency / stats.period : 0.0);
  std::printf("csv,pipeline,%s,%.6f,%.6f\n", label, latency, stats.period);
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Streams kDataSets single-iteration submissions per repetition on the
/// pipelined chain; depth 0 runs the old sequential shape (a run()
/// loop) as the host-cost reference.
bench::HostCost sustain(const char* label, int depth, int runs,
                        double latency) {
  core::Project project(make_chain(/*pipelined=*/true));
  runtime::ExecuteOptions options;
  options.iterations = 1;
  options.collect_trace = false;
  auto session = project.open_session(options);
  runtime::RunOverrides request;
  if (depth > 0) request.buffer_depth = depth;

  std::vector<double> host;
  host.reserve(static_cast<std::size_t>(runs));
  double period_sum = 0.0;
  int period_count = 0;
  for (int r = 0; r < runs; ++r) {
    const double t0 = now_seconds();
    if (depth == 0) {
      for (int i = 0; i < kDataSets; ++i) session->run(request);
    } else {
      std::vector<runtime::Ticket> tickets;
      tickets.reserve(kDataSets);
      for (int i = 0; i < kDataSets; ++i) {
        tickets.push_back(session->submit(request));
      }
      for (const runtime::Ticket ticket : tickets) {
        const runtime::RunStats stats = session->wait(ticket);
        if (stats.stream_period > 0) {
          period_sum += stats.stream_period;
          ++period_count;
        }
      }
    }
    host.push_back(now_seconds() - t0);
  }

  if (depth == 0) {
    std::printf("%-18s %d x %d data sets, sequential (run loop)\n", label,
                runs, kDataSets);
  } else {
    const double period = period_count > 0 ? period_sum / period_count : 0.0;
    std::printf("%-18s period %8.3f ms   latency %8.3f ms   "
                "period/latency %.2f   overlap %.2fx\n",
                label, period * 1e3, latency * 1e3,
                latency > 0 ? period / latency : 0.0,
                period > 0 ? latency / period : 0.0);
    std::printf("csv,stream,%d,%.6f,%.6f,%.2f\n", depth, latency, period,
                period > 0 ? latency / period : 0.0);
  }
  return bench::host_cost(label, host);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchEnv env = bench::bench_env();
  std::printf("Period vs latency -- 4-stage chain, %zux%zu, %d nodes, "
              "10 data sets\n\n",
              kN, kN, kStages);
  report("data-parallel", /*pipelined=*/false, 10);
  report("pipelined", /*pipelined=*/true, 10);
  report("pipelined+link", /*pipelined=*/true, 10, /*contention=*/true);
  std::printf("\nPipelined mappings overlap consecutive data sets: the "
              "period approaches the\nslowest stage while latency stays "
              "the whole chain, as in the paper's definitions.\n");

  // --- sustained throughput: streamed submissions ---------------------------
  std::printf("\nSustained streaming -- pipelined chain, %d data sets per "
              "repetition, %d repetitions\n\n",
              kDataSets, env.runs);
  {
    core::Project project(make_chain(/*pipelined=*/true));
    runtime::ExecuteOptions single;
    single.iterations = 1;
    single.collect_trace = false;
    const double latency = project.execute(single).mean_latency();

    bench::JsonReport json;
    json.bench = "pipeline_period";
    json.runs = env.runs;
    json.iterations = 1;
    json.hosts.push_back(sustain("sequential", 0, env.runs, latency));
    json.hosts.push_back(sustain("streamed_depth1", 1, env.runs, latency));
    json.hosts.push_back(sustain("streamed_depth2", 2, env.runs, latency));
    json.hosts.push_back(sustain("streamed_depth4", 4, env.runs, latency));
    for (const bench::HostCost& cost : json.hosts) {
      bench::print_host_cost(cost);
    }
    std::printf("\nAt depth >= 2 the steady-state period is set by the "
                "slowest stage, not the\nchain: the acceptance bound is "
                "period <= 0.6x latency (see the csv,stream rows).\n");

    if (const char* path = bench::json_path(argc, argv)) {
      if (!bench::write_json(json, path)) return 1;
    }
  }
  return 0;
}
