// sagebench -- the openSAGE repository benchmark driver.
//
//   sagebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--setup-only]
//
// --trace 0 runs the workload untraced and prints every end-to-end
// metric. --trace 1 runs it twice, each for half the time, first
// untraced and then with layer spans recorded, and prints the
// per-layer metrics plus the tracing overhead (traced minus untraced
// end-to-end figures). The last line of standard output is the JSON
// result; the exit code is non-zero when any operation failed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace sagebench;

struct Args {
  WorkloadOptions workload;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "sagebench: %s\nusage: sagebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--setup-only]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      args.workload.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload.name = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.workload.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.workload.seconds = std::stod(value);
        if (!(args.workload.seconds > 0)) usage("--seconds must be positive");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return args;
}

void print_metrics(const char* title, const Metrics& metrics) {
  std::printf("%s\n", title);
  for (const auto& [name, metric] : metrics) {
    std::printf("  %-36s %16.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

/// Span-derived per-layer numbers: mean duration per call of each
/// layer boundary, and every span name's self time.
Metrics span_metrics(const std::vector<Span>& spans) {
  struct Layer {
    const char* span;
    const char* metric;
    const char* unit;
    double scale;
  };
  static const Layer kLayers[] = {
      {"model.build", "model.build_ms", "ms", 1e3},
      {"codegen.generate", "codegen.generate_ms", "ms", 1e3},
      {"runtime.compile", "runtime.compile_ms", "ms", 1e3},
      {"runtime.plan_roundtrip", "runtime.plan_roundtrip_ms", "ms", 1e3},
      {"session.open", "session.open_ms", "ms", 1e3},
      {"session.close", "session.close_ms", "ms", 1e3},
      {"session.run", "session.run_ms", "ms", 1e3},
  };
  const auto totals = span_totals(spans);
  Metrics out;
  for (const Layer& layer : kLayers) {
    const auto it = totals.find(layer.span);
    if (it == totals.end() || it->second.count == 0) continue;
    out[layer.metric] = Metric{
        it->second.total_s / static_cast<double>(it->second.count) * layer.scale,
        layer.unit};
  }
  std::printf("span self time (%zu spans)\n", spans.size());
  std::printf("  %-24s %8s %14s %14s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, t] : totals) {
    std::printf("  %-24s %8llu %14.3f %14.3f\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.total_s * 1e3,
                t.self_s * 1e3);
  }
  return out;
}

/// The per-layer metrics every workload reports in its traced run (the
/// BENCHMARK.json per_layer list). Layer numbers only some workloads
/// produce -- atot, serve, session submit/wait, mpi -- are printed in
/// the human-readable report and the "layers" line.
const char* const kPerLayer[] = {
    "model.build_ms",
    "alter.compile_ms",
    "alter.execute_ms",
    "codegen.generate_ms",
    "codegen.glue_bytes",
    "runtime.compile_ms",
    "runtime.plan_bytes",
    "runtime.plan_roundtrip_ms",
    "session.open_ms",
    "session.close_ms",
    "session.run_ms",
    "session.host_ms",
    "isspl.busy_ms_per_set",
    "net.fabric_bytes_per_set",
    "net.fabric_messages_per_set",
    "net.bytes_copied_per_set",
    "net.bytes_moved_per_set",
    "net.pool_hit_ratio",
    "host.probe_ms",
    "trace.overhead_latency_p50_pct",
    "trace.overhead_throughput_pct",
    "tail.latency_p90_ms",
};

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const std::string& name = args.workload.name;
  std::printf("sagebench %s seed=%llu seconds=%g trace=%d%s\n", name.c_str(),
              static_cast<unsigned long long>(args.workload.seed),
              args.workload.seconds, args.trace ? 1 : 0,
              args.workload.setup_only ? " setup-only" : "");
  std::fflush(stdout);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  Metrics result;
  try {
    auto run = [&](const WorkloadOptions& options, Tracer& tracer) {
      Outcome outcome = run_workload(options, tracer);
      attempted += outcome.attempted;
      failed += outcome.failed;
      failures.insert(failures.end(), outcome.failures.begin(),
                      outcome.failures.end());
      return outcome;
    };
    if (!args.trace) {
      Tracer off(false);
      const Outcome outcome = run(args.workload, off);
      print_metrics("end-to-end (wall-clock timings at reference host speed)",
                    outcome.end_to_end);
      print_metrics("wall-clock timings as measured", outcome.raw);
      print_metrics("tail latency (scaled; not an end-to-end metric)",
                    outcome.tail);
      result = outcome.end_to_end;
    } else {
      WorkloadOptions half = args.workload;
      half.seconds = args.workload.seconds / 2.0;
      Tracer off(false);
      const Outcome untraced = run(half, off);
      Tracer on(true);
      const Outcome traced = run(half, on);
      print_metrics("end-to-end, untraced half", untraced.end_to_end);
      print_metrics("end-to-end, traced half", traced.end_to_end);
      print_metrics("wall-clock timings as measured, traced half", traced.raw);
      std::printf("tracing overhead (traced - untraced)\n");
      for (const auto& [metric, value] : untraced.end_to_end) {
        const double after = traced.end_to_end.at(metric).value;
        std::printf("  %-36s %+16.6f %s (%+.2f%%)\n", metric.c_str(),
                    after - value.value, value.unit.c_str(),
                    value.value != 0 ? (after / value.value - 1.0) * 100.0 : 0.0);
      }
      Metrics layers = traced.layers.means();
      for (const auto& [metric, value] : span_metrics(on.spans())) {
        layers[metric] = value;
      }
      auto overhead = [&](const char* metric) {
        const double before = untraced.end_to_end.at(metric).value;
        return (traced.end_to_end.at(metric).value / before - 1.0) * 100.0;
      };
      layers["trace.overhead_latency_p50_pct"] =
          Metric{overhead("latency_p50_ms"), "%"};
      layers["trace.overhead_throughput_pct"] =
          Metric{overhead("throughput_per_s"), "%"};
      layers["tail.latency_p90_ms"] = untraced.tail.at("latency_p90_ms");
      print_metrics("per-layer (traced half)", layers);
      std::printf("layers %s\n", result_json(true, 1, 0, layers).c_str());
      for (const char* metric : kPerLayer) {
        const auto it = layers.find(metric);
        if (it == layers.end()) {
          throw std::runtime_error(std::string("per-layer metric ") + metric +
                                   " was not measured");
        }
        result[metric] = it->second;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sagebench: %s: %s\n", name.c_str(), e.what());
    return 1;
  }

  for (const std::string& failure : failures) {
    std::printf("FAILED %s: %s\n", name.c_str(), failure.c_str());
  }
  std::printf("operations attempted %llu, failed %llu (failure share %.6f)\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              failure_share(attempted, failed));
  const bool correct = failed == 0;
  std::printf("%s\n", result_json(correct, attempted, failed, result).c_str());
  if (!correct) {
    std::fprintf(stderr, "sagebench: workload %s failed its correctness check\n",
                 name.c_str());
    return 1;
  }
  return 0;
}
