// sagec -- the openSAGE command-line tool.
//
// Drives the paper's pipeline over model repository files:
//
//   sagec demo <fft2d|cornerturn> [-n size] [-p nodes] [-o file]
//       emit a ready-made benchmark design
//   sagec info <model-file>
//       summarize a design (functions, arcs, hardware, mapping)
//   sagec validate <model-file>
//       run the Designer's full-design validation
//   sagec map <model-file> [-o file]
//       run the AToT genetic mapper and write the mapping back
//   sagec generate <model-file> [-o dir]
//       run the Alter glue-code generator; write glue.cfg and glue.c
//   sagec compile <model-file> [--plan-cache dir] [-o file.plan]
//       lower the design into an immutable CompiledProgram (the
//       Compiler layer alone: no machine is spawned); report the
//       compile cost and cache outcome, and optionally write the
//       serialized plan blob
//   sagec run <model-file> [-i iterations] [-r runs]
//             [--policy unique|shared] [--depth d] [--trace file.json]
//             [--plan-cache dir] [--transport inproc|shmem]
//             [--fault-plan plan.txt] [--fault-seed N]
//       generate and execute on the emulated platform through a warm
//       run-time session (-r N streams N-1 further data sets through
//       the warm pipeline as overlapped submissions, reporting the
//       achieved period and per-stage occupancy; --depth caps each
//       producer's lead over its consumers); print the Visualizer
//       summary and host cost. --fault-plan attaches a
//       deterministic fault schedule (see net/fault.hpp for the
//       format); --fault-seed overrides the plan's seed. --transport
//       picks the byte-moving backend (in-process queues, or shared-
//       memory rings between forked node processes); results are
//       bit-identical across both.
//   sagec stats <model-file|quickstart|radar|fft2d|cornerturn>
//             [-i iterations] [--run N] [--threshold seconds]
//             [--format text|prom|csv|chrome] [-o file]
//             [--fault-plan plan.txt] [--fault-seed N]
//       run on the emulated platform and export the observability data:
//       the human report (text), Prometheus exposition (prom), flat
//       metrics CSV (csv), or the Chrome trace (chrome). --run N repeats
//       the run warm and reports the last one; --threshold feeds the
//       latency-violation monitor.
//   sagec alter <script.alt> [-m model-file] [-o dir] [--disasm]
//       run an Alter program (optionally against a model); print its
//       (print ...) log and write its emit streams. --disasm prints the
//       compiled bytecode listing instead of executing
//   sagec serve <model-file|fft2d|cornerturn|quickstart|radar>
//             [--workers N] [--sessions M] [--queue D] [--requests R]
//             [--rate r | --load f] [--seed S] [--tenants T] [--quota Q]
//             [-i iterations] [--plan-cache dir] [--format text|prom|csv]
//             [-o file]
//       stand up the multi-tenant session service on the design and
//       drive it with a bounded, seeded open-loop request schedule:
//       a warm-session fleet per program (lazily grown to --sessions),
//       admission control at --queue depth, requests spread round-robin
//       over --tenants tenants (--quota caps each tenant's in-flight
//       requests). --rate is arrivals/virtual-second; --load expresses
//       the rate as a fraction of the fleet's calibrated saturation.
//       Prints the admission/latency summary, then the serve metrics in
//       the chosen format.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "alter/interp.hpp"
#include "apps/benchmarks.hpp"
#include "apps/pipelines.hpp"
#include "atot/mapper.hpp"
#include "codegen/generator.hpp"
#include "core/project.hpp"
#include "model/app.hpp"
#include "model/hardware.hpp"
#include "model/serialize.hpp"
#include "net/transport.hpp"
#include "runtime/tuner.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "support/error.hpp"
#include "viz/exporters.hpp"

namespace {

using namespace sage;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: sagec <command> [args]\n"
               "  demo <fft2d|cornerturn|quickstart|radar> [-n size]"
               " [-p nodes] [-o file]\n"
               "  info <model-file>\n"
               "  validate <model-file>\n"
               "  map <model-file> [-o file]\n"
               "  generate <model-file> [-o dir]\n"
               "  compile <model-file> [--plan-cache dir] [-o file.plan]\n"
               "  run <model-file> [-i iters] [-r runs] [--policy unique|shared]"
               " [--depth d] [--trace file.json] [--plan-cache dir]"
               " [--transport inproc|shmem]"
               " [--fault-plan plan.txt] [--fault-seed N]\n"
               "  stats <model-file|quickstart|radar|fft2d|cornerturn>"
               " [-i iters] [--run N]\n"
               "        [--threshold seconds] [--format text|prom|csv|chrome]"
               " [-o file]\n"
               "        [--transport inproc|shmem]"
               " [--fault-plan plan.txt] [--fault-seed N]\n"
               "  tune <model-file|hetero|quickstart|radar|fft2d|cornerturn>"
               " [--steps N] [--seed S]\n"
               "        [-i iters] [--hysteresis h] [-n size] [-p nodes]"
               " [--plan-cache dir]\n"
               "  alter <script.alt> [-m model-file] [-o dir] [--disasm]\n"
               "  analyze <trace.csv> [--latency-bound ms]\n"
               "  serve <model-file|fft2d|cornerturn|quickstart|radar>"
               " [--workers N] [--sessions M]\n"
               "        [--queue D] [--requests R] [--rate r | --load f]"
               " [--seed S]\n"
               "        [--tenants T] [--quota Q] [-i iters]"
               " [--plan-cache dir]\n"
               "        [--transport inproc|shmem]"
               " [--format text|prom|csv] [-o file]\n");
  std::exit(2);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) raise<Error>("cannot open '", path, "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) raise<Error>("cannot write '", path, "'");
  out << content;
}

/// Tiny flag scanner: collects "-k value" and "--key value" pairs plus
/// positional arguments.
struct Args {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;

  std::string flag_or(const std::string& name,
                      const std::string& fallback) const {
    for (const auto& [key, value] : flags) {
      if (key == name) return value;
    }
    return fallback;
  }

  bool has_flag(const std::string& name) const {
    for (const auto& [key, value] : flags) {
      if (key == name) return true;
    }
    return false;
  }
};

/// Flags that take no value; present means on.
bool is_bool_flag(const std::string& key) { return key == "disasm"; }

Args parse_args(int argc, char** argv, int start) {
  Args args;
  for (int i = start; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.size() > 1 && arg[0] == '-') {
      const std::string key = arg.substr(arg[1] == '-' ? 2 : 1);
      if (is_bool_flag(key)) {
        args.flags.emplace_back(key, "1");
        continue;
      }
      if (i + 1 >= argc) raise<Error>("flag '", arg, "' needs a value");
      args.flags.emplace_back(key, argv[++i]);
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

// --- checked flag parsers ---------------------------------------------------
// Every numeric flag goes through one of these instead of a raw
// std::stoi/std::stoull: the whole value must parse (no trailing junk),
// it must fit the flag's documented range, and the error names the flag
// -- `sagec run m -i banana` dies with a usable message instead of an
// uncaught std::invalid_argument.

long long parse_flag_int(const std::string& name, const std::string& value,
                         long long min, long long max) {
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || end != value.c_str() + value.size() || errno == ERANGE) {
    raise<Error>("flag --", name, ": '", value, "' is not an integer");
  }
  if (parsed < min || parsed > max) {
    raise<Error>("flag --", name, ": ", parsed, " is out of range [", min, ", ",
                 max, "]");
  }
  return parsed;
}

int flag_int(const Args& args, const std::string& name,
             const std::string& fallback, long long min, long long max) {
  return static_cast<int>(
      parse_flag_int(name, args.flag_or(name, fallback), min, max));
}

std::uint64_t flag_u64(const Args& args, const std::string& name,
                       const std::string& fallback) {
  const std::string value = args.flag_or(name, fallback);
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (value.empty() || value[0] == '-' ||
      end != value.c_str() + value.size() || errno == ERANGE) {
    raise<Error>("flag --", name, ": '", value,
                 "' is not an unsigned integer");
  }
  return parsed;
}

double flag_double(const Args& args, const std::string& name,
                   const std::string& fallback, double min, double max) {
  const std::string value = args.flag_or(name, fallback);
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size() ||
      errno == ERANGE || !std::isfinite(parsed)) {
    raise<Error>("flag --", name, ": '", value, "' is not a number");
  }
  if (parsed < min || parsed > max) {
    raise<Error>("flag --", name, ": ", parsed, " is out of range [", min, ", ",
                 max, "]");
  }
  return parsed;
}

/// `--transport inproc|shmem`: which mechanism moves the bytes.
/// The default is the historical in-process fabric.
net::TransportOptions flag_transport(const Args& args) {
  const std::string name = args.flag_or("transport", "inproc");
  const auto kind = net::parse_transport_kind(name);
  if (!kind.has_value()) {
    raise<Error>("flag --transport: unknown backend '", name,
                 "' (want inproc or shmem)");
  }
  net::TransportOptions transport;
  transport.kind = *kind;
  return transport;
}

/// `--policy unique|shared`: the buffer-management policy.
runtime::BufferPolicy flag_policy(const Args& args) {
  const std::string name = args.flag_or("policy", "unique");
  if (name == "unique") return runtime::BufferPolicy::kUniquePerFunction;
  if (name == "shared") return runtime::BufferPolicy::kShared;
  raise<Error>("flag --policy: unknown policy '", name,
               "' (want unique or shared)");
}

/// Builds one of the ready-made designs by name, or returns nullptr.
std::unique_ptr<model::Workspace> make_demo(const std::string& which,
                                            std::size_t n, int nodes) {
  if (which == "fft2d") return apps::make_fft2d_workspace(n, nodes);
  if (which == "cornerturn") return apps::make_cornerturn_workspace(n, nodes);
  if (which == "quickstart") return apps::make_quickstart_workspace(n, nodes);
  if (which == "radar") {
    // n is the pulse count; range gates stay at the tutorial's 2n.
    return apps::make_radar_workspace(n, 2 * n, nodes);
  }
  return nullptr;
}

int cmd_demo(const Args& args) {
  if (args.positional.empty()) usage();
  const std::string& which = args.positional[0];
  const auto n = static_cast<std::size_t>(
      parse_flag_int("n", args.flag_or("n", "256"), 1, 1 << 20));
  const int nodes =
      flag_int(args, "p", which == "radar" ? "8" : "4", 1, 4096);

  std::unique_ptr<model::Workspace> ws = make_demo(which, n, nodes);
  if (ws == nullptr) {
    raise<Error>("unknown demo '", which,
                 "' (want fft2d, cornerturn, quickstart, or radar)");
  }

  const std::string out = args.flag_or("o", "");
  const std::string text = model::save_workspace(*ws);
  if (out.empty()) {
    std::fputs(text.c_str(), stdout);
  } else {
    write_file(out, text);
    std::printf("wrote %s (%zu bytes)\n", out.c_str(), text.size());
  }
  return 0;
}

std::unique_ptr<model::Workspace> load(const Args& args) {
  if (args.positional.empty()) usage();
  return model::load_workspace(read_file(args.positional[0]));
}

int cmd_info(const Args& args) {
  auto ws = load(args);
  const model::ModelObject& app = ws->application();
  std::printf("project:     %s\n", ws->root().name().c_str());
  std::printf("application: %s\n", app.name().c_str());
  for (const model::ModelObject* fn : model::functions(app)) {
    std::printf("  function %-16s kernel=%-24s threads=%lld\n",
                fn->name().c_str(),
                fn->property("kernel").as_string().c_str(),
                static_cast<long long>(fn->property("threads").as_int()));
  }
  for (const model::ModelObject* arc : model::arcs(app)) {
    std::printf("  arc %s\n", arc->name().c_str());
  }
  const model::ModelObject& hw = ws->hardware();
  std::printf("hardware:    %s (%zu processors, fabric %s)\n",
              hw.name().c_str(), model::processors(hw).size(),
              hw.property("fabric").as_string().c_str());
  return 0;
}

int cmd_validate(const Args& args) {
  auto ws = load(args);
  const auto issues = ws->validate();
  int errors = 0;
  for (const model::Issue& issue : issues) {
    std::printf("%s\n", issue.to_string().c_str());
    if (issue.severity == model::Issue::Severity::kError) ++errors;
  }
  if (errors != 0) {
    std::printf("%d error(s)\n", errors);
    return 1;
  }
  // Deep check: generate glue and open a run-time session. Session
  // construction validates the glue config, resolves every kernel, and
  // builds all transfer plans; the non-throwing path reports problems
  // the structural validator cannot see.
  core::Project project(std::move(ws));
  auto session = project.try_open_session();
  if (!session.ok()) {
    std::printf("runtime check failed: %s\n", session.error().c_str());
    return 1;
  }
  std::printf("design is valid (%zu warning(s)); runtime session opens"
              " cleanly (%d nodes, %zu logical buffers)\n",
              issues.size(), session.value()->config().nodes,
              session.value()->config().buffers.size());
  return 0;
}

int cmd_map(const Args& args) {
  auto ws = load(args);
  const atot::MappingProblem problem = atot::build_problem(*ws);
  const atot::GeneticResult result = atot::genetic_mapping(problem);
  std::printf("genetic mapping: objective %.6f (max load %.6f s, comm %.6f s)"
              " after %d generations\n",
              result.cost.objective, result.cost.max_load,
              result.cost.total_comm, result.generations_run);
  atot::apply_assignment(*ws, problem, result.best);
  ws->validate_or_throw();
  const std::string out = args.flag_or("o", "");
  if (!out.empty()) {
    write_file(out, model::save_workspace(*ws));
    std::printf("wrote %s\n", out.c_str());
  }
  return 0;
}

int cmd_generate(const Args& args) {
  auto ws = load(args);
  const codegen::GeneratedArtifacts artifacts = codegen::generate_glue(*ws);
  const std::string dir = args.flag_or("o", ".");
  for (const auto& [name, content] : artifacts.outputs) {
    const std::string path = dir + "/" + name;
    write_file(path, content);
    std::printf("wrote %s (%zu bytes)\n", path.c_str(), content.size());
  }
  std::printf("%zu functions, %zu logical buffers, %d nodes\n",
              artifacts.config.functions.size(),
              artifacts.config.buffers.size(), artifacts.config.nodes);
  return 0;
}

int cmd_compile(const Args& args) {
  auto ws = load(args);
  core::Project project(std::move(ws));
  runtime::ExecuteOptions options;
  options.plan_cache_dir = args.flag_or("plan-cache", "");

  const std::shared_ptr<const runtime::CompiledProgram> program =
      project.compile_program(options);
  std::printf("compiled program: %zu functions, %zu logical buffers,"
              " %zu transfer ops, %d nodes\n",
              program->config.functions.size(), program->buffers.size(),
              program->ops.size(), program->config.nodes);
  std::printf("fingerprint:      %016llx\n",
              static_cast<unsigned long long>(program->fingerprint));
  std::printf("compile cost:     %.3f ms (plan cache: %s)\n",
              program->compile_seconds * 1e3,
              to_string(program->cache_outcome));

  const std::string out = args.flag_or("o", "");
  if (!out.empty()) {
    const std::string blob = program->serialize();
    write_file(out, blob);
    std::printf("wrote %s (%zu bytes)\n", out.c_str(), blob.size());
  }
  return 0;
}

int cmd_run(const Args& args) {
  auto ws = load(args);
  core::Project project(std::move(ws));
  runtime::ExecuteOptions options;
  options.plan_cache_dir = args.flag_or("plan-cache", "");
  options.iterations = flag_int(args, "i", "3", 1, 1000000);
  options.buffer_depth = flag_int(args, "depth", "0", 0, 1000000);
  options.transport = flag_transport(args);
  options.buffer_policy = flag_policy(args);
  const int runs = flag_int(args, "r", "1", 1, 1000000);

  const std::string plan_path = args.flag_or("fault-plan", "");
  if (!plan_path.empty()) {
    net::FaultPlan plan = net::FaultPlan::parse(read_file(plan_path));
    if (!args.flag_or("fault-seed", "").empty()) {
      plan.seed = flag_u64(args, "fault-seed", "");
    }
    options.fault_plan = std::make_shared<const net::FaultPlan>(std::move(plan));
  }

  // One warm session serves every run; the first run carries the cold
  // host cost, later runs reuse the machine and buffer pool.
  auto session = project.open_session(options);
  const runtime::CompiledProgram& program = session->program();
  std::printf("program:    compiled in %.3f ms (plan cache: %s)\n",
              program.compile_seconds * 1e3,
              to_string(program.cache_outcome));
  runtime::RunStats stats = session->run();
  const double cold_host = stats.host_seconds;
  // Further data sets stream through the warm pipeline: overlapped
  // submissions on one machine epoch, so the achieved period (virtual
  // time between completions) can drop below the single-set latency.
  double stream_host = 0.0;
  double period_sum = 0.0;
  double span_sum = 0.0;
  int period_count = 0;
  if (runs > 1) {
    std::vector<runtime::Ticket> tickets;
    tickets.reserve(static_cast<std::size_t>(runs - 1));
    for (int r = 1; r < runs; ++r) tickets.push_back(session->submit());
    for (const runtime::Ticket ticket : tickets) {
      stats = session->wait(ticket);
      if (stats.stream_period > 0) {
        period_sum += stats.stream_period;
        span_sum += stats.span;
        ++period_count;
      }
    }
    stream_host = stats.host_seconds;  // wall clock of the whole stream
  }
  std::printf("iterations: %d\n", stats.iterations);
  const double latency = stats.mean_latency();
  std::printf("mean latency: %.3f ms (virtual)\n", latency * 1e3);
  std::printf("period:       %.3f ms (virtual)\n", stats.period * 1e3);
  if (runs > 1) {
    std::printf("host cost:    %.3f ms cold, %.3f ms for %d streamed"
                " data sets\n",
                cold_host * 1e3, stream_host * 1e3, runs - 1);
    if (period_count > 0) {
      // Both sides per ticket: span / period is how many data sets
      // are in flight at once.
      const double period = period_sum / period_count;
      std::printf("streaming:    achieved period %.3f ms (virtual),"
                  " overlap %.2fx\n",
                  period * 1e3, period > 0 ? span_sum / period_sum : 0.0);
    }
    if (!stats.occupancy.empty()) {
      std::printf("occupancy:   ");
      for (const auto& [fn, ratio] : stats.occupancy) {
        std::printf(" %s=%.2f", fn.c_str(), ratio);
      }
      std::printf("  (fraction of stage capacity; ~1.0 sets the period)\n");
    }
  } else {
    std::printf("host cost:    %.3f ms\n", cold_host * 1e3);
  }
  const runtime::DataPlaneStats& dp = stats.data_plane;
  std::printf("data plane:   %.1f MB copied, %.1f MB moved by handle; pool"
              " %llu hits / %llu misses, %llu blocks\n",
              static_cast<double>(dp.bytes_copied) / 1e6,
              static_cast<double>(dp.bytes_moved) / 1e6,
              static_cast<unsigned long long>(dp.pool_hits),
              static_cast<unsigned long long>(dp.pool_misses),
              static_cast<unsigned long long>(dp.pool_blocks));
  for (const auto& [fn, series] : stats.results) {
    std::printf("result[%s]:", fn.c_str());
    for (double v : series) std::printf(" %.4f", v);
    std::printf("\n");
  }
  if (options.fault_plan != nullptr) {
    const runtime::FaultStats& f = stats.faults;
    std::printf("faults:       %llu drops, %llu corruptions, %llu delays"
                " injected; %llu retries, %llu timeouts, %llu corrupt"
                " frames detected, %llu stalls",
                static_cast<unsigned long long>(f.injected_drops),
                static_cast<unsigned long long>(f.injected_corruptions),
                static_cast<unsigned long long>(f.injected_delays),
                static_cast<unsigned long long>(f.retries),
                static_cast<unsigned long long>(f.timeouts),
                static_cast<unsigned long long>(f.corruptions_detected),
                static_cast<unsigned long long>(f.stalls));
    if (f.degraded_nodes > 0) {
      std::printf("; degraded (%d dead nodes)", f.degraded_nodes);
    }
    std::printf("\n");
  }
  std::printf("%s", viz::report(stats.trace, stats.metrics).c_str());

  const std::string trace_path = args.flag_or("trace", "");
  if (!trace_path.empty()) {
    write_file(trace_path, stats.trace.to_chrome_json());
    std::printf("wrote %s\n", trace_path.c_str());
  }
  const std::string csv_path = args.flag_or("trace-csv", "");
  if (!csv_path.empty()) {
    write_file(csv_path, stats.trace.to_csv());
    std::printf("wrote %s\n", csv_path.c_str());
  }
  return 0;
}

int cmd_stats(const Args& args) {
  if (args.positional.empty()) usage();
  // The target is a model-repository file, or one of the ready-made
  // designs by name (built at their tutorial sizes).
  const std::string& target = args.positional[0];
  std::unique_ptr<model::Workspace> ws =
      make_demo(target, 256, target == "radar" ? 8 : 4);
  if (ws == nullptr) ws = model::load_workspace(read_file(target));

  core::Project project(std::move(ws));
  runtime::ExecuteOptions options;
  options.iterations = flag_int(args, "i", "3", 1, 1000000);
  options.latency_threshold =
      flag_double(args, "threshold", "0", 0.0, 1e9);
  options.transport = flag_transport(args);
  const std::string plan_path = args.flag_or("fault-plan", "");
  if (!plan_path.empty()) {
    net::FaultPlan plan = net::FaultPlan::parse(read_file(plan_path));
    if (!args.flag_or("fault-seed", "").empty()) {
      plan.seed = flag_u64(args, "fault-seed", "");
    }
    options.fault_plan = std::make_shared<const net::FaultPlan>(std::move(plan));
  }

  // --run N exercises the warm path; the exported run is the last one
  // (each run's metrics restart at zero -- the warm-session contract).
  const int runs = flag_int(args, "run", "1", 1, 1000000);
  auto session = project.open_session(options);
  runtime::RunStats stats = session->run();
  for (int r = 1; r < runs; ++r) stats = session->run();

  const std::string format = args.flag_or("format", "text");
  std::string out;
  if (format == "chrome") {
    out = stats.trace.to_chrome_json();
  } else if (format == "prom") {
    out = viz::prometheus_text(stats.metrics);
  } else if (format == "csv") {
    out = viz::metrics_csv(stats.metrics);
  } else if (format == "text") {
    viz::ReportOptions report_options;
    report_options.latency_threshold = options.latency_threshold;
    out = viz::report(stats.trace, stats.metrics, report_options);
  } else {
    raise<Error>("unknown format '", format,
                 "' (want text, prom, csv, or chrome)");
  }

  const std::string path = args.flag_or("o", "");
  if (path.empty()) {
    std::fputs(out.c_str(), stdout);
  } else {
    write_file(path, out);
    std::printf("wrote %s (%zu bytes)\n", path.c_str(), out.size());
  }
  return 0;
}

// --- tune: the online AToT loop over a live session -------------------------
// Runs the measure -> calibrate -> re-map -> hot-swap loop for --steps
// windows. The default target "hetero" is the deliberately skewed
// heterogeneous demo (fast procs idle, slow procs overloaded) whose bad
// start the loop is expected to dig out.
int cmd_tune(const Args& args) {
  const std::string target =
      args.positional.empty() ? "hetero" : args.positional[0];
  const auto n = static_cast<std::size_t>(
      parse_flag_int("n", args.flag_or("n", "128"), 1, 1 << 20));
  const int nodes = flag_int(args, "p", target == "radar" ? "8" : "4", 1, 4096);
  std::unique_ptr<model::Workspace> ws;
  if (target == "hetero") {
    ws = apps::make_tuning_workspace(n);
  } else {
    ws = make_demo(target, n, nodes);
    if (ws == nullptr) ws = model::load_workspace(read_file(target));
  }

  core::Project project(std::move(ws));
  runtime::ExecuteOptions options;
  options.plan_cache_dir = args.flag_or("plan-cache", "");
  options.iterations = flag_int(args, "i", "3", 1, 1000000);
  runtime::TunerOptions tune;
  if (!args.flag_or("seed", "").empty()) {
    tune.seed = flag_u64(args, "seed", "");
  }
  tune.hysteresis = flag_double(args, "hysteresis", "0.05", 0.0, 1.0);
  const int steps = flag_int(args, "steps", "4", 1, 10000);

  auto session = project.open_session(options);
  runtime::Tuner tuner(*session, project.registry(), tune);

  runtime::RunStats stats = session->run();
  const double start_span = stats.makespan;
  std::printf("start:    makespan %8.3f ms (virtual) per window of %d"
              " iterations\n",
              start_span * 1e3, stats.iterations);
  for (int s = 0; s < steps; ++s) {
    tuner.observe(stats);
    const runtime::TuneStepReport rep = tuner.step();
    stats = session->run();  // measure the (possibly re-mapped) placement
    std::printf("step %2d:  %-4s  predicted gain %5.1f%%  objective %.3g ->"
                " %.3g  measured makespan %8.3f ms%s\n",
                rep.step, rep.outcome.c_str(),
                rep.predicted_gain_ratio * 100.0, rep.incumbent_objective,
                rep.candidate_objective, stats.makespan * 1e3,
                rep.swapped()
                    ? (" (swap: " + std::to_string(rep.moved_threads) +
                       " threads moved)")
                          .c_str()
                    : "");
  }
  if (start_span > 0.0) {
    std::printf("tuned:    makespan %8.3f ms (virtual), %.2fx the bad"
                " start's throughput, %d swaps in %d steps\n",
                stats.makespan * 1e3,
                stats.makespan > 0.0 ? start_span / stats.makespan : 0.0,
                tuner.swaps(), tuner.steps());
  }

  // The run snapshot plus the tuner's own families drive the report's
  // "tuning" section.
  viz::MetricsSnapshot merged = stats.metrics;
  for (const viz::MetricValue& v : tuner.snapshot().series) {
    merged.series.push_back(v);
  }
  std::fputs(viz::report(stats.trace, merged).c_str(), stdout);
  return 0;
}

int cmd_analyze(const Args& args) {
  if (args.positional.empty()) usage();
  const viz::Trace trace = viz::Trace::from_csv(read_file(args.positional[0]));
  viz::ReportOptions report_options;
  report_options.latency_threshold =
      flag_double(args, "latency-bound", "0", 0.0, 1e9) * 1e-3;  // ms -> s
  std::printf("%s", viz::report(trace, {}, report_options).c_str());
  return 0;
}

int cmd_alter(const Args& args) {
  if (args.positional.empty()) usage();
  const std::string program = read_file(args.positional[0]);

  alter::Interpreter interp;
  if (args.has_flag("disasm")) {
    // Compile only: print the bytecode listing instead of executing.
    const alter::ChunkPtr chunk = interp.compile(program, args.positional[0]);
    std::fputs(alter::disassemble(*chunk).c_str(), stdout);
    return 0;
  }
  std::unique_ptr<model::Workspace> ws;  // keeps the model alive
  const std::string model_path = args.flag_or("m", "");
  if (!model_path.empty()) {
    ws = model::load_workspace(read_file(model_path));
    interp.attach_model(ws->root());
  }

  const alter::Value result = interp.eval_string(program);
  if (!interp.print_log().empty()) {
    std::fputs(interp.print_log().c_str(), stdout);
  }
  std::printf("=> %s\n", result.to_string().c_str());

  const std::string dir = args.flag_or("o", "");
  for (const auto& [name, content] : interp.outputs()) {
    if (content.empty()) continue;
    if (dir.empty()) {
      std::printf("--- %s (%zu bytes, use -o to write) ---\n", name.c_str(),
                  content.size());
    } else {
      const std::string path = dir + "/" + name;
      write_file(path, content);
      std::printf("wrote %s (%zu bytes)\n", path.c_str(), content.size());
    }
  }
  return 0;
}

int cmd_serve(const Args& args) {
  if (args.positional.empty()) usage();
  const std::string& target = args.positional[0];
  std::unique_ptr<model::Workspace> ws =
      make_demo(target, 256, target == "radar" ? 8 : 4);
  if (ws == nullptr) ws = model::load_workspace(read_file(target));
  core::Project project(std::move(ws));

  runtime::ExecuteOptions execute;
  execute.iterations = flag_int(args, "i", "1", 1, 1000000);
  execute.collect_trace = false;
  execute.plan_cache_dir = args.flag_or("plan-cache", "");
  execute.transport = flag_transport(args);

  serve::ServerOptions options;
  options.workers = flag_int(args, "workers", "2", 1, 1024);
  options.max_sessions_per_program = flag_int(args, "sessions", "2", 1, 4096);
  options.max_queue_depth = flag_int(args, "queue", "64", 1, 1 << 20);
  options.execute = project.resolved_options(execute);
  serve::Server server(options);
  const std::uint64_t key = server.add_program(
      target, project.compile_program(execute), project.registry());

  const serve::ProgramInfo info = server.program_info(key);
  std::printf("serving %s: fingerprint %016llx, %d worker(s), fleet cap %d,"
              " queue depth %d\n",
              target.c_str(), static_cast<unsigned long long>(key),
              options.workers, options.max_sessions_per_program,
              options.max_queue_depth);
  std::printf("calibration:  solo latency %.3f ms, stream period %.3f ms,"
              " saturation %.1f req/s (virtual)\n",
              info.solo_latency_vt * 1e3, info.stream_period_vt * 1e3,
              info.saturation_rate());

  // The offered load: an explicit rate, or a fraction of saturation.
  const int requests = flag_int(args, "requests", "32", 1, 10000000);
  double rate = flag_double(args, "rate", "0", 0.0, 1e12);
  if (rate <= 0.0) {
    rate = flag_double(args, "load", "0.5", 0.0, 1e6) *
           info.saturation_rate();
  }
  const std::uint64_t seed = flag_u64(args, "seed", "42");
  const int tenants = flag_int(args, "tenants", "1", 1, 1000000);
  const int quota = flag_int(args, "quota", "0", 0, 1000000);
  if (quota > 0) {
    serve::TenantQuota tenant_quota;
    tenant_quota.max_in_flight = quota;
    for (int t = 0; t < tenants; ++t) {
      server.set_quota("tenant-" + std::to_string(t), tenant_quota);
    }
  }

  // One bounded open-loop schedule, round-robin across tenants.
  const std::vector<support::VirtualSeconds> arrivals =
      serve::poisson_arrivals(requests, rate, seed);
  std::vector<serve::ServeTicket> admitted;
  admitted.reserve(arrivals.size());
  int shed = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    serve::RunRequest request;
    request.tenant = "tenant-" + std::to_string(i % tenants);
    request.arrival_vt = arrivals[i];
    const serve::ServeTicket ticket = server.submit(key, request);
    if (ticket.admitted()) {
      admitted.push_back(ticket);
    } else {
      ++shed;
    }
  }
  std::vector<double> latencies;
  latencies.reserve(admitted.size());
  int errors = 0;
  for (const serve::ServeTicket& ticket : admitted) {
    const serve::Response response = server.wait(ticket);
    if (!response.ok()) ++errors;
    latencies.push_back(response.latency_vt());
  }
  std::sort(latencies.begin(), latencies.end());
  auto pct = [&](double q) {
    if (latencies.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(latencies.size())));
    return latencies[std::min(latencies.size() - 1,
                              rank == 0 ? 0 : rank - 1)];
  };
  const serve::ServerStats stats = server.stats();
  std::printf("load:         %d requests at %.1f req/s (%.2fx saturation),"
              " seed %llu, %d tenant(s)\n",
              requests, rate,
              info.saturation_rate() > 0 ? rate / info.saturation_rate() : 0.0,
              static_cast<unsigned long long>(seed), tenants);
  std::printf("admission:    %llu admitted, %d shed (%llu queue, %llu quota),"
              " peak queue depth %d\n",
              static_cast<unsigned long long>(stats.admitted), shed,
              static_cast<unsigned long long>(stats.shed_queue),
              static_cast<unsigned long long>(stats.shed_quota),
              stats.peak_queue_depth);
  std::printf("fleet:        %d warm session(s), %llu coalesced request(s),"
              " %d error(s)\n",
              stats.sessions,
              static_cast<unsigned long long>(stats.coalesced), errors);
  std::printf("latency:      p50 %.3f ms, p99 %.3f ms, max %.3f ms"
              " (virtual)\n",
              pct(0.50) * 1e3, pct(0.99) * 1e3,
              (latencies.empty() ? 0.0 : latencies.back()) * 1e3);
  server.shutdown();

  const std::string format = args.flag_or("format", "text");
  std::string out;
  if (format == "prom") {
    out = viz::prometheus_text(server.metrics());
  } else if (format == "csv") {
    out = viz::metrics_csv(server.metrics());
  } else if (format == "text") {
    out = viz::report(viz::Trace(), server.metrics());
  } else {
    raise<Error>("unknown format '", format, "' (want text, prom, or csv)");
  }
  const std::string path = args.flag_or("o", "");
  if (path.empty()) {
    std::fputs(out.c_str(), stdout);
  } else {
    write_file(path, out);
    std::printf("wrote %s (%zu bytes)\n", path.c_str(), out.size());
  }
  return errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  try {
    const Args args = parse_args(argc, argv, 2);
    if (command == "demo") return cmd_demo(args);
    if (command == "info") return cmd_info(args);
    if (command == "validate") return cmd_validate(args);
    if (command == "map") return cmd_map(args);
    if (command == "generate") return cmd_generate(args);
    if (command == "compile") return cmd_compile(args);
    if (command == "run") return cmd_run(args);
    if (command == "stats") return cmd_stats(args);
    if (command == "tune") return cmd_tune(args);
    if (command == "alter") return cmd_alter(args);
    if (command == "analyze") return cmd_analyze(args);
    if (command == "serve") return cmd_serve(args);
    usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sagec: %s\n", e.what());
    return 1;
  }
}
