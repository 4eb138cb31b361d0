#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <functional>
#include <memory>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>

#include "apps/benchmarks.hpp"
#include "apps/handcoded.hpp"
#include "apps/pipelines.hpp"
#include "atot/cost_model.hpp"
#include "atot/mapper.hpp"
#include "core/project.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "viz/metrics.hpp"

namespace sagebench {
namespace {

using namespace sage;

// Every workload runs two-node sessions: four-node sessions spread far
// more from run to run on a small shared host (see README.md).
constexpr int kNodes = 2;
constexpr std::size_t kFftN = 512;
constexpr std::size_t kCornerN = 512;
constexpr int kCornerIterations = 10;
constexpr std::size_t kRadarPulses = 128;
constexpr std::size_t kRadarRange = 256;
constexpr std::size_t kServeN = 256;
constexpr double kServeRate = 100.0;  // requests per second, open loop
constexpr int kServeWorkers = 2;      // x 2 nodes: four node threads at most
constexpr int kServeFleetCap = 2;
/// One serve request in kServeCornerTurnOneIn runs the corner turn, the
/// rest fft2d. The two programs' latencies form two modes (about 1.1 and
/// 2.3 ms); an even mix put the median between them, where it swung with
/// each run's draw of programs.
constexpr std::uint64_t kServeCornerTurnOneIn = 4;
constexpr std::size_t kInFlight = 2;  // fft2d-stream tickets in flight
/// SAGE/hand-coded samples measured after the timed window for the %
/// of hand-coded figure, sized so each side's median settles (a pair
/// takes about 20 ms for fft2d, 3 ms for the radar chain, 1 ms for a
/// 256^2 hand-coded run).
constexpr int kFftPairs = 48;
constexpr int kRadarPairs = 200;
constexpr int kServeHandRuns = 100;

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double ms(double seconds) { return seconds * 1e3; }

runtime::ExecuteOptions base_options(int iterations) {
  runtime::ExecuteOptions options;
  options.iterations = iterations;
  options.collect_trace = false;
  return options;
}

/// The hand-coded baseline on the session's fabric model and CPU scale.
apps::HandcodedOptions hand_options(const runtime::ExecuteOptions& resolved,
                                    int iterations) {
  apps::HandcodedOptions options;
  options.iterations = iterations;
  if (resolved.fabric) options.fabric = *resolved.fabric;
  if (!resolved.cpu_scales.empty()) options.cpu_scale = resolved.cpu_scales[0];
  return options;
}

double sum_family(const viz::MetricsSnapshot& metrics, const char* family) {
  double total = 0.0;
  for (const viz::MetricValue& series : metrics.series) {
    if (series.name == family) total += series.value;
  }
  return total;
}

bool sums_match(const runtime::RunStats& stats, const std::string& sink,
                const std::vector<double>& want) {
  const auto it = stats.results.find(sink);
  if (it == stats.results.end() || it->second.size() != want.size()) {
    return false;
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (!close_enough(it->second[i], want[i])) return false;
  }
  return true;
}

/// Exact per-set data-plane counts of one synchronous run.
void log_data_plane(LayerLog& log, const runtime::RunStats& stats) {
  const double sets = static_cast<double>(std::max(1, stats.iterations));
  log.add("net.fabric_bytes_per_set", "count",
          static_cast<double>(stats.fabric_bytes) / sets);
  log.add("net.fabric_messages_per_set", "count",
          static_cast<double>(stats.fabric_messages) / sets);
  log.add("net.bytes_copied_per_set", "count",
          static_cast<double>(stats.data_plane.bytes_copied) / sets);
  log.add("net.bytes_moved_per_set", "count",
          static_cast<double>(stats.data_plane.bytes_moved) / sets);
}

/// Kernel-busy and link-busy virtual time per data set, from a stats
/// object whose metrics cover `sets` data sets.
void log_busy(LayerLog& log, const runtime::RunStats& stats, double sets) {
  namespace fam = viz::families;
  log.add("isspl.busy_ms_per_set", "ms",
          ms(sum_family(stats.metrics, fam::kFunctionBusySeconds)) / sets);
  log.add("net.link_busy_vt_ms", "ms",
          ms(sum_family(stats.metrics, fam::kLinkBusySeconds)) / sets);
  for (const viz::MetricValue& series : stats.metrics.series) {
    if (series.name != fam::kFunctionBusySeconds) continue;
    for (const auto& [key, value] : series.labels) {
      if (key == "function") {
        log.add("isspl." + value + ".busy_ms_per_set", "ms",
                ms(series.value) / sets);
      }
    }
  }
}

/// Computed (not measured) FFT rate of a one-set run: 10 n^2 log2 n
/// floating-point operations per 2D FFT over the row and column FFT
/// kernels' busy virtual time, summed over their threads.
void log_fft_rate(LayerLog& log, const runtime::RunStats& stats,
                  std::size_t n) {
  double busy_s = 0.0;
  for (const viz::MetricValue& series : stats.metrics.series) {
    if (series.name != viz::families::kFunctionBusySeconds) continue;
    for (const auto& [key, value] : series.labels) {
      if (key == "function" && (value == "fft_rows" || value == "fft_cols")) {
        busy_s += series.value;
      }
    }
  }
  const double size = static_cast<double>(n);
  if (busy_s > 0) {
    log.add("isspl.fft.gflops_computed", "GFLOP/s",
            10.0 * size * size * std::log2(size) / busy_s / 1e9);
  }
}

/// Buffer-pool hits and misses, folded into net.pool_hit_ratio at the end.
struct PoolCounts {
  double hits = 0.0;
  double misses = 0.0;

  void add(const runtime::RunStats& stats) {
    hits += static_cast<double>(stats.data_plane.pool_hits);
    misses += static_cast<double>(stats.data_plane.pool_misses);
  }
  void log(LayerLog& layers) const {
    const double total = hits + misses;
    layers.set("net.pool_hit_ratio", "ratio", total > 0 ? hits / total : 0.0);
  }
};

/// A compiled design: the project that owns the model, its program and
/// the resolved execute options every session of it opens with.
struct Pipeline {
  std::unique_ptr<core::Project> project;
  std::shared_ptr<const runtime::CompiledProgram> program;
  runtime::ExecuteOptions options;
};

std::unique_ptr<model::Workspace> build_model(
    Tracer& tracer, const std::function<std::unique_ptr<model::Workspace>()>&
                        make) {
  Tracer::Scope span(tracer, "model.build");
  return make();
}

/// Model -> Alter glue -> compiled program.
Pipeline compile_pipeline(std::unique_ptr<model::Workspace> workspace,
                          int iterations, Tracer& tracer, LayerLog& log) {
  Pipeline p;
  p.project = std::make_unique<core::Project>(std::move(workspace));
  {
    Tracer::Scope span(tracer, "codegen.generate");
    const codegen::GeneratedArtifacts& artifacts = p.project->generate();
    log.add("alter.compile_ms", "ms", ms(artifacts.compile_seconds));
    log.add("alter.execute_ms", "ms", ms(artifacts.execute_seconds));
    std::size_t bytes = 0;
    for (const auto& [name, text] : artifacts.outputs) bytes += text.size();
    log.add("codegen.glue_bytes", "count", static_cast<double>(bytes));
  }
  p.options = p.project->resolved_options(base_options(iterations));
  {
    Tracer::Scope span(tracer, "runtime.compile");
    p.program = p.project->compile_program(p.options);
  }
  if (tracer.enabled()) {
    Tracer::Scope span(tracer, "runtime.plan_roundtrip");
    const std::string blob = p.program->serialize();
    const auto back = runtime::CompiledProgram::deserialize(blob);
    log.add("runtime.plan_bytes", "count", static_cast<double>(blob.size()));
    if (back->ops.size() != p.program->ops.size()) {
      throw std::runtime_error("plan blob did not round-trip");
    }
  }
  return p;
}

std::unique_ptr<runtime::Session> open_session(Pipeline& p, Tracer& tracer) {
  Tracer::Scope span(tracer, "session.open");
  return p.project->open_session(p.options);
}

void close_session(std::unique_ptr<runtime::Session>& session,
                   Tracer& tracer) {
  Tracer::Scope span(tracer, "session.close");
  session.reset();
}

runtime::RunStats run_once(runtime::Session& session, Tracer& tracer,
                           LayerLog& log, std::uint64_t request) {
  runtime::RunStats stats;
  {
    Tracer::Scope span(tracer, "session.run", request);
    stats = session.run();
  }
  log.add("session.host_ms", "ms", ms(stats.host_seconds));
  return stats;
}

apps::HandcodedResult run_hand(
    Tracer& tracer, LayerLog& log,
    const std::function<apps::HandcodedResult()>& call) {
  const double start = now_s();
  apps::HandcodedResult result;
  {
    Tracer::Scope span(tracer, "mpi.hand");
    result = call();
  }
  log.add("mpi.hand_run_ms", "ms", ms(now_s() - start));
  for (double latency : result.latencies) {
    log.add("mpi.hand_vt_latency_ms", "ms", ms(latency));
  }
  return result;
}

/// The paper's "% of hand-coded": median hand-coded vt latency over
/// median SAGE vt latency, x 100.
double percent_of(const std::vector<double>& hand_vt,
                  const std::vector<double>& sage_vt) {
  const double sage = median(sage_vt);
  return sage > 0 ? median(hand_vt) / sage * 100.0 : 0.0;
}

/// Records a wall-clock metric twice: scaled to the reference host speed
/// (the end-to-end value) and as measured (printed alongside).
void set_timing(Outcome& out, const std::string& name, double raw,
                double scaled, const std::string& unit) {
  out.end_to_end[name] = Metric{scaled, unit};
  out.raw[name] = Metric{raw, unit};
}

/// Share of a set-up time that is thread hand-offs, for the host-speed
/// scaling (see speed_scale()): the cold path mixes hand-offs with
/// compilation and kernels.
constexpr double kSetupHandoffShare = 0.5;

/// The set-up timer: probes the host speed, then times the cold path.
struct SetupTimer {
  double scale = speed_scale(probe_median_ms(15), kSetupHandoffShare);
  double start = now_s();

  void stop(Outcome& out) const {
    const double raw = now_s() - start;
    set_timing(out, "setup_s", raw, raw * scale, "s");
  }
};

/// A timed window is split into rounds of kRoundSeconds; the host speed
/// is probed (kRoundProbes probe runs, about 5 ms) at the start of each,
/// between operations. The timed metrics come from the one round in
/// kQuietRounds whose probe read fastest, the rounds other tenants
/// disturbed least, and each wall-clock sample is scaled by its round's
/// probe for the disturbance that remains. Busy phases of the host last
/// minutes and can cover a whole run; then the scaling alone carries the
/// correction.
constexpr double kRoundSeconds = 0.5;
constexpr int kRoundProbes = 9;
constexpr std::size_t kMinRoundOps = 5;
constexpr std::size_t kQuietRounds = 3;
/// Share of a timed window's wall time that is thread hand-offs. Corner
/// turns, design cycles and serve requests are mostly hand-offs around
/// light kernels, so all of it. About two thirds of an fft2d-stream data
/// set is FFT kernels (11.5 of 17 ms kernel-busy), so half: scaled all
/// the way, runs in a busy phase read 12-14 ms where quiet runs read
/// 17-18 ms.
constexpr double kWindowHandoffShare = 1.0;
constexpr double kFftHandoffShare = 0.5;

struct Rounds {
  explicit Rounds(double seconds)
      : start(now_s()), deadline(start + seconds), next_at(start + kRoundSeconds) {}

  /// True once `now` lies past the current round's end; starts the next
  /// round.
  bool boundary(double now) {
    if (now < next_at) return false;
    next_at = now + kRoundSeconds;
    return true;
  }

  double start;
  double deadline;
  double next_at;
};

/// The metrics every workload reports from its timed window. Samples are
/// kept per round so that report() can take them from the quietest
/// rounds.
struct Window {
  double scale = 1.0;                 // speed_scale() of the current round
  double handoff_share = kWindowHandoffShare;
  std::vector<double> probe_ms;       // one per round
  /// Wall time per operation: scaled, and as measured.
  std::vector<std::vector<double>> latency_ms;
  std::vector<std::vector<double>> raw_latency_ms;
  std::vector<std::vector<double>> vt_latency_ms;  // virtual, per data set
  std::vector<std::vector<double>> vt_period_ms;   // virtual, between completions
  /// Throughput numerator and denominators.
  std::vector<double> sets;
  std::vector<double> busy_s;         // scaled
  std::vector<double> raw_busy_s;
  /// An open loop's throughput is its arrival rate, whatever the host
  /// speed: it is reported as measured, over every round.
  bool open_loop = false;
  double pct_of_hand = 0.0;           // hand vt / SAGE vt x 100

  void probe() {
    probe_ms.push_back(probe_median_ms(kRoundProbes));
    scale = speed_scale(probe_ms.back(), handoff_share);
    latency_ms.emplace_back();
    raw_latency_ms.emplace_back();
    vt_latency_ms.emplace_back();
    vt_period_ms.emplace_back();
    sets.push_back(0.0);
    busy_s.push_back(0.0);
    raw_busy_s.push_back(0.0);
  }
  void add_sets(double count) { sets.back() += count; }
  void add_latency(double raw_ms) {
    raw_latency_ms.back().push_back(raw_ms);
    latency_ms.back().push_back(raw_ms * scale);
  }
  void add_vt_latency(double vt_ms) { vt_latency_ms.back().push_back(vt_ms); }
  void add_vt_period(double vt_ms) { vt_period_ms.back().push_back(vt_ms); }
  void add_busy(double raw_s) {
    raw_busy_s.back() += raw_s;
    busy_s.back() += raw_s * scale;
  }
  double total_sets() const {
    return std::accumulate(sets.begin(), sets.end(), 0.0);
  }

  /// Data sets per second: for an open loop the unscaled rate over the
  /// window (it is the schedule's), else the median over `rounds` of
  /// each round's rate.
  double rate(const std::vector<double>& busy,
              const std::vector<std::size_t>& rounds) const {
    if (open_loop) {
      const double total = std::accumulate(raw_busy_s.begin(), raw_busy_s.end(), 0.0);
      return total > 0 ? total_sets() / total : 0.0;
    }
    std::vector<double> per_round;
    for (std::size_t r : rounds) {
      if (busy[r] > 0) per_round.push_back(sets[r] / busy[r]);
    }
    return median(std::move(per_round));
  }

  void report(Outcome& out) const {
    std::vector<std::size_t> sizes;
    for (const auto& round : latency_ms) sizes.push_back(round.size());
    const std::vector<std::size_t> quiet =
        quietest_rounds(probe_ms, sizes, kMinRoundOps, kQuietRounds);
    auto rounds_of = [&](const std::vector<std::vector<double>>& samples) {
      std::vector<std::vector<double>> kept;
      for (std::size_t r : quiet) kept.push_back(samples[r]);
      return kept;
    };
    auto pooled = [&](const std::vector<std::vector<double>>& samples) {
      std::vector<double> all;
      for (std::size_t r : quiet) {
        all.insert(all.end(), samples[r].begin(), samples[r].end());
      }
      return all;
    };
    const auto latency = rounds_of(latency_ms);
    const auto raw_latency = rounds_of(raw_latency_ms);
    set_timing(out, "throughput_per_s", rate(raw_busy_s, quiet),
               rate(busy_s, quiet), "1/s");
    set_timing(out, "latency_p50_ms",
               round_percentile(raw_latency, 0.5, kMinRoundOps),
               round_percentile(latency, 0.5, kMinRoundOps), "ms");
    out.tail["latency_p90_ms"] =
        Metric{round_percentile(latency, 0.9, kMinRoundOps), "ms"};
    out.raw["latency_p90_ms"] =
        Metric{round_percentile(raw_latency, 0.9, kMinRoundOps), "ms"};
    out.tail["latency_samples"] =
        Metric{static_cast<double>(pooled(latency_ms).size()), "count"};
    out.end_to_end["vt_latency_ms"] = Metric{median(pooled(vt_latency_ms)), "ms"};
    out.end_to_end["vt_period_ms"] = Metric{median(pooled(vt_period_ms)), "ms"};
    out.end_to_end["pct_of_hand"] = Metric{pct_of_hand, "%"};
    out.end_to_end["peak_rss_mb"] = Metric{peak_rss_mb(), "MB"};
    out.layers.set("host.probe_ms", "ms", median(probe_ms));
  }
};

// ---------------------------------------------------------------------------
// fft2d-stream: closed loop, 2 tickets in flight on one warm session.

Outcome fft2d_stream(const WorkloadOptions& o, Tracer& tracer) {
  Outcome out;
  const SetupTimer setup;
  const int setup_span = tracer.open("setup");
  Pipeline p = compile_pipeline(
      build_model(tracer, [] { return apps::make_fft2d_workspace(kFftN, kNodes); }),
      1, tracer, out.layers);
  auto session = open_session(p, tracer);
  const runtime::RunStats first = run_once(*session, tracer, out.layers, 0);
  tracer.close(setup_span);
  setup.stop(out);
  if (o.setup_only) return out;

  const apps::HandcodedResult reference = run_hand(tracer, out.layers, [&] {
    return apps::run_fft2d_handcoded(kFftN, kNodes, hand_options(p.options, 1));
  });
  const std::vector<double>& want = reference.checksums;
  ++out.attempted;
  if (!sums_match(first, "sink", want)) out.fail("set-up data set checksum");
  log_data_plane(out.layers, first);

  struct InFlight {
    runtime::Ticket ticket;
    double submitted = 0.0;
    std::uint64_t request = 0;
  };
  std::deque<InFlight> in_flight;
  std::uint64_t next_request = 1;
  auto submit = [&] {
    InFlight entry;
    entry.request = next_request++;
    entry.submitted = now_s();
    {
      Tracer::Scope span(tracer, "session.submit", entry.request);
      entry.ticket = session->submit();
    }
    out.layers.add("session.submit_us", "us", (now_s() - entry.submitted) * 1e6);
    in_flight.push_back(entry);
  };

  // Each round primes the pipeline, keeps kInFlight tickets in flight
  // until the round ends, then drains before the next speed probe.
  Window w;
  w.handoff_share = kFftHandoffShare;
  runtime::RunStats last;
  Rounds rounds(o.seconds);
  double round_start = -1.0;
  double finished = rounds.start;
  bool draining = false;
  while (true) {
    if (in_flight.empty()) {
      if (round_start >= 0) w.add_busy(finished - round_start);
      if (now_s() >= rounds.deadline) break;
      w.probe();
      round_start = now_s();
      draining = false;
      while (in_flight.size() < kInFlight) submit();
    }
    const InFlight entry = in_flight.front();
    in_flight.pop_front();
    ++out.attempted;
    runtime::RunStats stats;
    const double wait_start = now_s();
    try {
      Tracer::Scope span(tracer, "session.wait", entry.request);
      stats = session->wait(entry.ticket);
    } catch (const std::exception& e) {
      out.fail(std::string("ticket: ") + e.what());
      continue;
    }
    finished = now_s();
    out.layers.add("session.wait_ms", "ms", ms(finished - wait_start));
    draining = draining || finished >= rounds.deadline || rounds.boundary(finished);
    if (!draining) submit();
    if (!sums_match(stats, "sink", want)) {
      out.fail("data set " + std::to_string(entry.request) + " checksum");
      continue;
    }
    w.add_latency(ms(finished - entry.submitted));
    if (!stats.latencies.empty()) w.add_vt_latency(ms(stats.latencies[0]));
    if (stats.stream_period > 0) w.add_vt_period(ms(stats.stream_period));
    w.add_sets(1.0);
    last = std::move(stats);
  }
  // Pool counters are epoch-cumulative at collection time.
  if (w.total_sets() > 0) {
    PoolCounts pool;
    pool.add(last);
    pool.log(out.layers);
  }

  // Table 1.0 pairs: synchronous one-set runs alternating with the
  // hand-coded FFT, so both sides see the same machine speed.
  std::vector<double> sage_vt, hand_vt;
  for (int i = 0; i < kFftPairs; ++i) {
    ++out.attempted;
    const runtime::RunStats stats =
        run_once(*session, tracer, out.layers, next_request++);
    if (!sums_match(stats, "sink", want)) {
      out.fail("Table 1.0 run checksum");
      continue;
    }
    sage_vt.push_back(ms(stats.latencies.at(0)));
    log_busy(out.layers, stats, 1.0);
    log_fft_rate(out.layers, stats, kFftN);
    const apps::HandcodedResult hand = run_hand(tracer, out.layers, [&] {
      return apps::run_fft2d_handcoded(kFftN, kNodes, hand_options(p.options, 1));
    });
    hand_vt.push_back(ms(hand.latencies.at(0)));
  }
  w.pct_of_hand = percent_of(hand_vt, sage_vt);
  close_session(session, tracer);
  w.report(out);
  return out;
}

// ---------------------------------------------------------------------------
// cornerturn-table1: synchronous 10-iteration runs alternating with the
// hand-coded corner turn.

Outcome cornerturn_table1(const WorkloadOptions& o, Tracer& tracer) {
  Outcome out;
  const SetupTimer setup;
  const int setup_span = tracer.open("setup");
  Pipeline p = compile_pipeline(
      build_model(tracer,
                  [] { return apps::make_cornerturn_workspace(kCornerN, kNodes); }),
      kCornerIterations, tracer, out.layers);
  auto session = open_session(p, tracer);
  const runtime::RunStats first = run_once(*session, tracer, out.layers, 0);
  tracer.close(setup_span);
  setup.stop(out);
  if (o.setup_only) return out;

  auto hand_run = [&] {
    return run_hand(tracer, out.layers, [&] {
      return apps::run_cornerturn_handcoded(
          kCornerN, kNodes, hand_options(p.options, kCornerIterations));
    });
  };
  const std::vector<double> want = hand_run().checksums;
  ++out.attempted;
  if (!sums_match(first, "sink", want)) out.fail("set-up run checksum");
  log_data_plane(out.layers, first);

  Window w;
  PoolCounts pool;
  std::vector<double> sage_vt, hand_vt;
  Rounds rounds(o.seconds);
  w.probe();
  std::uint64_t request = 1;
  while (now_s() < rounds.deadline) {
    if (rounds.boundary(now_s())) w.probe();
    ++out.attempted;
    const double start = now_s();
    runtime::RunStats stats;
    try {
      stats = run_once(*session, tracer, out.layers, request++);
    } catch (const std::exception& e) {
      out.fail(std::string("run: ") + e.what());
      continue;
    }
    const double wall = now_s() - start;
    if (!sums_match(stats, "sink", want)) {
      out.fail("run " + std::to_string(request - 1) + " checksum");
    } else {
      w.add_latency(ms(wall));
      w.add_busy(wall);
      w.add_sets(stats.iterations);
      for (double latency : stats.latencies) {
        w.add_vt_latency(ms(latency));
        sage_vt.push_back(ms(latency));
      }
      w.add_vt_period(ms(stats.period));
      log_busy(out.layers, stats, stats.iterations);
      pool.add(stats);
    }
    const apps::HandcodedResult hand = hand_run();
    for (double latency : hand.latencies) hand_vt.push_back(ms(latency));
  }
  pool.log(out.layers);
  w.pct_of_hand = percent_of(hand_vt, sage_vt);
  close_session(session, tracer);
  w.report(out);
  return out;
}

// ---------------------------------------------------------------------------
// design-loop: model -> AToT GA -> glue -> compile -> open -> run -> close,
// repeated by one designer on the 8-stage radar chain.

std::unique_ptr<model::Workspace> radar_model(Tracer& tracer) {
  return build_model(tracer, [] {
    return apps::make_radar_workspace(kRadarPulses, kRadarRange, kNodes);
  });
}

/// Runs the GA mapper and writes the assignment back into the model.
void map_design(model::Workspace& workspace, std::uint64_t seed,
                Tracer& tracer, LayerLog& log) {
  const double start = now_s();
  Tracer::Scope span(tracer, "atot.map");
  const atot::MappingProblem problem = atot::build_problem(workspace);
  atot::GeneticOptions options;
  options.seed = seed;
  const atot::GeneticResult result = atot::genetic_mapping(problem, options);
  atot::apply_assignment(workspace, problem, result.best);
  log.add("atot.map_ms", "ms", ms(now_s() - start));
  log.set("atot.generations", "count", result.generations_run);
  log.set("atot.objective", "objective", result.cost.objective);
}

Outcome design_loop(const WorkloadOptions& o, Tracer& tracer) {
  Outcome out;
  PoolCounts pool;
  auto cycle = [&](std::uint64_t index) {
    Tracer::Scope span(tracer, "design.cycle", index);
    auto workspace = radar_model(tracer);
    map_design(*workspace, o.seed, tracer, out.layers);
    Pipeline p = compile_pipeline(std::move(workspace), 1, tracer, out.layers);
    auto session = open_session(p, tracer);
    runtime::RunStats stats = run_once(*session, tracer, out.layers, index);
    close_session(session, tracer);
    return stats;
  };

  const SetupTimer setup;
  runtime::RunStats first;
  {
    Tracer::Scope span(tracer, "setup");
    first = cycle(0);
  }
  setup.stop(out);
  if (o.setup_only) return out;
  const std::vector<double> want = first.results["detections"];
  log_data_plane(out.layers, first);

  Window w;
  Rounds rounds(o.seconds);
  w.probe();
  std::uint64_t index = 1;
  while (now_s() < rounds.deadline) {
    if (rounds.boundary(now_s())) w.probe();
    ++out.attempted;
    const double cycle_start = now_s();
    runtime::RunStats stats;
    try {
      stats = cycle(index++);
    } catch (const std::exception& e) {
      out.fail(std::string("cycle: ") + e.what());
      continue;
    }
    if (!sums_match(stats, "detections", want)) {
      out.fail("cycle " + std::to_string(index - 1) + " checksum");
      continue;
    }
    const double wall = now_s() - cycle_start;
    w.add_latency(ms(wall));
    w.add_busy(wall);
    w.add_vt_latency(ms(stats.latencies.at(0)));
    w.add_vt_period(ms(stats.period));
    w.add_sets(1.0);
    log_busy(out.layers, stats, 1.0);
    pool.add(stats);
  }
  pool.log(out.layers);

  // The "hand" side here is the chain's hand-written mapping (the one
  // the model builder ships); the SAGE side is the GA-mapped design.
  // Alternating runs on two warm sessions; the first cycle's checksum
  // must also equal the hand-mapped design's.
  LayerLog scratch;
  Tracer quiet(false);
  Pipeline hand_mapped = compile_pipeline(radar_model(quiet), 1, quiet, scratch);
  auto ga_workspace = radar_model(quiet);
  map_design(*ga_workspace, o.seed, quiet, scratch);
  Pipeline ga_mapped = compile_pipeline(std::move(ga_workspace), 1, quiet, scratch);
  auto hand_session = open_session(hand_mapped, quiet);
  auto ga_session = open_session(ga_mapped, quiet);
  std::vector<double> sage_vt, hand_vt;
  for (int i = 0; i < kRadarPairs; ++i) {
    ++out.attempted;
    const runtime::RunStats hand = hand_session->run();
    const runtime::RunStats sage = ga_session->run();
    if (!sums_match(hand, "detections", want) ||
        !sums_match(sage, "detections", want)) {
      out.fail("hand-mapped vs GA-mapped checksum");
      continue;
    }
    hand_vt.push_back(ms(hand.latencies.at(0)));
    sage_vt.push_back(ms(sage.latencies.at(0)));
  }
  w.pct_of_hand = percent_of(hand_vt, sage_vt);
  w.report(out);
  return out;
}

// ---------------------------------------------------------------------------
// serve-open: seeded open-loop Poisson arrivals at a fixed rate, two
// programs, two tenants, one client thread.

Outcome serve_open(const WorkloadOptions& o, Tracer& tracer) {
  Outcome out;
  const SetupTimer setup;
  const int setup_span = tracer.open("setup");
  std::vector<Pipeline> programs;
  programs.push_back(compile_pipeline(
      build_model(tracer, [] { return apps::make_fft2d_workspace(kServeN, kNodes); }),
      1, tracer, out.layers));
  programs.push_back(compile_pipeline(
      build_model(tracer,
                  [] { return apps::make_cornerturn_workspace(kServeN, kNodes); }),
      1, tracer, out.layers));
  serve::ServerOptions server_options;
  server_options.workers = kServeWorkers;
  server_options.max_sessions_per_program = kServeFleetCap;
  server_options.execute = programs[0].options;
  auto server = std::make_unique<serve::Server>(server_options);
  std::vector<std::uint64_t> keys;
  for (std::size_t i = 0; i < programs.size(); ++i) {
    const double start = now_s();
    Tracer::Scope span(tracer, "serve.add_program");
    keys.push_back(server->add_program(i == 0 ? "fft2d" : "cornerturn",
                                       programs[i].program,
                                       programs[i].project->registry()));
    out.layers.add("serve.add_program_ms", "ms", ms(now_s() - start));
  }
  tracer.close(setup_span);
  setup.stop(out);
  if (o.setup_only) return out;

  // Solo-run reference checksums, one warm session per program.
  std::vector<std::vector<double>> want;
  for (Pipeline& p : programs) {
    auto session = open_session(p, tracer);
    const runtime::RunStats solo = run_once(*session, tracer, out.layers, 0);
    want.push_back(solo.results.at("sink"));
    log_data_plane(out.layers, solo);
    log_busy(out.layers, solo, 1.0);
    close_session(session, tracer);
  }

  // The seed fixes the arrival times, the program and the tenant of
  // every request.
  const int budget = static_cast<int>(std::ceil(kServeRate * o.seconds * 1.5)) + 16;
  std::vector<double> arrivals = serve::poisson_arrivals(budget, kServeRate, o.seed);
  arrivals.erase(std::find_if(arrivals.begin(), arrivals.end(),
                              [&](double t) { return t >= o.seconds; }),
                 arrivals.end());
  std::mt19937_64 rng(o.seed ^ 0x5e12e0be7c4a11ULL);
  std::vector<int> which(arrivals.size());
  std::vector<std::string> tenant(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const std::uint64_t draw = rng();
    which[i] = draw % kServeCornerTurnOneIn == 0 ? 1 : 0;
    tenant[i] = (draw >> 32) & 1u ? "tenant-b" : "tenant-a";
  }

  struct Outstanding {
    serve::ServeTicket ticket;
    std::size_t index = 0;
  };
  std::vector<Outstanding> outstanding;
  std::vector<std::vector<double>> served_vt(programs.size());
  // Each round replays its slice of the schedule, drains, and probes
  // the host speed before the next; requests are timed from their
  // scheduled send time within the round.
  Window w;
  w.open_loop = true;
  PoolCounts pool;
  std::size_t next = 0;
  double coalesced = 0.0;
  const double round_length = kRoundSeconds;
  const int round_count = static_cast<int>(std::ceil(o.seconds / round_length));
  for (int round = 0; round < round_count; ++round) {
    w.probe();
    const double round_end = (round + 1) * round_length;
    const double round_start = now_s() + 1e-3;
    const double base = round_start - round * round_length;
    double last_done = round_start;
    while ((next < arrivals.size() && arrivals[next] < round_end) ||
           !outstanding.empty()) {
      double now = now_s();
      while (next < arrivals.size() && arrivals[next] < round_end &&
             base + arrivals[next] <= now) {
        ++out.attempted;
        serve::RunRequest request;
        request.tenant = tenant[next];
        request.arrival_vt = arrivals[next];
        serve::ServeTicket ticket;
        {
          Tracer::Scope span(tracer, "serve.submit", next + 1);
          ticket = server->submit(keys[static_cast<std::size_t>(which[next])],
                                  request);
        }
        out.layers.add("serve.submit_us", "us", (now_s() - now) * 1e6);
        out.layers.add("serve.generator_late_ms", "ms",
                       ms(now - (base + arrivals[next])));
        if (ticket.admitted()) {
          outstanding.push_back({ticket, next});
        } else {
          out.fail(std::string("shed: ") + serve::to_string(ticket.admission));
        }
        ++next;
        now = now_s();
      }
      for (std::size_t i = 0; i < outstanding.size();) {
        if (!server->poll(outstanding[i].ticket)) {
          ++i;
          continue;
        }
        const std::size_t index = outstanding[i].index;
        serve::Response response;
        const double wait_start = now_s();
        {
          Tracer::Scope span(tracer, "serve.wait", index + 1);
          response = server->wait(outstanding[i].ticket);
        }
        const double done = now_s();
        out.layers.add("serve.wait_ms", "ms", ms(done - wait_start));
        outstanding.erase(outstanding.begin() + static_cast<std::ptrdiff_t>(i));
        const auto program = static_cast<std::size_t>(which[index]);
        if (!response.ok()) {
          out.fail("response error: " + response.error);
          continue;
        }
        if (!sums_match(response.stats, "sink", want[program])) {
          out.fail("request " + std::to_string(index) + " checksum");
          continue;
        }
        w.add_latency(ms(done - (base + arrivals[index])));
        w.add_vt_latency(ms(response.stats.latencies.at(0)));
        w.add_vt_period(ms(response.stats.period));
        served_vt[program].push_back(ms(response.stats.latencies.at(0)));
        out.layers.add("serve.queue_vt_ms", "ms", ms(response.queue_vt()));
        coalesced += response.coalesced ? 1.0 : 0.0;
        pool.add(response.stats);
        w.add_sets(1.0);
        last_done = done;
      }
      // Poll every 100 us, or sleep until the next send time if sooner.
      const double poll_at = now_s() + 1e-4;
      const double wake =
          next < arrivals.size() && arrivals[next] < round_end
              ? std::min(base + arrivals[next], poll_at)
              : poll_at;
      const double nap = wake - now_s();
      if (nap > 0) std::this_thread::sleep_for(std::chrono::duration<double>(nap));
    }
    // A round lasts its slice of the schedule, or until its last
    // response if the server fell behind.
    w.add_busy(std::max(last_done, round_start + round_length) - round_start);
  }
  const serve::ServerStats stats = server->stats();
  out.layers.set("serve.shed", "count", static_cast<double>(stats.shed_total()));
  out.layers.set("serve.coalesced_ratio", "ratio",
                 w.total_sets() > 0 ? coalesced / w.total_sets() : 0.0);
  pool.log(out.layers);
  server->shutdown();

  // Table 1.0 figure under serving: each program's median served vt
  // latency against its hand-coded twin, averaged over both programs.
  std::vector<double> pct;
  for (std::size_t i = 0; i < programs.size(); ++i) {
    std::vector<double> hand_vt;
    for (int k = 0; k < kServeHandRuns; ++k) {
      const apps::HandcodedResult hand = run_hand(tracer, out.layers, [&] {
        const apps::HandcodedOptions options = hand_options(programs[i].options, 1);
        return i == 0 ? apps::run_fft2d_handcoded(kServeN, kNodes, options)
                      : apps::run_cornerturn_handcoded(kServeN, kNodes, options);
      });
      hand_vt.push_back(ms(hand.latencies.at(0)));
    }
    pct.push_back(percent_of(hand_vt, served_vt[i]));
  }
  w.pct_of_hand = (pct[0] + pct[1]) / 2.0;
  w.report(out);
  return out;
}

}  // namespace

void LayerLog::add(const std::string& name, const std::string& unit,
                   double value) {
  Acc& acc = acc_[name];
  acc.sum += value;
  ++acc.count;
  acc.unit = unit;
}

void LayerLog::set(const std::string& name, const std::string& unit,
                   double value) {
  acc_[name] = Acc{value, 1, unit};
}

Metrics LayerLog::means() const {
  Metrics out;
  for (const auto& [name, acc] : acc_) {
    out[name] = Metric{acc.sum / static_cast<double>(acc.count), acc.unit};
  }
  return out;
}

void Outcome::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

Outcome run_workload(const WorkloadOptions& options, Tracer& tracer) {
  if (options.name == "fft2d-stream") return fft2d_stream(options, tracer);
  if (options.name == "cornerturn-table1") {
    return cornerturn_table1(options, tracer);
  }
  if (options.name == "design-loop") return design_loop(options, tracer);
  if (options.name == "serve-open") return serve_open(options, tracer);
  throw std::invalid_argument("unknown workload '" + options.name + "'");
}

}  // namespace sagebench
