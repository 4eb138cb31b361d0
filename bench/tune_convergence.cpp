// Online-tuning convergence (the ISSUE 9 headline number).
//
// Starts the deliberately skewed tuning workspace (apps::
// make_tuning_workspace: two fast processors idle, every function piled
// onto two 16x-slower ones), lets runtime::Tuner run its observe ->
// calibrate -> re-map -> hot-swap loop for a fixed number of steps, and
// compares the tuned virtual makespan against the best-known mapping --
// a big-budget GA run on the tuner's own calibrated problem, realized
// on the same warm session through remapped_config + swap_program.
//
// Headline gate: the tuner must recover >= 90% of best-known-mapping
// throughput from a bad start; the bench exits 1 otherwise. Measured
// makespans inherit wall-clock noise (the emulator charges measured
// host CPU time x cpu_scale), so the pass/fail recovery is scored on
// the calibrated cost model -- best_objective / tuned_objective with
// both placements evaluated on the SAME calibrated problem, which is
// exactly 1.0 whenever the tuner converged to the best-known placement
// regardless of timing noise -- and the measured makespan recovery
// (min over runs) is printed alongside as the noisy corroboration.
// The same ratio, inverted (tuned/best, lower is better), is the label
// "tune/objective_ratio" gated by check_bench_regression.py.
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "apps/pipelines.hpp"
#include "atot/mapper.hpp"
#include "bench_util.hpp"
#include "core/project.hpp"
#include "runtime/compiler.hpp"
#include "runtime/session.hpp"
#include "runtime/tuner.hpp"

namespace {

using namespace sage;

constexpr double kMinRecovery = 0.90;

/// Min over runs: the noise-robust estimator for the timing side
/// (makespan noise is one-sided -- scheduling jitter only adds time).
double min_makespan(runtime::Session& session, int runs) {
  double best = 0.0;
  for (int r = 0; r < runs; ++r) {
    const double m = session.run().makespan;
    if (r == 0 || m < best) best = m;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchEnv env = bench::bench_env();
  const std::size_t n = 128;
  const int stages = 4;
  const int tune_steps = 6;

  core::Project project(apps::make_tuning_workspace(n, stages));
  runtime::ExecuteOptions options;
  options.iterations = env.iterations;
  runtime::TunerOptions tune;
  tune.hysteresis = 0.02;

  std::unique_ptr<runtime::Session> session = project.open_session(options);
  runtime::Tuner tuner(*session, project.registry(), tune);
  const int nodes = session->program().config.nodes;

  std::printf("Online AToT convergence: bad start -> tuner -> best-known\n");
  std::printf("(%zux%zu chain, %d stages, %d nodes, %d iters/run, "
              "%d runs/point)\n\n",
              n, n, stages, nodes, env.iterations, env.runs);

  // The hole we start in: everything on the slow processors. These runs
  // double as the tuner's first measurement window.
  double bad = 0.0;
  for (int r = 0; r < env.runs; ++r) {
    const runtime::RunStats stats = session->run();
    if (r == 0 || stats.makespan < bad) bad = stats.makespan;
    tuner.observe(stats);
  }
  std::printf("bad start: makespan %10.3f ms (virtual)\n\n", bad * 1e3);

  std::printf("%-5s %-6s %12s %14s %8s\n", "step", "outcome", "pred.gain",
              "makespan(ms)", "moved");
  double swap_host = 0.0;
  for (int s = 0; s < tune_steps; ++s) {
    const runtime::TuneStepReport rep = tuner.step();
    swap_host += rep.swap_seconds;
    const runtime::RunStats stats = session->run();
    tuner.observe(stats);
    std::printf("%-5d %-6s %11.1f%% %14.3f %8d\n", rep.step,
                rep.outcome.c_str(), rep.predicted_gain_ratio * 100.0,
                stats.makespan * 1e3, rep.moved_threads);
    std::printf("csv,tune_step,%d,%s,%.6f,%.6f,%d\n", rep.step,
                rep.outcome.c_str(), rep.predicted_gain_ratio, stats.makespan,
                rep.moved_threads);
  }
  const double tuned = min_makespan(*session, env.runs);

  // Best-known mapping: a big-budget GA on the tuner's calibrated
  // problem, seeded with the tuner's final incumbent (elitism: never
  // worse than what the tuner found), hot-swapped onto the same warm
  // session so both makespans come from identical machinery.
  atot::GeneticOptions big;
  big.population = 96;
  big.generations = 300;
  big.stall_generations = 60;
  big.seed = 0xBE57BE57u;
  big.seeds.push_back(tuner.incumbent());
  const atot::GeneticResult best_map =
      atot::genetic_mapping(tuner.problem(), big);
  const double tuned_objective =
      atot::evaluate(tuner.problem(), tuner.incumbent()).objective;
  const double best_objective = best_map.cost.objective;
  session->swap_program(runtime::compile_or_load(
      runtime::remapped_config(session->program(), best_map.best),
      project.registry(), options.plan_cache_dir));
  const double best = min_makespan(*session, env.runs);

  const double measured_recovery = tuned > 0.0 ? best / tuned : 0.0;
  const double recovery =
      tuned_objective > 0.0 ? best_objective / tuned_objective : 0.0;
  std::printf("\ntuned:      makespan %10.3f ms  (%.2fx over bad start, "
              "%d swaps, %.3f ms host spent swapping)\n",
              tuned * 1e3, tuned > 0.0 ? bad / tuned : 0.0, tuner.swaps(),
              swap_host * 1e3);
  std::printf("best-known: makespan %10.3f ms  (GA pop %d, %d generations)\n",
              best * 1e3, big.population, best_map.generations_run);
  std::printf("recovery:   %.1f%% of best-known on the calibrated cost model "
              "(gate: >= %.0f%%), %.1f%% measured\n",
              recovery * 100.0, kMinRecovery * 100.0,
              measured_recovery * 100.0);
  std::printf("csv,tune_convergence,%zu,%d,%.6f,%.6f,%.6f,%.4f,%.4f\n", n,
              nodes, bad, tuned, best, recovery, measured_recovery);

  bench::JsonReport report;
  report.bench = "tune_convergence";
  report.runs = env.runs;
  report.iterations = env.iterations;
  // Quality ratio encoded as a host cost so the regression gate watches
  // it: warm = tuned_objective/best_objective on the same calibrated
  // problem (1.0 = the tuner found the best-known placement; immune to
  // timing noise since both assignments are scored on one problem
  // instance), cold = measured bad/best makespan ratio (how deep the
  // starting hole was -- informational, noisy, not compared by the
  // gate since cold times are never gated).
  bench::HostCost ratio;
  ratio.label = "tune/objective_ratio";
  ratio.cold_seconds = best > 0.0 ? bad / best : 0.0;
  ratio.warm_seconds =
      best_objective > 0.0 ? tuned_objective / best_objective : 0.0;
  ratio.warm_runs = env.runs;
  report.hosts.push_back(ratio);
  bench::print_host_cost(ratio);

  bench::ComparisonRow row;
  row.application = "tuning_chain";
  row.size = n;
  row.nodes = nodes;
  row.hand_seconds = best;   // best-known plays the "hand-coded" role
  row.sage_seconds = tuned;  // the online tuner's result
  report.rows.push_back(row);

  if (const char* path = bench::json_path(argc, argv)) {
    if (!bench::write_json(report, path)) return 2;
  }

  if (recovery < kMinRecovery) {
    std::fprintf(stderr,
                 "FAIL: tuner recovered only %.1f%% of best-known "
                 "throughput (< %.0f%%)\n",
                 recovery * 100.0, kMinRecovery * 100.0);
    return 1;
  }
  std::printf("\nOK: tuner within %.0f%% of best-known mapping\n",
              kMinRecovery * 100.0);
  return 0;
}
