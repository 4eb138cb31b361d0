// openSAGE -- runtime::Tuner: online AToT, the closed perf loop.
//
// The paper's AToT mapper optimizes placement against *static* cost
// estimates. The Tuner closes the measure -> re-map -> hot-swap loop
// over a live Session (cf. DaCe's measure/transform/re-run discipline):
//
//   observe()  folds each run's MetricsSnapshot -- per-function busy
//              seconds, per-link bytes, invocation counts -- into the
//              current measurement window;
//   step()     turns the window into an atot::CalibrationProfile,
//              calibrates the mapping problem (replacing static
//              work_flops / traffic estimates with observed costs, see
//              atot::CostModel::calibrate), re-runs genetic_mapping
//              seeded from the incumbent placement, and -- when the
//              predicted objective gain clears TunerOptions::hysteresis
//              -- recompiles through Compiler/PlanCache and hot-swaps
//              the improved program into the Session via
//              Session::swap_program() (quiesce-and-swap: tickets
//              survive, warm buffers re-prewarmed).
//
// Determinism: the GA seed of step k is a pure function of
// (TunerOptions::seed, k), so given the same sequence of calibration
// profiles every re-mapping decision and swap point is bit-reproducible
// across fresh and warm sessions. The tuner's own metric families
// (sage_tune_steps_total{outcome=}, sage_tune_predicted_gain_ratio,
// sage_tune_swap_seconds) are all time-based -- they narrate the loop,
// they never enter the deterministic snapshot subset.
//
// Threading: drive one Tuner from one thread. That thread MAY be a
// dedicated tuner thread racing the Session's owning host thread, as
// long as the host thread limits itself to poll()/wait()/drain() while
// a step() is in flight (the Session::swap_program contract).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "atot/cost_model.hpp"
#include "atot/mapper.hpp"
#include "runtime/session.hpp"
#include "viz/metrics.hpp"

namespace sage::runtime {

/// Online-tuning knobs. Plain values only: the executor layer stays
/// independent of the atot mapper that interprets them.
struct TunerOptions {
  /// Seed for the per-step re-mapping GA. Together with the observed
  /// calibration profile it fully determines every tuning decision.
  std::uint64_t seed = 0x5A6E2000u;
  /// Minimum predicted objective gain ratio,
  /// (incumbent - candidate) / incumbent, before a hot-swap is worth
  /// its cost; smaller predicted wins hold the incumbent.
  double hysteresis = 0.05;
  /// GA size overrides for the per-step re-map (0: mapper defaults).
  int population = 0;
  int generations = 0;
};

/// What one Tuner::step() decided, and why.
struct TuneStepReport {
  int step = 0;
  /// "swap" (improvement cleared hysteresis, program hot-swapped),
  /// "hold" (re-mapped but kept the incumbent), or "skip" (no profile
  /// observed since the last step).
  std::string outcome = "skip";
  /// Calibrated objective of the incumbent placement.
  double incumbent_objective = 0.0;
  /// Calibrated objective of the GA's best candidate.
  double candidate_objective = 0.0;
  /// (incumbent - candidate) / incumbent; compared against hysteresis.
  double predicted_gain_ratio = 0.0;
  /// Host wall seconds of recompile + hot-swap (0 unless "swap").
  double swap_seconds = 0.0;
  /// Function threads whose node changed (0 unless "swap").
  int moved_threads = 0;
  /// Plan-cache verdict of the swap recompile.
  PlanCacheOutcome cache_outcome = PlanCacheOutcome::kNotConsulted;

  bool swapped() const { return outcome == "swap"; }
};

/// Rebuilds a program's GlueConfig for a new task placement: thread_nodes
/// from `assignment` (task order = (function id, thread), matching
/// CompiledProgram::fn_thread_base), per-node schedules re-emitted in
/// function-id order (the code generator's order, same as recover()).
/// The function table itself is untouched, so the result is
/// Session::swap_program-compatible with `program`.
GlueConfig remapped_config(const CompiledProgram& program,
                           const atot::Assignment& assignment);

class Tuner {
 public:
  /// Builds the (static-cost) mapping problem skeleton from the
  /// session's compiled program: one task per (function id, thread),
  /// staging memory from the program's port bindings, traffic from the
  /// compiled transfer program (placement-invariant thread-pair
  /// volumes), fabric and cpu_scales from the session's resolved
  /// options. `registry` is held for the hot-swap recompiles.
  Tuner(Session& session, const FunctionRegistry& registry,
        TunerOptions options = {}, atot::ObjectiveWeights weights = {});

  /// Folds one measured run into the current window (busy seconds,
  /// invocations, link bytes, iterations). Synchronous run() stats give
  /// exact per-window link profiles; overlapped-ticket stats are
  /// epoch-cumulative (see Session), so streamed drivers should observe
  /// only the last ticket of each window.
  void observe(const RunStats& stats);
  /// Test/offline hook: fold an already-built profile into the window
  /// (its measured_assignment is ignored; the incumbent's is used).
  void observe(atot::CalibrationProfile profile);

  /// One tuning decision over the accumulated window; clears the window.
  TuneStepReport step();

  /// The placement the session currently executes (task -> node),
  /// re-read from the live program each step.
  const atot::Assignment& incumbent() const { return incumbent_; }
  /// The mapping problem, calibrated as of the last step().
  const atot::MappingProblem& problem() const { return cost_.problem(); }
  atot::CostModel& cost_model() { return cost_; }

  int steps() const { return steps_; }
  int swaps() const { return swaps_; }

  /// The tuner's own metric series (the three sage_tune_* families),
  /// cumulative since construction. Merge into a run snapshot for
  /// viz::report's "tuning" section.
  viz::MetricsSnapshot snapshot() const { return metrics_.snapshot(); }

 private:
  atot::Assignment read_incumbent_() const;
  atot::CalibrationProfile window_profile_() const;

  Session* session_;
  const FunctionRegistry* registry_;
  TunerOptions options_;
  atot::ObjectiveWeights weights_;
  atot::CostModel cost_;
  atot::Assignment incumbent_;

  // Measurement window, cleared by step().
  std::map<std::string, double> window_busy_;
  std::map<std::string, double> window_calls_;
  std::map<std::pair<int, int>, double> window_link_bytes_;
  int window_iterations_ = 0;
  bool window_has_samples_ = false;

  viz::MetricsRegistry metrics_;
  int steps_swap_id_ = -1;
  int steps_hold_id_ = -1;
  int steps_skip_id_ = -1;
  int gain_id_ = -1;
  int swap_seconds_id_ = -1;

  int steps_ = 0;
  int swaps_ = 0;
};

}  // namespace sage::runtime
