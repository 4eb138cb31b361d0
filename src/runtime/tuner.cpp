#include "runtime/tuner.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "net/fabric_model.hpp"
#include "runtime/compiler.hpp"
#include "support/clock.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace sage::runtime {

namespace fam = viz::families;

namespace {

const std::string* label_of(const viz::MetricValue& v, const char* key) {
  for (const auto& [k, value] : v.labels) {
    if (k == key) return &value;
  }
  return nullptr;
}

/// The static problem skeleton: tasks and traffic in the flat
/// (function id, thread) order of CompiledProgram::fn_thread_base, so
/// assignments translate 1:1 into thread_nodes. Everything here is
/// placement-invariant -- the thread-pair transfer volumes come from
/// the striping plans, not from where threads currently sit.
atot::MappingProblem problem_skeleton(const Session& session) {
  const CompiledProgram& program = session.program();
  const GlueConfig& config = program.config;

  atot::MappingProblem problem;
  problem.fabric = session.options().fabric.value_or(net::myrinet_fabric());
  // CostModel's constructor immediately rewrites proc_flops scale-aware.
  problem.proc_flops.assign(static_cast<std::size_t>(config.nodes),
                            atot::kCalibratedUnitFlops);
  // The emulated nodes never bound staging memory; leave capacity
  // unconstrained (0) rather than inventing a budget calibration cannot
  // observe.
  problem.proc_mem_bytes.assign(static_cast<std::size_t>(config.nodes), 0);
  problem.proc_dead = session.dead_nodes();

  problem.tasks.resize(program.bindings_of.size());
  for (const FunctionConfig& fn : config.functions) {
    for (int t = 0; t < fn.threads; ++t) {
      const int id =
          program.fn_thread_base[static_cast<std::size_t>(fn.id)] + t;
      atot::Task& task = problem.tasks[static_cast<std::size_t>(id)];
      task.id = id;
      task.function = fn.name;
      task.thread = t;
      task.work_flops = 0.0;  // unknown until the first calibration
      std::size_t mem = 0;
      for (const PortBinding& b :
           program.bindings_of[static_cast<std::size_t>(id)]) {
        std::size_t elems = 1;
        for (const std::size_t d : b.local_dims) elems *= d;
        mem += elems * b.elem_bytes;
      }
      task.mem_bytes = mem;
      task.is_source = (fn.role == "source");
      task.is_sink = (fn.role == "sink");
    }
  }

  problem.traffic.reserve(program.ops.size());
  for (const TransferOp& op : program.ops) {
    atot::Traffic edge;
    edge.src_task =
        program.fn_thread_base[static_cast<std::size_t>(op.src_function)] +
        op.src_thread;
    edge.dst_task =
        program.fn_thread_base[static_cast<std::size_t>(op.dst_function)] +
        op.dst_thread;
    edge.bytes = op.bytes;
    problem.traffic.push_back(edge);
  }
  return problem;
}

}  // namespace

GlueConfig remapped_config(const CompiledProgram& program,
                           const atot::Assignment& assignment) {
  SAGE_CHECK(assignment.size() == program.bindings_of.size(),
             "remapped_config: assignment has ", assignment.size(),
             " genes for ", program.bindings_of.size(), " threads");
  GlueConfig config = program.config;
  for (FunctionConfig& fn : config.functions) {
    for (int t = 0; t < fn.threads; ++t) {
      fn.thread_nodes[static_cast<std::size_t>(t)] = assignment
          [static_cast<std::size_t>(
              program.fn_thread_base[static_cast<std::size_t>(fn.id)] + t)];
    }
  }
  config.schedule = schedule_by_id(config);
  return config;
}

Tuner::Tuner(Session& session, const FunctionRegistry& registry,
             TunerOptions options, atot::ObjectiveWeights weights)
    : session_(&session),
      registry_(&registry),
      options_(options),
      weights_(weights),
      cost_(problem_skeleton(session), session.options().cpu_scales),
      incumbent_(read_incumbent_()) {
  steps_swap_id_ =
      metrics_.counter(fam::kTuneSteps, "Tuning steps by outcome.",
                       {{"outcome", "swap"}}, /*time_based=*/true);
  steps_hold_id_ =
      metrics_.counter(fam::kTuneSteps, "Tuning steps by outcome.",
                       {{"outcome", "hold"}}, /*time_based=*/true);
  steps_skip_id_ =
      metrics_.counter(fam::kTuneSteps, "Tuning steps by outcome.",
                       {{"outcome", "skip"}}, /*time_based=*/true);
  gain_id_ = metrics_.gauge(
      fam::kTunePredictedGain,
      "Predicted objective gain ratio of the last re-mapping step.",
      {}, /*time_based=*/true);
  swap_seconds_id_ = metrics_.counter(
      fam::kTuneSwapSeconds,
      "Host wall seconds spent recompiling and hot-swapping programs.", {},
      /*time_based=*/true);
}

atot::Assignment Tuner::read_incumbent_() const {
  const CompiledProgram& program = session_->program();
  atot::Assignment assignment(program.bindings_of.size(), 0);
  for (const FunctionConfig& fn : program.config.functions) {
    for (int t = 0; t < fn.threads; ++t) {
      assignment[static_cast<std::size_t>(
          program.fn_thread_base[static_cast<std::size_t>(fn.id)] + t)] =
          fn.thread_nodes[static_cast<std::size_t>(t)];
    }
  }
  return assignment;
}

void Tuner::observe(const RunStats& stats) {
  for (const viz::MetricValue& v : stats.metrics.series) {
    if (v.name == fam::kFunctionBusySeconds) {
      const std::string* function = label_of(v, "function");
      if (function != nullptr && v.value > 0.0) {
        window_busy_[*function] += v.value;
        window_has_samples_ = true;
      }
    } else if (v.name == fam::kFunctionInvocations) {
      const std::string* function = label_of(v, "function");
      if (function != nullptr) window_calls_[*function] += v.value;
    } else if (v.name == fam::kLinkBytes) {
      const std::string* src = label_of(v, "src");
      const std::string* dst = label_of(v, "dst");
      if (src != nullptr && dst != nullptr && v.value > 0.0) {
        window_link_bytes_[{std::atoi(src->c_str()),
                            std::atoi(dst->c_str())}] += v.value;
      }
    }
  }
  window_iterations_ += stats.iterations;
}

void Tuner::observe(atot::CalibrationProfile profile) {
  for (const atot::CalibrationProfile::FunctionSample& s : profile.functions) {
    if (s.busy_seconds > 0.0) {
      window_busy_[s.function] += s.busy_seconds;
      window_has_samples_ = true;
    }
    if (s.invocations > 0.0) window_calls_[s.function] += s.invocations;
  }
  for (const atot::CalibrationProfile::LinkSample& s : profile.links) {
    if (s.bytes > 0.0) window_link_bytes_[{s.src_node, s.dst_node}] += s.bytes;
  }
  window_iterations_ += profile.iterations;
}

atot::CalibrationProfile Tuner::window_profile_() const {
  atot::CalibrationProfile profile;
  profile.functions.reserve(window_busy_.size());
  for (const auto& [function, busy] : window_busy_) {
    atot::CalibrationProfile::FunctionSample sample;
    sample.function = function;
    sample.busy_seconds = busy;
    const auto calls = window_calls_.find(function);
    sample.invocations = calls != window_calls_.end() ? calls->second : 0.0;
    profile.functions.push_back(std::move(sample));
  }
  profile.links.reserve(window_link_bytes_.size());
  for (const auto& [key, bytes] : window_link_bytes_) {
    atot::CalibrationProfile::LinkSample sample;
    sample.src_node = key.first;
    sample.dst_node = key.second;
    sample.bytes = bytes;
    profile.links.push_back(sample);
  }
  profile.iterations = std::max(1, window_iterations_);
  return profile;
}

TuneStepReport Tuner::step() {
  TuneStepReport report;
  report.step = ++steps_;
  // Re-read the live placement: recover() (or an earlier swap) may have
  // moved threads since the last step.
  incumbent_ = read_incumbent_();

  if (!window_has_samples_) {
    report.outcome = "skip";
    metrics_.add(steps_skip_id_, 1.0);
    return report;
  }

  atot::CalibrationProfile profile = window_profile_();
  profile.measured_assignment = incumbent_;
  cost_.problem().proc_dead = session_->dead_nodes();
  cost_.calibrate(profile);

  report.incumbent_objective =
      atot::evaluate(cost_.problem(), incumbent_, weights_).objective;

  atot::GeneticOptions ga;
  ga.weights = weights_;
  ga.seeds.push_back(incumbent_);
  // Per-step GA seed: a pure function of (options.seed, step index), so
  // the decision sequence is bit-reproducible for a given profile
  // sequence regardless of session warmth.
  std::uint64_t state =
      options_.seed + 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(
                                                  report.step);
  ga.seed = support::splitmix64(state);
  if (options_.population > 0) ga.population = options_.population;
  if (options_.generations > 0) ga.generations = options_.generations;
  const atot::GeneticResult result = atot::genetic_mapping(cost_.problem(), ga);

  report.candidate_objective = result.cost.objective;
  report.predicted_gain_ratio =
      report.incumbent_objective > 0.0
          ? (report.incumbent_objective - report.candidate_objective) /
                report.incumbent_objective
          : 0.0;
  metrics_.set(gain_id_, report.predicted_gain_ratio);

  if (report.predicted_gain_ratio > options_.hysteresis &&
      result.best != incumbent_) {
    const double swap_start = support::wall_seconds();
    std::shared_ptr<const CompiledProgram> next =
        compile_or_load(remapped_config(session_->program(), result.best),
                        *registry_, session_->options().plan_cache_dir);
    report.cache_outcome = next->cache_outcome;
    for (std::size_t t = 0; t < incumbent_.size(); ++t) {
      if (incumbent_[t] != result.best[t]) ++report.moved_threads;
    }
    session_->swap_program(std::move(next));
    report.swap_seconds = support::wall_seconds() - swap_start;
    report.outcome = "swap";
    incumbent_ = result.best;
    ++swaps_;
    metrics_.add(steps_swap_id_, 1.0);
    metrics_.add(swap_seconds_id_, report.swap_seconds);
  } else {
    report.outcome = "hold";
    metrics_.add(steps_hold_id_, 1.0);
  }

  window_busy_.clear();
  window_calls_.clear();
  window_link_bytes_.clear();
  window_iterations_ = 0;
  window_has_samples_ = false;
  return report;
}

}  // namespace sage::runtime
