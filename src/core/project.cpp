#include "core/project.hpp"

#include "atot/mapper.hpp"
#include "model/hardware.hpp"
#include "model/mapping.hpp"
#include "runtime/compiler.hpp"
#include "support/error.hpp"

namespace sage::core {

Project::Project(std::unique_ptr<model::Workspace> workspace)
    : workspace_(std::move(workspace)),
      registry_(runtime::standard_registry()) {
  SAGE_CHECK(workspace_ != nullptr, "Project needs a workspace");
}

void Project::set_registry(runtime::FunctionRegistry registry) {
  registry_ = std::move(registry);
  program_.reset();  // programs are fingerprinted against the registry
}

const codegen::GeneratedArtifacts& Project::generate() {
  if (!artifacts_.has_value()) {
    artifacts_ = codegen::generate_glue(*workspace_);
  }
  return *artifacts_;
}

runtime::ExecuteOptions Project::resolve_options_(
    runtime::ExecuteOptions options) {
  const model::ModelObject& hw = workspace_->hardware();
  if (!options.fabric.has_value()) {
    options.fabric = model::to_fabric_model(hw);
  }
  if (options.cpu_scales.empty()) {
    const int nodes = static_cast<int>(model::processors(hw).size());
    options.cpu_scales.reserve(static_cast<std::size_t>(nodes));
    for (int r = 0; r < nodes; ++r) {
      options.cpu_scales.push_back(model::cpu_scale_of_rank(hw, r));
    }
  }
  return options;
}

std::shared_ptr<const runtime::CompiledProgram> Project::compile_program(
    const runtime::ExecuteOptions& options) {
  if (program_ == nullptr) {
    const codegen::GeneratedArtifacts& artifacts = generate();
    program_ = runtime::compile_or_load(artifacts.config, registry_,
                                        options.plan_cache_dir);
  }
  return program_;
}

runtime::ExecuteOptions Project::resolved_options(
    const runtime::ExecuteOptions& options) {
  return resolve_options_(options);
}

std::unique_ptr<runtime::Session> Project::open_session(
    const runtime::ExecuteOptions& options) {
  return std::make_unique<runtime::Session>(compile_program(options),
                                            registry_,
                                            resolve_options_(options));
}

Result<std::unique_ptr<runtime::Session>> Project::try_open_session(
    const runtime::ExecuteOptions& options) {
  try {
    return Result<std::unique_ptr<runtime::Session>>::success(
        open_session(options));
  } catch (const std::exception& e) {
    return Result<std::unique_ptr<runtime::Session>>::failure(e.what());
  }
}

runtime::RunStats Project::execute(const runtime::ExecuteOptions& options) {
  return open_session(options)->run();
}

atot::CostBreakdown Project::remap_on_survivors(
    const std::vector<int>& dead_ranks) {
  atot::MappingProblem problem = atot::build_problem(*workspace_);
  problem.proc_dead = dead_ranks;

  // Re-map with the GA seeded from the incumbent assignment (stranded
  // threads repaired onto the least-loaded survivor first, the same
  // tie-to-lowest-rank rule Session::recover() applies), instead of
  // restarting from scratch: elitism makes the result strictly no worse
  // than the repaired incumbent, and the search starts next to a
  // placement that was already good for the surviving topology.
  atot::GeneticOptions ga;
  const model::MappingView view(workspace_->root(), workspace_->mapping());
  bool have_incumbent = true;
  atot::Assignment incumbent(static_cast<std::size_t>(problem.task_count()),
                             0);
  for (const atot::Task& task : problem.tasks) {
    if (!view.is_mapped(task.function)) {
      have_incumbent = false;
      break;
    }
    const std::vector<int> ranks = view.ranks_of(task.function);
    incumbent[static_cast<std::size_t>(task.id)] =
        ranks[static_cast<std::size_t>(task.thread) % ranks.size()];
  }
  if (have_incumbent) {
    std::vector<int> load(static_cast<std::size_t>(problem.proc_count()), 0);
    for (const int p : incumbent) {
      if (problem.proc_alive(p)) ++load[static_cast<std::size_t>(p)];
    }
    for (int& p : incumbent) {
      if (problem.proc_alive(p)) continue;
      int best = -1;
      for (int r = 0; r < problem.proc_count(); ++r) {
        if (!problem.proc_alive(r)) continue;
        if (best == -1 || load[static_cast<std::size_t>(r)] <
                              load[static_cast<std::size_t>(best)]) {
          best = r;
        }
      }
      p = best;
      ++load[static_cast<std::size_t>(best)];
    }
    ga.seeds.push_back(std::move(incumbent));
  }

  const atot::GeneticResult result = atot::genetic_mapping(problem, ga);
  atot::apply_assignment(*workspace_, problem, result.best);
  invalidate();
  return result.cost;
}

}  // namespace sage::core
