// openSAGE -- the top-level facade: one Project owns a design workspace
// and drives the paper's pipeline end to end:
//
//   Designer (model) -> [AToT mapping] -> Alter glue generation ->
//   run-time execution on the emulated platform -> Visualizer trace.
//
// This is the API the examples and benchmark harnesses use. The
// preferred execution path is open_session(): it generates glue (if
// needed), fills any unset execution options from the workspace's
// hardware model, and returns a warm runtime::Session whose repeated
// run() calls reuse the emulated machine and all buffer memory.
// execute() remains as the one-shot convenience (open a session, run
// once).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "atot/cost_model.hpp"
#include "codegen/generator.hpp"
#include "model/workspace.hpp"
#include "runtime/program.hpp"
#include "runtime/registry.hpp"
#include "runtime/session.hpp"
#include "support/error.hpp"

namespace sage::core {

class Project {
 public:
  /// Takes ownership of a workspace (usually from a builder in
  /// sage::apps or hand-assembled through the model API).
  explicit Project(std::unique_ptr<model::Workspace> workspace);

  /// Scoped mutable access to the workspace; cached glue artifacts are
  /// invalidated when the scope ends, so the next generate()/execute()
  /// sees the edits.
  class EditScope {
   public:
    explicit EditScope(Project& project) : project_(&project) {}
    EditScope(EditScope&& other) noexcept : project_(other.project_) {
      other.project_ = nullptr;
    }
    EditScope(const EditScope&) = delete;
    EditScope& operator=(const EditScope&) = delete;
    EditScope& operator=(EditScope&&) = delete;
    ~EditScope() {
      if (project_ != nullptr) project_->invalidate();
    }

    model::Workspace& operator*() const { return *project_->workspace_; }
    model::Workspace* operator->() const { return project_->workspace_.get(); }

   private:
    Project* project_;
  };

  /// Opens an auto-invalidating edit scope over the workspace:
  ///   project.edit()->add_app(...);
  ///   { auto ws = project.edit(); ws->...; ws->...; }
  EditScope edit() { return EditScope(*this); }

  model::Workspace& workspace() { return *workspace_; }
  const model::Workspace& workspace() const { return *workspace_; }

  /// Replaces the kernel registry (defaults to standard_registry()).
  void set_registry(runtime::FunctionRegistry registry);
  const runtime::FunctionRegistry& registry() const { return registry_; }

  /// Runs the Alter glue-code generator; caches and returns the
  /// artifacts. Call invalidate() (or use edit()) after model changes.
  const codegen::GeneratedArtifacts& generate();

  /// Invalidates cached artifacts (and the compiled program lowered
  /// from them) after a model edit.
  void invalidate() {
    artifacts_.reset();
    program_.reset();
  }

  /// Generates glue (if needed) and compiles it into the shared
  /// CompiledProgram every session opened by this Project executes.
  /// Consults the content-addressed plan cache when
  /// `options.plan_cache_dir` is set. Compiled once and cached until
  /// invalidate()/set_registry(); repeated open_session() calls attach
  /// new executors to the same program.
  std::shared_ptr<const runtime::CompiledProgram> compile_program(
      const runtime::ExecuteOptions& options = {});

  /// Generates (if needed) and opens a warm session on the emulated
  /// platform described by the workspace's hardware model. Options left
  /// unset are derived from the hardware model: `fabric` from the
  /// interconnect properties, `cpu_scales` from the per-processor
  /// speeds. Throws sage::ConfigError / sage::RuntimeError on
  /// inconsistency.
  std::unique_ptr<runtime::Session> open_session(
      const runtime::ExecuteOptions& options = {});

  /// The execute options open_session() would actually run with: any
  /// field left unset in `options` filled from the hardware model
  /// (`fabric` from the interconnect properties, `cpu_scales` from the
  /// per-processor speeds). For callers that construct sessions
  /// themselves -- serve::Server fleets, bare runtime::Session -- and
  /// still want the workspace's platform derivation.
  runtime::ExecuteOptions resolved_options(
      const runtime::ExecuteOptions& options = {});

  /// Non-throwing counterpart of open_session for validators and CLIs:
  /// model/config/mapping problems come back as an error message.
  Result<std::unique_ptr<runtime::Session>> try_open_session(
      const runtime::ExecuteOptions& options = {});

  /// One-shot convenience: open_session(options) and run once.
  runtime::RunStats execute(const runtime::ExecuteOptions& options = {});

  /// Degraded-mode remap at the model level: re-runs the AToT genetic
  /// mapper with `dead_ranks` excluded, seeded from the incumbent
  /// assignment (stranded threads repaired onto the least-loaded
  /// survivor first), writes the survivor-only assignment back into the
  /// mapping model, and invalidates cached glue so the next
  /// generate()/open_session() reflects the new placement. Elitism
  /// makes the result strictly no worse than the repaired incumbent.
  /// Complements runtime::Session::recover(), which patches a live
  /// session in place; this path regenerates from the model.
  /// Returns the cost breakdown of the survivor-only assignment.
  atot::CostBreakdown remap_on_survivors(const std::vector<int>& dead_ranks);

 private:
  runtime::ExecuteOptions resolve_options_(runtime::ExecuteOptions options);

  std::unique_ptr<model::Workspace> workspace_;
  runtime::FunctionRegistry registry_;
  std::optional<codegen::GeneratedArtifacts> artifacts_;
  /// One program, N sessions: cached by compile_program() and shared
  /// (read-only) by every open_session() until invalidation.
  std::shared_ptr<const runtime::CompiledProgram> program_;
};

}  // namespace sage::core
