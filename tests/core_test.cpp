// Core-facade tests: Project lifecycle (generation caching,
// invalidation, registry swap), vendor platform presets, and workspace
// cloning.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "apps/benchmarks.hpp"
#include "core/platforms.hpp"
#include "core/project.hpp"
#include "model/app.hpp"
#include "model/hardware.hpp"
#include "support/error.hpp"

namespace sage::core {
namespace {

TEST(ProjectTest, GenerationIsCachedUntilInvalidated) {
  Project project(apps::make_cornerturn_workspace(64, 2));
  EXPECT_EQ(project.generate().config.iterations_default, 1);

  // Edit the model: the cached artifacts must NOT pick it up...
  project.workspace().application().set_property("iterations", 9);
  EXPECT_EQ(project.generate().config.iterations_default, 1);

  // ...until invalidated.
  project.invalidate();
  EXPECT_EQ(project.generate().config.iterations_default, 9);
}

TEST(ProjectTest, InvalidateThenGenerateRebuildsIdenticalArtifacts) {
  // Forcing regeneration of an unchanged model is invalidate() then
  // generate(): every generated file comes back byte-identical, and a
  // session opened afterwards runs the same results.
  Project project(apps::make_cornerturn_workspace(32, 2));
  const std::map<std::string, std::string> before =
      project.generate().outputs;
  runtime::ExecuteOptions options;
  options.iterations = 2;
  options.collect_trace = false;
  const runtime::RunStats first = project.execute(options);

  project.invalidate();
  EXPECT_EQ(project.generate().outputs, before);
  EXPECT_EQ(project.execute(options).results, first.results);
}

TEST(ProjectTest, EditScopeInvalidatesAutomatically) {
  Project project(apps::make_cornerturn_workspace(64, 2));
  EXPECT_EQ(project.generate().config.iterations_default, 1);

  // One-liner form: the temporary scope ends with the statement.
  project.edit()->application().set_property("iterations", 6);
  EXPECT_EQ(project.generate().config.iterations_default, 6);

  // Block form: invalidation happens when the scope closes.
  {
    Project::EditScope ws = project.edit();
    ws->application().set_property("iterations", 3);
    (*ws).application().set_property("iterations", 5);
  }
  EXPECT_EQ(project.generate().config.iterations_default, 5);
}

TEST(ProjectTest, OpenSessionDerivesPlatformFromHardwareModel) {
  Project project(apps::make_cornerturn_workspace(64, 2));
  auto session = project.open_session();
  // Unset options were resolved from the hardware model.
  ASSERT_TRUE(session->options().fabric.has_value());
  EXPECT_EQ(session->options().fabric->name, "cspi-myrinet-160");
  EXPECT_EQ(session->options().cpu_scales.size(), 2u);
  // Explicit options pass through untouched.
  runtime::ExecuteOptions options;
  options.cpu_scales = {2.0, 2.0};
  options.buffer_depth = 1;
  auto tuned = project.open_session(options);
  EXPECT_EQ(tuned->options().cpu_scales, options.cpu_scales);
  EXPECT_EQ(tuned->options().buffer_depth, 1);
}

TEST(ProjectTest, ExecuteUsesHardwareModelParameters) {
  // Two projects differing only in cpu_scale: the slower platform's
  // modeled latency must be larger.
  auto fast_ws = apps::make_cornerturn_workspace(256, 2);
  auto slow_ws = apps::make_cornerturn_workspace(256, 2);
  for (model::ModelObject* cpu :
       model::processors(slow_ws->hardware())) {
    cpu->set_property("cpu_scale", 8.0);
  }
  Project fast(std::move(fast_ws));
  Project slow(std::move(slow_ws));
  runtime::ExecuteOptions options;
  options.collect_trace = false;
  options.iterations = 3;
  fast.execute(options);  // warm-up both
  slow.execute(options);
  const double fast_latency = fast.execute(options).mean_latency();
  const double slow_latency = slow.execute(options).mean_latency();
  EXPECT_GT(slow_latency, fast_latency * 2.0);
}

TEST(ProjectTest, MissingKernelSurfacesAtExecute) {
  auto ws = apps::make_cornerturn_workspace(64, 2);
  model::find_function(ws->application(), "corner_turn")
      .set_property("kernel", "no.such.kernel");
  Project project(std::move(ws));
  EXPECT_THROW(project.execute(), RuntimeError);
}

TEST(PlatformTest, PresetsResolve) {
  EXPECT_EQ(vendor_platforms().size(), 4u);
  EXPECT_EQ(vendor_platform("mercury").fabric_preset, "mercury-raceway");
  EXPECT_THROW(vendor_platform("cray"), ModelError);
}

TEST(PlatformTest, AddVendorPlatformBuildsExactNodeCount) {
  model::Workspace ws("t");
  model::ModelObject& hw = add_vendor_platform(ws.root(), "mercury", 8);
  EXPECT_EQ(model::processors(hw).size(), 8u);
  // Mercury boards carry 6 CPUs: 6 + 2.
  const auto boards = hw.descendants_of_type("board");
  ASSERT_EQ(boards.size(), 2u);
  EXPECT_EQ(boards[0]->children_of_type("processor").size(), 6u);
  EXPECT_EQ(boards[1]->children_of_type("processor").size(), 2u);
  const net::FabricModel fabric = model::to_fabric_model(hw);
  EXPECT_EQ(fabric.name, "mercury-raceway");
  EXPECT_EQ(fabric.nodes_per_board, 6);
}

TEST(PlatformTest, RetargetKeepsLayoutChangesParameters) {
  auto ws = apps::make_fft2d_workspace(64, 4);  // CSPI by default
  retarget_hardware(ws->hardware(), "sigi");
  EXPECT_EQ(ws->hardware().property("fabric").as_string(), "sigi");
  EXPECT_DOUBLE_EQ(model::processors(ws->hardware())[0]
                       ->property("cpu_scale")
                       .as_double(),
                   1.2);
  // The mapping still validates (processor names unchanged).
  EXPECT_NO_THROW(ws->validate_or_throw());
}

TEST(WorkspaceCloneTest, DeepCopyIsIndependent) {
  auto original = apps::make_cornerturn_workspace(64, 2);
  auto copy = original->clone();
  EXPECT_EQ(copy->root().dump(), original->root().dump());

  // Edits to the copy don't leak back.
  model::find_function(copy->application(), "corner_turn")
      .set_property("threads", 1);
  EXPECT_EQ(model::find_function(original->application(), "corner_turn")
                .property("threads")
                .as_int(),
            2);
  // Both still drive the full pipeline independently.
  EXPECT_NO_THROW(original->validate_or_throw());
}

}  // namespace
}  // namespace sage::core
