// Memory-planner tests: runtime::plan_node_memory() on the golden
// designs, the two benchmark applications and hand-built schedules --
// pure planning, no kernels and no fabric. The properties every plan
// must hold live in memory_plan_check.hpp (shared with the random-graph
// test); this suite adds the pinned byte counts of the 2D FFT, with and
// without the standard kernels' output access, and the cases that must
// stay private.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "apps/benchmarks.hpp"
#include "core/project.hpp"
#include "memory_plan_check.hpp"
#include "runtime/compiler.hpp"
#include "runtime/glue_config.hpp"
#include "runtime/memory_plan.hpp"
#include "runtime/program.hpp"
#include "runtime/registry.hpp"

#ifndef SAGE_GOLDEN_DIR
#error "SAGE_GOLDEN_DIR must be defined by the build"
#endif

namespace sage::runtime {
namespace {

constexpr std::size_t kMiB = std::size_t{1} << 20;

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(SAGE_GOLDEN_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read golden " << name;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::shared_ptr<const CompiledProgram> app_program(
    std::unique_ptr<model::Workspace> workspace) {
  core::Project project(std::move(workspace));
  return project.compile_program();
}

/// Checks every node without access facts and with the standard
/// registry's (every shelf kernel overwrites its outputs).
void expect_plan_holds_on_every_node(const CompiledProgram& program) {
  const std::vector<OutputAccess> access =
      output_access(program.config, standard_registry());
  for (int node = 0; node < program.config.nodes; ++node) {
    expect_memory_plan_holds(program, node);
    expect_memory_plan_holds(program, node, access);
  }
}

TEST(MemoryPlanTest, GoldenDesignsHoldEveryProperty) {
  for (const char* glue : {"quickstart_glue.cfg", "radar_glue.cfg"}) {
    SCOPED_TRACE(glue);
    expect_plan_holds_on_every_node(
        *Compiler::lower(parse_glue_config(read_golden(glue))));
  }
  {
    SCOPED_TRACE("cornerturn_64x2.plan");
    expect_plan_holds_on_every_node(
        *CompiledProgram::deserialize(read_golden("cornerturn_64x2.plan")));
  }
  for (const std::size_t n : {64, 512}) {
    SCOPED_TRACE("fft2d and cornerturn " + std::to_string(n));
    expect_plan_holds_on_every_node(
        *app_program(apps::make_fft2d_workspace(n, 2)));
    expect_plan_holds_on_every_node(
        *app_program(apps::make_cornerturn_workspace(n, 4)));
  }
}

TEST(MemoryPlanTest, Fft2d512OnTwoNodesPlansFiveMiBArenaAndOneMiBScratch) {
  // Per node, 256 rows x 512 complex floats = 1 MiB per slice. The four
  // outputs stay private; the four inputs are each written in full
  // just before their reader fires, so they take turns in one 1 MiB
  // region. Every op moves at most one slice, so one slice of scratch
  // serves the unique policy.
  const auto program = app_program(apps::make_fft2d_workspace(512, 2));
  for (int node = 0; node < 2; ++node) {
    const NodeMemoryPlan plan =
        plan_node_memory(*program, lower_node(*program, node));
    EXPECT_EQ(plan.zero_bytes, 4 * kMiB);
    EXPECT_EQ(plan.arena_bytes, 5 * kMiB);
    EXPECT_EQ(plan.scratch_bytes, 1 * kMiB);
  }
}

TEST(MemoryPlanTest, Fft2d512WithOverwritingKernelsPlansThreeMiBAndZeroesNothing) {
  // Every shelf kernel overwrites its outputs, so all eight 1 MiB slices
  // are write-before-read. The head (src, fft_rows) runs the next data
  // set while the tail (corner_turn, fft_cols, sink) finishes the
  // current one, so corner_turn.in -- half filled by fft_rows' local
  // delivery in the head, half by the tail's receive -- has one instance
  // per ticket parity. Three slices are live at once: the old
  // corner_turn.in, the new one and the slice fft_rows sends from.
  const auto program = app_program(apps::make_fft2d_workspace(512, 2));
  const std::vector<OutputAccess> access =
      output_access(program->config, standard_registry());
  const int corner_turn = 2;
  ASSERT_EQ(program->config.function(corner_turn).name, "corner_turn");
  for (int node = 0; node < 2; ++node) {
    SCOPED_TRACE("node " + std::to_string(node));
    const NodeMemoryPlan plan =
        plan_node_memory(*program, lower_node(*program, node), access);
    EXPECT_EQ(plan.zero_bytes, 0u);
    EXPECT_LE(plan.arena_bytes, 3 * kMiB);
    EXPECT_EQ(plan.scratch_bytes, 1 * kMiB);
    EXPECT_TRUE(plan.overlap);
    const NodeProgram lowered = lower_node(*program, node);
    ASSERT_LT(lowered.head, lowered.steps.size());
    EXPECT_EQ(lowered.steps[lowered.head].firing, 2);  // after src, fft_rows

    const auto fti = static_cast<std::size_t>(
        program->fn_thread_base[corner_turn] + node);
    const PortBinding& in = program->bindings_of[fti].front();
    ASSERT_TRUE(in.is_input);
    const ArenaRegion& even = plan.slots[static_cast<std::size_t>(in.slot)];
    const ArenaRegion& odd = plan.odd_slots[static_cast<std::size_t>(in.slot)];
    EXPECT_EQ(even.bytes, 1 * kMiB);
    EXPECT_EQ(odd.bytes, 1 * kMiB);
    EXPECT_TRUE(even.offset + even.bytes <= odd.offset ||
                odd.offset + odd.bytes <= even.offset)
        << "the two corner_turn.in instances share bytes";
  }
}

TEST(MemoryPlanTest, CornerTurn512WithOverwritingKernelsZeroesNothing) {
  // src | corner_turn, sink: the old and new corner_turn.in and the
  // source slice its head sends from are live together.
  const auto program = app_program(apps::make_cornerturn_workspace(512, 2));
  const std::vector<OutputAccess> access =
      output_access(program->config, standard_registry());
  for (int node = 0; node < 2; ++node) {
    const NodeMemoryPlan plan =
        plan_node_memory(*program, lower_node(*program, node), access);
    EXPECT_EQ(plan.zero_bytes, 0u);
    EXPECT_LE(plan.arena_bytes, 3 * kMiB);
    EXPECT_TRUE(plan.overlap);
  }
}

/// src -> sink, two threads each, both on node 0, fired in `order`.
GlueConfig local_pair(std::vector<int> order) {
  GlueConfig config;
  config.application = "local-pair";
  config.hardware = "test-hw";
  config.nodes = 1;
  for (const char* name : {"src", "sink"}) {
    FunctionConfig fn;
    fn.id = static_cast<int>(config.functions.size());
    fn.name = name;
    fn.kernel = "identity";
    fn.role = fn.id == 0 ? "source" : "sink";
    fn.threads = 2;
    fn.thread_nodes = {0, 0};
    PortConfig port;
    port.name = fn.id == 0 ? "out" : "in";
    port.direction =
        fn.id == 0 ? model::PortDirection::kOut : model::PortDirection::kIn;
    port.elem_bytes = sizeof(float);
    port.dims = {16, 8};
    fn.ports.push_back(port);
    config.functions.push_back(std::move(fn));
  }
  BufferConfig buf;
  buf.id = 0;
  buf.src_function = 0;
  buf.src_port = "out";
  buf.dst_function = 1;
  buf.dst_port = "in";
  config.buffers.push_back(buf);
  config.schedule[0] = std::move(order);
  return config;
}

TEST(MemoryPlanTest, InputsFilledAfterTheirReaderFiresStayPrivateAndZeroed) {
  // validate() checks schedule coverage, not order, so a producer may
  // fire after its local consumer: the consumer then reads what the
  // previous iteration (or a zeroed ticket start) left there.
  const auto sink_first = Compiler::lower(local_pair({1, 0}));
  const auto src_first = Compiler::lower(local_pair({0, 1}));
  expect_plan_holds_on_every_node(*sink_first);
  expect_plan_holds_on_every_node(*src_first);

  const NodeMemoryPlan late =
      plan_node_memory(*sink_first, lower_node(*sink_first, 0));
  const NodeMemoryPlan early =
      plan_node_memory(*src_first, lower_node(*src_first, 0));
  for (const PortBinding& b : sink_first->bindings_of[2]) {  // sink thread 0
    ASSERT_TRUE(b.is_input);
    const ArenaRegion& in_late = late.slots[static_cast<std::size_t>(b.slot)];
    const ArenaRegion& in_early = early.slots[static_cast<std::size_t>(b.slot)];
    EXPECT_LE(in_late.offset + in_late.bytes, late.zero_bytes);
    EXPECT_GE(in_early.offset, early.zero_bytes);
  }
  // Fired first, the sink inputs join the two src outputs in the zeroed
  // prefix; fired after src, only the outputs are zeroed.
  const std::size_t slice = 8 * 8 * sizeof(float);
  EXPECT_EQ(early.zero_bytes, 2 * slice);
  EXPECT_EQ(late.zero_bytes, 4 * slice);
  EXPECT_EQ(late.arena_bytes, 4 * slice);
}

}  // namespace
}  // namespace sage::runtime
