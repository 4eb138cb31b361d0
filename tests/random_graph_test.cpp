// Randomized end-to-end property test: generate random data-flow chains
// (random stage counts, stripings, thread counts, node counts), push
// them through the whole pipeline -- model, validation, Alter glue
// generation, runtime execution -- and verify that every element of an
// identity chain arrives at the sink with exactly its global index.
// Also covers fan-out/fan-in (diamond) topologies, and checks every
// node's memory plan of each random chain (memory_plan_check.hpp).
#include <gtest/gtest.h>

#include <memory>

#include "codegen/generator.hpp"
#include "core/project.hpp"
#include "memory_plan_check.hpp"
#include "net/fault.hpp"
#include "model/app.hpp"
#include "model/hardware.hpp"
#include "model/mapping.hpp"
#include "runtime/registry.hpp"
#include "support/rng.hpp"

namespace sage {
namespace {

using model::ModelObject;
using model::PortDirection;
using model::Striping;

/// Source whose element value is its global index.
void index_source(runtime::KernelContext& ctx) {
  runtime::PortSlice& out = ctx.out("out");
  auto data = out.as<float>();
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(out.global_of_local(i));
  }
}

/// Sink reporting slice sum + 1e9 penalty on any misplaced element.
void verify_sink(runtime::KernelContext& ctx) {
  const runtime::PortSlice& in = ctx.in("in");
  auto data = in.as<float>();
  double acc = 0.0;
  bool ok = true;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (data[i] != static_cast<float>(in.global_of_local(i))) ok = false;
    acc += data[i];
  }
  ctx.set_result(ok ? acc : acc + 1e9);
}

/// out = a + b element-wise (diamond join).
void join_sum(runtime::KernelContext& ctx) {
  auto a = ctx.in("a").as<float>();
  auto b = ctx.in("b").as<float>();
  auto out = ctx.out("out").as<float>();
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = a[i] + b[i];
}

runtime::FunctionRegistry test_registry() {
  runtime::FunctionRegistry registry = runtime::standard_registry();
  registry.add("test.index_source", index_source);
  registry.add("test.verify_sink", verify_sink);
  registry.add("test.join_sum", join_sum);
  return registry;
}

double expected_index_sum(std::size_t total) {
  return static_cast<double>(total - 1) * static_cast<double>(total) / 2.0;
}

void add_float_port(ModelObject& fn, const char* name, PortDirection dir,
                    int stripe_dim, const std::vector<std::size_t>& dims) {
  model::add_port(fn, name, dir, Striping::kStriped, "float", dims,
                  stripe_dim);
}

/// One random identity chain: src -> stage0 -> ... -> sink.
struct RandomChain {
  std::unique_ptr<model::Workspace> workspace;
  int nodes = 0;
  int stages = 0;
};

RandomChain make_random_chain(int seed) {
  support::Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 3);

  const int nodes = rng.chance(0.5) ? 2 : 4;
  const int stages = 1 + static_cast<int>(rng.below(4));  // identity stages
  const std::vector<std::size_t> dims{16, 16};
  auto pick_threads = [&] {
    const int options[] = {1, 2, 4};
    return options[rng.below(3)];
  };
  auto pick_dim = [&] { return static_cast<int>(rng.below(2)); };

  auto ws = std::make_unique<model::Workspace>("random");
  ModelObject& root = ws->root();
  model::add_cspi_platform(root, nodes);
  ModelObject& app = model::add_application(root, "chain");
  ModelObject& mapping = model::add_mapping(root, "mapping", "cspi");

  auto assign_all = [&](const std::string& fn, int threads) {
    std::vector<int> ranks;
    for (int t = 0; t < threads; ++t) ranks.push_back(t % nodes);
    model::assign_ranks(root, mapping, fn, ranks);
  };

  const int src_threads = pick_threads();
  ModelObject& src =
      model::add_function(app, "src", "test.index_source", src_threads);
  src.set_property("role", "source");
  add_float_port(src, "out", PortDirection::kOut, pick_dim(), dims);
  assign_all("src", src_threads);

  std::string prev = "src";
  for (int s = 0; s < stages; ++s) {
    const std::string name = "stage" + std::to_string(s);
    const int threads = pick_threads();
    ModelObject& fn = model::add_function(app, name, "identity", threads);
    // An identity kernel copies its slice verbatim, so both of its
    // ports must declare the same striping; redistribution happens on
    // the arcs, where adjacent stages pick different dims.
    const int dim = pick_dim();
    add_float_port(fn, "in", PortDirection::kIn, dim, dims);
    add_float_port(fn, "out", PortDirection::kOut, dim, dims);
    model::connect(app, prev + ".out", name + ".in");
    assign_all(name, threads);
    prev = name;
  }

  const int sink_threads = pick_threads();
  ModelObject& sink =
      model::add_function(app, "sink", "test.verify_sink", sink_threads);
  sink.set_property("role", "sink");
  add_float_port(sink, "in", PortDirection::kIn, pick_dim(), dims);
  model::connect(app, prev + ".out", "sink.in");
  assign_all("sink", sink_threads);

  ws->validate_or_throw();
  return {std::move(ws), nodes, stages};
}

class RandomChainTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChainTest, ::testing::Range(0, 12));

TEST_P(RandomChainTest, IdentityChainDeliversEveryElement) {
  RandomChain chain = make_random_chain(GetParam());
  const int nodes = chain.nodes;
  const int stages = chain.stages;
  core::Project project(std::move(chain.workspace));
  project.set_registry(test_registry());
  runtime::ExecuteOptions options;
  options.iterations = 2;
  options.collect_trace = false;
  const runtime::RunStats stats = project.execute(options);

  for (double v : stats.results.at("sink")) {
    EXPECT_NEAR(v, expected_index_sum(16 * 16), 1.0)
        << "seed " << GetParam() << " nodes " << nodes << " stages "
        << stages;
  }

  // Bit-identity contract: the same graph run with an inactive (zero
  // fault) FaultPlan attached takes the exact unfaulted code path and
  // must reproduce the baseline checksums and fabric totals.
  runtime::ExecuteOptions with_plan = options;
  with_plan.fault_plan = std::make_shared<const net::FaultPlan>();
  const runtime::RunStats planned = project.execute(with_plan);
  EXPECT_EQ(planned.results, stats.results)
      << "zero-fault plan changed results, seed " << GetParam();
  EXPECT_EQ(planned.fabric_messages, stats.fabric_messages);
  EXPECT_EQ(planned.fabric_bytes, stats.fabric_bytes);
  EXPECT_EQ(planned.faults, runtime::FaultStats());
}

TEST_P(RandomChainTest, MemoryPlanHoldsOnEveryNode) {
  RandomChain chain = make_random_chain(GetParam());
  core::Project project(std::move(chain.workspace));
  project.set_registry(test_registry());
  const auto program = project.compile_program();
  const std::vector<runtime::OutputAccess> access =
      runtime::output_access(program->config, test_registry());
  for (int node = 0; node < chain.nodes; ++node) {
    runtime::expect_memory_plan_holds(*program, node);
    runtime::expect_memory_plan_holds(*program, node, access);
  }
}

TEST(DiamondTest, FanOutAndJoinSumTwice) {
  // src feeds two parallel identity branches with different stripings;
  // a join adds them: every element arrives as exactly 2x its index.
  constexpr int kNodes = 4;
  const std::vector<std::size_t> dims{16, 16};

  auto ws = std::make_unique<model::Workspace>("diamond");
  ModelObject& root = ws->root();
  model::add_cspi_platform(root, kNodes);
  ModelObject& app = model::add_application(root, "diamond");
  ModelObject& mapping = model::add_mapping(root, "mapping", "cspi");
  const std::vector<int> all{0, 1, 2, 3};

  ModelObject& src =
      model::add_function(app, "src", "test.index_source", kNodes);
  src.set_property("role", "source");
  add_float_port(src, "out", PortDirection::kOut, 0, dims);
  model::assign_ranks(root, mapping, "src", all);

  ModelObject& left = model::add_function(app, "left", "identity", kNodes);
  add_float_port(left, "in", PortDirection::kIn, 0, dims);
  add_float_port(left, "out", PortDirection::kOut, 0, dims);
  model::assign_ranks(root, mapping, "left", all);

  ModelObject& right = model::add_function(app, "right", "identity", kNodes);
  add_float_port(right, "in", PortDirection::kIn, 1, dims);  // corner turn in
  add_float_port(right, "out", PortDirection::kOut, 1, dims);
  model::assign_ranks(root, mapping, "right", all);

  ModelObject& join = model::add_function(app, "join", "test.join_sum",
                                          kNodes);
  add_float_port(join, "a", PortDirection::kIn, 0, dims);
  add_float_port(join, "b", PortDirection::kIn, 0, dims);
  add_float_port(join, "out", PortDirection::kOut, 0, dims);
  model::assign_ranks(root, mapping, "join", all);

  ModelObject& sink = model::add_function(app, "sink", "float_sink", kNodes);
  sink.set_property("role", "sink");
  add_float_port(sink, "in", PortDirection::kIn, 0, dims);
  model::assign_ranks(root, mapping, "sink", all);

  model::connect(app, "src.out", "left.in");
  model::connect(app, "src.out", "right.in");
  model::connect(app, "left.out", "join.a");
  model::connect(app, "right.out", "join.b");
  model::connect(app, "join.out", "sink.in");
  ws->validate_or_throw();

  core::Project project(std::move(ws));
  project.set_registry(test_registry());
  const runtime::RunStats stats = project.execute();
  EXPECT_NEAR(stats.results.at("sink")[0],
              2.0 * expected_index_sum(16 * 16), 1.0);
}

}  // namespace
}  // namespace sage
