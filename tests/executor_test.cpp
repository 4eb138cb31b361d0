// Executor tests: hand-built glue configurations run through
// runtime::Session, exercising sequencing, striping delivery,
// replication, parameters, buffer policies, results aggregation, and
// failure modes.
#include <gtest/gtest.h>

#include <numeric>

#include "runtime/glue_config.hpp"
#include "runtime/registry.hpp"
#include "runtime/session.hpp"
#include "support/error.hpp"

namespace sage::runtime {
namespace {

/// A float source whose element value equals its global index.
void index_source(KernelContext& ctx) {
  PortSlice& out = ctx.out("out");
  auto data = out.as<float>();
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(out.global_of_local(i));
  }
}

/// Sink reporting the sum of its slice.
void sum_sink(KernelContext& ctx) {
  const PortSlice& in = ctx.in("in");
  double acc = 0.0;
  for (float v : in.as<float>()) acc += v;
  ctx.set_result(acc);
}

/// Sink reporting sum + 1e9 if any element is wrong for an
/// index-identity pipeline (detects misdelivery, not just missing data).
void verify_identity_sink(KernelContext& ctx) {
  const PortSlice& in = ctx.in("in");
  auto data = in.as<float>();
  double acc = 0.0;
  bool ok = true;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (data[i] != static_cast<float>(in.global_of_local(i))) ok = false;
    acc += data[i];
  }
  ctx.set_result(ok ? acc : acc + 1e9);
}

FunctionRegistry test_registry() {
  FunctionRegistry registry = standard_registry();
  registry.add("test.index_source", index_source);
  registry.add("test.sum_sink", sum_sink);
  registry.add("test.verify_identity_sink", verify_identity_sink);
  return registry;
}

PortConfig make_port(const std::string& name, model::PortDirection dir,
                     model::Striping striping, int stripe_dim,
                     std::vector<std::size_t> dims,
                     std::size_t elem_bytes = sizeof(float)) {
  PortConfig port;
  port.name = name;
  port.direction = dir;
  port.striping = striping;
  port.stripe_dim = stripe_dim;
  port.elem_bytes = elem_bytes;
  port.dims = std::move(dims);
  return port;
}

/// src -> sink over `nodes` nodes with the given stripings.
GlueConfig two_stage_config(int nodes, int threads,
                            model::Striping src_striping, int src_dim,
                            model::Striping dst_striping, int dst_dim,
                            std::vector<std::size_t> dims) {
  GlueConfig config;
  config.application = "test";
  config.hardware = "test-hw";
  config.nodes = nodes;
  config.iterations_default = 1;

  FunctionConfig src;
  src.id = 0;
  src.name = "src";
  src.kernel = "test.index_source";
  src.role = "source";
  src.threads = threads;
  for (int t = 0; t < threads; ++t) src.thread_nodes.push_back(t % nodes);
  src.ports.push_back(make_port("out", model::PortDirection::kOut,
                                src_striping, src_dim, dims));
  config.functions.push_back(src);

  FunctionConfig sink;
  sink.id = 1;
  sink.name = "sink";
  sink.kernel = "test.verify_identity_sink";
  sink.role = "sink";
  sink.threads = threads;
  for (int t = 0; t < threads; ++t) sink.thread_nodes.push_back(t % nodes);
  sink.ports.push_back(make_port("in", model::PortDirection::kIn,
                                 dst_striping, dst_dim, dims));
  config.functions.push_back(sink);

  BufferConfig buf;
  buf.id = 0;
  buf.src_function = 0;
  buf.src_port = "out";
  buf.dst_function = 1;
  buf.dst_port = "in";
  config.buffers.push_back(buf);

  for (int r = 0; r < nodes; ++r) config.schedule[r] = {0, 1};
  return config;
}

double expected_index_sum(const std::vector<std::size_t>& dims) {
  std::size_t total = 1;
  for (std::size_t d : dims) total *= d;
  // Sum 0..total-1.
  return static_cast<double>(total - 1) * static_cast<double>(total) / 2.0;
}

struct RedistributionCase {
  model::Striping src_striping;
  int src_dim;
  model::Striping dst_striping;
  int dst_dim;
  int nodes;
  int threads;
};

class RedistributionTest : public ::testing::TestWithParam<RedistributionCase> {};

TEST_P(RedistributionTest, DeliversEveryElementToTheRightPlace) {
  const RedistributionCase& param = GetParam();
  const std::vector<std::size_t> dims{16, 8};
  GlueConfig config = two_stage_config(
      param.nodes, param.threads, param.src_striping, param.src_dim,
      param.dst_striping, param.dst_dim, dims);
  Session session(config, test_registry());
  const RunStats stats = session.run();

  const double per_thread_total = expected_index_sum(dims);
  const int sink_threads =
      (param.dst_striping == model::Striping::kReplicated) ? param.threads : 1;
  // Striped sinks partition the data (their slice sums add to the
  // total); replicated sinks each see everything.
  const double expected =
      (param.dst_striping == model::Striping::kReplicated)
          ? per_thread_total * sink_threads
          : per_thread_total;
  ASSERT_EQ(stats.results.at("sink").size(), 1u);
  EXPECT_NEAR(stats.results.at("sink")[0], expected, 1.0)
      << "misdelivery penalty present (1e9 marker) or data missing";
}

INSTANTIATE_TEST_SUITE_P(
    StripingMatrix, RedistributionTest,
    ::testing::Values(
        // Aligned row stripes, local only (1 node).
        RedistributionCase{model::Striping::kStriped, 0,
                           model::Striping::kStriped, 0, 1, 4},
        // Aligned row stripes across nodes.
        RedistributionCase{model::Striping::kStriped, 0,
                           model::Striping::kStriped, 0, 4, 4},
        // Corner turn: rows -> columns.
        RedistributionCase{model::Striping::kStriped, 0,
                           model::Striping::kStriped, 1, 4, 4},
        // Reverse corner turn: columns -> rows.
        RedistributionCase{model::Striping::kStriped, 1,
                           model::Striping::kStriped, 0, 4, 4},
        // Columns -> columns.
        RedistributionCase{model::Striping::kStriped, 1,
                           model::Striping::kStriped, 1, 2, 2},
        // Striped -> replicated (fan-out to every thread).
        RedistributionCase{model::Striping::kStriped, 0,
                           model::Striping::kReplicated, 0, 4, 4},
        // Replicated -> striped (thread 0 feeds the stripes).
        RedistributionCase{model::Striping::kReplicated, 0,
                           model::Striping::kStriped, 0, 4, 4},
        // Replicated -> replicated.
        RedistributionCase{model::Striping::kReplicated, 0,
                           model::Striping::kReplicated, 0, 2, 2},
        // Thread counts differing from node counts (two threads/node).
        RedistributionCase{model::Striping::kStriped, 0,
                           model::Striping::kStriped, 1, 2, 4},
        // Producer wider than consumer.
        RedistributionCase{model::Striping::kStriped, 0,
                           model::Striping::kStriped, 0, 4, 2}));

TEST(ExecutorTest, ThreeDimensionalMiddleAxisRedistribution) {
  // {4, 8, 6} cube: produced striped along the middle axis, consumed
  // striped along the last -- the STAP-style cube corner turn.
  GlueConfig config = two_stage_config(2, 4, model::Striping::kStriped, 1,
                                       model::Striping::kStriped, 2,
                                       {4, 8, 6});
  // dims[2] = 6 doesn't divide over 4 threads; use 2 threads for dim 2.
  config.functions[1].threads = 2;
  config.functions[1].thread_nodes = {0, 1};
  Session session(config, test_registry());
  const RunStats stats = session.run();
  EXPECT_NEAR(stats.results.at("sink")[0], expected_index_sum({4, 8, 6}),
              1.0);
}

TEST(ExecutorTest, ThreeDimensionalReplicationFanOut) {
  GlueConfig config = two_stage_config(2, 2, model::Striping::kStriped, 2,
                                       model::Striping::kReplicated, 0,
                                       {2, 3, 4});
  Session session(config, test_registry());
  const RunStats stats = session.run();
  // Every sink thread sees the whole cube.
  EXPECT_NEAR(stats.results.at("sink")[0],
              2.0 * expected_index_sum({2, 3, 4}), 1.0);
}

TEST(ExecutorTest, ProducerConsumerThreadCountsMayDiffer) {
  // 8-thread producer feeding a 2-thread consumer: only possible when
  // the two functions declare their own thread counts.
  const std::vector<std::size_t> dims{16, 8};
  GlueConfig config;
  config.application = "test";
  config.hardware = "hw";
  config.nodes = 2;
  config.iterations_default = 1;

  FunctionConfig src;
  src.id = 0;
  src.name = "src";
  src.kernel = "test.index_source";
  src.role = "source";
  src.threads = 8;
  for (int t = 0; t < 8; ++t) src.thread_nodes.push_back(t % 2);
  src.ports.push_back(make_port("out", model::PortDirection::kOut,
                                model::Striping::kStriped, 0, dims));
  config.functions.push_back(src);

  FunctionConfig sink;
  sink.id = 1;
  sink.name = "sink";
  sink.kernel = "test.verify_identity_sink";
  sink.role = "sink";
  sink.threads = 2;
  sink.thread_nodes = {0, 1};
  sink.ports.push_back(make_port("in", model::PortDirection::kIn,
                                 model::Striping::kStriped, 0, dims));
  config.functions.push_back(sink);

  BufferConfig buf;
  buf.id = 0;
  buf.src_function = 0;
  buf.src_port = "out";
  buf.dst_function = 1;
  buf.dst_port = "in";
  config.buffers.push_back(buf);
  config.schedule[0] = {0, 1};
  config.schedule[1] = {0, 1};

  Session session(config, test_registry());
  const RunStats stats = session.run();
  EXPECT_NEAR(stats.results.at("sink")[0], expected_index_sum(dims), 1.0);
}

TEST(ExecutorTest, MultipleIterationsProduceIndependentResults) {
  GlueConfig config = two_stage_config(2, 2, model::Striping::kStriped, 0,
                                       model::Striping::kStriped, 0, {8, 8});
  config.iterations_default = 5;
  Session session(config, test_registry());
  const RunStats stats = session.run();
  ASSERT_EQ(stats.results.at("sink").size(), 5u);
  for (double v : stats.results.at("sink")) {
    EXPECT_NEAR(v, expected_index_sum({8, 8}), 1.0);
  }
  ASSERT_EQ(stats.latencies.size(), 5u);
  EXPECT_GT(stats.period, 0.0);
}

TEST(ExecutorTest, BothBufferPoliciesDeliverIdenticalData) {
  for (const BufferPolicy policy :
       {BufferPolicy::kUniquePerFunction, BufferPolicy::kShared}) {
    GlueConfig config = two_stage_config(4, 4, model::Striping::kStriped, 0,
                                         model::Striping::kStriped, 1,
                                         {16, 16});
    ExecuteOptions options;
    options.buffer_policy = policy;
    Session session(config, test_registry(), options);
    const RunStats stats = session.run();
    EXPECT_NEAR(stats.results.at("sink")[0], expected_index_sum({16, 16}),
                1.0)
        << to_string(policy);
  }
}

TEST(ExecutorTest, UniquePolicyCostsMoreThanShared) {
  // The paper's 2-node corner-turn anomaly: unique logical buffers add
  // data access time. Use a large buffer so copy costs dominate noise.
  GlueConfig config = two_stage_config(2, 2, model::Striping::kStriped, 0,
                                       model::Striping::kStriped, 1,
                                       {1024, 512});
  config.iterations_default = 4;

  // Compare the busy time spent moving data through the logical buffer
  // (send-side packing + local delivery), taken from the trace. The
  // unique policy touches every byte twice, the shared policy once, so
  // the staged time must be clearly larger; comparing only the copy
  // path keeps unrelated kernel noise out of the assertion.
  auto copy_time = [&](BufferPolicy policy) {
    ExecuteOptions options;
    options.buffer_policy = policy;
    Session session(config, test_registry(), options);
    session.run();  // warm-up: first-touch page faults land here
    double best = -1.0;
    for (int i = 0; i < 3; ++i) {
      const RunStats stats = session.run();
      double total = 0.0;
      for (const viz::Event& e : stats.trace.events()) {
        if (e.kind == viz::EventKind::kSend ||
            e.kind == viz::EventKind::kBufferCopy) {
          total += e.end_vt - e.start_vt;
        }
      }
      if (best < 0 || total < best) best = total;
    }
    return best;
  };
  const double unique = copy_time(BufferPolicy::kUniquePerFunction);
  const double shared = copy_time(BufferPolicy::kShared);
  EXPECT_GT(unique, shared * 1.2);
}

TEST(ExecutorTest, KernelParametersReachTheKernel) {
  GlueConfig config = two_stage_config(1, 1, model::Striping::kStriped, 0,
                                       model::Striping::kStriped, 0, {4, 4});
  // Splice a threshold stage's params through a custom kernel.
  config.functions[0].params["bias"] = 2.5;

  FunctionRegistry registry = test_registry();
  registry.add("test.param_source", [](KernelContext& ctx) {
    PortSlice& out = ctx.out("out");
    const auto bias = static_cast<float>(ctx.param_or("bias", 0.0));
    for (auto& v : out.as<float>()) v = bias;
  });
  config.functions[0].kernel = "test.param_source";
  config.functions[1].kernel = "test.sum_sink";

  Session session(config, registry);
  const RunStats stats = session.run();
  EXPECT_NEAR(stats.results.at("sink")[0], 2.5 * 16, 1e-3);
}

TEST(ExecutorTest, MissingKernelIsALoadError) {
  GlueConfig config = two_stage_config(1, 1, model::Striping::kStriped, 0,
                                       model::Striping::kStriped, 0, {4, 4});
  config.functions[0].kernel = "no.such.kernel";
  EXPECT_THROW(Session(config, test_registry()), RuntimeError);
}

TEST(ExecutorTest, MismatchedBufferSizesAreAConfigError) {
  GlueConfig config = two_stage_config(1, 1, model::Striping::kStriped, 0,
                                       model::Striping::kStriped, 0, {4, 4});
  config.functions[1].ports[0].dims = {4, 8};  // consumer expects more
  EXPECT_THROW(Session(config, test_registry()), ConfigError);
}

TEST(ExecutorTest, ScheduleMissingAFunctionIsAConfigError) {
  GlueConfig config = two_stage_config(2, 2, model::Striping::kStriped, 0,
                                       model::Striping::kStriped, 0, {4, 4});
  config.schedule[1] = {0};  // sink missing on node 1
  EXPECT_THROW(Session(config, test_registry()), ConfigError);
}

TEST(ExecutorTest, BoundedBuffersPreserveResults) {
  GlueConfig config = two_stage_config(4, 4, model::Striping::kStriped, 0,
                                       model::Striping::kStriped, 1, {16, 16});
  config.iterations_default = 6;
  for (const int depth : {1, 2, 3}) {
    ExecuteOptions options;
    options.buffer_depth = depth;
    Session session(config, test_registry(), options);
    const RunStats stats = session.run();
    for (double v : stats.results.at("sink")) {
      EXPECT_NEAR(v, expected_index_sum({16, 16}), 1.0) << "depth " << depth;
    }
    EXPECT_GT(stats.fabric_messages, 0u);
  }
}

TEST(ExecutorTest, BackpressureThrottlesAPipelinedProducer) {
  // Stage chain src -> sink with the two on different nodes and a slow
  // sink. Unbounded, the producer races ahead (its virtual finish time
  // is set by its own work); with depth 1 it is credit-throttled to the
  // consumer's pace, so its final virtual time grows markedly.
  const std::vector<std::size_t> dims{64, 64};
  GlueConfig config;
  config.application = "bp";
  config.hardware = "hw";
  config.nodes = 2;
  config.iterations_default = 6;

  FunctionConfig src;
  src.id = 0;
  src.name = "src";
  src.kernel = "test.index_source";
  src.role = "source";
  src.threads = 1;
  src.thread_nodes = {0};
  src.ports.push_back(make_port("out", model::PortDirection::kOut,
                                model::Striping::kStriped, 0, dims));
  config.functions.push_back(src);

  FunctionConfig sink;
  sink.id = 1;
  sink.name = "sink";
  sink.kernel = "test.slow_sink";
  sink.role = "sink";
  sink.threads = 1;
  sink.thread_nodes = {1};
  sink.ports.push_back(make_port("in", model::PortDirection::kIn,
                                 model::Striping::kStriped, 0, dims));
  config.functions.push_back(sink);

  BufferConfig buf;
  buf.id = 0;
  buf.src_function = 0;
  buf.src_port = "out";
  buf.dst_function = 1;
  buf.dst_port = "in";
  config.buffers.push_back(buf);
  config.schedule[0] = {0};
  config.schedule[1] = {1};

  FunctionRegistry registry = test_registry();
  registry.add("test.slow_sink", [](KernelContext& ctx) {
    const PortSlice& in = ctx.in("in");
    double acc = 0.0;
    // Artificially heavy consumer.
    for (int repeat = 0; repeat < 30; ++repeat) {
      for (float v : in.as<float>()) acc += v;
    }
    ctx.set_result(acc / 30.0);
  });

  auto producer_finish = [&](int depth) {
    ExecuteOptions options;
    options.buffer_depth = depth;
    options.collect_trace = false;
    Session session(config, registry, options);
    RunStats stats = session.run();
    // All correctness intact either way.
    EXPECT_NEAR(stats.results.at("sink").back(),
                expected_index_sum(dims), 2.0);
    return stats;
  };

  const RunStats unbounded = producer_finish(0);
  const RunStats bounded = producer_finish(1);
  // Credits flow back through the fabric only in the bounded run.
  EXPECT_GT(bounded.fabric_messages, unbounded.fabric_messages);
}

TEST(ExecutorTest, KernelExceptionPropagatesToCaller) {
  GlueConfig config = two_stage_config(2, 2, model::Striping::kStriped, 0,
                                       model::Striping::kStriped, 0, {4, 4});
  FunctionRegistry registry = test_registry();
  registry.add("test.bomb", [](KernelContext& ctx) {
    if (ctx.thread() == 1) raise<RuntimeError>("kernel exploded");
  });
  config.functions[0].kernel = "test.bomb";
  ExecuteOptions options;
  options.recv_timeout_s = 2.0;  // peers stuck on the dead producer
  Session session(config, registry, options);
  EXPECT_THROW(session.run(), Error);
}

TEST(ExecutorTest, WrongScheduleOrderIsDetectedAsDeadlock) {
  // Three corner-turning stages; node 1 runs them in reverse. Node 0's
  // mid stage waits for node 1's source while node 1's sink waits for
  // node 0's mid stage -- a cross-node cycle. The recv timeout turns
  // the hang into CommError instead of a wedged test run.
  const std::vector<std::size_t> dims{8, 8};
  GlueConfig config = two_stage_config(2, 2, model::Striping::kStriped, 0,
                                       model::Striping::kStriped, 1, dims);
  FunctionConfig mid;
  mid.id = 2;
  mid.name = "mid";
  mid.kernel = "identity";
  mid.threads = 2;
  mid.thread_nodes = {0, 1};
  mid.ports.push_back(make_port("in", model::PortDirection::kIn,
                                model::Striping::kStriped, 1, dims));
  mid.ports.push_back(make_port("out", model::PortDirection::kOut,
                                model::Striping::kStriped, 0, dims));
  config.functions.push_back(mid);
  // Re-route: src -> mid -> sink (sink keeps its dim-1 striping so the
  // second hop also crosses nodes).
  config.buffers[0].dst_function = 2;
  BufferConfig second;
  second.id = 1;
  second.src_function = 2;
  second.src_port = "out";
  second.dst_function = 1;
  second.dst_port = "in";
  config.buffers.push_back(second);
  config.schedule[0] = {0, 2, 1};
  config.schedule[1] = {1, 2, 0};  // reversed

  ExecuteOptions options;
  options.recv_timeout_s = 0.3;
  options.collect_trace = false;
  Session session(config, test_registry(), options);
  EXPECT_THROW(session.run(), CommError);
}

TEST(ExecutorTest, ContentionFabricStillDeliversCorrectData) {
  GlueConfig config = two_stage_config(8, 8, model::Striping::kStriped, 0,
                                       model::Striping::kStriped, 1, {16, 16});
  ExecuteOptions options;
  net::FabricModel contended = net::myrinet_fabric();
  contended.model_contention = true;
  options.fabric = contended;
  Session session(config, test_registry(), options);
  const RunStats stats = session.run();
  EXPECT_NEAR(stats.results.at("sink")[0], expected_index_sum({16, 16}), 1.0);
}

TEST(ExecutorTest, TraceCoversEveryFunctionInvocation) {
  GlueConfig config = two_stage_config(2, 2, model::Striping::kStriped, 0,
                                       model::Striping::kStriped, 0, {8, 8});
  config.iterations_default = 2;
  Session session(config, test_registry());
  const RunStats stats = session.run();
  int starts = 0;
  for (const viz::Event& e : stats.trace.events()) {
    if (e.kind == viz::EventKind::kFunctionStart) ++starts;
  }
  // 2 functions x 2 threads x 2 iterations.
  EXPECT_EQ(starts, 8);
}

TEST(ExecutorTest, SelectiveProbesRestrictFunctionEvents) {
  GlueConfig config = two_stage_config(2, 2, model::Striping::kStriped, 0,
                                       model::Striping::kStriped, 0, {8, 8});
  config.iterations_default = 2;
  config.probes = {1};  // only the sink is instrumented
  Session session(config, test_registry());
  const RunStats stats = session.run();
  int starts = 0;
  for (const viz::Event& e : stats.trace.events()) {
    if (e.kind == viz::EventKind::kFunctionStart) {
      EXPECT_EQ(e.function_id, 1);
      ++starts;
    }
  }
  EXPECT_EQ(starts, 4);  // 1 function x 2 threads x 2 iterations
  // Results and latency measurement are unaffected by probe selection.
  EXPECT_EQ(stats.latencies.size(), 2u);
  EXPECT_NEAR(stats.results.at("sink")[0], expected_index_sum({8, 8}), 1.0);
}

TEST(ExecutorTest, ProbeIdOutOfRangeRejected) {
  GlueConfig config = two_stage_config(1, 1, model::Striping::kStriped, 0,
                                       model::Striping::kStriped, 0, {4, 4});
  config.probes = {7};
  EXPECT_THROW(Session(config, test_registry()), ConfigError);
}

}  // namespace
}  // namespace sage::runtime
