// Warm-session tests: the central invariant is that N warm runs on one
// runtime::Session are *indistinguishable in virtual-time results* from
// N cold runs on freshly constructed sessions -- same sink checksums
// bit-for-bit, same fabric message/byte totals, same structure -- for
// both buffer policies and with credit flow control enabled. Virtual
// *times* are measured from host CPU time, so they vary run to run on
// both paths and are only sanity-checked here.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/benchmarks.hpp"
#include "core/project.hpp"
#include "runtime/session.hpp"
#include "support/error.hpp"

namespace sage::runtime {
namespace {

struct DeterminismCase {
  std::string app;  // "fft2d" or "cornerturn"
  BufferPolicy policy = BufferPolicy::kUniquePerFunction;
  int buffer_depth = 0;
};

std::string case_name(const ::testing::TestParamInfo<DeterminismCase>& info) {
  const bool shared = info.param.policy == BufferPolicy::kShared;
  return info.param.app + (shared ? "_shared_depth" : "_unique_depth") +
         std::to_string(info.param.buffer_depth);
}

std::unique_ptr<model::Workspace> make_workspace(const std::string& app) {
  if (app == "fft2d") return apps::make_fft2d_workspace(64, 2);
  return apps::make_cornerturn_workspace(64, 2);
}

ExecuteOptions options_of(const DeterminismCase& param) {
  ExecuteOptions options;
  options.buffer_policy = param.policy;
  options.iterations = 3;
  options.buffer_depth = param.buffer_depth;
  options.collect_trace = false;
  return options;
}

class WarmColdDeterminismTest
    : public ::testing::TestWithParam<DeterminismCase> {};

TEST_P(WarmColdDeterminismTest, WarmRunsMatchColdRunsExactly) {
  const DeterminismCase& param = GetParam();
  constexpr int kRuns = 3;

  // Warm path: one session, kRuns runs.
  core::Project warm_project(make_workspace(param.app));
  auto session = warm_project.open_session(options_of(param));
  std::vector<RunStats> warm;
  for (int r = 0; r < kRuns; ++r) warm.push_back(session->run());
  ASSERT_EQ(warm.size(), static_cast<std::size_t>(kRuns));
  EXPECT_EQ(session->runs_completed(), kRuns);

  // Cold path: a fresh session per run.
  core::Project cold_project(make_workspace(param.app));
  for (int r = 0; r < kRuns; ++r) {
    const RunStats cold = cold_project.execute(options_of(param));

    EXPECT_EQ(warm[static_cast<std::size_t>(r)].iterations, cold.iterations);
    EXPECT_EQ(warm[static_cast<std::size_t>(r)].latencies.size(),
              cold.latencies.size());
    // Fabric traffic is fully deterministic: same messages, same bytes.
    EXPECT_EQ(warm[static_cast<std::size_t>(r)].fabric_messages,
              cold.fabric_messages);
    EXPECT_EQ(warm[static_cast<std::size_t>(r)].fabric_bytes,
              cold.fabric_bytes);
    // Sink checksums must be bit-identical: warm buffer reuse may not
    // leak any state between runs.
    EXPECT_EQ(warm[static_cast<std::size_t>(r)].results, cold.results);
  }

  // Every warm run must also agree with the first warm run.
  for (int r = 1; r < kRuns; ++r) {
    EXPECT_EQ(warm[static_cast<std::size_t>(r)].results, warm[0].results);
    EXPECT_EQ(warm[static_cast<std::size_t>(r)].fabric_messages,
              warm[0].fabric_messages);
    EXPECT_EQ(warm[static_cast<std::size_t>(r)].fabric_bytes,
              warm[0].fabric_bytes);
  }

  // Virtual times are measured, not synthesized: only sane, not equal.
  for (const RunStats& stats : warm) {
    EXPECT_GT(stats.makespan, 0.0);
    EXPECT_GT(stats.host_seconds, 0.0);
    for (const double lat : stats.latencies) EXPECT_GT(lat, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AppsPoliciesDepths, WarmColdDeterminismTest,
    ::testing::Values(
        DeterminismCase{"fft2d", BufferPolicy::kUniquePerFunction, 0},
        DeterminismCase{"fft2d", BufferPolicy::kShared, 0},
        DeterminismCase{"fft2d", BufferPolicy::kUniquePerFunction, 2},
        DeterminismCase{"cornerturn", BufferPolicy::kUniquePerFunction, 0},
        DeterminismCase{"cornerturn", BufferPolicy::kShared, 0},
        DeterminismCase{"cornerturn", BufferPolicy::kShared, 2}),
    case_name);

TEST(SessionTest, SteadyStateRunsAllocateNoPayloads) {
  // The construction-time prewarm plus the first couple of runs prime
  // every pool bucket; after that, payload acquisition must be served
  // entirely from the free lists -- zero heap allocations per warm run.
  for (const char* app : {"fft2d", "cornerturn"}) {
    core::Project project(make_workspace(app));
    ExecuteOptions options;
    options.iterations = 3;
    options.collect_trace = false;
    auto session = project.open_session(options);

    session->run();
    session->run();  // settle: credits/tombstones can lag one run
    for (int r = 0; r < 4; ++r) {
      const RunStats stats = session->run();
      EXPECT_EQ(stats.data_plane.pool_misses, 0u)
          << app << ": warm run " << r << " allocated payload memory";
      EXPECT_GT(stats.data_plane.pool_hits, 0u) << app;
    }
  }
}

TEST(SessionTest, DataPlaneCountersTrackTraffic) {
  core::Project project(make_workspace("cornerturn"));
  ExecuteOptions options;
  options.iterations = 2;
  options.collect_trace = false;
  auto session = project.open_session(options);
  session->run();
  const RunStats stats = session->run();

  // The corner turn stages through logical buffers (unique policy) and
  // ships remote pairs by handle: both counters must be live, and the
  // moved bytes must cover at least the fabric's wire traffic.
  EXPECT_GT(stats.data_plane.bytes_copied, 0u);
  EXPECT_GT(stats.data_plane.bytes_moved, 0u);
  EXPECT_GE(stats.data_plane.bytes_moved, stats.fabric_bytes);
  EXPECT_GT(stats.data_plane.pool_blocks, 0u);
}

TEST(SessionTest, DirectlyConstructedSessionMatchesTheProjectFacade) {
  // A Session built straight from the generated glue, the registry and
  // the facade-resolved options is the same executor the Project opens.
  core::Project project(make_workspace("cornerturn"));
  ExecuteOptions options;
  options.iterations = 2;
  options.collect_trace = false;
  auto opened = project.open_session(options);
  const RunStats via_project = opened->run();

  Session direct(project.generate().config, project.registry(),
                 opened->options());
  EXPECT_EQ(direct.options().iterations, 2);
  EXPECT_EQ(direct.config().nodes, project.generate().config.nodes);
  const RunStats first = direct.run();
  EXPECT_EQ(first.results, via_project.results);
  EXPECT_EQ(first.fabric_messages, via_project.fabric_messages);
  EXPECT_EQ(first.fabric_bytes, via_project.fabric_bytes);

  // Repeated run() on the same session stays cold-equivalent.
  const RunStats second = direct.run();
  EXPECT_EQ(second.results, first.results);
  EXPECT_EQ(second.fabric_messages, first.fabric_messages);
  EXPECT_EQ(second.fabric_bytes, first.fabric_bytes);
}

TEST(SessionTest, LoopedRunsAreSeparateNonOverlappedRuns) {
  // Consecutive synchronous runs: each gets its own ticket and private
  // epoch, nothing stays in flight, and every run matches a fresh
  // session's run.
  core::Project project(make_workspace("fft2d"));
  ExecuteOptions options;
  options.iterations = 2;
  options.collect_trace = false;
  const RunStats reference = project.execute(options);

  auto session = project.open_session(options);
  std::vector<std::uint64_t> tickets;
  for (int r = 0; r < 3; ++r) {
    const RunStats stats = session->run();
    EXPECT_EQ(stats.results, reference.results) << "run " << r;
    EXPECT_EQ(stats.fabric_messages, reference.fabric_messages) << "run " << r;
    EXPECT_EQ(stats.stream_period, 0.0) << "run " << r;
    EXPECT_EQ(session->in_flight(), 0);
    if (!tickets.empty()) {
      EXPECT_GT(stats.ticket, tickets.back());
    }
    tickets.push_back(stats.ticket);
  }
  EXPECT_EQ(session->runs_completed(), 3);
}

TEST(SessionTest, RunOverridesApplyPerRunOnly) {
  core::Project project(make_workspace("cornerturn"));
  ExecuteOptions options;
  options.iterations = 2;
  options.collect_trace = false;
  auto session = project.open_session(options);

  RunOverrides more;
  more.iterations = 5;
  EXPECT_EQ(session->run(more).iterations, 5);
  // The next default run falls back to the session option.
  EXPECT_EQ(session->run().iterations, 2);

  // A per-run policy override matches a session configured with that
  // policy outright.
  RunOverrides shared;
  shared.buffer_policy = BufferPolicy::kShared;
  const RunStats overridden = session->run(shared);

  ExecuteOptions shared_options = options;
  shared_options.buffer_policy = BufferPolicy::kShared;
  const RunStats native = project.execute(shared_options);
  EXPECT_EQ(overridden.results, native.results);
  EXPECT_EQ(overridden.fabric_messages, native.fabric_messages);
}

TEST(SessionTest, TraceCollectionFollowsRequest) {
  core::Project project(make_workspace("cornerturn"));
  ExecuteOptions options;
  options.iterations = 1;
  options.collect_trace = false;
  auto session = project.open_session(options);

  EXPECT_TRUE(session->run().trace.events().empty());
  RunOverrides traced;
  traced.collect_trace = true;
  EXPECT_FALSE(session->run(traced).trace.events().empty());
  // And off again: the reset must clear the event buffers.
  EXPECT_TRUE(session->run().trace.events().empty());
}

TEST(SessionTest, CreateReportsErrorsWithoutThrowing) {
  core::Project project(make_workspace("cornerturn"));
  const codegen::GeneratedArtifacts& artifacts = project.generate();

  // Unknown kernels: the throwing constructor raises, create() reports.
  FunctionRegistry empty;
  EXPECT_THROW(Session(artifacts.config, empty), RuntimeError);
  auto bad = Session::create(artifacts.config, empty);
  ASSERT_FALSE(bad.ok());
  EXPECT_FALSE(static_cast<bool>(bad));
  EXPECT_NE(bad.error().find("kernel"), std::string::npos);

  auto good = Session::create(artifacts.config, standard_registry());
  ASSERT_TRUE(good.ok());
  EXPECT_GT(good.value()->run().iterations, 0);
}

TEST(SessionTest, ProjectTryOpenSessionReportsErrors) {
  core::Project project(make_workspace("fft2d"));
  project.set_registry(FunctionRegistry{});
  auto result = project.try_open_session();
  ASSERT_FALSE(result.ok());
  EXPECT_FALSE(result.error().empty());

  core::Project ok_project(make_workspace("fft2d"));
  auto ok = ok_project.try_open_session();
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value()->config().nodes, 2);
}

TEST(SessionTest, ClosedSessionRefusesToRun) {
  core::Project project(make_workspace("cornerturn"));
  auto session = project.open_session();
  EXPECT_FALSE(session->closed());
  session->run();
  session->close();
  EXPECT_TRUE(session->closed());
  EXPECT_THROW(session->run(), RuntimeError);
  session->close();  // idempotent
}

TEST(SessionTest, ClosedSessionRefusesEveryEntryPoint) {
  core::Project project(make_workspace("cornerturn"));
  ExecuteOptions options;
  options.iterations = 1;
  options.collect_trace = false;
  auto session = project.open_session(options);
  const std::shared_ptr<const CompiledProgram> program =
      session->program_ptr();
  const Ticket ticket = session->submit();
  session->wait(ticket);
  session->close();

  const auto expect_closed = [](const char* entry, auto&& call) {
    try {
      call();
      ADD_FAILURE() << entry << " ran on a closed session";
    } catch (const RuntimeError& e) {
      EXPECT_NE(std::string(e.what()).find("closed session"),
                std::string::npos)
          << entry << ": " << e.what();
    }
  };
  expect_closed("submit", [&] { (void)session->submit(); });
  expect_closed("wait", [&] { (void)session->wait(ticket); });
  expect_closed("recover", [&] { (void)session->recover({1}); });
  expect_closed("swap_program", [&] { session->swap_program(program); });
  expect_closed("fabric", [&] { (void)session->fabric(); });
}

}  // namespace
}  // namespace sage::runtime
