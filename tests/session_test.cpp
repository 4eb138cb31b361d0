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
#include <sstream>
#include <string>
#include <vector>

#include "apps/benchmarks.hpp"
#include "apps/pipelines.hpp"
#include "core/project.hpp"
#include "net/fault.hpp"
#include "runtime/glue_config.hpp"
#include "runtime/program.hpp"
#include "runtime/registry.hpp"
#include "runtime/session.hpp"
#include "support/error.hpp"
#include "viz/trace.hpp"

namespace sage::runtime {
namespace {

struct DeterminismCase {
  std::string app;  // "fft2d" or "cornerturn"
  BufferPolicy policy = BufferPolicy::kUniquePerFunction;
  int buffer_depth = 0;
};

// gtest prints a parameter with no printer as its raw bytes -- heap
// addresses for a std::string -- and the printed value becomes part of
// each case's ctest name, so print the case itself.
void PrintTo(const DeterminismCase& c, std::ostream* os) {
  *os << c.app << " " << to_string(c.policy) << " depth " << c.buffer_depth;
}

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

// --- data-plane pins --------------------------------------------------------
// One case per fork of the transfer loop: buffer policy x fault plan x
// entry point (one synchronous run(), or three tickets streamed at
// depth 2), on three designs -- the corner turn (multi-segment ops and
// local deliveries), the 2D FFT, and a striped -> replicated fan-out
// (share groups). Each case pins the wire traffic, the host copies, the
// fault counters and the trace-event mix its runs produced, so any
// rewrite of the transfer loop must reproduce every one of them.

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
  double acc = 0.0;
  for (const float v : ctx.in("in").as<float>()) acc += v;
  ctx.set_result(acc);
}

PortConfig pin_port(const char* name, model::PortDirection direction,
                    model::Striping striping) {
  PortConfig port;
  port.name = name;
  port.direction = direction;
  port.striping = striping;
  port.elem_bytes = sizeof(float);
  port.dims = {16, 8};
  return port;
}

/// Row-striped source -> replicated sink, four threads on four nodes:
/// every producer thread fans its stripe out to all four sink threads.
GlueConfig fanout_config() {
  GlueConfig config;
  config.application = "fanout";
  config.hardware = "test-hw";
  config.nodes = 4;
  config.iterations_default = 1;
  const auto add_function = [&](const char* name, const char* kernel,
                                const char* role, PortConfig port) {
    FunctionConfig fn;
    fn.id = static_cast<int>(config.functions.size());
    fn.name = name;
    fn.kernel = kernel;
    fn.role = role;
    fn.threads = 4;
    fn.thread_nodes = {0, 1, 2, 3};
    fn.ports.push_back(std::move(port));
    config.functions.push_back(std::move(fn));
  };
  add_function("src", "test.index_source", "source",
               pin_port("out", model::PortDirection::kOut,
                        model::Striping::kStriped));
  add_function("sink", "test.sum_sink", "sink",
               pin_port("in", model::PortDirection::kIn,
                        model::Striping::kReplicated));
  BufferConfig buf;
  buf.id = 0;
  buf.src_function = 0;
  buf.src_port = "out";
  buf.dst_function = 1;
  buf.dst_port = "in";
  config.buffers.push_back(buf);
  for (int r = 0; r < config.nodes; ++r) config.schedule[r] = {0, 1};
  return config;
}

/// Drops, corruption, delays and a stall: every fault-mode branch fires.
std::shared_ptr<const net::FaultPlan> pin_chaos_plan() {
  return std::make_shared<const net::FaultPlan>(net::FaultPlan::parse(
      "fault-plan 1\n"
      "seed 49374\n"
      "drop link=* p=0.1\n"
      "corrupt link=* p=0.1 bytes=4\n"
      "delay link=* p=0.1 vt=1e-4\n"
      "stall node=1 iter=0 vt=1e-3\n"));
}

struct PinCase {
  std::string design;  // "cornerturn", "fft2d" or "fanout" (64x4, 16x8)
  BufferPolicy policy = BufferPolicy::kUniquePerFunction;
  bool faulty = false;
  bool streamed = false;
  std::string expected;  // pin_of() at the recorded commit
};

void PrintTo(const PinCase& c, std::ostream* os) {
  *os << c.design << " " << to_string(c.policy)
      << (c.faulty ? " chaos" : " clean")
      << (c.streamed ? " streamed" : " run");
}

std::string pin_case_name(const ::testing::TestParamInfo<PinCase>& info) {
  const PinCase& c = info.param;
  return c.design +
         (c.policy == BufferPolicy::kShared ? "_shared" : "_unique") +
         (c.faulty ? "_chaos" : "_clean") +
         (c.streamed ? "_streamed" : "_run");
}

/// Runs `design` once (run()) or as three tickets streamed at depth 2.
std::vector<RunStats> run_design(const std::string& design,
                                 const ExecuteOptions& options,
                                 bool streamed) {
  const auto drive = [&](Session& session) {
    if (!streamed) return std::vector<RunStats>{session.run()};
    RunOverrides request;
    request.buffer_depth = 2;
    for (int i = 0; i < 3; ++i) session.submit(request);
    return session.drain();
  };
  if (design == "fanout") {
    FunctionRegistry registry = standard_registry();
    registry.add("test.index_source", index_source);
    registry.add("test.sum_sink", sum_sink);
    Session session(fanout_config(), registry, options);
    return drive(session);
  }
  core::Project project(design == "fft2d"
                            ? apps::make_fft2d_workspace(64, 4)
                            : apps::make_cornerturn_workspace(64, 4));
  return drive(*project.open_session(options));
}

/// The deterministic data-plane facts of one entry point's tickets.
/// Fabric and injected-fault counters are epoch-cumulative, so the last
/// ticket's are the epoch's totals; the rest are summed per ticket.
/// `events` counts trace events by viz::EventKind, in enum order.
std::string pin_of(const std::vector<RunStats>& tickets) {
  const RunStats& last = tickets.back();
  std::uint64_t copied = 0;
  std::uint64_t moved = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t detected = 0;
  std::uint64_t stalls = 0;
  std::vector<std::size_t> kinds(
      static_cast<std::size_t>(viz::EventKind::kRecovery) + 1, 0);
  for (const RunStats& stats : tickets) {
    copied += stats.data_plane.bytes_copied;
    moved += stats.data_plane.bytes_moved;
    timeouts += stats.faults.timeouts;
    detected += stats.faults.corruptions_detected;
    stalls += stats.faults.stalls;
    for (const viz::Event& e : stats.trace.events()) {
      ++kinds[static_cast<std::size_t>(e.kind)];
    }
  }
  std::ostringstream os;
  os << "messages=" << last.fabric_messages << " bytes=" << last.fabric_bytes
     << " copied=" << copied << " moved=" << moved
     << " injected=" << last.faults.injected_drops << "/"
     << last.faults.injected_corruptions << "/"
     << last.faults.injected_delays << " retries=" << last.faults.retries
     << " observed=" << timeouts << "/" << detected << "/" << stalls
     << " degraded=" << last.faults.degraded_nodes << " events=";
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    os << (k > 0 ? "/" : "") << kinds[k];
  }
  return os.str();
}

class DataPlanePinTest : public ::testing::TestWithParam<PinCase> {};

TEST_P(DataPlanePinTest, TrafficCopiesAndTraceMatchTheRecordedPin) {
  const PinCase& param = GetParam();
  ExecuteOptions options;
  options.iterations = 2;
  const std::vector<RunStats> reference =
      run_design(param.design, options, /*streamed=*/false);

  options.buffer_policy = param.policy;
  if (param.faulty) options.fault_plan = pin_chaos_plan();
  const std::vector<RunStats> tickets =
      run_design(param.design, options, param.streamed);
  ASSERT_EQ(tickets.size(), param.streamed ? 3u : 1u);
  for (const RunStats& stats : tickets) {
    EXPECT_EQ(stats.results, reference.front().results);
  }
  EXPECT_EQ(pin_of(tickets), param.expected);
}

INSTANTIATE_TEST_SUITE_P(
    PolicyPlanEntry, DataPlanePinTest,
    ::testing::Values(
        PinCase{"cornerturn", BufferPolicy::kUniquePerFunction, false, false,
                "messages=24 bytes=49152 copied=360448 moved=49152 "
                "injected=0/0/0 retries=0 observed=0/0/0 degraded=0 "
                "events=24/24/24/24/16/8/8/0/0/0/0"},
        PinCase{"cornerturn", BufferPolicy::kUniquePerFunction, false, true,
                "messages=144 bytes=147528 copied=1081344 moved=147456 "
                "injected=0/0/0 retries=0 observed=0/0/0 degraded=0 "
                "events=72/72/72/72/48/24/24/0/0/0/0"},
        PinCase{"cornerturn", BufferPolicy::kUniquePerFunction, true, false,
                "messages=31 bytes=63984 copied=360448 moved=49152 "
                "injected=3/4/1 retries=7 observed=3/4/1 degraded=0 "
                "events=24/24/24/24/16/8/8/0/9/7/0"},
        PinCase{"cornerturn", BufferPolicy::kUniquePerFunction, true, true,
                "messages=178 bytes=179068 copied=1081344 moved=147456 "
                "injected=21/13/10 retries=34 observed=15/10/3 degraded=0 "
                "events=72/72/72/72/48/24/24/0/37/34/0"},
        PinCase{"cornerturn", BufferPolicy::kShared, false, false,
                "messages=24 bytes=49152 copied=180224 moved=49152 "
                "injected=0/0/0 retries=0 observed=0/0/0 degraded=0 "
                "events=24/24/24/24/16/8/8/0/0/0/0"},
        PinCase{"cornerturn", BufferPolicy::kShared, false, true,
                "messages=144 bytes=147528 copied=540672 moved=147456 "
                "injected=0/0/0 retries=0 observed=0/0/0 degraded=0 "
                "events=72/72/72/72/48/24/24/0/0/0/0"},
        PinCase{"cornerturn", BufferPolicy::kShared, true, false,
                "messages=31 bytes=63984 copied=180224 moved=49152 "
                "injected=3/4/1 retries=7 observed=3/4/1 degraded=0 "
                "events=24/24/24/24/16/8/8/0/9/7/0"},
        PinCase{"cornerturn", BufferPolicy::kShared, true, true,
                "messages=178 bytes=179068 copied=540672 moved=147456 "
                "injected=21/13/10 retries=34 observed=15/10/3 degraded=0 "
                "events=72/72/72/72/48/24/24/0/37/34/0"},
        PinCase{"fft2d", BufferPolicy::kUniquePerFunction, false, false,
                "messages=24 bytes=49152 copied=622592 moved=49152 "
                "injected=0/0/0 retries=0 observed=0/0/0 degraded=0 "
                "events=40/40/24/24/32/8/8/0/0/0/0"},
        PinCase{"fft2d", BufferPolicy::kUniquePerFunction, false, true,
                "messages=144 bytes=147528 copied=1867776 moved=147456 "
                "injected=0/0/0 retries=0 observed=0/0/0 degraded=0 "
                "events=120/120/72/72/96/24/24/0/0/0/0"},
        PinCase{"fft2d", BufferPolicy::kUniquePerFunction, true, false,
                "messages=31 bytes=63984 copied=622592 moved=49152 "
                "injected=3/4/1 retries=7 observed=3/4/1 degraded=0 "
                "events=40/40/24/24/32/8/8/0/9/7/0"},
        PinCase{"fft2d", BufferPolicy::kUniquePerFunction, true, true,
                "messages=178 bytes=179068 copied=1867776 moved=147456 "
                "injected=21/13/10 retries=34 observed=15/10/3 degraded=0 "
                "events=120/120/72/72/96/24/24/0/37/34/0"},
        PinCase{"fft2d", BufferPolicy::kShared, false, false,
                "messages=24 bytes=49152 copied=311296 moved=49152 "
                "injected=0/0/0 retries=0 observed=0/0/0 degraded=0 "
                "events=40/40/24/24/32/8/8/0/0/0/0"},
        PinCase{"fft2d", BufferPolicy::kShared, false, true,
                "messages=144 bytes=147528 copied=933888 moved=147456 "
                "injected=0/0/0 retries=0 observed=0/0/0 degraded=0 "
                "events=120/120/72/72/96/24/24/0/0/0/0"},
        PinCase{"fft2d", BufferPolicy::kShared, true, false,
                "messages=31 bytes=63984 copied=311296 moved=49152 "
                "injected=3/4/1 retries=7 observed=3/4/1 degraded=0 "
                "events=40/40/24/24/32/8/8/0/9/7/0"},
        PinCase{"fft2d", BufferPolicy::kShared, true, true,
                "messages=178 bytes=179068 copied=933888 moved=147456 "
                "injected=21/13/10 retries=34 observed=15/10/3 degraded=0 "
                "events=120/120/72/72/96/24/24/0/37/34/0"},
        PinCase{"fanout", BufferPolicy::kUniquePerFunction, false, false,
                "messages=24 bytes=3072 copied=14336 moved=3072 "
                "injected=0/0/0 retries=0 observed=0/0/0 degraded=0 "
                "events=16/16/24/24/8/8/8/0/0/0/0"},
        PinCase{"fanout", BufferPolicy::kUniquePerFunction, false, true,
                "messages=144 bytes=9288 copied=43008 moved=9216 "
                "injected=0/0/0 retries=0 observed=0/0/0 degraded=0 "
                "events=48/48/72/72/24/24/24/0/0/0/0"},
        PinCase{"fanout", BufferPolicy::kUniquePerFunction, true, false,
                "messages=31 bytes=4464 copied=14336 moved=3072 "
                "injected=3/4/1 retries=7 observed=3/4/1 degraded=0 "
                "events=16/16/24/24/8/8/8/0/9/7/0"},
        PinCase{"fanout", BufferPolicy::kUniquePerFunction, true, true,
                "messages=178 bytes=13567 copied=43008 moved=9216 "
                "injected=21/13/10 retries=34 observed=15/10/3 degraded=0 "
                "events=48/48/72/72/24/24/24/0/37/34/0"},
        PinCase{"fanout", BufferPolicy::kShared, false, false,
                "messages=24 bytes=3072 copied=5120 moved=3072 "
                "injected=0/0/0 retries=0 observed=0/0/0 degraded=0 "
                "events=16/16/24/24/8/8/8/0/0/0/0"},
        PinCase{"fanout", BufferPolicy::kShared, false, true,
                "messages=144 bytes=9288 copied=15360 moved=9216 "
                "injected=0/0/0 retries=0 observed=0/0/0 degraded=0 "
                "events=48/48/72/72/24/24/24/0/0/0/0"},
        PinCase{"fanout", BufferPolicy::kShared, true, false,
                "messages=31 bytes=4464 copied=5120 moved=3072 "
                "injected=3/4/1 retries=7 observed=3/4/1 degraded=0 "
                "events=16/16/24/24/8/8/8/0/9/7/0"},
        PinCase{"fanout", BufferPolicy::kShared, true, true,
                "messages=178 bytes=13567 copied=15360 moved=9216 "
                "injected=21/13/10 retries=34 observed=15/10/3 degraded=0 "
                "events=48/48/72/72/24/24/24/0/37/34/0"}),
    pin_case_name);

// --- the staging-zero contract -------------------------------------------
// A kernel may read staging before anything writes it in the current
// ticket: its own output, or an input whose producer fires after it.
// Every ticket -- cold, warm, or streamed behind another -- starts from
// zeroed bytes there, while the iterations of one ticket see what the
// previous iteration left.

/// out = 0.5 * out + in: reads its output before writing it.
void accumulate(KernelContext& ctx) {
  auto in = ctx.in("in").as<float>();
  auto out = ctx.out("out").as<float>();
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = 0.5f * out[i] + in[i];
}

PortConfig chain_port(const char* name, model::PortDirection direction,
                      int stripe_dim) {
  PortConfig port = pin_port(name, direction, model::Striping::kStriped);
  port.stripe_dim = stripe_dim;
  return port;
}

/// A chain of two-thread functions over 16x8 floats, thread t on node
/// t % nodes, each fed by its predecessor, fired in `order` on every
/// node.
GlueConfig chain_config(int nodes, std::vector<FunctionConfig> functions,
                        std::vector<int> order) {
  GlueConfig config;
  config.application = "chain";
  config.hardware = "test-hw";
  config.nodes = nodes;
  for (std::size_t i = 0; i < functions.size(); ++i) {
    FunctionConfig& fn = functions[i];
    fn.id = static_cast<int>(i);
    fn.threads = 2;
    fn.thread_nodes = {0, 1 % nodes};
    if (i > 0) {
      BufferConfig buf;
      buf.id = static_cast<int>(i) - 1;
      buf.src_function = fn.id - 1;
      buf.src_port = "out";
      buf.dst_function = fn.id;
      buf.dst_port = "in";
      config.buffers.push_back(buf);
    }
  }
  config.functions = std::move(functions);
  for (int r = 0; r < nodes; ++r) config.schedule[r] = order;
  return config;
}

FunctionConfig chain_function(const char* name, const char* kernel,
                              const char* role, std::vector<PortConfig> ports) {
  FunctionConfig fn;
  fn.name = name;
  fn.kernel = kernel;
  fn.role = role;
  fn.ports = std::move(ports);
  return fn;
}

TEST(SessionTest, EveryTicketStartsFromZeroedStagingForReadFirstKernels) {
  using model::PortDirection;
  FunctionRegistry registry = standard_registry();
  registry.add("test.index_source", index_source);
  registry.add("test.accumulate", accumulate);
  registry.add("test.sum_sink", sum_sink);
  const FunctionConfig src = chain_function(
      "src", "test.index_source", "source",
      {chain_port("out", PortDirection::kOut, 0)});
  const FunctionConfig sink =
      chain_function("sink", "test.sum_sink", "sink",
                     {chain_port("in", PortDirection::kIn, 0)});

  // src -> acc -> sink on two nodes; acc's column-striped input arrives
  // as a corner turn. Its output carries over between iterations: S,
  // 1.5 S, 1.75 S, with S = 0 + 1 + ... + 127.
  const GlueConfig accumulating = chain_config(
      2,
      {src,
       chain_function("acc", "test.accumulate", "compute",
                      {chain_port("in", PortDirection::kIn, 1),
                       chain_port("out", PortDirection::kOut, 0)}),
       sink},
      {0, 1, 2});
  // src -> sink on one node, the sink fired first: it reads a zeroed
  // input, then the previous iteration's data set.
  const GlueConfig sink_first = chain_config(1, {src, sink}, {1, 0});

  const std::pair<const GlueConfig*, std::vector<double>> cases[] = {
      {&accumulating, {8128.0, 12192.0, 14224.0}},
      {&sink_first, {0.0, 8128.0, 8128.0}},
  };
  for (const BufferPolicy policy :
       {BufferPolicy::kUniquePerFunction, BufferPolicy::kShared}) {
    for (const auto& [config, expected] : cases) {
      SCOPED_TRACE(config->application + std::to_string(config->nodes) +
                   " " + to_string(policy));
      ExecuteOptions options;
      options.buffer_policy = policy;
      options.iterations = 3;
      options.collect_trace = false;
      Session session(*config, registry, options);
      EXPECT_EQ(session.run().results.at("sink"), expected) << "cold run";
      EXPECT_EQ(session.run().results.at("sink"), expected) << "warm run";
      RunOverrides streamed;
      streamed.buffer_depth = 2;
      for (int i = 0; i < 3; ++i) session.submit(streamed);
      const std::vector<RunStats> tickets = session.drain();
      ASSERT_EQ(tickets.size(), 3u);
      for (const RunStats& stats : tickets) {
        EXPECT_EQ(stats.results.at("sink"), expected) << "ticket "
                                                      << stats.ticket;
      }
    }
  }
}

// --- the executed order is the lowered order ------------------------------

/// A step or a trace event as "<kind> <function>.<thread> <label> i<iter>".
std::string step_line(const char* kind, const std::string& function,
                      int thread, const std::string& label, int iter) {
  return std::string(kind) + " " + function + "." + std::to_string(thread) +
         " " + label + " i" + std::to_string(iter);
}

TEST(StepOrderTest, EachNodeRunsItsLoweredStepsInOrder) {
  // Every step leaves one event: a receive, a function start, a buffer
  // copy or a send. With every function probed, each node's events of
  // those kinds are its step list once per iteration.
  constexpr int kIterations = 2;
  for (const std::string app : {"cornerturn", "fft2d", "radar"}) {
    SCOPED_TRACE(app);
    core::Project project(app == "radar"
                              ? apps::make_radar_workspace(64, 128, 2)
                              : make_workspace(app));
    ExecuteOptions options;
    options.iterations = kIterations;
    auto session = project.open_session(options);
    const CompiledProgram& program = session->program();
    const GlueConfig& config = program.config;
    for (const FunctionConfig& fn : config.functions) {
      ASSERT_TRUE(config.probed(fn.id)) << fn.name;
    }
    const RunStats stats = session->run();

    for (int node = 0; node < config.nodes; ++node) {
      SCOPED_TRACE("node " + std::to_string(node));
      const NodeProgram lowered = lower_node(program, node);
      ASSERT_FALSE(lowered.steps.empty());
      std::vector<std::string> expected;
      for (int iter = 0; iter < kIterations; ++iter) {
        for (const Step& step : lowered.steps) {
          const NodeFiring& firing =
              lowered.firings[static_cast<std::size_t>(step.firing)];
          const std::string& name = config.function(firing.fn_id).name;
          if (step.kind == StepKind::kFire) {
            expected.push_back(
                step_line("fire", name, firing.thread, name, iter));
            continue;
          }
          const TransferOp& op =
              program.ops[static_cast<std::size_t>(step.op)];
          const std::string& label =
              program.buffers[static_cast<std::size_t>(op.buf)].label;
          const char* kind = step.kind == StepKind::kReceive   ? "receive"
                             : step.kind == StepKind::kDeliver ? "deliver"
                                                               : "send";
          expected.push_back(
              step_line(kind, name, firing.thread, label, iter));
        }
      }
      std::vector<std::string> executed;
      for (const viz::Event& e : stats.trace.events()) {
        const char* kind = e.kind == viz::EventKind::kReceive ? "receive"
                           : e.kind == viz::EventKind::kFunctionStart ? "fire"
                           : e.kind == viz::EventKind::kBufferCopy ? "deliver"
                           : e.kind == viz::EventKind::kSend       ? "send"
                                                                   : nullptr;
        if (e.node != node || kind == nullptr) continue;
        executed.push_back(step_line(kind, config.function(e.function_id).name,
                                     e.thread, e.label, e.iteration));
      }
      EXPECT_EQ(executed, expected);
    }
  }
}

}  // namespace
}  // namespace sage::runtime
