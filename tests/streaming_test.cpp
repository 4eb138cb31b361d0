// Streaming-executor tests: Session::submit/poll/wait/drain, the
// pipelined epoch machinery behind them, and the contracts the redesign
// pins down:
//   * overlapped submissions produce *bit-identical* sink checksums to
//     the same data sets run back to back (warm and fresh), for
//     explicit depths and for the compiler's per-channel ring bounds;
//   * credit flow control bounds the producers (and the pipeline still
//     completes when every channel is squeezed to depth 1);
//   * an active fault plan composes with overlap -- frames, ARQ, and
//     stalls keep the clean checksums under depth-3 streaming;
//   * recover() quiesces mid-stream and later submissions run degraded;
//   * on a pipelined stage chain the steady-state period drops below
//     the single-data-set latency (period != latency, paper Table 1);
//   * on a data-parallel mapping each node runs the next data set's
//     head before the current one's tail, in an order fixed by the host
//     calls alone, and a tail that fails poisons the head that ran
//     ahead of it.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/benchmarks.hpp"
#include "core/project.hpp"
#include "model/app.hpp"
#include "model/hardware.hpp"
#include "model/mapping.hpp"
#include "net/fault.hpp"
#include "runtime/session.hpp"
#include "support/error.hpp"
#include "viz/exporters.hpp"

namespace sage::runtime {
namespace {

std::unique_ptr<model::Workspace> make_workspace(const std::string& app) {
  if (app == "fft2d") return apps::make_fft2d_workspace(64, 2);
  return apps::make_cornerturn_workspace(64, 2);
}

/// The paper's period-vs-latency shape: a 4-stage chain with stage i
/// mapped to node i, so consecutive data sets overlap across stages.
std::unique_ptr<model::Workspace> make_pipelined_chain(std::size_t n = 64) {
  constexpr int kStages = 4;
  auto ws = std::make_unique<model::Workspace>("chain");
  model::ModelObject& root = ws->root();
  model::add_cspi_platform(root, kStages);
  model::ModelObject& app = model::add_application(root, "stage_chain");
  const std::vector<std::size_t> dims{n, n};

  model::ModelObject& src = model::add_function(app, "src", "matrix_source", 1);
  src.set_property("role", "source");
  model::add_port(src, "out", model::PortDirection::kOut,
                  model::Striping::kStriped, "cfloat", dims, 0);
  std::string prev = "src";
  for (int s = 0; s < kStages - 2; ++s) {
    const std::string name = "fft_stage" + std::to_string(s);
    model::ModelObject& fn =
        model::add_function(app, name, "isspl.fft_rows", 1);
    model::add_port(fn, "in", model::PortDirection::kIn,
                    model::Striping::kStriped, "cfloat", dims, 0);
    model::add_port(fn, "out", model::PortDirection::kOut,
                    model::Striping::kStriped, "cfloat", dims, 0);
    model::connect(app, prev + ".out", name + ".in");
    prev = name;
  }
  model::ModelObject& sink = model::add_function(app, "sink", "matrix_sink", 1);
  sink.set_property("role", "sink");
  model::add_port(sink, "in", model::PortDirection::kIn,
                  model::Striping::kStriped, "cfloat", dims, 0);
  model::connect(app, prev + ".out", "sink.in");

  model::ModelObject& mapping = model::add_mapping(root, "mapping", "cspi");
  const std::vector<std::string> fns = {"src", "fft_stage0", "fft_stage1",
                                        "sink"};
  for (int i = 0; i < kStages; ++i) {
    model::assign_ranks(root, mapping, fns[static_cast<std::size_t>(i)], {i});
  }
  ws->validate_or_throw();
  return ws;
}

std::shared_ptr<const net::FaultPlan> chaos_plan(std::uint64_t seed) {
  auto plan = std::make_shared<net::FaultPlan>();
  plan->seed = seed;
  net::LinkFaultRule drop;
  drop.kind = net::FaultKind::kDrop;
  drop.probability = 0.05;
  plan->link_rules.push_back(drop);
  net::LinkFaultRule corrupt;
  corrupt.kind = net::FaultKind::kCorrupt;
  corrupt.probability = 0.05;
  corrupt.corrupt_bytes = 4;
  plan->link_rules.push_back(corrupt);
  net::StallRule stall;
  stall.node = 1;
  stall.iteration = 0;
  stall.stall_vt = 1e-3;
  plan->stall_rules.push_back(stall);
  return plan;
}

// --- overlapped vs sequential bit-identity ---------------------------------

struct StreamCase {
  std::string app;
  int depth = 0;  // 0 = the compiler's per-channel ring bounds
};

// gtest prints a parameter with no printer as its raw bytes -- heap
// addresses for a std::string -- and the printed value becomes part of
// each case's ctest name, so print the case itself.
void PrintTo(const StreamCase& c, std::ostream* os) {
  *os << c.app << " depth " << c.depth;
}

std::string stream_case_name(
    const ::testing::TestParamInfo<StreamCase>& info) {
  return info.param.app +
         (info.param.depth == 0 ? std::string("_ring")
                                : "_depth" + std::to_string(info.param.depth));
}

class StreamingDeterminismTest : public ::testing::TestWithParam<StreamCase> {
};

TEST_P(StreamingDeterminismTest, OverlappedMatchesSequentialBitExactly) {
  const StreamCase& param = GetParam();
  constexpr int kSets = 4;
  ExecuteOptions options;
  options.iterations = 2;
  options.collect_trace = false;

  // Sequential reference: back-to-back synchronous runs.
  core::Project seq_project(make_workspace(param.app));
  auto seq = seq_project.open_session(options);
  std::vector<RunStats> sequential;
  for (int i = 0; i < kSets; ++i) sequential.push_back(seq->run());

  // Fresh-session stream: k overlapped submissions on one epoch.
  core::Project stream_project(make_workspace(param.app));
  auto session = stream_project.open_session(options);
  RunOverrides request;
  if (param.depth > 0) request.buffer_depth = param.depth;
  std::vector<Ticket> tickets;
  for (int i = 0; i < kSets; ++i) tickets.push_back(session->submit(request));
  EXPECT_EQ(session->in_flight(), kSets);
  std::vector<RunStats> fresh;
  for (const Ticket t : tickets) fresh.push_back(session->wait(t));
  EXPECT_EQ(session->in_flight(), 0);

  // Warm stream: a second epoch on the same session.
  tickets.clear();
  for (int i = 0; i < kSets; ++i) tickets.push_back(session->submit(request));
  const std::vector<RunStats> warm = session->drain();
  ASSERT_EQ(warm.size(), static_cast<std::size_t>(kSets));

  for (int i = 0; i < kSets; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    // The tentpole contract: overlap may reshape traffic and virtual
    // times, but the sink checksums are bit-identical to the
    // sequential schedule -- for the fresh epoch and the warm one.
    EXPECT_EQ(fresh[idx].results, sequential[idx].results);
    EXPECT_EQ(warm[idx].results, sequential[idx].results);
    EXPECT_EQ(fresh[idx].iterations, sequential[idx].iterations);
    EXPECT_GT(fresh[idx].makespan, 0.0);
  }
  // Tickets collect in submission order and say which run they answer.
  for (int i = 1; i < kSets; ++i) {
    EXPECT_GT(warm[static_cast<std::size_t>(i)].ticket,
              warm[static_cast<std::size_t>(i - 1)].ticket);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DepthsByApp, StreamingDeterminismTest,
    ::testing::Values(StreamCase{"fft2d", 0}, StreamCase{"fft2d", 1},
                      StreamCase{"fft2d", 2}, StreamCase{"fft2d", 3},
                      StreamCase{"cornerturn", 0},
                      StreamCase{"cornerturn", 2}),
    stream_case_name);

// --- ticket API semantics --------------------------------------------------

TEST(StreamingTest, TicketLifecycleAndErrors) {
  core::Project project(make_workspace("cornerturn"));
  ExecuteOptions options;
  options.iterations = 1;
  options.collect_trace = false;
  auto session = project.open_session(options);

  EXPECT_THROW(session->poll(Ticket{9999}), RuntimeError);
  EXPECT_THROW(session->wait(Ticket{9999}), RuntimeError);
  EXPECT_EQ(session->in_flight(), 0);
  EXPECT_TRUE(session->drain().empty());

  const Ticket ticket = session->submit();
  EXPECT_EQ(session->in_flight(), 1);
  const RunStats stats = session->wait(ticket);
  EXPECT_EQ(stats.ticket, ticket.id);
  EXPECT_EQ(stats.iterations, 1);
  // A ticket redeems exactly once.
  EXPECT_THROW(session->wait(ticket), RuntimeError);
  EXPECT_THROW(session->poll(ticket), RuntimeError);

  // poll() flips to true without collecting.
  const Ticket second = session->submit();
  while (!session->poll(second)) {
  }
  EXPECT_EQ(session->in_flight(), 1);
  EXPECT_EQ(session->wait(second).ticket, second.id);

  // A synchronous run() between streams quiesces and stays correct.
  const RunStats sync = session->run();
  EXPECT_EQ(sync.stream_period, 0.0);  // sync runs open a private epoch
  EXPECT_EQ(session->runs_completed(), 3);
}

TEST(StreamingTest, SubmitOverridesApplyPerTicketOnly) {
  // submit() takes the same RunOverrides as run(): an override shapes
  // only its own ticket, and unset fields inherit the session options.
  core::Project project(make_workspace("cornerturn"));
  ExecuteOptions options;
  options.iterations = 2;
  options.collect_trace = false;
  auto session = project.open_session(options);

  RunOverrides more;
  more.iterations = 5;
  RunOverrides shared;
  shared.buffer_policy = BufferPolicy::kShared;
  const Ticket longer = session->submit(more);
  const Ticket plain = session->submit();
  const Ticket shared_ticket = session->submit(shared);

  EXPECT_EQ(session->wait(longer).iterations, 5);
  const RunStats inherited = session->wait(plain);
  EXPECT_EQ(inherited.iterations, 2);
  EXPECT_EQ(inherited.results, project.execute(options).results);

  const RunStats overridden = session->wait(shared_ticket);
  EXPECT_EQ(overridden.iterations, 2);
  ExecuteOptions shared_options = options;
  shared_options.buffer_policy = BufferPolicy::kShared;
  EXPECT_EQ(overridden.results, project.execute(shared_options).results);
}

TEST(StreamingTest, TicketsSurviveEpochBoundaries) {
  // Uncollected tickets stay redeemable after their epoch closes --
  // here forced shut by a depth change and by a synchronous run().
  core::Project project(make_workspace("fft2d"));
  ExecuteOptions options;
  options.iterations = 1;
  options.collect_trace = false;
  auto session = project.open_session(options);

  const Ticket a = session->submit();
  RunOverrides deeper;
  deeper.buffer_depth = 2;
  const Ticket b = session->submit(deeper);  // incompatible: new epoch
  const RunStats sync = session->run();      // quiesces again

  const RunStats stats_a = session->wait(a);
  const RunStats stats_b = session->wait(b);
  EXPECT_EQ(stats_a.results, stats_b.results);
  EXPECT_EQ(stats_a.results, sync.results);
}

// --- credit flow control ---------------------------------------------------

TEST(StreamingTest, CreditExhaustionStillDrainsAtDepthOne) {
  // Depth 1 exhausts every channel's credits immediately: each producer
  // must block until its consumer drains the single slot. The stream
  // must still complete (no deadlock), bit-identical to depth 3.
  core::Project squeezed_project(make_pipelined_chain());
  ExecuteOptions options;
  options.iterations = 2;
  options.collect_trace = false;
  auto squeezed = squeezed_project.open_session(options);
  RunOverrides one;
  one.buffer_depth = 1;
  std::vector<Ticket> tickets;
  for (int i = 0; i < 4; ++i) tickets.push_back(squeezed->submit(one));
  const std::vector<RunStats> tight = squeezed->drain();

  core::Project roomy_project(make_pipelined_chain());
  auto roomy = roomy_project.open_session(options);
  RunOverrides three;
  three.buffer_depth = 3;
  for (int i = 0; i < 4; ++i) roomy->submit(three);
  const std::vector<RunStats> loose = roomy->drain();

  ASSERT_EQ(tight.size(), loose.size());
  for (std::size_t i = 0; i < tight.size(); ++i) {
    EXPECT_EQ(tight[i].results, loose[i].results);
  }
  // Credits are real traffic: the bounded stream carries flow-control
  // messages a synchronous unbounded run does not.
  core::Project sync_project(make_pipelined_chain());
  const RunStats unbounded = sync_project.execute(options);
  EXPECT_GT(tight.back().fabric_messages,
            4 * unbounded.fabric_messages - 1);
}

TEST(StreamingTest, PipelinedSteadyStatePeriodBeatsLatency) {
  // Paper Table 1: period != latency once stages pipeline. Stream
  // enough data sets for a steady state and compare the achieved
  // period (virtual time between consecutive completions) against the
  // single-data-set latency. Both are virtual times, so the ratio is
  // deterministic; the 0.6x bound is the PR's acceptance criterion at
  // depth >= 2 (the default submit resolves to the compiled ring
  // bounds, all >= 2), and bench/pipeline_period measures ~0.15x.
  core::Project project(make_pipelined_chain(128));
  ExecuteOptions options;
  options.iterations = 1;
  options.collect_trace = false;
  auto session = project.open_session(options);

  const RunStats single = session->run();
  const double latency = single.mean_latency();
  ASSERT_GT(latency, 0.0);

  constexpr int kSets = 8;
  std::vector<Ticket> tickets;
  for (int i = 0; i < kSets; ++i) tickets.push_back(session->submit());
  const std::vector<RunStats> stream = session->drain();
  ASSERT_EQ(stream.size(), static_cast<std::size_t>(kSets));

  EXPECT_EQ(stream.front().stream_period, 0.0);  // primed the pipeline
  double period_sum = 0.0;
  int period_count = 0;
  for (std::size_t i = kSets / 2; i < stream.size(); ++i) {
    EXPECT_GT(stream[i].stream_period, 0.0);
    period_sum += stream[i].stream_period;
    ++period_count;
  }
  const double period = period_sum / period_count;
  EXPECT_LT(period, 0.6 * latency);

  // Per-stage occupancy surfaces in the stats and in the metrics.
  const RunStats& last = stream.back();
  ASSERT_EQ(last.occupancy.size(), 4u);
  for (const auto& [fn, ratio] : last.occupancy) {
    EXPECT_GE(ratio, 0.0) << fn;
    EXPECT_LE(ratio, 1.0) << fn;
  }
  const viz::MetricValue* occupancy = last.metrics.find(
      viz::families::kStageOccupancy, {{"function", "fft_stage0"}});
  ASSERT_NE(occupancy, nullptr);
  EXPECT_DOUBLE_EQ(occupancy->value, last.occupancy.at("fft_stage0"));
  const viz::MetricValue* period_metric =
      last.metrics.find(viz::families::kStreamPeriod);
  ASSERT_NE(period_metric, nullptr);
  EXPECT_DOUBLE_EQ(period_metric->value, last.stream_period);

  // And the human report grows its streaming section.
  const std::string report = viz::report(last.trace, last.metrics);
  EXPECT_NE(report.find("streaming: achieved period"), std::string::npos);
  EXPECT_NE(report.find("period set by"), std::string::npos);
}

// --- faults and recovery under overlap -------------------------------------

TEST(StreamingTest, FaultChaosUnderDepthThreeKeepsCleanChecksums) {
  ExecuteOptions options;
  options.iterations = 2;
  options.collect_trace = false;

  core::Project clean_project(make_workspace("cornerturn"));
  auto clean_session = clean_project.open_session(options);
  const RunStats baseline = clean_session->run();

  ExecuteOptions chaotic = options;
  chaotic.fault_plan = chaos_plan(0xC0FFEE);
  chaotic.buffer_depth = 3;
  core::Project chaos_project(make_workspace("cornerturn"));
  auto session = chaos_project.open_session(chaotic);
  constexpr int kSets = 4;
  for (int i = 0; i < kSets; ++i) session->submit();
  const std::vector<RunStats> stream = session->drain();
  ASSERT_EQ(stream.size(), static_cast<std::size_t>(kSets));

  std::uint64_t injected = 0;
  for (const RunStats& stats : stream) {
    // ARQ under overlap: every data frame eventually landed clean, so
    // each overlapped data set still answers the fault-free checksums.
    EXPECT_EQ(stats.results, baseline.results);
    EXPECT_EQ(stats.faults.stalls, 1u);  // node 1, iteration 0, per set
  }
  // Injected-fault counters are epoch-cumulative at collection; the
  // last ticket sees the whole epoch's chaos, and there was some.
  injected = stream.back().faults.injected_drops +
             stream.back().faults.injected_corruptions;
  EXPECT_GT(injected, 0u);
}

TEST(StreamingTest, RecoverQuiescesMidStream) {
  ExecuteOptions options;
  options.iterations = 2;
  options.collect_trace = false;
  core::Project project(make_pipelined_chain());
  auto session = project.open_session(options);

  std::vector<Ticket> before;
  for (int i = 0; i < 3; ++i) before.push_back(session->submit());
  // recover() lands every in-flight ticket, then remaps; the earlier
  // tickets stay redeemable and answer full-strength results.
  const RecoveryReport report = session->recover({3});
  EXPECT_EQ(report.dead_nodes, std::vector<int>{3});
  EXPECT_GT(report.moved_threads, 0);

  std::vector<RunStats> healthy;
  for (const Ticket t : before) healthy.push_back(session->wait(t));
  for (const RunStats& stats : healthy) {
    EXPECT_EQ(stats.faults.degraded_nodes, 1);  // collected post-remap
    EXPECT_EQ(stats.results, healthy.front().results);
  }

  // Streaming resumes on the remapped program.
  for (int i = 0; i < 3; ++i) session->submit();
  const std::vector<RunStats> degraded = session->drain();
  ASSERT_EQ(degraded.size(), 3u);
  const RunStats reference = session->run();
  for (const RunStats& stats : degraded) {
    EXPECT_EQ(stats.results, reference.results);
    EXPECT_EQ(stats.faults.degraded_nodes, 1);
  }
  EXPECT_EQ(degraded.front().results, healthy.front().results);
}

// --- deterministic soak: seeded op interleavings ----------------------------

/// Property soak for the ticket API: a seeded stream of
/// submit/poll/wait/drain/recover operations interleaved across two
/// sessions sharing one CompiledProgram. Invariants checked throughout:
///   * no ticket is lost -- every submission is redeemed exactly once
///     by the end;
///   * no ticket double-redeems -- a collected id throws on re-wait and
///     re-poll;
///   * no reordering within a stream -- collection in submission order
///     answers strictly increasing ticket ids, and drain() preserves
///     submission order;
///   * every collected result stays bit-identical to the solo
///     reference, before and after a mid-soak recover().
class StreamingSoakTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamingSoakTest, SeededInterleavingsPreserveTicketContracts) {
  ExecuteOptions options;
  options.iterations = 1;
  options.collect_trace = false;
  core::Project project(make_pipelined_chain());
  const std::shared_ptr<const CompiledProgram> program =
      project.compile_program(options);

  // Two executors, one immutable program.
  std::array<std::unique_ptr<Session>, 2> sessions = {
      project.open_session(options), project.open_session(options)};
  ASSERT_EQ(sessions[0]->program_ptr().get(), sessions[1]->program_ptr().get());
  ASSERT_EQ(sessions[0]->program_ptr().get(), program.get());

  // Results are mapping-independent checksums, so one solo reference
  // covers full-strength and post-recover collections alike.
  const auto reference = sessions[0]->run().results;

  struct PerSession {
    std::deque<Ticket> outstanding;  // submission order
    std::uint64_t collected = 0;
    std::uint64_t submitted = 0;
    std::uint64_t last_collected_id = 0;
    bool recovered = false;
  };
  std::array<PerSession, 2> state;

  std::mt19937 gen(static_cast<std::uint32_t>(GetParam()));
  auto collect_one = [&](int s, const RunStats& stats, std::uint64_t want_id) {
    // In-stream order: collecting in submission order must answer
    // strictly increasing ids, specifically the oldest outstanding.
    EXPECT_EQ(stats.ticket, want_id);
    EXPECT_GT(stats.ticket, state[static_cast<std::size_t>(s)]
                                .last_collected_id);
    state[static_cast<std::size_t>(s)].last_collected_id = stats.ticket;
    EXPECT_EQ(stats.results, reference);
    ++state[static_cast<std::size_t>(s)].collected;
  };

  constexpr int kOps = 80;
  for (int op = 0; op < kOps; ++op) {
    const int s = static_cast<int>(gen() % 2);
    PerSession& mine = state[static_cast<std::size_t>(s)];
    Session& session = *sessions[static_cast<std::size_t>(s)];
    const std::uint32_t dice = gen() % 100;
    if (op == kOps / 2 && !mine.recovered) {
      // Mid-soak recovery with work in flight: earlier tickets stay
      // redeemable, later submissions run degraded, same checksums.
      const RecoveryReport report = session.recover({3});
      EXPECT_EQ(report.dead_nodes, std::vector<int>{3});
      mine.recovered = true;
      // The recovered session forked a private recompile; its twin
      // still runs the shared program.
      EXPECT_NE(session.program_ptr().get(),
                sessions[static_cast<std::size_t>(1 - s)]->program_ptr().get());
    } else if (dice < 45 || mine.outstanding.empty()) {
      RunOverrides request;
      if (gen() % 4 == 0) request.buffer_depth = 2;  // epoch boundary
      mine.outstanding.push_back(session.submit(request));
      ++mine.submitted;
    } else if (dice < 65) {
      // poll never collects: in_flight is unchanged whatever it says.
      const int before = session.in_flight();
      session.poll(mine.outstanding.front());
      EXPECT_EQ(session.in_flight(), before);
    } else if (dice < 85) {
      const Ticket oldest = mine.outstanding.front();
      mine.outstanding.pop_front();
      collect_one(s, session.wait(oldest), oldest.id);
      // Exactly-once: the collected id is dead for wait and poll.
      EXPECT_THROW(session.wait(oldest), RuntimeError);
      EXPECT_THROW(session.poll(oldest), RuntimeError);
    } else {
      const std::vector<RunStats> all = session.drain();
      ASSERT_EQ(all.size(), mine.outstanding.size());
      for (const RunStats& stats : all) {
        const Ticket oldest = mine.outstanding.front();
        mine.outstanding.pop_front();
        collect_one(s, stats, oldest.id);
      }
      EXPECT_EQ(session.in_flight(), 0);
    }
  }

  // Final drain: nothing lost, everything redeemed exactly once.
  for (int s = 0; s < 2; ++s) {
    PerSession& mine = state[static_cast<std::size_t>(s)];
    Session& session = *sessions[static_cast<std::size_t>(s)];
    const std::vector<RunStats> rest = session.drain();
    ASSERT_EQ(rest.size(), mine.outstanding.size());
    for (const RunStats& stats : rest) {
      const Ticket oldest = mine.outstanding.front();
      mine.outstanding.pop_front();
      collect_one(s, stats, oldest.id);
    }
    EXPECT_TRUE(mine.outstanding.empty());
    EXPECT_EQ(session.in_flight(), 0);
    EXPECT_EQ(mine.collected, mine.submitted);
    EXPECT_GT(mine.submitted, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingSoakTest,
                         ::testing::Values(0xDEADBEEFull, 0x5EEDull,
                                           0xA5A5A5A5ull));

TEST(StreamingTest, DrainWithNothingInFlightIsADocumentedNoOp) {
  // Regression pin for the serve scheduler's reliance on this: a
  // drain() with zero in-flight tickets returns empty, throws nothing,
  // and leaves the session fully usable (including an active epoch).
  core::Project project(apps::make_cornerturn_workspace(32, 2));
  runtime::ExecuteOptions options;
  options.iterations = 1;
  options.collect_trace = false;
  auto session = project.open_session(options);

  EXPECT_TRUE(session->drain().empty());  // fresh session, nothing ever ran
  EXPECT_EQ(session->in_flight(), 0);

  const runtime::RunStats reference = session->run();
  EXPECT_TRUE(session->drain().empty());  // after a synchronous run

  const runtime::Ticket ticket = session->submit();
  const std::vector<runtime::RunStats> one = session->drain();
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one.front().ticket, ticket.id);
  EXPECT_TRUE(session->drain().empty());  // immediately after a drain
  EXPECT_EQ(session->in_flight(), 0);

  // The no-op drain didn't disturb the epoch: streaming resumes and
  // stays bit-identical.
  session->submit();
  const std::vector<runtime::RunStats> more = session->drain();
  ASSERT_EQ(more.size(), 1u);
  EXPECT_EQ(more.front().results, reference.results);
}

TEST(StreamingTest, PollOnARedeemedTicketThrowsTheCollectedError) {
  // Pin the audited poll() semantics: once wait()/drain() redeems a
  // ticket its completion state is gone, and poll answers the same
  // typed error as wait -- "unknown or already-collected" -- rather
  // than false or a stale true.
  core::Project project(apps::make_cornerturn_workspace(32, 2));
  runtime::ExecuteOptions options;
  options.iterations = 1;
  options.collect_trace = false;
  auto session = project.open_session(options);

  const runtime::Ticket ticket = session->submit();
  session->wait(ticket);
  try {
    session->poll(ticket);
    FAIL() << "poll on a redeemed ticket must throw";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("already-collected"),
              std::string::npos)
        << e.what();
  }
  // Same pin for the drain() redemption path.
  const runtime::Ticket drained = session->submit();
  session->drain();
  EXPECT_THROW(session->poll(drained), RuntimeError);
  EXPECT_THROW(session->wait(drained), RuntimeError);
}

// --- two-stage node schedules ---------------------------------------------

/// One kernel boundary: (event kind, function, ticket).
using FiringEvent = std::tuple<viz::EventKind, std::string, std::uint64_t>;

/// Every kernel start and end of `tickets`, per node, in the node's
/// execution order: each node's virtual clock is monotone and every
/// kernel advances it, so sorting by start time (an end before a start
/// at the same instant) recovers the order the node ran them in.
std::map<int, std::vector<FiringEvent>> firings_by_node(
    const std::vector<RunStats>& tickets) {
  std::map<int, std::vector<std::pair<std::pair<double, int>, FiringEvent>>>
      timed;
  for (const RunStats& stats : tickets) {
    for (const viz::Event& e : stats.trace.events()) {
      if (e.kind != viz::EventKind::kFunctionStart &&
          e.kind != viz::EventKind::kFunctionEnd) {
        continue;
      }
      const int start_last = e.kind == viz::EventKind::kFunctionStart ? 1 : 0;
      timed[e.node].push_back(
          {{e.start_vt, start_last}, {e.kind, e.label, stats.ticket}});
    }
  }
  std::map<int, std::vector<FiringEvent>> order;
  for (auto& [node, events] : timed) {
    std::sort(events.begin(), events.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [when, event] : events) order[node].push_back(event);
  }
  return order;
}

/// When `function` started on `node` in `stats` (its first iteration).
double start_of(const RunStats& stats, int node, const std::string& function) {
  for (const viz::Event& e : stats.trace.events()) {
    if (e.node == node && e.kind == viz::EventKind::kFunctionStart &&
        e.label == function) {
      return e.start_vt;
    }
  }
  ADD_FAILURE() << function << " never started on node " << node;
  return 0.0;
}

/// Submits `sets` data sets, then waits for each in order.
std::vector<RunStats> submit_then_wait(Session& session, int sets,
                                       const RunOverrides& request = {}) {
  std::vector<Ticket> tickets;
  for (int i = 0; i < sets; ++i) tickets.push_back(session.submit(request));
  std::vector<RunStats> stats;
  for (const Ticket t : tickets) stats.push_back(session.wait(t));
  return stats;
}

TEST(StreamingTest, EachNodeRunsTheNextHeadBeforeTheCurrentTail) {
  // fft2d 64x2: every node's head is src, fft_rows (up to its first
  // remote receive) and its tail corner_turn, fft_cols, sink. With four
  // data sets submitted before the first wait, each of the first three
  // is followed before it is demanded, so a node starts the next data
  // set's head before the current one's tail.
  ExecuteOptions options;
  options.iterations = 1;
  const auto stream = [&] {
    core::Project project(make_workspace("fft2d"));
    auto session = project.open_session(options);
    return submit_then_wait(*session, 4);
  };
  const std::vector<RunStats> first = stream();
  const std::vector<RunStats> second = stream();
  ASSERT_EQ(first.size(), 4u);

  // The same host calls give the same per-node order in a fresh session.
  EXPECT_EQ(firings_by_node(first), firings_by_node(second));
  for (int node = 0; node < 2; ++node) {
    for (std::size_t i = 0; i + 1 < first.size(); ++i) {
      EXPECT_LT(start_of(first[i + 1], node, "src"),
                start_of(first[i], node, "corner_turn"))
          << "node " << node << ", data set " << i;
    }
  }
  core::Project reference(make_workspace("fft2d"));
  const RunStats sequential = reference.execute(options);
  for (const RunStats& stats : first) {
    EXPECT_EQ(stats.results, sequential.results);
  }
}

TEST(StreamingTest, WaitLoopsDepthOneAndRunKeepDataSetsApart) {
  // A data set demanded before the next one is published runs to the
  // end first; so does every data set at depth 1, where head(i+1) would
  // wait for a credit only tail(i) returns; and run() is one data set.
  ExecuteOptions options;
  options.iterations = 1;
  core::Project project(make_workspace("fft2d"));
  auto session = project.open_session(options);
  const auto expect_apart = [](const std::vector<RunStats>& tickets,
                               const char* what) {
    for (const auto& [node, events] : firings_by_node(tickets)) {
      for (std::size_t k = 1; k < events.size(); ++k) {
        EXPECT_LE(std::get<2>(events[k - 1]), std::get<2>(events[k]))
            << what << ": node " << node << " interleaved data sets";
      }
    }
  };

  std::vector<RunStats> looped;
  for (int i = 0; i < 4; ++i) looped.push_back(session->wait(session->submit()));
  expect_apart(looped, "submit; wait");

  RunOverrides one;
  one.buffer_depth = 1;
  expect_apart(submit_then_wait(*session, 4, one), "depth 1");

  // run(): every node fires its schedule in order, iteration by
  // iteration.
  RunOverrides two;
  two.iterations = 2;
  const std::vector<std::string> schedule = {"src", "fft_rows", "corner_turn",
                                             "fft_cols", "sink"};
  for (const auto& [node, events] : firings_by_node({session->run(two)})) {
    std::vector<std::string> started;
    for (const auto& [kind, function, ticket] : events) {
      if (kind == viz::EventKind::kFunctionStart) started.push_back(function);
    }
    std::vector<std::string> expected = schedule;
    expected.insert(expected.end(), schedule.begin(), schedule.end());
    EXPECT_EQ(started, expected) << "node " << node;
  }
}

TEST(StreamingTest, AFailedTailPoisonsTheHeadThatRanAheadOfIt) {
  // The sink throws in iteration 1, which only the second data set
  // has. Its last head is followed by the third data set's head on
  // every node, so the third lands poisoned although its head ran, the
  // fourth never starts, and the session recovers for the next run.
  FunctionRegistry registry = standard_registry();
  const Kernel sink = registry.lookup("matrix_sink");
  registry.add(
      "matrix_sink",
      [sink](KernelContext& ctx) {
        if (ctx.iteration() == 1) raise<RuntimeError>("sink fault");
        sink(ctx);
      },
      OutputAccess::kOverwrite);
  core::Project project(make_workspace("fft2d"));
  project.set_registry(registry);
  ExecuteOptions options;
  options.iterations = 1;
  options.collect_trace = false;
  auto session = project.open_session(options);
  const RunStats reference = session->run();

  RunOverrides longer;
  longer.iterations = 2;
  const Ticket a = session->submit();
  const Ticket b = session->submit(longer);
  const Ticket c = session->submit();
  const Ticket d = session->submit();
  EXPECT_EQ(session->wait(a).results, reference.results);
  const auto error_of = [&](Ticket ticket) {
    try {
      session->wait(ticket);
    } catch (const RuntimeError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_NE(error_of(b).find("sink fault"), std::string::npos);
  EXPECT_NE(error_of(c).find("aborted by a node failure"), std::string::npos);
  EXPECT_NE(error_of(d).find("aborted by a node failure"), std::string::npos);
  EXPECT_EQ(session->in_flight(), 0);
  EXPECT_EQ(session->run().results, reference.results);
}

}  // namespace
}  // namespace sage::runtime
