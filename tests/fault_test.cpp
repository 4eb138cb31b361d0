// Chaos suite for the deterministic fault-injection and recovery
// subsystem: FaultPlan parsing and counter-mode determinism, fabric
// injection and the analytic-ARQ reliable path, the bit-identical
// empty-plan contract, seeded chaos over the integration pipeline,
// credit-path recovery, and degraded-mode (dead node) execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "apps/benchmarks.hpp"
#include "core/project.hpp"
#include "mpi/comm.hpp"
#include "net/fabric.hpp"
#include "net/fault.hpp"
#include "net/machine.hpp"
#include "support/error.hpp"

namespace sage {
namespace {

using net::FaultKind;
using net::FaultPlan;
using net::LinkFaultRule;

// --- plan parsing and determinism ------------------------------------------

TEST(FaultPlanTest, ParseReadsEveryDirective) {
  const FaultPlan plan = FaultPlan::parse(
      "# comment\n"
      "fault-plan 1\n"
      "seed 42\n"
      "detect-timeout 2e-4\n"
      "backoff 3\n"
      "max-attempts 5\n"
      "drop link=0->1 p=0.25\n"
      "drop link=* at=3\n"
      "corrupt link=*->2 p=0.1 bytes=8\n"
      "delay link=2->0 p=0.5 vt=2e-3\n"
      "stall node=1 iter=2 vt=0.01\n"
      "dead node=3\n");
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_DOUBLE_EQ(plan.detect_timeout_vt, 2e-4);
  EXPECT_DOUBLE_EQ(plan.backoff_factor, 3.0);
  EXPECT_EQ(plan.max_attempts, 5);
  ASSERT_EQ(plan.link_rules.size(), 4u);
  EXPECT_EQ(plan.link_rules[0].kind, FaultKind::kDrop);
  EXPECT_EQ(plan.link_rules[0].src, 0);
  EXPECT_EQ(plan.link_rules[0].dst, 1);
  EXPECT_EQ(plan.link_rules[1].at_index, 3);
  EXPECT_EQ(plan.link_rules[1].src, -1);
  EXPECT_EQ(plan.link_rules[2].kind, FaultKind::kCorrupt);
  EXPECT_EQ(plan.link_rules[2].dst, 2);
  EXPECT_EQ(plan.link_rules[2].corrupt_bytes, 8u);
  EXPECT_EQ(plan.link_rules[3].kind, FaultKind::kDelay);
  EXPECT_DOUBLE_EQ(plan.link_rules[3].delay_vt, 2e-3);
  ASSERT_EQ(plan.stall_rules.size(), 1u);
  EXPECT_EQ(plan.stall_rules[0].node, 1);
  EXPECT_EQ(plan.stall_rules[0].iteration, 2);
  ASSERT_EQ(plan.dead_nodes.size(), 1u);
  EXPECT_TRUE(plan.node_dead(3));
  EXPECT_FALSE(plan.node_dead(2));
  EXPECT_TRUE(plan.active());
}

TEST(FaultPlanTest, SerializeRoundTrips) {
  const FaultPlan plan = FaultPlan::parse(
      "fault-plan 1\n"
      "seed 7\n"
      "drop link=0->1 p=0.25\n"
      "corrupt link=* p=0.125 bytes=4\n"
      "delay link=*->2 p=0.5 vt=0.001\n"
      "stall node=* iter=1 vt=0.25\n"
      "dead node=2\n");
  const FaultPlan again = FaultPlan::parse(plan.serialize());
  EXPECT_EQ(again.serialize(), plan.serialize());
  EXPECT_EQ(again.link_rules.size(), plan.link_rules.size());
  EXPECT_EQ(again.dead_nodes, plan.dead_nodes);

  // Seeds use all 64 bits, and doubles survive at full precision.
  const FaultPlan exact = FaultPlan::parse(
      "fault-plan 1\n"
      "seed 18446744073709551615\n"
      "detect-timeout 1.2345678901e-4\n"
      "delay link=* p=0.1000000000000001 vt=3.0000000000000004e-3\n");
  const FaultPlan exact_again = FaultPlan::parse(exact.serialize());
  EXPECT_EQ(exact_again.seed, 18446744073709551615ull);
  EXPECT_EQ(exact_again.detect_timeout_vt, 1.2345678901e-4);
  ASSERT_EQ(exact_again.link_rules.size(), 1u);
  EXPECT_EQ(exact_again.link_rules[0].probability, 0.1000000000000001);
  EXPECT_EQ(exact_again.link_rules[0].delay_vt, 3.0000000000000004e-3);
}

TEST(FaultPlanTest, ParseRejectsMalformedInput) {
  EXPECT_THROW(FaultPlan::parse("seed 1\n"), ConfigError);  // no header
  EXPECT_THROW(FaultPlan::parse("fault-plan 2\n"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("fault-plan 1\ndrop link=0->1 p=1.5\n"),
               ConfigError);
  EXPECT_THROW(FaultPlan::parse("fault-plan 1\ndrop link=0->1\n"),
               ConfigError);  // needs p or at
  EXPECT_THROW(FaultPlan::parse("fault-plan 1\ndelay link=* p=0.5\n"),
               ConfigError);  // delay needs vt
  EXPECT_THROW(FaultPlan::parse("fault-plan 1\nstall node=0 iter=0\n"),
               ConfigError);  // stall needs vt
  EXPECT_THROW(FaultPlan::parse("fault-plan 1\nexplode link=*\n"),
               ConfigError);
  EXPECT_THROW(FaultPlan::parse("fault-plan 1\ndrop link=01 p=0.5\n"),
               ConfigError);  // bad link spec

  // Every number must fit its field: no wraparound, no truncation, and
  // a typed error naming the line. (None of these plans is executed: a
  // huge corruption count would spin the fabric's flip loop.)
  const char* const unfit[] = {
      "seed x",                              // not a number
      "seed -1",                             // seeds are unsigned
      "max-attempts 0",                      // bounds [1, 64]
      "max-attempts 65",
      "max-attempts 4294967297",             // would truncate to 1
      "detect-timeout inf",                  // doubles are finite
      "corrupt link=* p=1 bytes=-1",         // would wrap to 2^64-1
      "corrupt link=* p=1 bytes=0",          // bounds [1, 65536]
      "corrupt link=* p=1 bytes=65537",
      "drop link=* p=nan",
      "drop link=* at=-2",
      "drop link=4294967296->0 p=0.5",       // would truncate to rank 0
      "drop link=0->x p=0.5",
      "stall node=-1 iter=0 vt=0.1",         // '*' is the wildcard
      "stall node=0 iter=2147483648 vt=0.1",
      "dead node=4294967296",                // would kill node 0
  };
  for (const char* line : unfit) {
    try {
      FaultPlan::parse(std::string("fault-plan 1\n") + line + "\n");
      ADD_FAILURE() << "accepted: " << line;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << line << ": " << e.what();
    }
  }
}

TEST(FaultPlanTest, InactivePlanReportsInactive) {
  EXPECT_FALSE(FaultPlan{}.active());
  EXPECT_FALSE(FaultPlan::parse("fault-plan 1\nseed 9\n").active());
}

TEST(FaultPlanTest, LinkOutcomeIsAPureFunction) {
  FaultPlan plan;
  LinkFaultRule rule;
  rule.kind = FaultKind::kDrop;
  rule.probability = 0.5;
  plan.link_rules.push_back(rule);

  // Identical arguments give identical verdicts, in any call order.
  std::vector<FaultKind> forward;
  std::vector<FaultKind> backward;
  for (int seq = 0; seq < 64; ++seq) {
    forward.push_back(plan.link_outcome(0, 1, seq).kind);
  }
  for (int seq = 63; seq >= 0; --seq) {
    backward.push_back(plan.link_outcome(0, 1, seq).kind);
  }
  std::reverse(backward.begin(), backward.end());
  EXPECT_EQ(forward, backward);

  // Both verdicts occur at p=0.5 over 64 draws (probability of a
  // one-sided run is 2^-63).
  EXPECT_TRUE(std::count(forward.begin(), forward.end(), FaultKind::kDrop) >
              0);
  EXPECT_TRUE(std::count(forward.begin(), forward.end(), FaultKind::kNone) >
              0);

  // Different links see different draw streams.
  std::vector<FaultKind> other_link;
  for (int seq = 0; seq < 64; ++seq) {
    other_link.push_back(plan.link_outcome(1, 0, seq).kind);
  }
  EXPECT_NE(forward, other_link);
}

TEST(FaultPlanTest, AtIndexFiresExactlyOnce) {
  FaultPlan plan;
  LinkFaultRule rule;
  rule.kind = FaultKind::kDrop;
  rule.at_index = 3;
  plan.link_rules.push_back(rule);
  for (int seq = 0; seq < 8; ++seq) {
    EXPECT_EQ(plan.link_outcome(0, 1, seq).kind,
              seq == 3 ? FaultKind::kDrop : FaultKind::kNone);
  }
}

TEST(FaultPlanTest, StallsSumOverMatchingRules) {
  const FaultPlan plan = FaultPlan::parse(
      "fault-plan 1\n"
      "stall node=1 iter=* vt=0.5\n"
      "stall node=* iter=2 vt=0.25\n");
  EXPECT_DOUBLE_EQ(plan.stall_vt(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(plan.stall_vt(1, 2), 0.75);
  EXPECT_DOUBLE_EQ(plan.stall_vt(0, 2), 0.25);
  EXPECT_DOUBLE_EQ(plan.stall_vt(0, 0), 0.0);
}

// --- fabric injection and the reliable path --------------------------------

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

TEST(FabricFaultTest, PlainSendMarksFaultedDeliveries) {
  net::Fabric fabric(2, net::myrinet_fabric());
  auto plan = std::make_shared<FaultPlan>();
  LinkFaultRule rule;
  rule.kind = FaultKind::kDrop;
  rule.at_index = 1;
  plan->link_rules.push_back(rule);
  fabric.set_fault_plan(plan);

  const auto payload = bytes_of("hello");
  fabric.send(0, 1, 7, payload, 0.0);
  fabric.send(0, 1, 7, payload, 1.0);
  fabric.send(0, 1, 7, payload, 2.0);

  const net::Message first = fabric.recv(1, 0, 7);
  EXPECT_EQ(first.fault, FaultKind::kNone);
  EXPECT_EQ(first.payload, payload);

  const net::Message dropped = fabric.recv(1, 0, 7);
  EXPECT_EQ(dropped.fault, FaultKind::kDrop);
  EXPECT_TRUE(dropped.payload.empty());  // tombstone
  // The tombstone arrives only after the modeled detection timeout.
  EXPECT_GT(dropped.arrival_vt, 1.0 + plan->detect_timeout_vt);

  const net::Message third = fabric.recv(1, 0, 7);
  EXPECT_EQ(third.fault, FaultKind::kNone);

  const net::FaultCounters counters = fabric.fault_counters();
  EXPECT_EQ(counters.drops, 1u);
  EXPECT_EQ(counters.retransmits, 0u);
}

TEST(FabricFaultTest, CorruptionFlipsPayloadBytes) {
  net::Fabric fabric(2, net::myrinet_fabric());
  auto plan = std::make_shared<FaultPlan>();
  LinkFaultRule rule;
  rule.kind = FaultKind::kCorrupt;
  rule.at_index = 0;
  rule.corrupt_bytes = 1;
  plan->link_rules.push_back(rule);
  fabric.set_fault_plan(plan);

  const auto payload = bytes_of("abcdefgh");
  fabric.send(0, 1, 3, payload, 0.0);
  const net::Message msg = fabric.recv(1, 0, 3);
  EXPECT_EQ(msg.fault, FaultKind::kCorrupt);
  ASSERT_EQ(msg.payload.size(), payload.size());
  int flipped = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (msg.payload[i] != payload[i]) ++flipped;
  }
  EXPECT_EQ(flipped, 1);
  EXPECT_EQ(fabric.fault_counters().corruptions, 1u);
}

TEST(FabricFaultTest, FaultExemptSendsBypassThePlan) {
  net::Fabric fabric(2, net::myrinet_fabric());
  auto plan = std::make_shared<FaultPlan>();
  LinkFaultRule rule;
  rule.kind = FaultKind::kDrop;
  rule.probability = 1.0;
  plan->link_rules.push_back(rule);
  fabric.set_fault_plan(plan);

  net::SendOptions exempt;
  exempt.fault_exempt = true;
  fabric.send(0, 1, 1, bytes_of("x"), 0.0, exempt);
  EXPECT_EQ(fabric.recv(1, 0, 1).fault, FaultKind::kNone);
  EXPECT_EQ(fabric.fault_counters().drops, 0u);
}

TEST(FabricFaultTest, SendReliableRetransmitsUntilClean) {
  net::Fabric fabric(2, net::myrinet_fabric());
  auto plan = std::make_shared<FaultPlan>();
  for (const int at : {0, 1}) {  // first two attempts on the link fail
    LinkFaultRule rule;
    rule.kind = FaultKind::kDrop;
    rule.at_index = at;
    plan->link_rules.push_back(rule);
  }
  fabric.set_fault_plan(plan);

  const auto payload = bytes_of("payload");
  const net::SendReceipt receipt =
      fabric.send_reliable(0, 1, 9, payload, 0.0);
  EXPECT_EQ(receipt.attempts, 3);
  // Two detection timeouts plus exponential backoff are charged to the
  // sender's virtual time.
  EXPECT_GT(receipt.sender_after,
            plan->detect_timeout_vt * (1.0 + plan->backoff_factor));

  // The receiver observes both tombstones, then the clean retransmit.
  EXPECT_EQ(fabric.recv(1, 0, 9).fault, FaultKind::kDrop);
  EXPECT_EQ(fabric.recv(1, 0, 9).fault, FaultKind::kDrop);
  const net::Message clean = fabric.recv(1, 0, 9);
  EXPECT_EQ(clean.fault, FaultKind::kNone);
  EXPECT_EQ(clean.attempt, 2);
  EXPECT_EQ(clean.payload, payload);

  const net::FaultCounters counters = fabric.fault_counters();
  EXPECT_EQ(counters.drops, 2u);
  EXPECT_EQ(counters.retransmits, 2u);
}

TEST(FabricFaultTest, SendReliableThrowsWhenAttemptsExhausted) {
  net::Fabric fabric(2, net::myrinet_fabric());
  auto plan = std::make_shared<FaultPlan>();
  plan->max_attempts = 3;
  LinkFaultRule rule;
  rule.kind = FaultKind::kDrop;
  rule.probability = 1.0;
  plan->link_rules.push_back(rule);
  fabric.set_fault_plan(plan);

  EXPECT_THROW(fabric.send_reliable(0, 1, 2, bytes_of("x"), 0.0), CommError);
}

TEST(FabricFaultTest, ResetClearsFaultStateAndLinkSequences) {
  net::Fabric fabric(2, net::myrinet_fabric());
  auto plan = std::make_shared<FaultPlan>();
  LinkFaultRule rule;
  rule.kind = FaultKind::kDrop;
  rule.at_index = 0;  // only the first message on each link drops
  plan->link_rules.push_back(rule);
  fabric.set_fault_plan(plan);

  fabric.send(0, 1, 1, bytes_of("a"), 0.0);
  EXPECT_EQ(fabric.fault_counters().drops, 1u);
  fabric.reset();
  EXPECT_EQ(fabric.fault_counters().drops, 0u);
  // Link sequences restart, so the at=0 rule fires again after reset --
  // the property warm-session determinism relies on.
  fabric.send(0, 1, 1, bytes_of("a"), 0.0);
  EXPECT_EQ(fabric.recv(1, 0, 1).fault, FaultKind::kDrop);
}

TEST(MpiFaultTest, UnreliablePathRejectsFaultedMessages) {
  net::Machine machine(2, net::myrinet_fabric());
  auto plan = std::make_shared<FaultPlan>();
  LinkFaultRule rule;
  rule.kind = FaultKind::kDrop;
  rule.at_index = 0;
  plan->link_rules.push_back(rule);
  machine.fabric().set_fault_plan(plan);

  EXPECT_THROW(machine.run([](net::NodeContext& node) {
    mpi::Communicator comm(node);
    if (node.rank() == 0) {
      comm.send_value(1.0f, 1, 7);
    } else {
      (void)comm.recv_value<float>(0, 7);
    }
  }),
               CommError);
}

// --- end-to-end: the integration pipeline under fault plans ----------------

/// Order-insensitive structural projection of a trace: virtual
/// timestamps jitter run to run (they are measured thread CPU time), so
/// the determinism contract covers event content, not times.
std::vector<std::tuple<int, int, int, int, std::uint64_t, std::string>>
trace_shape(const viz::Trace& trace) {
  std::vector<std::tuple<int, int, int, int, std::uint64_t, std::string>>
      shape;
  shape.reserve(trace.events().size());
  for (const viz::Event& e : trace.events()) {
    shape.emplace_back(static_cast<int>(e.kind), e.node, e.function_id,
                       e.iteration, e.bytes, e.label);
  }
  std::sort(shape.begin(), shape.end());
  return shape;
}

runtime::RunStats run_cornerturn(const runtime::ExecuteOptions& options,
                                 int runs = 1) {
  core::Project project(apps::make_cornerturn_workspace(64, 4));
  auto session = project.open_session(options);
  runtime::RunStats stats = session->run();
  for (int r = 1; r < runs; ++r) stats = session->run();
  return stats;
}

TEST(FaultPipelineTest, EmptyPlanIsBitIdenticalAcrossBufferPolicies) {
  for (const runtime::BufferPolicy policy :
       {runtime::BufferPolicy::kUniquePerFunction,
        runtime::BufferPolicy::kShared}) {
    runtime::ExecuteOptions options;
    options.iterations = 2;
    options.buffer_policy = policy;

    const runtime::RunStats baseline = run_cornerturn(options);

    runtime::ExecuteOptions with_plan = options;
    with_plan.fault_plan = std::make_shared<const FaultPlan>();  // inactive
    const runtime::RunStats planned = run_cornerturn(with_plan);

    EXPECT_EQ(planned.results, baseline.results)
        << "policy " << runtime::to_string(policy);
    EXPECT_EQ(planned.fabric_messages, baseline.fabric_messages);
    EXPECT_EQ(planned.fabric_bytes, baseline.fabric_bytes);
    EXPECT_EQ(trace_shape(planned.trace), trace_shape(baseline.trace));
    EXPECT_EQ(planned.faults, runtime::FaultStats());
  }
}

std::shared_ptr<const FaultPlan> chaos_plan(std::uint64_t seed) {
  auto plan = std::make_shared<FaultPlan>();
  plan->seed = seed;
  LinkFaultRule drop;
  drop.kind = FaultKind::kDrop;
  drop.probability = 0.05;
  plan->link_rules.push_back(drop);
  LinkFaultRule corrupt;
  corrupt.kind = FaultKind::kCorrupt;
  corrupt.probability = 0.05;
  corrupt.corrupt_bytes = 4;
  plan->link_rules.push_back(corrupt);
  LinkFaultRule delay;
  delay.kind = FaultKind::kDelay;
  delay.probability = 0.1;
  delay.delay_vt = 1e-4;
  plan->link_rules.push_back(delay);
  net::StallRule stall;
  stall.node = 1;
  stall.iteration = 0;
  stall.stall_vt = 1e-3;
  plan->stall_rules.push_back(stall);
  return plan;
}

TEST(FaultPipelineTest, ChaosRunsRecoverTheCleanChecksums) {
  runtime::ExecuteOptions clean;
  clean.iterations = 3;
  const runtime::RunStats baseline = run_cornerturn(clean);

  runtime::ExecuteOptions chaotic = clean;
  chaotic.fault_plan = chaos_plan(0xC0FFEE);
  const runtime::RunStats stats = run_cornerturn(chaotic);

  // Every transfer eventually delivered a clean frame, so the sink
  // checksums equal the fault-free run's exactly.
  EXPECT_EQ(stats.results, baseline.results);
  // And the plan actually did something.
  const runtime::FaultStats& f = stats.faults;
  EXPECT_GT(f.injected_drops + f.injected_corruptions + f.injected_delays,
            0u);
  EXPECT_EQ(f.retries, f.injected_drops + f.injected_corruptions);
  EXPECT_EQ(f.timeouts, f.injected_drops);
  EXPECT_EQ(f.stalls, 1u);  // node 1, iteration 0
  EXPECT_GT(stats.trace.events_of_kind(viz::EventKind::kFault).size(), 0u);
  EXPECT_GT(stats.trace.events_of_kind(viz::EventKind::kRetry).size(), 0u);
}

TEST(FaultPipelineTest, SameSeedIsDeterministicAcrossFreshSessions) {
  runtime::ExecuteOptions options;
  options.iterations = 3;
  options.fault_plan = chaos_plan(1234);

  const runtime::RunStats a = run_cornerturn(options);
  const runtime::RunStats b = run_cornerturn(options);
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.fabric_messages, b.fabric_messages);
  EXPECT_EQ(a.fabric_bytes, b.fabric_bytes);
  EXPECT_EQ(trace_shape(a.trace), trace_shape(b.trace));
}

TEST(FaultPipelineTest, WarmRerunRepeatsTheSameFaults) {
  runtime::ExecuteOptions options;
  options.iterations = 2;
  options.fault_plan = chaos_plan(777);

  core::Project project(apps::make_cornerturn_workspace(64, 4));
  auto session = project.open_session(options);
  const runtime::RunStats first = session->run();
  const runtime::RunStats second = session->run();
  // Fabric::reset() restarts the per-link sequence counters, so a warm
  // re-run replays the identical fault schedule.
  EXPECT_EQ(second.results, first.results);
  EXPECT_EQ(second.faults, first.faults);
  EXPECT_EQ(second.fabric_messages, first.fabric_messages);
}

TEST(FaultPipelineTest, PerRunPlanOverridesSessionPlan) {
  runtime::ExecuteOptions options;
  options.iterations = 2;
  options.fault_plan = chaos_plan(42);

  core::Project project(apps::make_cornerturn_workspace(64, 4));
  auto session = project.open_session(options);
  const runtime::RunStats faulted = session->run();
  EXPECT_GT(faulted.faults.retries + faulted.faults.injected_delays, 0u);

  runtime::RunOverrides no_faults;
  no_faults.fault_plan = std::shared_ptr<const FaultPlan>();  // disable
  const runtime::RunStats clean = session->run(no_faults);
  EXPECT_EQ(clean.faults, runtime::FaultStats());
  EXPECT_EQ(clean.results, faulted.results);
}

TEST(FaultPipelineTest, CreditFlowPathRecoversUnderFaults) {
  runtime::ExecuteOptions clean;
  clean.iterations = 4;
  clean.buffer_depth = 1;  // credits in play on every remote channel
  const runtime::RunStats baseline = run_cornerturn(clean);

  runtime::ExecuteOptions chaotic = clean;
  chaotic.fault_plan = chaos_plan(0xFEED);
  const runtime::RunStats stats = run_cornerturn(chaotic);
  EXPECT_EQ(stats.results, baseline.results);
  EXPECT_GT(stats.faults.retries + stats.faults.injected_delays, 0u);
}

// --- degraded mode ---------------------------------------------------------

TEST(DegradedModeTest, DeadNodeRunCompletesOnSurvivors) {
  runtime::ExecuteOptions clean;
  clean.iterations = 2;
  const runtime::RunStats baseline = run_cornerturn(clean);

  auto plan = std::make_shared<FaultPlan>();
  plan->dead_nodes.push_back(3);
  runtime::ExecuteOptions degraded = clean;
  degraded.fault_plan = plan;

  core::Project project(apps::make_cornerturn_workspace(64, 4));
  auto session = project.open_session(degraded);
  const runtime::RunStats stats = session->run();

  // The computation is placement-independent: survivors produce the
  // exact fault-free checksums.
  EXPECT_EQ(stats.results, baseline.results);
  EXPECT_EQ(stats.faults.degraded_nodes, 1);
  ASSERT_EQ(session->dead_nodes().size(), 1u);
  EXPECT_EQ(session->dead_nodes()[0], 3);
  // No function thread remains on the dead node.
  for (const runtime::FunctionConfig& fn : session->config().functions) {
    for (const int node : fn.thread_nodes) EXPECT_NE(node, 3);
  }
  EXPECT_EQ(stats.trace.events_of_kind(viz::EventKind::kRecovery).size(),
            1u);

  // Warm re-run in degraded mode stays deterministic.
  const runtime::RunStats again = session->run();
  EXPECT_EQ(again.results, stats.results);
  EXPECT_EQ(again.faults, stats.faults);
}

TEST(DegradedModeTest, ExplicitRecoverIsIdempotent) {
  core::Project project(apps::make_cornerturn_workspace(64, 4));
  runtime::ExecuteOptions options;
  options.iterations = 2;
  auto session = project.open_session(options);
  const runtime::RunStats baseline = session->run();

  const runtime::RecoveryReport first = session->recover({1});
  EXPECT_EQ(first.dead_nodes, std::vector<int>{1});
  EXPECT_GT(first.moved_threads, 0);
  const runtime::RecoveryReport second = session->recover({1});
  EXPECT_TRUE(second.dead_nodes.empty());
  EXPECT_EQ(second.moved_threads, 0);

  const runtime::RunStats degraded = session->run();
  EXPECT_EQ(degraded.results, baseline.results);
  EXPECT_EQ(degraded.faults.degraded_nodes, 1);
}

TEST(DegradedModeTest, RecoverRejectsKillingEveryNode) {
  core::Project project(apps::make_cornerturn_workspace(32, 2));
  auto session = project.open_session();
  EXPECT_THROW(session->recover({0, 1}), RuntimeError);
  EXPECT_THROW(session->recover({5}), RuntimeError);
}

TEST(DegradedModeTest, ProjectRemapOnSurvivorsAvoidsDeadRanks) {
  core::Project project(apps::make_cornerturn_workspace(64, 4));
  runtime::ExecuteOptions options;
  options.iterations = 2;
  const runtime::RunStats baseline = project.execute(options);

  const atot::CostBreakdown cost = project.remap_on_survivors({0});
  EXPECT_GT(cost.max_load, 0.0);
  EXPECT_LT(cost.objective, 1e6);  // no dead-task penalty incurred

  // The regenerated glue places nothing on the dead rank and still
  // reproduces the baseline checksums.
  auto session = project.open_session(options);
  for (const runtime::FunctionConfig& fn : session->config().functions) {
    for (const int node : fn.thread_nodes) EXPECT_NE(node, 0);
  }
  const runtime::RunStats remapped = session->run();
  EXPECT_EQ(remapped.results, baseline.results);
}

}  // namespace
}  // namespace sage
