// Cross-backend transport suite: the same CompiledProgram must produce
// bit-identical results over the in-process fabric and the shared-memory
// rings between forked node processes -- fresh and warm, clean and under
// an active FaultPlan. Plus the Fabric::reset() contract regression
// tests (a warm re-run after a faulted run reports zeroed counters,
// never carried-over ones) and the kill -9 drill: SIGKILL of a real
// shmem node process surfaces as CommError and hands off to the
// existing recover() machinery.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/benchmarks.hpp"
#include "core/project.hpp"
#include "net/fabric.hpp"
#include "net/fault.hpp"
#include "net/transport.hpp"
#include "runtime/session.hpp"
#include "support/error.hpp"

#ifdef __linux__
#include <signal.h>
#endif

namespace sage {
namespace {

using net::TransportKind;
using runtime::ExecuteOptions;
using runtime::RunOverrides;
using runtime::RunStats;

// --- unit coverage ----------------------------------------------------------

TEST(TransportKindTest, ParseRoundTripsEveryBackend) {
  for (const TransportKind kind :
       {TransportKind::kInProc, TransportKind::kShmem}) {
    const auto parsed = net::parse_transport_kind(net::to_string(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(net::parse_transport_kind("carrier-pigeon").has_value());
  EXPECT_FALSE(net::parse_transport_kind("").has_value());
}

TEST(TransportKindTest, OnlyTheTwoBackendSpellingsParse) {
  EXPECT_STREQ(net::to_string(TransportKind::kInProc), "inproc");
  EXPECT_STREQ(net::to_string(TransportKind::kShmem), "shmem");
  // The loopback TCP backend is gone; its old spelling is unknown now.
  EXPECT_FALSE(net::parse_transport_kind("tcp").has_value());
  // Spellings are exact: no case folding, no trimming.
  EXPECT_FALSE(net::parse_transport_kind("Shmem").has_value());
  EXPECT_FALSE(net::parse_transport_kind("inproc ").has_value());
}

TEST(TransportKindTest, ParcelMetaRoundTrips) {
  net::BufferPool pool;
  net::Parcel parcel;
  parcel.src = 3;
  parcel.tag = 0x7fff0001;
  parcel.arrival_vt = 1.25e-3;
  parcel.fault = net::FaultKind::kCorrupt;
  parcel.attempt = 2;
  const std::string body = "payload-bytes";
  parcel.payload = pool.copy_of(std::as_bytes(std::span(body)));

  std::vector<std::byte> meta(net::kParcelMetaBytes);
  const std::uint64_t h1 = net::encode_parcel_meta(parcel, meta);
  const std::uint64_t h2 =
      net::fnv1a_accum(net::kFnvOffsetBasis, meta.data(), meta.size());
  EXPECT_EQ(h1, h2);

  net::Parcel out;
  const std::size_t promised = net::decode_parcel_meta(meta, out);
  EXPECT_EQ(promised, body.size());
  EXPECT_EQ(out.src, parcel.src);
  EXPECT_EQ(out.tag, parcel.tag);
  EXPECT_EQ(out.arrival_vt, parcel.arrival_vt);
  EXPECT_EQ(out.fault, parcel.fault);
  EXPECT_EQ(out.attempt, parcel.attempt);
}

// --- cross-backend bit-identity matrix --------------------------------------
// fft2d + cornerturn x {inproc, shmem} x {fresh, warm} x {clean,
// FaultPlan}: identical sink checksums and identical deterministic
// counters everywhere. The fabric computes arrival times, fault
// verdicts, and stats before the transport moves a byte, so nothing
// may vary with the mechanism.

std::unique_ptr<model::Workspace> make_workspace(const std::string& app) {
  if (app == "fft2d") return apps::make_fft2d_workspace(64, 2);
  return apps::make_cornerturn_workspace(64, 2);
}

std::shared_ptr<const net::FaultPlan> chaos_plan() {
  return std::make_shared<const net::FaultPlan>(net::FaultPlan::parse(
      "fault-plan 1\n"
      "seed 42\n"
      "drop link=* p=0.25\n"
      "corrupt link=* p=0.25 bytes=4\n"
      "delay link=* p=0.25 vt=1e-4\n"));
}

ExecuteOptions matrix_options(TransportKind kind, bool faulty) {
  ExecuteOptions options;
  options.iterations = 3;
  options.collect_trace = false;
  options.recv_timeout_s = 30.0;
  options.transport.kind = kind;
  // Small rings force large frames (the 64x64 complex matrix payloads)
  // to stream through in chunks -- the chunking path is always on.
  options.transport.shmem_ring_bytes = 4096;
  if (faulty) options.fault_plan = chaos_plan();
  return options;
}

/// The deterministic signature of one run: everything that must be
/// bit-identical across backends.
struct RunSignature {
  std::map<std::string, std::vector<double>> results;
  std::uint64_t fabric_messages = 0;
  std::uint64_t fabric_bytes = 0;
  runtime::FaultStats faults;

  bool operator==(const RunSignature&) const = default;
};

RunSignature signature_of(const RunStats& stats) {
  return {stats.results, stats.fabric_messages, stats.fabric_bytes,
          stats.faults};
}

struct MatrixCase {
  std::string app;
  bool faulty = false;
};

// gtest prints a parameter with no printer as its raw bytes -- heap
// addresses for a std::string -- and the printed value becomes part of
// each case's ctest name, so print the case itself.
void PrintTo(const MatrixCase& c, std::ostream* os) {
  *os << c.app << (c.faulty ? " faulty" : " clean");
}

std::string matrix_name(const ::testing::TestParamInfo<MatrixCase>& info) {
  return info.param.app + (info.param.faulty ? "_faultplan" : "_clean");
}

class TransportMatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(TransportMatrixTest, BackendsProduceBitIdenticalRuns) {
  const MatrixCase& param = GetParam();

  // Reference: the historical in-process path.
  std::vector<RunSignature> reference;  // fresh, warm
  for (const TransportKind kind :
       {TransportKind::kInProc, TransportKind::kShmem}) {
    core::Project project(make_workspace(param.app));
    auto session =
        project.open_session(matrix_options(kind, param.faulty));
    EXPECT_EQ(session->fabric().transport_kind(), kind);
    const RunSignature fresh = signature_of(session->run());
    const RunSignature warm = signature_of(session->run());

    // Within one backend: warm == fresh (the existing session
    // invariant, now pinned per backend -- this is what breaks if
    // Fabric::reset() forgets to flush an async transport).
    EXPECT_EQ(warm, fresh) << net::to_string(kind);

    if (reference.empty()) {
      reference = {fresh, warm};
      ASSERT_FALSE(fresh.results.empty());
      if (param.faulty) {
        EXPECT_GT(fresh.faults.injected_drops + fresh.faults.retries, 0u);
      }
    } else {
      EXPECT_EQ(fresh, reference[0]) << net::to_string(kind);
      EXPECT_EQ(warm, reference[1]) << net::to_string(kind);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, TransportMatrixTest,
                         ::testing::Values(MatrixCase{"fft2d", false},
                                           MatrixCase{"fft2d", true},
                                           MatrixCase{"cornerturn", false},
                                           MatrixCase{"cornerturn", true}),
                         matrix_name);

// --- Fabric::reset() contract -----------------------------------------------

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

TEST(FabricResetContractTest, ResetRestoresJustConstructedState) {
  net::Fabric fabric(2, net::ideal_fabric());
  fabric.set_fault_plan(std::make_shared<const net::FaultPlan>(
      net::FaultPlan::parse("fault-plan 1\n"
                            "seed 7\n"
                            "drop link=0->1 at=0\n")));

  fabric.send(0, 1, 1, bytes_of("dropped"), 0.0);   // at=0: injected drop
  fabric.send(0, 1, 2, bytes_of("clean"), 0.0);
  fabric.send_reliable(1, 0, 3, bytes_of("ok"), 0.0);
  ASSERT_GT(fabric.total_messages(), 0u);
  ASSERT_EQ(fabric.fault_counters().drops, 1u);
  ASSERT_FALSE(fabric.link_stats().empty());
  ASSERT_GT(fabric.pending(1), 0u);
  const std::uint64_t reserved_before = fabric.pool().stats().bytes_reserved;

  fabric.reset();

  // Every per-epoch counter back to zero...
  EXPECT_EQ(fabric.total_messages(), 0u);
  EXPECT_EQ(fabric.total_bytes(), 0u);
  EXPECT_EQ(fabric.fault_counters(), net::FaultCounters{});
  EXPECT_TRUE(fabric.link_stats().empty());
  EXPECT_EQ(fabric.pending(0), 0u);
  EXPECT_EQ(fabric.pending(1), 0u);
  // ...including the per-link fault sequence counters: the plan's
  // at=0 rule must fire again, exactly as on a fresh fabric.
  fabric.send(0, 1, 1, bytes_of("dropped-again"), 0.0);
  EXPECT_EQ(fabric.fault_counters().drops, 1u);
  // The payload pool deliberately survives (warm-path recycling).
  EXPECT_EQ(fabric.pool().stats().bytes_reserved, reserved_before);
}

TEST(FabricResetContractTest, WarmRunAfterFaultedRunReportsCleanCounters) {
  core::Project project(apps::make_cornerturn_workspace(64, 2));
  ExecuteOptions options;
  options.iterations = 3;
  options.collect_trace = false;

  auto session = project.open_session(options);
  RunOverrides faulted_request;
  faulted_request.fault_plan = chaos_plan();
  const RunStats faulted = session->run(faulted_request);
  ASSERT_GT(faulted.faults.injected_drops + faulted.faults.injected_corruptions +
                faulted.faults.injected_delays,
            0u);

  // The warm clean re-run must look exactly like a clean run on a
  // fresh session: no carried-over fault counters, totals, or link
  // history from the faulted epoch.
  const RunStats warm_clean = session->run();
  core::Project fresh_project(apps::make_cornerturn_workspace(64, 2));
  const RunStats fresh_clean = fresh_project.open_session(options)->run();

  EXPECT_EQ(warm_clean.faults, runtime::FaultStats{});
  EXPECT_EQ(signature_of(warm_clean), signature_of(fresh_clean));
}

// --- kill -9 a real node process --------------------------------------------

#ifdef __linux__
TEST(ShmemKillTest, KilledNodeProcessSurfacesAsCommErrorAndRecovers) {
  core::Project project(apps::make_cornerturn_workspace(64, 4));
  ExecuteOptions options;
  options.iterations = 2;
  options.collect_trace = false;
  options.recv_timeout_s = 5.0;  // the drill's failure-detection bound
  options.transport.kind = TransportKind::kShmem;

  auto session = project.open_session(options);
  const RunStats baseline = session->run();

  net::Transport& transport = session->fabric().transport();
  const long pid = transport.node_pid(3);
  ASSERT_GT(pid, 0);
  EXPECT_FALSE(transport.node_dead(3));
  ASSERT_EQ(kill(static_cast<pid_t>(pid), SIGKILL), 0);

  // The node's communication processor is gone: traffic into rank 3
  // dies on the wire, and the run surfaces it as CommError (either a
  // refused send or a receive timeout -- whichever the schedule hits
  // first).
  EXPECT_THROW(session->run(), CommError);
  EXPECT_TRUE(transport.node_dead(3));

  // The existing recovery machinery takes it from here: remap onto
  // survivors and keep producing the exact baseline checksums.
  const runtime::RecoveryReport report = session->recover({3});
  EXPECT_EQ(report.dead_nodes, std::vector<int>{3});
  EXPECT_GT(report.moved_threads, 0);
  const RunStats degraded = session->run();
  EXPECT_EQ(degraded.results, baseline.results);
  EXPECT_EQ(degraded.faults.degraded_nodes, 1);
}
#endif  // __linux__

}  // namespace
}  // namespace sage
