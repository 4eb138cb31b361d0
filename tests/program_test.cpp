// CompiledProgram tests: the serialized plan-blob format (byte-exact
// round trips over random graphs, versioned-header rejection of corrupt
// and truncated blobs, a committed binary golden), the content-addressed
// PlanCache (fail-soft loads, hit/miss provenance), and multi-session
// program sharing (concurrent executors on one immutable program stay
// bit-identical; recover() isolates its private recompile).
//
// Regenerate the golden after an intentional format change:
//
//   SAGE_UPDATE_GOLDEN=1 ./build/tests/program_test
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/benchmarks.hpp"
#include "core/project.hpp"
#include "model/app.hpp"
#include "model/hardware.hpp"
#include "model/mapping.hpp"
#include "runtime/compiler.hpp"
#include "runtime/program.hpp"
#include "runtime/session.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

#ifndef SAGE_GOLDEN_DIR
#error "SAGE_GOLDEN_DIR must be defined by the build"
#endif

namespace sage::runtime {
namespace {

using model::ModelObject;
using model::PortDirection;
using model::Striping;

/// Source whose element value is its global index.
void index_source(KernelContext& ctx) {
  PortSlice& out = ctx.out("out");
  auto data = out.as<float>();
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(out.global_of_local(i));
  }
}

/// Sink reporting slice sum + 1e9 penalty on any misplaced element.
void verify_sink(KernelContext& ctx) {
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
  registry.add("test.verify_sink", verify_sink);
  return registry;
}

/// A random identity chain in the random_graph_test mold: random node
/// count, stage count, stripe dims, and thread counts, lowered to a
/// GlueConfig through the real generator.
GlueConfig make_random_chain_config(std::uint64_t seed) {
  support::Rng rng(seed * 7919 + 3);
  const int nodes = rng.chance(0.5) ? 2 : 4;
  const int stages = 1 + static_cast<int>(rng.below(3));
  const std::vector<std::size_t> dims{16, 16};
  auto pick_threads = [&] {
    const int options[] = {1, 2, 4};
    return options[rng.below(3)];
  };
  auto pick_dim = [&] { return static_cast<int>(rng.below(2)); };
  auto add_float_port = [&](ModelObject& fn, const char* name,
                            PortDirection dir, int stripe_dim) {
    model::add_port(fn, name, dir, Striping::kStriped, "float", dims,
                    stripe_dim);
  };

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
  add_float_port(src, "out", PortDirection::kOut, pick_dim());
  assign_all("src", src_threads);

  std::string prev = "src";
  for (int s = 0; s < stages; ++s) {
    const std::string name = "stage" + std::to_string(s);
    const int threads = pick_threads();
    ModelObject& fn = model::add_function(app, name, "identity", threads);
    const int dim = pick_dim();
    add_float_port(fn, "in", PortDirection::kIn, dim);
    add_float_port(fn, "out", PortDirection::kOut, dim);
    model::connect(app, prev + ".out", name + ".in");
    assign_all(name, threads);
    prev = name;
  }

  const int sink_threads = pick_threads();
  ModelObject& sink =
      model::add_function(app, "sink", "test.verify_sink", sink_threads);
  sink.set_property("role", "sink");
  add_float_port(sink, "in", PortDirection::kIn, pick_dim());
  model::connect(app, prev + ".out", "sink.in");
  assign_all("sink", sink_threads);

  ws->validate_or_throw();
  core::Project project(std::move(ws));
  return project.generate().config;
}

GlueConfig make_cornerturn_config() {
  core::Project project(apps::make_cornerturn_workspace(64, 2));
  return project.generate().config;
}

ExecuteOptions quiet_options() {
  ExecuteOptions options;
  options.iterations = 2;
  options.collect_trace = false;
  return options;
}

/// The blob's own checksum primitive, reimplemented so reject tests can
/// re-seal a tampered blob (to prove the *field* checks fire, not just
/// the checksum).
std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Recomputes and patches the trailing whole-blob checksum.
std::string reseal(std::string blob) {
  const std::uint64_t sum = fnv1a(std::string_view(blob).substr(
      0, blob.size() - sizeof(std::uint64_t)));
  std::memcpy(blob.data() + blob.size() - sizeof sum, &sum, sizeof sum);
  return blob;
}

// --- serialization: round trip ---------------------------------------------

class ProgramSerializeTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ProgramSerializeTest, ::testing::Range(0, 8));

TEST_P(ProgramSerializeTest, RandomGraphRoundTripIsByteExact) {
  const GlueConfig config =
      make_random_chain_config(static_cast<std::uint64_t>(GetParam()));
  const FunctionRegistry registry = test_registry();
  const auto program = Compiler::compile(config, registry);
  ASSERT_NE(program, nullptr);
  EXPECT_NE(program->fingerprint, 0u);

  const std::string blob = program->serialize();
  const auto restored = CompiledProgram::deserialize(blob);
  ASSERT_NE(restored, nullptr);

  // The round-trip property the plan cache rests on: serializing the
  // deserialized program reproduces the blob byte for byte.
  EXPECT_EQ(restored->serialize(), blob) << "seed " << GetParam();

  // Structural spot checks (the byte equality already implies these,
  // but failures here localize a divergence).
  EXPECT_EQ(restored->fingerprint, program->fingerprint);
  EXPECT_EQ(serialize(restored->config), serialize(program->config));
  EXPECT_EQ(restored->buffers.size(), program->buffers.size());
  EXPECT_EQ(restored->ops.size(), program->ops.size());
  EXPECT_EQ(restored->slot_base, program->slot_base);
  EXPECT_EQ(restored->total_staging_slots, program->total_staging_slots);
  EXPECT_EQ(restored->fn_thread_base, program->fn_thread_base);
  EXPECT_EQ(restored->recv_ops_of, program->recv_ops_of);
  EXPECT_EQ(restored->send_ops_of, program->send_ops_of);
}

TEST(ProgramSerializeTest, SerializationIsDeterministic) {
  const GlueConfig config = make_cornerturn_config();
  const FunctionRegistry registry = standard_registry();
  EXPECT_EQ(Compiler::compile(config, registry)->serialize(),
            Compiler::compile(config, registry)->serialize());
}

TEST(ProgramSerializeTest, ProvenanceIsNotPartOfTheBlob) {
  // compile_seconds / cache_outcome are process-local provenance; two
  // programs differing only there must serialize identically.
  const GlueConfig config = make_cornerturn_config();
  const auto program = Compiler::compile(config, standard_registry());
  auto stamped = std::make_shared<CompiledProgram>(*program);
  stamped->compile_seconds = 123.0;
  stamped->cache_outcome = PlanCacheOutcome::kHit;
  EXPECT_EQ(stamped->serialize(), program->serialize());
}

// --- serialization: versioned-header rejection ------------------------------

TEST(ProgramSerializeTest, RejectsTruncatedBlob) {
  const std::string blob =
      Compiler::lower(make_cornerturn_config())->serialize();
  // Every proper prefix must be rejected at one of the layers: the
  // minimum-size check, the checksum, or a bounds-checked field read.
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{7}, std::size_t{15}, std::size_t{40},
        blob.size() / 2, blob.size() - 1}) {
    EXPECT_THROW(CompiledProgram::deserialize(
                     std::string_view(blob).substr(0, len)),
                 RuntimeError)
        << "prefix of " << len << " bytes was accepted";
  }
}

TEST(ProgramSerializeTest, RejectsBadMagic) {
  std::string blob = Compiler::lower(make_cornerturn_config())->serialize();
  blob[0] = 'X';
  EXPECT_THROW(CompiledProgram::deserialize(blob), RuntimeError);
}

TEST(ProgramSerializeTest, RejectsUnsupportedFormatVersion) {
  std::string blob = Compiler::lower(make_cornerturn_config())->serialize();
  // The u32 format version sits right after the 8-byte magic. Bump it
  // and re-seal the checksum so the *version* check is what fires.
  blob[8] = static_cast<char>(blob[8] + 1);
  EXPECT_THROW(CompiledProgram::deserialize(reseal(std::move(blob))),
               RuntimeError);
}

TEST(ProgramSerializeTest, RejectsFlippedByteAnywhere) {
  const std::string blob =
      Compiler::lower(make_cornerturn_config())->serialize();
  // A single flipped bit in the header, a length field, or deep inside
  // an array payload must fail the whole-blob checksum.
  for (const std::size_t pos :
       {std::size_t{9}, std::size_t{20}, blob.size() / 3, blob.size() / 2,
        blob.size() - 9}) {
    std::string corrupt = blob;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
    EXPECT_THROW(CompiledProgram::deserialize(corrupt), RuntimeError)
        << "flip at offset " << pos << " was accepted";
  }
}

TEST(ProgramSerializeTest, RejectsTrailingGarbage) {
  std::string blob = Compiler::lower(make_cornerturn_config())->serialize();
  blob += "extra";
  EXPECT_THROW(CompiledProgram::deserialize(blob), RuntimeError);
}

// --- serialization: binary golden -------------------------------------------

bool update_goldens() {
  const char* env = std::getenv("SAGE_UPDATE_GOLDEN");
  return env != nullptr && *env != '\0' && *env != '0';
}

TEST(ProgramGoldenTest, CornerturnPlanBlobMatchesGolden) {
  // The blob format is host-specific (size_t width, endianness), so the
  // golden pins the layout only on the 64-bit little-endian hosts the
  // suite runs on.
  const std::uint16_t probe = 1;
  if (sizeof(std::size_t) != 8 ||
      *reinterpret_cast<const std::uint8_t*>(&probe) != 1) {
    GTEST_SKIP() << "golden is 64-bit little-endian";
  }

  // Lowered (fingerprint 0) so the golden does not depend on the
  // standard registry's kernel roster.
  const std::string actual =
      Compiler::lower(make_cornerturn_config())->serialize();
  const std::string path =
      std::string(SAGE_GOLDEN_DIR) + "/cornerturn_64x2.plan";

  if (update_goldens()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_LOG_(INFO) << "updated golden " << path;
    return;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "cannot read golden " << path
                         << " (set SAGE_UPDATE_GOLDEN=1 to (re)generate)";
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string expected = buf.str();

  if (actual == expected) {
    // And the committed bytes must still deserialize + round-trip.
    EXPECT_EQ(CompiledProgram::deserialize(expected)->serialize(), expected);
    return;
  }
  std::size_t off = 0;
  while (off < actual.size() && off < expected.size() &&
         actual[off] == expected[off]) {
    ++off;
  }
  ADD_FAILURE() << "plan blob diverges from golden at byte " << off
                << " (golden " << expected.size() << " bytes, actual "
                << actual.size()
                << "); bump kPlanFormatVersion for layout changes and "
                   "regenerate with SAGE_UPDATE_GOLDEN=1";
}

// --- one node's share -------------------------------------------------------

/// One line per step: kind, firing (function.thread) and op with its
/// peer node.
std::vector<std::string> render_steps(const CompiledProgram& program,
                                      const NodeProgram& lowered) {
  std::vector<std::string> lines;
  for (const Step& step : lowered.steps) {
    const NodeFiring& firing =
        lowered.firings[static_cast<std::size_t>(step.firing)];
    const std::string at = program.config.function(firing.fn_id).name + "." +
                           std::to_string(firing.thread);
    if (step.kind == StepKind::kFire) {
      lines.push_back("fire " + at);
      continue;
    }
    const TransferOp& op = program.ops[static_cast<std::size_t>(step.op)];
    const std::string op_at = at + " op" + std::to_string(step.op);
    if (step.kind == StepKind::kReceive) {
      lines.push_back("receive " + op_at + " <- n" +
                      std::to_string(op.src_node));
    } else if (step.kind == StepKind::kSend) {
      lines.push_back("send " + op_at + " -> n" + std::to_string(op.dst_node));
    } else {
      lines.push_back("deliver " + op_at);
    }
  }
  return lines;
}

TEST(NodeProgramTest, CornerturnGoldenStepListsArePinned) {
  const auto program = CompiledProgram::deserialize([] {
    std::ifstream in(std::string(SAGE_GOLDEN_DIR) + "/cornerturn_64x2.plan",
                     std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }());
  // src | corner_turn | sink, one thread of each per node. Each src
  // thread keeps its own half locally and sends the other; the head is
  // everything before corner_turn's receive.
  const std::vector<std::vector<std::string>> expected = {
      {"fire src.0", "deliver src.0 op0", "send src.0 op1 -> n1",
       "receive corner_turn.0 op2 <- n1", "fire corner_turn.0",
       "deliver corner_turn.0 op4", "fire sink.0"},
      {"fire src.1", "send src.1 op2 -> n0", "deliver src.1 op3",
       "receive corner_turn.1 op1 <- n0", "fire corner_turn.1",
       "deliver corner_turn.1 op5", "fire sink.1"},
  };
  ASSERT_EQ(program->config.nodes, 2);
  for (int node = 0; node < 2; ++node) {
    SCOPED_TRACE("node " + std::to_string(node));
    const NodeProgram lowered = lower_node(*program, node);
    EXPECT_EQ(render_steps(*program, lowered),
              expected[static_cast<std::size_t>(node)]);
    EXPECT_EQ(lowered.head, 3u);
  }
}

// --- plan cache -------------------------------------------------------------

/// Fresh scratch directory under the build tree, removed on scope exit.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_("program_test_scratch_" + name) {
    std::filesystem::remove_all(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(PlanCacheTest, StoreThenLoadRoundTrips) {
  const ScratchDir dir("store_load");
  const GlueConfig config = make_cornerturn_config();
  const FunctionRegistry registry = standard_registry();
  const auto program = Compiler::compile(config, registry);
  const std::uint64_t key = Compiler::fingerprint(config, registry);
  EXPECT_EQ(key, program->fingerprint);

  const PlanCache cache(dir.path());
  EXPECT_EQ(cache.load(key), nullptr);  // empty cache: miss, no error
  ASSERT_TRUE(cache.store(key, *program));
  EXPECT_TRUE(std::filesystem::exists(cache.path_of(key)));

  const auto loaded = cache.load(key);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->serialize(), program->serialize());
}

TEST(PlanCacheTest, CorruptOrTruncatedEntryIsAMissNotAnError) {
  const ScratchDir dir("corrupt");
  const GlueConfig config = make_cornerturn_config();
  const FunctionRegistry registry = standard_registry();
  const auto program = Compiler::compile(config, registry);
  const std::uint64_t key = program->fingerprint;
  const PlanCache cache(dir.path());
  ASSERT_TRUE(cache.store(key, *program));

  // Truncate the entry on disk: load must fail soft.
  const std::string path = cache.path_of(key);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  EXPECT_EQ(cache.load(key), nullptr);

  // Replace it with garbage of plausible size: still a miss.
  std::ofstream(path, std::ios::binary) << std::string(4096, 'x');
  EXPECT_EQ(cache.load(key), nullptr);
}

TEST(PlanCacheTest, MismatchedKeyIsAMiss) {
  // An entry renamed (or hash-collided) onto the wrong key must not be
  // served: the blob's own fingerprint has to match the key asked for.
  const ScratchDir dir("wrong_key");
  const GlueConfig config = make_cornerturn_config();
  const FunctionRegistry registry = standard_registry();
  const auto program = Compiler::compile(config, registry);
  const PlanCache cache(dir.path());
  const std::uint64_t wrong = program->fingerprint ^ 1u;
  ASSERT_TRUE(cache.store(wrong, *program));
  EXPECT_EQ(cache.load(wrong), nullptr);
}

TEST(PlanCacheTest, FingerprintTracksConfigAndRegistry) {
  const GlueConfig cornerturn = make_cornerturn_config();
  const FunctionRegistry registry = standard_registry();
  EXPECT_EQ(Compiler::fingerprint(cornerturn, registry),
            Compiler::fingerprint(cornerturn, registry));

  core::Project fft(apps::make_fft2d_workspace(64, 2));
  EXPECT_NE(Compiler::fingerprint(fft.generate().config, registry),
            Compiler::fingerprint(cornerturn, registry));

  EXPECT_NE(Compiler::fingerprint(cornerturn, test_registry()),
            Compiler::fingerprint(cornerturn, registry));
}

TEST(PlanCacheTest, ConcurrentCompileOrLoadStoresExactlyOnce) {
  // Two threads race compile_or_load on one key. The cache must end up
  // with exactly one entry (no temp residue -- writer-unique temp names
  // plus the already-stored pre-check make stores idempotent), and both
  // threads must hold byte-identical programs.
  const ScratchDir dir("concurrent");
  const GlueConfig config = make_cornerturn_config();
  const FunctionRegistry registry = standard_registry();
  const std::uint64_t key = Compiler::fingerprint(config, registry);

  std::array<std::shared_ptr<const CompiledProgram>, 2> programs;
  std::atomic<int> ready{0};
  std::array<std::thread, 2> racers;
  for (std::size_t t = 0; t < racers.size(); ++t) {
    racers[t] = std::thread([&, t] {
      ready.fetch_add(1);
      while (ready.load() < 2) {
      }  // line both threads up on the same race window
      programs[t] = compile_or_load(config, registry, dir.path());
    });
  }
  for (std::thread& racer : racers) racer.join();

  ASSERT_NE(programs[0], nullptr);
  ASSERT_NE(programs[1], nullptr);
  EXPECT_EQ(programs[0]->fingerprint, key);
  EXPECT_EQ(programs[1]->fingerprint, key);
  EXPECT_EQ(programs[0]->serialize(), programs[1]->serialize());

  // Exactly one store: the one .plan entry, zero temp files left over.
  int plans = 0;
  int residue = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    if (entry.path().extension() == ".plan") {
      ++plans;
    } else {
      ++residue;
    }
  }
  EXPECT_EQ(plans, 1);
  EXPECT_EQ(residue, 0);
  const auto cached = PlanCache(dir.path()).load(key);
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(cached->serialize(), programs[0]->serialize());
}

TEST(PlanCacheTest, StoreIsFailSoftAroundCorruptTempAndEntries) {
  const ScratchDir dir("fail_soft");
  const GlueConfig config = make_cornerturn_config();
  const FunctionRegistry registry = standard_registry();
  const auto program = Compiler::compile(config, registry);
  const std::uint64_t key = program->fingerprint;
  const PlanCache cache(dir.path());

  // A crashed writer's corrupted temp file (the pre-fix fixed-suffix
  // name) must not poison a later store: unique temp names never touch
  // it, and the stored entry round-trips clean.
  std::filesystem::create_directories(dir.path());
  std::ofstream(cache.path_of(key) + ".tmp", std::ios::binary)
      << std::string(512, 'x');
  ASSERT_TRUE(cache.store(key, *program));
  const auto loaded = cache.load(key);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->serialize(), program->serialize());

  // A corrupted *entry* reads as a miss, and the next compile_or_load
  // repairs it in place (the pre-check skips only *valid* entries).
  std::ofstream(cache.path_of(key), std::ios::binary | std::ios::trunc)
      << std::string(4096, 'y');
  EXPECT_EQ(cache.load(key), nullptr);
  const auto repaired = compile_or_load(config, registry, dir.path());
  EXPECT_EQ(repaired->cache_outcome, PlanCacheOutcome::kMiss);
  const auto healthy = cache.load(key);
  ASSERT_NE(healthy, nullptr);
  EXPECT_EQ(healthy->serialize(), repaired->serialize());

  // Storing over a valid entry is an idempotent no-op that reports
  // success.
  EXPECT_TRUE(cache.store(key, *program));
  EXPECT_NE(cache.load(key), nullptr);
}

TEST(PlanCacheTest, CompileOrLoadStampsProvenance) {
  const ScratchDir dir("provenance");
  const GlueConfig config = make_cornerturn_config();
  const FunctionRegistry registry = standard_registry();

  const auto direct = compile_or_load(config, registry, "");
  EXPECT_EQ(direct->cache_outcome, PlanCacheOutcome::kNotConsulted);
  EXPECT_FALSE(direct->from_cache());
  EXPECT_GT(direct->compile_seconds, 0.0);

  const auto miss = compile_or_load(config, registry, dir.path());
  EXPECT_EQ(miss->cache_outcome, PlanCacheOutcome::kMiss);
  EXPECT_TRUE(std::filesystem::exists(
      PlanCache(dir.path()).path_of(miss->fingerprint)));

  const auto hit = compile_or_load(config, registry, dir.path());
  EXPECT_EQ(hit->cache_outcome, PlanCacheOutcome::kHit);
  EXPECT_TRUE(hit->from_cache());
  EXPECT_EQ(hit->fingerprint, miss->fingerprint);
  EXPECT_EQ(hit->serialize(), miss->serialize());
}

// --- execution equivalence and sharing --------------------------------------

/// The deterministic slice of a run: sink checksums and fabric totals
/// (virtual times are measured from host time and excluded).
struct RunDigest {
  std::map<std::string, std::vector<double>> results;
  std::uint64_t fabric_messages = 0;
  std::uint64_t fabric_bytes = 0;

  bool operator==(const RunDigest&) const = default;
};

RunDigest digest(const RunStats& stats) {
  return {stats.results, stats.fabric_messages, stats.fabric_bytes};
}

TEST(ProgramSharingTest, TwoSessionsOneProgramRunConcurrentlyBitIdentical) {
  const GlueConfig config = make_cornerturn_config();
  const FunctionRegistry registry = standard_registry();
  const auto program = Compiler::compile(config, registry);

  // Reference: a solo session on a private compile of the same config.
  Session reference(config, registry, quiet_options());
  const RunDigest expected = digest(reference.run());

  Session a(program, registry, quiet_options());
  Session b(program, registry, quiet_options());
  EXPECT_EQ(a.program_ptr(), b.program_ptr());
  EXPECT_GE(program.use_count(), 3);  // both executors share, never copy

  // Each session is driven by its own host thread; the shared program
  // is read-only, which is exactly what TSan checks here.
  constexpr int kRuns = 2;
  std::vector<RunDigest> from_a(kRuns);
  std::vector<RunDigest> from_b(kRuns);
  std::thread ta([&] {
    for (int r = 0; r < kRuns; ++r) from_a[r] = digest(a.run());
  });
  std::thread tb([&] {
    for (int r = 0; r < kRuns; ++r) from_b[r] = digest(b.run());
  });
  ta.join();
  tb.join();

  for (int r = 0; r < kRuns; ++r) {
    EXPECT_EQ(from_a[r], expected) << "session a, run " << r;
    EXPECT_EQ(from_b[r], expected) << "session b, run " << r;
  }
}

TEST(ProgramSharingTest, ProgramIsImmutableAcrossRuns) {
  const GlueConfig config = make_cornerturn_config();
  const FunctionRegistry registry = standard_registry();
  const auto program = Compiler::compile(config, registry);
  const std::string before = program->serialize();

  Session session(program, registry, quiet_options());
  session.run();
  session.run();
  EXPECT_EQ(program->serialize(), before)
      << "executing a session mutated the shared program";
}

TEST(ProgramSharingTest, CacheHitSessionMatchesCacheMissSession) {
  const ScratchDir dir("hit_vs_miss");
  const GlueConfig config = make_cornerturn_config();
  const FunctionRegistry registry = standard_registry();

  ExecuteOptions options = quiet_options();
  options.plan_cache_dir = dir.path();

  Session miss(config, registry, options);
  ASSERT_EQ(miss.program().cache_outcome, PlanCacheOutcome::kMiss);
  Session hit(config, registry, options);
  ASSERT_EQ(hit.program().cache_outcome, PlanCacheOutcome::kHit);
  Session off(config, registry, quiet_options());
  ASSERT_EQ(off.program().cache_outcome, PlanCacheOutcome::kNotConsulted);

  const RunDigest from_miss = digest(miss.run());
  EXPECT_EQ(digest(hit.run()), from_miss);
  EXPECT_EQ(digest(off.run()), from_miss);
}

TEST(ProgramSharingTest, DeserializedProgramExecutesIdentically) {
  const GlueConfig config = make_cornerturn_config();
  const FunctionRegistry registry = standard_registry();
  const auto program = Compiler::compile(config, registry);

  Session original(program, registry, quiet_options());
  const RunDigest expected = digest(original.run());

  const auto restored = CompiledProgram::deserialize(program->serialize());
  Session session(restored, registry, quiet_options());
  EXPECT_EQ(digest(session.run()), expected);
}

TEST(ProgramSharingTest, RecoverCompilesAPrivateProgram) {
  const GlueConfig config = make_cornerturn_config();
  const FunctionRegistry registry = standard_registry();
  const auto program = Compiler::compile(config, registry);

  Session untouched(program, registry, quiet_options());
  const RunDigest expected = digest(untouched.run());

  Session degraded(program, registry, quiet_options());
  degraded.recover({1});

  // recover() swaps in a session-private recompile; the shared program
  // and its co-executors are unaffected.
  EXPECT_NE(degraded.program_ptr(), program);
  EXPECT_EQ(degraded.program().fingerprint, 0u);
  EXPECT_EQ(untouched.program_ptr(), program);
  EXPECT_EQ(program->serialize(),
            Compiler::compile(config, registry)->serialize());

  degraded.run();  // degraded placement still executes
  EXPECT_EQ(digest(untouched.run()), expected)
      << "co-executor drifted after a sibling's recover()";
}

TEST(ProgramSharingTest, CompileMetricsSurfaceInRunStats) {
  const ScratchDir dir("metrics");
  const GlueConfig config = make_cornerturn_config();
  const FunctionRegistry registry = standard_registry();

  ExecuteOptions options = quiet_options();
  options.plan_cache_dir = dir.path();
  Session miss(config, registry, options);
  const RunStats stats = miss.run();

  const viz::MetricValue* compile =
      stats.metrics.find(viz::families::kProgramCompileSeconds);
  ASSERT_NE(compile, nullptr);
  EXPECT_GT(compile->value, 0.0);
  EXPECT_TRUE(compile->time_based);

  const viz::MetricValue* lookup =
      stats.metrics.find(viz::families::kPlanCacheLookups,
                         {{"outcome", "miss"}});
  ASSERT_NE(lookup, nullptr);
  EXPECT_GT(lookup->value, 0.0);
  EXPECT_TRUE(lookup->time_based);

  Session hit(config, registry, options);
  const RunStats hit_stats = hit.run();
  EXPECT_NE(hit_stats.metrics.find(viz::families::kPlanCacheLookups,
                                   {{"outcome", "hit"}}),
            nullptr);

  // recover() swaps in a program compiled without the cache: later runs
  // count no lookup for it, and the compile time is the new program's.
  hit.recover({1});
  const RunStats recovered = hit.run();
  const viz::MetricValue* stale = recovered.metrics.find(
      viz::families::kPlanCacheLookups, {{"outcome", "hit"}});
  ASSERT_NE(stale, nullptr);  // series definitions persist across runs
  EXPECT_EQ(stale->value, 0.0);
  EXPECT_EQ(
      recovered.metrics.find(viz::families::kProgramCompileSeconds)->value,
      hit.program().compile_seconds);

  // Cache-less sessions define no lookup series at all.
  Session off(config, registry, quiet_options());
  EXPECT_EQ(off.run().metrics.find(viz::families::kPlanCacheLookups), nullptr);

  // Both families are time-based: the deterministic subset -- the
  // cross-session bit-identity surface -- must not contain them.
  const viz::MetricsSnapshot det = stats.metrics.deterministic_subset();
  EXPECT_EQ(det.find(viz::families::kProgramCompileSeconds), nullptr);
  EXPECT_EQ(det.find(viz::families::kPlanCacheLookups), nullptr);
}

}  // namespace
}  // namespace sage::runtime
