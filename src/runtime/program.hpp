// openSAGE -- the compiled program: the durable artifact between the
// glue-code compiler and the run-time executor.
//
// The paper's generator separates *what the runtime executes* (function
// table, logical buffer definitions, transfer schedules) from *the act
// of executing it*. CompiledProgram is that artifact in lowered form:
// the validated glue configuration plus everything runtime::Compiler
// derives from it -- planned buffers, interned staging slot ids, the
// flat index-addressed transfer program, and the precomputed kernel
// port bindings. It is immutable after construction and carries no
// execution state, so any number of runtime::Session executors can
// share one program concurrently through shared_ptr<const
// CompiledProgram> (cf. DaCe's compiled SDFG objects, reused across
// invocations).
//
// A program also has a stable binary form (serialize()/deserialize())
// keyed by a content-addressed fingerprint, which is what the on-disk
// plan cache stores: a warm process restart deserializes the lowered
// arrays instead of re-running the planner.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/glue_config.hpp"
#include "runtime/striping.hpp"

namespace sage::runtime {

/// One logical buffer with its precomputed transfer plan.
struct PlannedBuffer {
  int id = -1;
  int src_function = -1;
  int dst_function = -1;
  std::string src_port;
  std::string dst_port;
  std::size_t elem_bytes = 0;
  StripeSpec src_spec;
  StripeSpec dst_spec;
  std::vector<ThreadPairTransfer> plan;
  std::string label;
};

/// One copy segment of a compiled transfer, byte-scaled so the run loop
/// never multiplies by elem_bytes. `packed_off` is the segment's offset
/// in the packed wire layout (concatenated segments in plan order).
struct ByteSeg {
  std::size_t src_off = 0;
  std::size_t dst_off = 0;
  std::size_t packed_off = 0;
  std::size_t len = 0;
};

/// One (buffer, src thread, dst thread) transfer, fully resolved at
/// compile time: integer slot ids instead of string-keyed map lookups,
/// byte offsets instead of element offsets, contiguity and
/// fan-out-share classification precomputed. Placement-dependent fields
/// (src_node/dst_node, share groups) make a program specific to one
/// thread->node assignment; degraded-mode recovery compiles a fresh
/// program for the remapped placement.
struct TransferOp {
  int buf = -1;  // index into CompiledProgram::buffers (== buffer id)
  int tag = 0;
  int src_function = -1;
  int dst_function = -1;
  int src_thread = 0;
  int dst_thread = 0;
  int src_node = 0;
  int dst_node = 0;
  std::size_t bytes = 0;
  /// Single-segment transfer: the wire layout equals one contiguous
  /// slice of the source staging (and lands as one contiguous slice of
  /// the destination staging). A clean, shared send of such an op is
  /// modeled as a DMA gather, uncharged to the node's compute clock.
  bool contiguous = false;
  std::vector<ByteSeg> segs;
  int src_slot = -1;  // staging slot on the producer node
  int dst_slot = -1;  // staging slot on the consumer node
  /// Fan-out share group: remote ops of one producer thread whose packed
  /// bytes are identical (same gather signature) share one pooled
  /// payload under kShared -- the fabric's copy-on-write protects the
  /// sharers from injected corruption. -1 when not shared.
  int share_group = -1;
  /// Static ring bound for this logical channel: how many iterations the
  /// producer may run ahead of the consumer before credit flow control
  /// parks it. Computed by the compiler from the topological level
  /// distance between producer and consumer functions (cf. SDF buffer
  /// bounds); streaming submissions use it when no explicit
  /// buffer_depth override is given.
  int ring_depth = 2;
};

/// Precomputed kernel port slice for one (function, thread): everything
/// KernelContext needs except the live data span, so the run loop does
/// no stripe_spec()/slice_runs() work per invocation.
struct PortBinding {
  std::string name;
  int slot = -1;
  std::size_t elem_bytes = 0;
  std::vector<std::size_t> local_dims;
  std::vector<std::size_t> global_dims;
  std::vector<Run> runs;
  bool is_input = true;
};

/// How a program reached this process (provenance for the compile-cost
/// metrics and the `sagec` report lines; never serialized).
enum class PlanCacheOutcome : std::uint8_t {
  kNotConsulted,  // compiled directly, no cache configured
  kHit,           // deserialized from the content-addressed plan cache
  kMiss,          // cache consulted, entry absent; compiled and stored
};

const char* to_string(PlanCacheOutcome outcome);

/// The immutable lowered artifact. Built by runtime::Compiler (or
/// deserialized from a plan blob) and shared read-only by executors;
/// nothing in here changes after construction.
struct CompiledProgram {
  /// The validated glue configuration the program was lowered from
  /// (function table, buffer definitions, per-node schedules, probes).
  GlueConfig config;

  /// Planned logical buffers, indexed by buffer id.
  std::vector<PlannedBuffer> buffers;
  /// Buffer ids feeding / fed by each function id (graph adjacency).
  std::vector<std::vector<int>> in_of_fn;
  std::vector<std::vector<int>> out_of_fn;

  /// The flat transfer program.
  std::vector<TransferOp> ops;
  /// Staging-slot base per function id: slot = slot_base[fn] +
  /// thread * ports + port_index (dense replacement for a string-keyed
  /// staging map).
  std::vector<int> slot_base;
  int total_staging_slots = 0;
  /// (function, thread) -> flat index: fn_thread_base[fn] + thread.
  std::vector<int> fn_thread_base;
  /// Per (function, thread): indices into `ops` for the remote receives
  /// and all sends, in the exact order the executor issues them.
  std::vector<std::vector<int>> recv_ops_of;
  std::vector<std::vector<int>> send_ops_of;
  /// Per (function, thread): precomputed kernel port slices.
  std::vector<std::vector<PortBinding>> bindings_of;

  // --- provenance (not part of the serialized form) ------------------------
  /// Content-addressed cache key: FNV-1a over the serialized glue
  /// config, the registry fingerprint, and the plan format version.
  /// Zero for programs compiled outside the cache path (e.g. the
  /// private recompile after degraded-mode recovery).
  std::uint64_t fingerprint = 0;
  /// Wall seconds spent producing this program in this process: the
  /// full lowering on a compile, the blob load on a cache hit.
  double compile_seconds = 0.0;
  PlanCacheOutcome cache_outcome = PlanCacheOutcome::kNotConsulted;

  bool from_cache() const { return cache_outcome == PlanCacheOutcome::kHit; }

  /// Binary plan blob: versioned header (magic, format version,
  /// fingerprint), the canonical glue text, the lowered arrays, and a
  /// trailing whole-blob FNV-1a checksum. Deterministic: equal programs
  /// serialize to equal bytes (the round-trip property the plan cache
  /// and the golden test rely on).
  std::string serialize() const;

  /// Parses a plan blob; throws sage::RuntimeError on a bad magic,
  /// unsupported format version, truncation, or checksum mismatch --
  /// corrupt cache entries must never reach an executor.
  static std::shared_ptr<const CompiledProgram> deserialize(
      std::string_view blob);
};

/// Plan blob format version; bump on any layout change so stale cache
/// entries are rejected (and re-keyed: the version is folded into the
/// fingerprint).
inline constexpr std::uint32_t kPlanFormatVersion = 3;

// --- one node's share ------------------------------------------------------

/// What one step of a node's iteration does.
enum class StepKind : std::uint8_t {
  kReceive,  // land a remote op in the firing's input staging
  kFire,     // run the firing's kernel
  kDeliver,  // copy a local op from the firing's output to its consumer
  kSend,     // pack a remote op from the firing's output and send it
};

/// One function thread a node fires every iteration.
struct NodeFiring {
  int fn_id = -1;
  int thread = 0;
  std::size_t fti = 0;  // (function, thread) index into the program
};

/// One step of a node's iteration: what it does, for which firing, on
/// which op.
struct Step {
  StepKind kind = StepKind::kFire;
  int firing = 0;  // index into NodeProgram::firings
  int op = -1;     // index into CompiledProgram::ops; -1 for kFire
};

/// One node's share of a program, lowered once: the straight-line
/// sequence of computations and communications the node runs every
/// iteration (cf. Delaval et al.'s projection of a dataflow program
/// onto each location). The memory planner, the executor and its
/// overlap rule all read this one list.
struct NodeProgram {
  /// The node's function threads in schedule order.
  std::vector<NodeFiring> firings;
  /// One iteration, in issue order: per firing, its remote receives,
  /// its kernel, then its sends (local deliveries and remote sends in
  /// send_ops_of order).
  std::vector<Step> steps;
  /// Index of the first remote-receive step, steps.size() when there is
  /// none: steps [0, head) are the head of every iteration, the rest
  /// its tail.
  std::size_t head = 0;
};

/// Lowers `node`'s share of `program`: its schedule's function threads
/// hosted on `node`, each expanded into steps.
NodeProgram lower_node(const CompiledProgram& program, int node);

}  // namespace sage::runtime
