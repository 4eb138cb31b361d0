// openSAGE -- per-node memory planning: the run-time kernel's
// "logical-buffer -> physical-buffer management", decided once from the
// compiled program instead of per slot at run time.
//
// plan_node_memory() lays out every staging slot one node hosts inside a
// single arena. It reads the node's step list from lower_node(), the
// same list the executor runs, and times each step by its firing's
// phase: the steps of firing p happen at 3p (receives), 3p + 1 (the
// kernel) and 3p + 2 (local deliveries and sends). A slot is
// *write-before-read* when its bytes are fully rewritten before every
// read:
//
//   * an input slot whose ops tile [0, size) exactly and all run before
//     the consumer's kernel (remote receives run in the consumer's own
//     receive phase; local deliveries in their producer's send phase, so
//     the producer must fire first);
//   * an output slot of a kernel registered OutputAccess::kOverwrite:
//     written at its kernel step, read in its send phase.
//
// Write-before-read slots are never zeroed, and slots whose live ranges
// (first write -> read) do not overlap share arena bytes (cf. DaCe's
// transient memory reuse). Every other slot -- outputs of
// read-modify-write kernels, unconnected or partially written inputs,
// inputs whose producer fires after their consumer -- gets a private
// region in the arena prefix [0, zero_bytes), which the node zeroes at
// the start of every ticket, so a kernel that reads before it writes
// sees the same bytes as on a cold run.
//
// Two data sets on one node: the *head* of an iteration is the step
// range before the node's first remote receive (NodeProgram::head), the
// *tail* the rest. A node with no private slot and a non-empty head and
// tail is *overlap-eligible*: in streamed epochs it may run head(i+1)
// before tail(i) (see Session). Its plan covers one steady-state block
// [head(i+1) steps, tail(i) steps]. A slot written in the head and read
// in the tail is live across that block, so it gets two instances, one
// per ticket parity: the old one is live from the block start to its
// tail read, the new one from its head write to the block end. Nothing
// needs zeroing: no tail step writes a slot a head step reads, because a
// head read of a write-before-read slot follows all of its writes.
//
// The plan is a pure function of the lowered arrays and the kernels'
// access facts: it is recomputed at allocation time (construction,
// recover(), swap_program()) and never serialized into the plan blob.
#pragma once

#include <cstddef>
#include <vector>

#include "runtime/program.hpp"
#include "runtime/registry.hpp"

namespace sage::runtime {

/// A byte range of one node's staging arena.
struct ArenaRegion {
  std::size_t offset = 0;
  std::size_t bytes = 0;
};

struct NodeMemoryPlan {
  /// Bytes of the node's staging arena.
  std::size_t arena_bytes = 0;
  /// Arena placement by compiled slot id, for every ticket of a node
  /// that is not overlap-eligible and for the even tickets (position in
  /// their epoch) of one that is; slots hosted on other nodes stay
  /// empty.
  std::vector<ArenaRegion> slots;
  /// The odd tickets' placement on an overlap-eligible node, empty
  /// otherwise. The two layouts mirror each other: each slot live
  /// across the block takes its other instance, and the slots sharing
  /// bytes with the two instances swap sides with them. The even one,
  /// which synchronous runs use alone, is the one spanning fewer bytes.
  std::vector<ArenaRegion> odd_slots;
  /// The private regions: the prefix [0, zero_bytes) of the arena,
  /// zeroed at the start of every ticket. Write-before-read slots lie
  /// beyond it.
  std::size_t zero_bytes = 0;
  /// Bytes of the unique policy's logical-buffer scratch: the largest
  /// op this node sends or receives.
  std::size_t scratch_bytes = 0;
  /// The node may run head(i+1) before tail(i) on this layout.
  bool overlap = false;
};

/// Arena regions start on this boundary.
inline constexpr std::size_t kArenaAlignment = 64;

/// Every function's declared output access, by function id.
std::vector<OutputAccess> output_access(const GlueConfig& config,
                                        const FunctionRegistry& registry);

/// Plans the arena of the node whose share of `program` is `share`
/// (see lower_node). `access` holds each function's output access by
/// function id; without it every output is read-modify-write.
NodeMemoryPlan plan_node_memory(const CompiledProgram& program,
                                const NodeProgram& share,
                                const std::vector<OutputAccess>& access = {});

}  // namespace sage::runtime
