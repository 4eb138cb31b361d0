// openSAGE -- per-node memory planning: the run-time kernel's
// "logical-buffer -> physical-buffer management", decided once from the
// compiled program instead of per slot at run time.
//
// plan_node_memory() lays out every staging slot one node hosts inside a
// single arena:
//
//   * an input slot is *write-before-read* when the ops landing in it
//     tile [0, size) exactly and every one of them runs before the
//     consumer's kernel in the node's firing order (remote receives run
//     in the consumer's own receive phase; local deliveries in their
//     producer's send phase, so the producer must fire first). Its bytes
//     are fully rewritten before every read, so it is never zeroed, and
//     slots whose live ranges (first write -> kernel read, within one
//     iteration) do not overlap share arena bytes (cf. DaCe's transient
//     memory reuse);
//   * every other slot -- outputs, unconnected or partially written
//     inputs, inputs whose producer fires after their consumer -- gets a
//     private region in the arena prefix [0, zero_bytes), which the node
//     zeroes at the start of every ticket, so a kernel that reads before
//     it writes sees the same bytes as on a cold run.
//
// The plan is a pure function of the lowered arrays: it is recomputed at
// allocation time (construction, recover(), swap_program()) and never
// serialized into the plan blob.
#pragma once

#include <cstddef>
#include <vector>

#include "runtime/program.hpp"

namespace sage::runtime {

/// A byte range of one node's staging arena.
struct ArenaRegion {
  std::size_t offset = 0;
  std::size_t bytes = 0;
};

struct NodeMemoryPlan {
  /// Bytes of the node's staging arena.
  std::size_t arena_bytes = 0;
  /// Arena placement by compiled slot id; slots hosted on other nodes
  /// stay empty.
  std::vector<ArenaRegion> slots;
  /// The private regions: the prefix [0, zero_bytes) of the arena,
  /// zeroed at the start of every ticket. Write-before-read slots lie
  /// beyond it.
  std::size_t zero_bytes = 0;
  /// Bytes of the unique policy's logical-buffer scratch: the largest
  /// op this node sends or receives.
  std::size_t scratch_bytes = 0;
};

/// Arena regions start on this boundary.
inline constexpr std::size_t kArenaAlignment = 64;

NodeMemoryPlan plan_node_memory(const CompiledProgram& program, int node);

}  // namespace sage::runtime
