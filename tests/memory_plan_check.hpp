// Property check for runtime::plan_node_memory(), shared by the planner
// suite and the random-graph property test. It re-derives, from the
// compiled program alone, what the executor does to each staging slot
// in one iteration of a node's firing order, and checks the plan
// against it:
//
//   * every slot the node hosts lies inside the arena, 64-byte aligned,
//     with exactly its port slice's size;
//   * every slot outside the zeroed prefix is an input whose writers
//     tile it exactly and all run before its kernel reads it;
//   * no two slots that share bytes are live at the same time.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "runtime/memory_plan.hpp"
#include "runtime/program.hpp"

namespace sage::runtime {

inline void expect_memory_plan_holds(const CompiledProgram& program,
                                     int node) {
  SCOPED_TRACE("node " + std::to_string(node));
  const NodeMemoryPlan plan = plan_node_memory(program, node);
  const GlueConfig& config = program.config;
  const auto slots = static_cast<std::size_t>(program.total_staging_slots);
  ASSERT_EQ(plan.slots.size(), slots);
  EXPECT_LE(plan.zero_bytes, plan.arena_bytes);
  const auto order = config.schedule.find(node);
  if (order == config.schedule.end()) {  // hosts no thread
    EXPECT_EQ(plan.arena_bytes, 0u);
    EXPECT_EQ(plan.scratch_bytes, 0u);
    return;
  }

  // When things happen to a slot: (firing index, phase), phase 0 =
  // receive, 1 = kernel, 2 = send.
  using When = std::pair<int, int>;
  struct Slot {
    std::size_t bytes = 0;
    bool input = false;
    When read{-1, -1};
    std::vector<When> writes;
    std::vector<ByteSeg> segs;
  };
  std::vector<Slot> slot(slots);
  int firing = 0;
  for (const int fn_id : order->second) {
    const FunctionConfig& fn = config.function(fn_id);
    for (int t = 0; t < fn.threads; ++t) {
      if (fn.thread_nodes[static_cast<std::size_t>(t)] != node) continue;
      const auto fti = static_cast<std::size_t>(
          program.fn_thread_base[static_cast<std::size_t>(fn_id)] + t);
      for (const PortBinding& b : program.bindings_of[fti]) {
        Slot& s = slot[static_cast<std::size_t>(b.slot)];
        s.bytes = b.elem_bytes;
        for (const std::size_t d : b.local_dims) s.bytes *= d;
        s.input = b.is_input;
        if (b.is_input) s.read = {firing, 1};
      }
      for (const TransferOp& op : program.ops) {
        if (op.dst_node != node || op.dst_function != fn_id ||
            op.dst_thread != t) {
          continue;
        }
        Slot& s = slot[static_cast<std::size_t>(op.dst_slot)];
        // Remote ops land in the consumer's receive phase; local ones in
        // the producer's send phase, resolved below.
        if (op.src_node != node) s.writes.push_back({firing, 0});
        s.segs.insert(s.segs.end(), op.segs.begin(), op.segs.end());
      }
      ++firing;
    }
  }
  // Local deliveries: the producer's firing index, send phase.
  firing = 0;
  for (const int fn_id : order->second) {
    const FunctionConfig& fn = config.function(fn_id);
    for (int t = 0; t < fn.threads; ++t) {
      if (fn.thread_nodes[static_cast<std::size_t>(t)] != node) continue;
      for (const TransferOp& op : program.ops) {
        if (op.src_node == node && op.dst_node == node &&
            op.src_function == fn_id && op.src_thread == t) {
          slot[static_cast<std::size_t>(op.dst_slot)].writes.push_back(
              {firing, 2});
        }
      }
      ++firing;
    }
  }

  std::vector<std::size_t> reused;
  for (std::size_t i = 0; i < slots; ++i) {
    const ArenaRegion& region = plan.slots[i];
    ASSERT_EQ(region.bytes, slot[i].bytes) << "slot " << i;
    if (region.bytes == 0) continue;
    EXPECT_EQ(region.offset % kArenaAlignment, 0u) << "slot " << i;
    EXPECT_LE(region.offset + region.bytes, plan.arena_bytes) << "slot " << i;
    if (region.offset + region.bytes <= plan.zero_bytes) continue;
    EXPECT_GE(region.offset, plan.zero_bytes)
        << "slot " << i << " straddles the zeroed prefix";
    reused.push_back(i);

    // Left unzeroed: an input written in full, exactly once, before
    // its kernel reads it.
    Slot& s = slot[i];
    EXPECT_TRUE(s.input) << "slot " << i;
    ASSERT_FALSE(s.writes.empty()) << "slot " << i;
    for (const When& w : s.writes) {
      EXPECT_LT(w, s.read) << "slot " << i << " written after its read";
    }
    std::sort(s.segs.begin(), s.segs.end(),
              [](const ByteSeg& a, const ByteSeg& b) {
                return a.dst_off < b.dst_off;
              });
    std::size_t cursor = 0;
    for (const ByteSeg& seg : s.segs) {
      EXPECT_EQ(seg.dst_off, cursor) << "slot " << i << " not tiled";
      cursor = seg.dst_off + seg.len;
    }
    EXPECT_EQ(cursor, s.bytes) << "slot " << i << " not tiled";
  }

  // Bytes are shared only between slots that are never live together:
  // private slots never overlap, reused ones only when one is read
  // before the other's first write.
  for (std::size_t a = 0; a < slots; ++a) {
    for (std::size_t b = a + 1; b < slots; ++b) {
      const ArenaRegion& ra = plan.slots[a];
      const ArenaRegion& rb = plan.slots[b];
      if (ra.bytes == 0 || rb.bytes == 0 ||
          ra.offset + ra.bytes <= rb.offset ||
          rb.offset + rb.bytes <= ra.offset) {
        continue;
      }
      const bool a_reused =
          std::find(reused.begin(), reused.end(), a) != reused.end();
      const bool b_reused =
          std::find(reused.begin(), reused.end(), b) != reused.end();
      ASSERT_TRUE(a_reused && b_reused)
          << "slots " << a << " and " << b << " overlap in the arena";
      const When a_first =
          *std::min_element(slot[a].writes.begin(), slot[a].writes.end());
      const When b_first =
          *std::min_element(slot[b].writes.begin(), slot[b].writes.end());
      EXPECT_TRUE(slot[a].read < b_first || slot[b].read < a_first)
          << "slots " << a << " and " << b << " share bytes while both live";
    }
  }
}

}  // namespace sage::runtime
