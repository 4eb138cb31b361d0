// Property check for runtime::plan_node_memory(), shared by the planner
// suite and the random-graph property test. It re-derives, from the
// compiled program and the kernels' output access alone, what the
// executor does to each staging slot in one iteration of a node's
// firing order, and checks the plan against it:
//
//   * every slot the node hosts lies inside the arena, 64-byte aligned,
//     with exactly its port slice's size, in both ticket layouts;
//   * every slot outside the zeroed prefix is an input whose writers
//     tile it exactly and all run before its kernel reads it, or an
//     output its kernel overwrites;
//   * the lowering's head is the steps of the firings before the first
//     remote receive, and the node is overlap-eligible exactly when
//     nothing is zeroed and both head and tail are non-empty;
//   * no two slots that share bytes are live at the same step: of one
//     iteration, and, on an overlap-eligible node, of the block
//     [head(i+1), tail(i)] for either ticket parity.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "runtime/memory_plan.hpp"
#include "runtime/program.hpp"
#include "runtime/registry.hpp"

namespace sage::runtime {

inline void expect_memory_plan_holds(
    const CompiledProgram& program, int node,
    const std::vector<OutputAccess>& access = {}) {
  SCOPED_TRACE("node " + std::to_string(node) +
               (access.empty() ? "" : ", with access facts"));
  const NodeProgram lowered = lower_node(program, node);
  const NodeMemoryPlan plan = plan_node_memory(program, lowered, access);
  const GlueConfig& config = program.config;
  const auto slots = static_cast<std::size_t>(program.total_staging_slots);
  ASSERT_EQ(plan.slots.size(), slots);
  EXPECT_LE(plan.zero_bytes, plan.arena_bytes);
  const auto order = config.schedule.find(node);
  if (order == config.schedule.end()) {  // hosts no thread
    EXPECT_EQ(plan.arena_bytes, 0u);
    EXPECT_EQ(plan.scratch_bytes, 0u);
    EXPECT_FALSE(plan.overlap);
    return;
  }

  // What happens to a slot, by step: firing p receives at 3p, runs its
  // kernel at 3p + 1 and sends at 3p + 2.
  struct Slot {
    std::size_t bytes = 0;
    bool input = false;
    bool overwritten = false;  // an output of a kOverwrite kernel
    int read = -1;
    std::vector<int> writes;
    std::vector<ByteSeg> segs;
  };
  std::vector<Slot> slot(slots);
  int firing = 0;
  int head = -1;  // the first firing with a remote receive
  for (const int fn_id : order->second) {
    const FunctionConfig& fn = config.function(fn_id);
    const bool overwrite =
        !access.empty() &&
        access[static_cast<std::size_t>(fn_id)] == OutputAccess::kOverwrite;
    for (int t = 0; t < fn.threads; ++t) {
      if (fn.thread_nodes[static_cast<std::size_t>(t)] != node) continue;
      const auto fti = static_cast<std::size_t>(
          program.fn_thread_base[static_cast<std::size_t>(fn_id)] + t);
      for (const PortBinding& b : program.bindings_of[fti]) {
        Slot& s = slot[static_cast<std::size_t>(b.slot)];
        s.bytes = b.elem_bytes;
        for (const std::size_t d : b.local_dims) s.bytes *= d;
        s.input = b.is_input;
        if (b.is_input) {
          s.read = 3 * firing + 1;
        } else if (overwrite) {
          s.overwritten = true;
          s.writes.push_back(3 * firing + 1);
          s.read = 3 * firing + 2;
        }
      }
      for (const TransferOp& op : program.ops) {
        if (op.dst_node != node || op.dst_function != fn_id ||
            op.dst_thread != t) {
          continue;
        }
        Slot& s = slot[static_cast<std::size_t>(op.dst_slot)];
        // Remote ops land in the consumer's receive phase; local ones in
        // the producer's send phase, resolved below.
        if (op.src_node != node) {
          s.writes.push_back(3 * firing);
          if (head < 0) head = firing;
        }
        s.segs.insert(s.segs.end(), op.segs.begin(), op.segs.end());
      }
      ++firing;
    }
  }
  const int firings = firing;
  if (head < 0) head = firings;
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
              3 * firing + 2);
        }
      }
      ++firing;
    }
  }

  // The lowering's head step is the receive that opens firing `head`.
  if (head < firings) {
    ASSERT_LT(lowered.head, lowered.steps.size());
    EXPECT_EQ(lowered.steps[lowered.head].kind, StepKind::kReceive);
    EXPECT_EQ(lowered.steps[lowered.head].firing, head);
  } else {
    EXPECT_EQ(lowered.head, lowered.steps.size());
  }
  for (std::size_t s = 0; s < lowered.head; ++s) {
    EXPECT_LT(lowered.steps[s].firing, head) << "step " << s;
  }
  EXPECT_EQ(plan.overlap,
            plan.zero_bytes == 0 && head > 0 && head < firings);
  if (plan.overlap) {
    ASSERT_EQ(plan.odd_slots.size(), slots);
  } else {
    EXPECT_TRUE(plan.odd_slots.empty());
  }
  const std::vector<ArenaRegion>& odd =
      plan.overlap ? plan.odd_slots : plan.slots;

  std::vector<bool> shared(slots, false);
  for (std::size_t i = 0; i < slots; ++i) {
    for (const std::vector<ArenaRegion>* layout : {&plan.slots, &odd}) {
      const ArenaRegion& region = (*layout)[i];
      ASSERT_EQ(region.bytes, slot[i].bytes) << "slot " << i;
      if (region.bytes == 0) continue;
      EXPECT_EQ(region.offset % kArenaAlignment, 0u) << "slot " << i;
      EXPECT_LE(region.offset + region.bytes, plan.arena_bytes)
          << "slot " << i;
    }
    const ArenaRegion& region = plan.slots[i];
    if (region.bytes == 0 || region.offset + region.bytes <= plan.zero_bytes) {
      if (plan.overlap) {
        EXPECT_EQ(region.bytes, 0u) << "slot " << i << " zeroed under overlap";
      }
      continue;
    }
    EXPECT_GE(region.offset, plan.zero_bytes)
        << "slot " << i << " straddles the zeroed prefix";
    shared[i] = true;

    // Left unzeroed: written in full, exactly once, before it is read.
    Slot& s = slot[i];
    ASSERT_FALSE(s.writes.empty()) << "slot " << i;
    for (const int w : s.writes) {
      EXPECT_LT(w, s.read) << "slot " << i << " written after its read";
    }
    if (s.overwritten) continue;
    EXPECT_TRUE(s.input) << "slot " << i << " is an output nobody overwrites";
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

  // One placed region live over steps [first, last]; a private slot is
  // live throughout.
  struct Live {
    std::size_t slot;
    ArenaRegion region;
    int first;
    int last;
  };
  const int block_end = 3 * firings - 1;
  const auto first_write = [&](std::size_t i) {
    return *std::min_element(slot[i].writes.begin(), slot[i].writes.end());
  };
  const auto expect_disjoint = [&](const std::vector<Live>& live,
                                   const std::string& what) {
    for (std::size_t a = 0; a < live.size(); ++a) {
      for (std::size_t b = a + 1; b < live.size(); ++b) {
        const ArenaRegion& ra = live[a].region;
        const ArenaRegion& rb = live[b].region;
        if (ra.bytes == 0 || rb.bytes == 0 ||
            ra.offset + ra.bytes <= rb.offset ||
            rb.offset + rb.bytes <= ra.offset) {
          continue;
        }
        EXPECT_TRUE(live[a].last < live[b].first ||
                    live[b].last < live[a].first)
            << what << ": slots " << live[a].slot << " and " << live[b].slot
            << " share bytes while both live";
      }
    }
  };
  const auto one_iteration = [&](const std::vector<ArenaRegion>& layout) {
    std::vector<Live> live;
    for (std::size_t i = 0; i < slots; ++i) {
      if (layout[i].bytes == 0) continue;
      if (shared[i]) {
        live.push_back({i, layout[i], first_write(i), slot[i].read});
      } else {
        live.push_back({i, layout[i], 0, block_end});
      }
    }
    return live;
  };
  expect_disjoint(one_iteration(plan.slots), "even iteration");
  if (!plan.overlap) return;
  expect_disjoint(one_iteration(odd), "odd iteration");

  // The steady-state block: head(i+1) steps, then tail(i) steps. A slot
  // written in the head and read in the tail is live in both tickets'
  // layouts: the new instance from its write to the block end, the old
  // one from the block start to its read.
  const int head_end = 3 * head;
  for (const bool even_head : {true, false}) {
    const std::vector<ArenaRegion>& head_layout = even_head ? plan.slots : odd;
    const std::vector<ArenaRegion>& tail_layout = even_head ? odd : plan.slots;
    std::vector<Live> live;
    for (std::size_t i = 0; i < slots; ++i) {
      if (slot[i].bytes == 0) continue;
      const int first = first_write(i);
      const int read = slot[i].read;
      if (first < head_end && read >= head_end) {
        live.push_back({i, head_layout[i], first, block_end});
        live.push_back({i, tail_layout[i], 0, read});
      } else if (read < head_end) {
        live.push_back({i, head_layout[i], first, read});
      } else {
        live.push_back({i, tail_layout[i], first, read});
      }
    }
    expect_disjoint(live, even_head ? "block with an even head"
                                    : "block with an odd head");
  }
}

}  // namespace sage::runtime
