#include "runtime/memory_plan.hpp"

#include <algorithm>
#include <climits>
#include <utility>

namespace sage::runtime {

namespace {

std::size_t align_up(std::size_t n) {
  return (n + kArenaAlignment - 1) / kArenaAlignment * kArenaAlignment;
}

/// What one iteration of the node's firing order does to one slot.
/// Firing p receives at step 3p, runs its kernel at 3p + 1 and sends at
/// 3p + 2, so a slot's live range is [first_write, read_step].
struct SlotUse {
  std::size_t bytes = 0;
  int reads = 0;  // kernel firings reading the slot as an input
  int read_step = -1;
  int first_write = INT_MAX;
  int last_write = -1;
  std::vector<std::pair<std::size_t, std::size_t>> writes;  // (offset, len)
};

/// True when every byte of the slot is written, exactly once, before its
/// one kernel read of the iteration.
bool write_before_read(SlotUse& use) {
  if (use.bytes == 0 || use.reads != 1 || use.last_write >= use.read_step) {
    return false;
  }
  std::sort(use.writes.begin(), use.writes.end());
  std::size_t cursor = 0;
  for (const auto& [offset, len] : use.writes) {
    if (offset != cursor) return false;
    cursor += len;
  }
  return cursor == use.bytes;
}

bool live_together(const SlotUse& a, const SlotUse& b) {
  return a.first_write <= b.read_step && b.first_write <= a.read_step;
}

}  // namespace

NodeMemoryPlan plan_node_memory(const CompiledProgram& program, int node) {
  const GlueConfig& config = program.config;
  std::vector<SlotUse> use(
      static_cast<std::size_t>(program.total_staging_slots));
  const auto fti_of = [&](const FunctionConfig& fn, int t) {
    return static_cast<std::size_t>(
        program.fn_thread_base[static_cast<std::size_t>(fn.id)] + t);
  };

  // Every port slice of every thread placed on this node.
  for (const FunctionConfig& fn : config.functions) {
    for (int t = 0; t < fn.threads; ++t) {
      if (fn.thread_nodes[static_cast<std::size_t>(t)] != node) continue;
      for (const PortBinding& b : program.bindings_of[fti_of(fn, t)]) {
        std::size_t elems = 1;
        for (const std::size_t d : b.local_dims) elems *= d;
        use[static_cast<std::size_t>(b.slot)].bytes = elems * b.elem_bytes;
      }
    }
  }

  // One iteration of the firing order, as the executor issues it.
  const auto write = [&](int op_idx, int step) {
    const TransferOp& op = program.ops[static_cast<std::size_t>(op_idx)];
    SlotUse& u = use[static_cast<std::size_t>(op.dst_slot)];
    u.first_write = std::min(u.first_write, step);
    u.last_write = std::max(u.last_write, step);
    for (const ByteSeg& s : op.segs) u.writes.emplace_back(s.dst_off, s.len);
  };
  int step = 0;
  if (const auto order = config.schedule.find(node);
      order != config.schedule.end()) {
    for (const int fn_id : order->second) {
      const FunctionConfig& fn = config.function(fn_id);
      for (int t = 0; t < fn.threads; ++t) {
        if (fn.thread_nodes[static_cast<std::size_t>(t)] != node) continue;
        const std::size_t fti = fti_of(fn, t);
        for (const int op_idx : program.recv_ops_of[fti]) write(op_idx, step);
        for (const PortBinding& b : program.bindings_of[fti]) {
          if (!b.is_input) continue;
          SlotUse& u = use[static_cast<std::size_t>(b.slot)];
          ++u.reads;
          u.read_step = step + 1;
        }
        for (const int op_idx : program.send_ops_of[fti]) {
          if (program.ops[static_cast<std::size_t>(op_idx)].dst_node == node) {
            write(op_idx, step + 2);
          }
        }
        step += 3;
      }
    }
  }

  NodeMemoryPlan plan;
  plan.slots.assign(use.size(), {});
  // Private slots first, in slot order: the zeroed prefix.
  std::vector<std::size_t> reused;
  for (std::size_t s = 0; s < use.size(); ++s) {
    if (use[s].bytes == 0) continue;
    if (write_before_read(use[s])) {
      reused.push_back(s);
      continue;
    }
    const std::size_t offset = align_up(plan.zero_bytes);
    plan.slots[s] = {offset, use[s].bytes};
    plan.zero_bytes = offset + use[s].bytes;
  }
  plan.arena_bytes = plan.zero_bytes;

  // Write-before-read slots, largest first: each takes the lowest
  // aligned offset past the prefix that no slot live at the same time
  // already holds.
  std::stable_sort(reused.begin(), reused.end(),
                   [&](std::size_t a, std::size_t b) {
                     return use[a].bytes > use[b].bytes;
                   });
  const std::size_t base = align_up(plan.zero_bytes);
  std::vector<std::size_t> placed;
  for (const std::size_t s : reused) {
    std::vector<ArenaRegion> taken;
    for (const std::size_t p : placed) {
      if (live_together(use[s], use[p])) taken.push_back(plan.slots[p]);
    }
    std::sort(taken.begin(), taken.end(),
              [](const ArenaRegion& a, const ArenaRegion& b) {
                return a.offset < b.offset;
              });
    std::size_t offset = base;
    for (const ArenaRegion& region : taken) {
      if (offset + use[s].bytes <= region.offset) break;
      offset = std::max(offset, align_up(region.offset + region.bytes));
    }
    plan.slots[s] = {offset, use[s].bytes};
    plan.arena_bytes = std::max(plan.arena_bytes, offset + use[s].bytes);
    placed.push_back(s);
  }

  for (const TransferOp& op : program.ops) {
    if (op.src_node == node || op.dst_node == node) {
      plan.scratch_bytes = std::max(plan.scratch_bytes, op.bytes);
    }
  }
  return plan;
}

}  // namespace sage::runtime
