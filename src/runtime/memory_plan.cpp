#include "runtime/memory_plan.hpp"

#include <algorithm>
#include <climits>
#include <utility>

namespace sage::runtime {

namespace {

std::size_t align_up(std::size_t n) {
  return (n + kArenaAlignment - 1) / kArenaAlignment * kArenaAlignment;
}

std::size_t end_of(const ArenaRegion& region) {
  return region.offset + region.bytes;
}

/// What one iteration of the node's steps does to one slot; its
/// live range is [first_write, read_step].
struct SlotUse {
  std::size_t bytes = 0;
  int reads = 0;  // kernel reads of an input, send phases of an output
  int read_step = -1;
  int first_write = INT_MAX;
  int last_write = -1;
  std::vector<std::pair<std::size_t, std::size_t>> writes;  // (offset, len)
};

/// True when every byte of the slot is written, exactly once, before its
/// one read of the iteration.
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

/// One placement: a shared slot, or one of the two instances of a slot
/// live across the overlap block, with its live steps [first, last].
struct Item {
  enum Role { kShared, kOld, kNew };
  std::size_t slot = 0;
  std::size_t bytes = 0;
  int first = 0;
  int last = 0;
  Role role = kShared;

  bool crossing() const { return role != kShared; }
};

/// Crossing instances never share bytes with one another, so the odd
/// layout can swap each pair without colliding with another pair.
bool conflict(const Item& a, const Item& b) {
  return (a.crossing() && b.crossing()) ||
         (a.first <= b.last && b.first <= a.last);
}

/// True when `region` may sit at its offset beside `fence` (a crossing
/// instance it does not conflict with): inside it or clear of it, never
/// across its edge, so the mirror moves it whole.
bool respects(const ArenaRegion& region, const ArenaRegion& fence) {
  return end_of(region) <= fence.offset || end_of(fence) <= region.offset ||
         (fence.offset <= region.offset && end_of(region) <= end_of(fence));
}

/// Places `items` largest first (stable): each takes the lowest aligned
/// offset >= base that no conflicting placed item holds. Returns the
/// regions by item index.
std::vector<ArenaRegion> place(const std::vector<Item>& items,
                               std::size_t base) {
  std::vector<std::size_t> order(items.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return items[a].bytes > items[b].bytes;
                   });
  std::vector<ArenaRegion> region(items.size());
  std::vector<std::size_t> placed;
  for (const std::size_t i : order) {
    std::vector<ArenaRegion> taken;
    std::vector<ArenaRegion> fences;
    std::vector<std::size_t> candidates = {base};
    for (const std::size_t p : placed) {
      if (conflict(items[i], items[p])) {
        taken.push_back(region[p]);
      } else if (items[p].crossing()) {
        fences.push_back(region[p]);
        candidates.push_back(region[p].offset);
      } else {
        continue;
      }
      candidates.push_back(align_up(end_of(region[p])));
    }
    std::sort(candidates.begin(), candidates.end());
    for (const std::size_t offset : candidates) {
      const ArenaRegion at{offset, items[i].bytes};
      if (offset < base ||
          std::any_of(taken.begin(), taken.end(),
                      [&](const ArenaRegion& r) {
                        return offset < end_of(r) && r.offset < end_of(at);
                      }) ||
          !std::all_of(fences.begin(), fences.end(),
                       [&](const ArenaRegion& f) { return respects(at, f); })) {
        continue;
      }
      region[i] = at;
      break;
    }
    placed.push_back(i);
  }
  return region;
}

}  // namespace

std::vector<OutputAccess> output_access(const GlueConfig& config,
                                        const FunctionRegistry& registry) {
  std::vector<OutputAccess> access;
  access.reserve(config.functions.size());
  for (const FunctionConfig& fn : config.functions) {
    access.push_back(registry.access(fn.kernel));
  }
  return access;
}

NodeMemoryPlan plan_node_memory(const CompiledProgram& program,
                                const NodeProgram& share,
                                const std::vector<OutputAccess>& access) {
  std::vector<SlotUse> use(
      static_cast<std::size_t>(program.total_staging_slots));

  // Every port slice of every firing on this node.
  for (const NodeFiring& firing : share.firings) {
    for (const PortBinding& b : program.bindings_of[firing.fti]) {
      std::size_t elems = 1;
      for (const std::size_t d : b.local_dims) elems *= d;
      use[static_cast<std::size_t>(b.slot)].bytes = elems * b.elem_bytes;
    }
  }

  // One iteration of the node's steps, each at its firing's phase.
  const auto time = [](const Step& s) {
    const int phase = s.kind == StepKind::kReceive ? 0
                      : s.kind == StepKind::kFire  ? 1
                                                   : 2;
    return 3 * s.firing + phase;
  };
  const auto write = [&](SlotUse& u, int step, std::size_t offset,
                         std::size_t len) {
    u.first_write = std::min(u.first_write, step);
    u.last_write = std::max(u.last_write, step);
    u.writes.emplace_back(offset, len);
  };
  NodeMemoryPlan plan;
  for (const Step& s : share.steps) {
    const int step = time(s);
    if (s.kind != StepKind::kFire) {
      // The unique policy stages every op the node runs through scratch;
      // receives and deliveries land in this node's staging.
      const TransferOp& op = program.ops[static_cast<std::size_t>(s.op)];
      plan.scratch_bytes = std::max(plan.scratch_bytes, op.bytes);
      if (s.kind == StepKind::kSend) continue;
      SlotUse& u = use[static_cast<std::size_t>(op.dst_slot)];
      for (const ByteSeg& seg : op.segs) write(u, step, seg.dst_off, seg.len);
      continue;
    }
    const NodeFiring& firing =
        share.firings[static_cast<std::size_t>(s.firing)];
    const bool overwrite = !access.empty() &&
                           access[static_cast<std::size_t>(firing.fn_id)] ==
                               OutputAccess::kOverwrite;
    for (const PortBinding& b : program.bindings_of[firing.fti]) {
      SlotUse& u = use[static_cast<std::size_t>(b.slot)];
      if (b.is_input) {
        ++u.reads;
        u.read_step = step;
      } else if (overwrite) {
        write(u, step, 0, u.bytes);
        ++u.reads;
        u.read_step = step + 1;
      }
    }
  }

  plan.slots.assign(use.size(), {});
  // Private slots first, in slot order: the zeroed prefix.
  std::vector<std::size_t> shared;
  for (std::size_t s = 0; s < use.size(); ++s) {
    if (use[s].bytes == 0) continue;
    if (write_before_read(use[s])) {
      shared.push_back(s);
      continue;
    }
    const std::size_t offset = align_up(plan.zero_bytes);
    plan.slots[s] = {offset, use[s].bytes};
    plan.zero_bytes = offset + use[s].bytes;
  }
  plan.arena_bytes = plan.zero_bytes;
  plan.overlap = plan.zero_bytes == 0 && share.head > 0 &&
                 share.head < share.steps.size();

  // The shared slots, placed as one block. On an overlap-eligible node a
  // slot written in the head and read in the tail becomes two crossing
  // instances: old (ticket i) and new (ticket i + 1).
  const int head_end = plan.overlap ? time(share.steps[share.head]) : 0;
  const int block_end = 3 * static_cast<int>(share.firings.size()) - 1;
  std::vector<Item> items;
  for (const std::size_t s : shared) {
    const SlotUse& u = use[s];
    if (plan.overlap && u.first_write < head_end && u.read_step >= head_end) {
      items.push_back({s, u.bytes, 0, u.read_step, Item::kOld});
      items.push_back({s, u.bytes, u.first_write, block_end, Item::kNew});
    } else {
      items.push_back({s, u.bytes, u.first_write, u.read_step, Item::kShared});
    }
  }
  const std::vector<ArenaRegion> region =
      place(items, align_up(plan.zero_bytes));
  for (const ArenaRegion& r : region) {
    plan.arena_bytes = std::max(plan.arena_bytes, end_of(r));
  }

  if (!plan.overlap) {
    for (std::size_t i = 0; i < items.size(); ++i) {
      plan.slots[items[i].slot] = region[i];
    }
  } else {
    // `region` is the block whose head runs an even ticket: its head
    // slots and the new instances hold even data, its tail slots and
    // the old instances odd data. The block with an odd head is its
    // mirror: swapping the bytes of each old/new pair maps one to the
    // other, and no region straddles a pair (respects()), so a region
    // inside one instance moves whole into the other.
    const auto mirror = [&](const ArenaRegion& r) {
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (items[i].role != Item::kOld) continue;
        const ArenaRegion& a = region[i];
        const ArenaRegion& b = region[i + 1];
        if (a.offset <= r.offset && end_of(r) <= end_of(a)) {
          return ArenaRegion{b.offset + (r.offset - a.offset), r.bytes};
        }
        if (b.offset <= r.offset && end_of(r) <= end_of(b)) {
          return ArenaRegion{a.offset + (r.offset - b.offset), r.bytes};
        }
      }
      return r;
    };
    plan.odd_slots.assign(use.size(), {});
    for (std::size_t i = 0; i < items.size(); ++i) {
      const Item& item = items[i];
      if (item.crossing()) {
        (item.role == Item::kOld ? plan.odd_slots : plan.slots)[item.slot] =
            region[i];
      } else if (item.last < head_end) {
        plan.slots[item.slot] = region[i];
        plan.odd_slots[item.slot] = mirror(region[i]);
      } else {
        plan.slots[item.slot] = mirror(region[i]);
        plan.odd_slots[item.slot] = region[i];
      }
    }
    // Synchronous runs use only the even layout: give it the one that
    // spans fewer bytes, so they touch fewer pages.
    const auto extent = [](const std::vector<ArenaRegion>& layout) {
      std::size_t bytes = 0;
      for (const ArenaRegion& r : layout) bytes = std::max(bytes, end_of(r));
      return bytes;
    };
    if (extent(plan.odd_slots) < extent(plan.slots)) {
      std::swap(plan.slots, plan.odd_slots);
    }
  }

  return plan;
}

}  // namespace sage::runtime
