// Striping-engine tests, heavy on properties: for any legal spec the
// thread slices must cover the index space exactly once, in increasing
// offset, balanced; and any transfer plan must conserve elements and map
// global indices consistently on both sides.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <ostream>
#include <vector>

#include "runtime/striping.hpp"
#include "support/error.hpp"

namespace sage::runtime {
namespace {

using model::Striping;

StripeSpec spec_of(std::vector<std::size_t> dims, Striping striping, int dim,
                   int threads) {
  StripeSpec spec;
  spec.dims = std::move(dims);
  spec.striping = striping;
  spec.stripe_dim = dim;
  spec.threads = threads;
  return spec;
}

// --- slice_runs unit cases ------------------------------------------------------

TEST(SliceRunsTest, Dim0IsOneContiguousRun) {
  const auto spec = spec_of({8, 4}, Striping::kStriped, 0, 4);
  const auto runs = slice_runs(spec, 1);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].global_offset, 8u);  // rows 2..3 of an 8x4
  EXPECT_EQ(runs[0].length, 8u);
}

TEST(SliceRunsTest, Dim1IsOneRunPerRow) {
  const auto spec = spec_of({4, 8}, Striping::kStriped, 1, 4);
  const auto runs = slice_runs(spec, 2);
  ASSERT_EQ(runs.size(), 4u);
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(runs[r].global_offset, r * 8 + 2 * 2);
    EXPECT_EQ(runs[r].length, 2u);
  }
}

TEST(SliceRunsTest, MiddleDimOf3d) {
  // 2 x 4 x 3, striped along dim 1 over 2 threads: per outer index, a
  // 2x3-element chunk.
  const auto spec = spec_of({2, 4, 3}, Striping::kStriped, 1, 2);
  const auto runs = slice_runs(spec, 1);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].global_offset, 6u);   // outer 0, second half
  EXPECT_EQ(runs[0].length, 6u);
  EXPECT_EQ(runs[1].global_offset, 18u);  // outer 1
}

TEST(SliceRunsTest, ReplicatedIsEverything) {
  const auto spec = spec_of({4, 4}, Striping::kReplicated, 0, 3);
  for (int t = 0; t < 3; ++t) {
    const auto runs = slice_runs(spec, t);
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].length, 16u);
  }
}

TEST(SliceRunsTest, Validation) {
  EXPECT_THROW(slice_runs(spec_of({}, Striping::kStriped, 0, 1), 0),
               RuntimeError);
  EXPECT_THROW(slice_runs(spec_of({7}, Striping::kStriped, 0, 2), 0),
               RuntimeError);  // uneven
  EXPECT_THROW(slice_runs(spec_of({8}, Striping::kStriped, 1, 2), 0),
               RuntimeError);  // dim out of range
  EXPECT_THROW(slice_runs(spec_of({8}, Striping::kStriped, 0, 2), 5),
               RuntimeError);  // thread out of range
  EXPECT_THROW(slice_runs(spec_of({0, 4}, Striping::kStriped, 0, 1), 0),
               RuntimeError);  // zero dim
}

// --- slice properties (parameterized) ------------------------------------------

struct SpecCase {
  std::vector<std::size_t> dims;
  Striping striping;
  int dim;
  int threads;
};

// gtest prints a parameter with no printer as its raw bytes, which for the
// dims vector are heap addresses; the printed value becomes part of each
// case's ctest name, so print the spec itself: "8x8_d1_x4" is an 8x8 array
// striped along dim 1 over 4 threads, "8x8_rep_x3" is replicated on 3.
void PrintTo(const SpecCase& c, std::ostream* os) {
  for (std::size_t i = 0; i < c.dims.size(); ++i) {
    *os << (i ? "x" : "") << c.dims[i];
  }
  if (c.striping == Striping::kStriped) {
    *os << "_d" << c.dim;
  } else {
    *os << "_rep";
  }
  *os << "_x" << c.threads;
}

class SliceProperty : public ::testing::TestWithParam<SpecCase> {};

INSTANTIATE_TEST_SUITE_P(
    Shapes, SliceProperty,
    ::testing::Values(SpecCase{{16}, Striping::kStriped, 0, 4},
                      SpecCase{{8, 8}, Striping::kStriped, 0, 2},
                      SpecCase{{8, 8}, Striping::kStriped, 1, 8},
                      SpecCase{{4, 6, 8}, Striping::kStriped, 1, 3},
                      SpecCase{{4, 6, 8}, Striping::kStriped, 2, 4},
                      SpecCase{{2, 2, 2, 2}, Striping::kStriped, 3, 2},
                      SpecCase{{12, 5}, Striping::kStriped, 0, 6},
                      SpecCase{{64, 64}, Striping::kStriped, 1, 8}));

TEST_P(SliceProperty, SlicesPartitionTheIndexSpaceEvenly) {
  const SpecCase& param = GetParam();
  const auto spec =
      spec_of(param.dims, param.striping, param.dim, param.threads);
  std::vector<int> covered(spec.total_elems(), 0);

  for (int t = 0; t < param.threads; ++t) {
    const auto runs = slice_runs(spec, t);
    std::size_t slice_total = 0;
    std::size_t last_end = 0;
    for (const sage::runtime::Run& run : runs) {
      EXPECT_GE(run.global_offset, last_end) << "runs must be ordered";
      last_end = run.global_offset + run.length;
      slice_total += run.length;
      for (std::size_t i = 0; i < run.length; ++i) {
        ++covered[run.global_offset + i];
      }
    }
    EXPECT_EQ(slice_total, spec.elems_per_thread()) << "thread " << t;
  }
  for (std::size_t i = 0; i < covered.size(); ++i) {
    EXPECT_EQ(covered[i], 1) << "element " << i << " covered wrong";
  }
}

TEST_P(SliceProperty, LocalDimsMatchSliceSize) {
  const SpecCase& param = GetParam();
  const auto spec =
      spec_of(param.dims, param.striping, param.dim, param.threads);
  std::size_t product = 1;
  for (std::size_t d : spec.local_dims()) product *= d;
  EXPECT_EQ(product, spec.elems_per_thread());
}

// --- transfer plans -----------------------------------------------------------

struct PlanCase {
  SpecCase src;
  SpecCase dst;
};

void PrintTo(const PlanCase& c, std::ostream* os) {
  PrintTo(c.src, os);
  *os << "_to_";
  PrintTo(c.dst, os);
}

class PlanProperty : public ::testing::TestWithParam<PlanCase> {};

INSTANTIATE_TEST_SUITE_P(
    Redistributions, PlanProperty,
    ::testing::Values(
        PlanCase{{{8, 8}, Striping::kStriped, 0, 4},
                 {{8, 8}, Striping::kStriped, 0, 4}},
        PlanCase{{{8, 8}, Striping::kStriped, 0, 2},
                 {{8, 8}, Striping::kStriped, 0, 8}},
        PlanCase{{{8, 8}, Striping::kStriped, 0, 4},
                 {{8, 8}, Striping::kStriped, 1, 4}},
        PlanCase{{{16, 4}, Striping::kStriped, 1, 4},
                 {{16, 4}, Striping::kStriped, 0, 2}},
        PlanCase{{{8, 8}, Striping::kStriped, 0, 4},
                 {{8, 8}, Striping::kReplicated, 0, 3}},
        PlanCase{{{8, 8}, Striping::kReplicated, 0, 4},
                 {{8, 8}, Striping::kStriped, 1, 2}},
        PlanCase{{{4, 6, 8}, Striping::kStriped, 1, 2},
                 {{4, 6, 8}, Striping::kStriped, 2, 4}}));

TEST_P(PlanProperty, PlanMovesEveryElementExactlyOnce) {
  const PlanCase& param = GetParam();
  const auto src = spec_of(param.src.dims, param.src.striping, param.src.dim,
                           param.src.threads);
  const auto dst = spec_of(param.dst.dims, param.dst.striping, param.dst.dim,
                           param.dst.threads);
  const auto plan = build_transfer_plan(src, dst);

  // Simulate the plan with index-valued elements and verify that each
  // destination slot receives the right global index.
  const int dst_copies =
      dst.striping == Striping::kReplicated ? dst.threads : 1;
  std::size_t delivered = 0;

  std::map<int, std::vector<long long>> dst_buffers;
  for (int d = 0; d < dst.threads; ++d) {
    dst_buffers[d].assign(dst.elems_per_thread(), -1);
  }

  for (const ThreadPairTransfer& pair : plan) {
    // Source thread-local data: value = global index.
    const auto src_runs = slice_runs(src, pair.src_thread);
    std::vector<long long> src_local;
    for (const sage::runtime::Run& run : src_runs) {
      for (std::size_t i = 0; i < run.length; ++i) {
        src_local.push_back(static_cast<long long>(run.global_offset + i));
      }
    }
    auto& dst_local = dst_buffers[pair.dst_thread];
    for (const Segment& seg : pair.segments) {
      for (std::size_t i = 0; i < seg.length; ++i) {
        ASSERT_LT(seg.src_offset + i, src_local.size());
        ASSERT_LT(seg.dst_offset + i, dst_local.size());
        EXPECT_EQ(dst_local[seg.dst_offset + i], -1)
            << "double delivery at dst " << pair.dst_thread;
        dst_local[seg.dst_offset + i] = src_local[seg.src_offset + i];
        ++delivered;
      }
    }
  }

  EXPECT_EQ(delivered, src.total_elems() * static_cast<std::size_t>(dst_copies));

  // Every destination slot holds exactly its own global index.
  for (int d = 0; d < dst.threads; ++d) {
    const auto dst_runs = slice_runs(dst, d);
    std::size_t cursor = 0;
    for (const sage::runtime::Run& run : dst_runs) {
      for (std::size_t i = 0; i < run.length; ++i, ++cursor) {
        EXPECT_EQ(dst_buffers[d][cursor],
                  static_cast<long long>(run.global_offset + i))
            << "dst thread " << d << " slot " << cursor;
      }
    }
  }
}

TEST(PlanTest, MismatchedTotalsRejected) {
  const auto a = spec_of({8, 8}, Striping::kStriped, 0, 2);
  const auto b = spec_of({8, 4}, Striping::kStriped, 0, 2);
  EXPECT_THROW(build_transfer_plan(a, b), RuntimeError);
}

TEST(PlanTest, AlignedStripesAreSingleSegments) {
  const auto src = spec_of({8, 8}, Striping::kStriped, 0, 4);
  const auto plan = build_transfer_plan(src, src);
  ASSERT_EQ(plan.size(), 4u);  // diagonal only
  for (const auto& pair : plan) {
    EXPECT_EQ(pair.src_thread, pair.dst_thread);
    ASSERT_EQ(pair.segments.size(), 1u);
    EXPECT_EQ(pair.segments[0].length, 16u);
  }
}

TEST(PlanTest, CornerTurnIsAllToAll) {
  const auto src = spec_of({8, 8}, Striping::kStriped, 0, 4);
  const auto dst = spec_of({8, 8}, Striping::kStriped, 1, 4);
  const auto plan = build_transfer_plan(src, dst);
  EXPECT_EQ(plan.size(), 16u);  // every pair participates
  for (const auto& pair : plan) {
    EXPECT_EQ(pair.total_elems(), 4u);  // (8/4) x (8/4) block
  }
}

TEST(PlanTest, ContiguousSegmentsAreMerged) {
  // Identical aligned specs but different thread counts: 2 -> 1 means
  // the single dst thread receives each src half as ONE segment.
  const auto src = spec_of({8, 8}, Striping::kStriped, 0, 2);
  const auto dst = spec_of({8, 8}, Striping::kStriped, 0, 1);
  const auto plan = build_transfer_plan(src, dst);
  ASSERT_EQ(plan.size(), 2u);
  for (const auto& pair : plan) {
    EXPECT_EQ(pair.segments.size(), 1u);
  }
}

// --- randomized property check --------------------------------------------------

/// Deterministic xorshift so failures reproduce.
std::uint64_t next_rand(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

/// Brute-force oracle: the global index each local element of `thread`
/// maps to, in thread-local storage order.
std::vector<std::size_t> global_map(const StripeSpec& spec, int thread) {
  std::vector<std::size_t> map;
  for (const Run& run : slice_runs(spec, thread)) {
    for (std::size_t k = 0; k < run.length; ++k) {
      map.push_back(run.global_offset + k);
    }
  }
  return map;
}

TEST(PlanPropertyTest, RandomSpecPairsCoverEveryElementExactlyOnce) {
  std::uint64_t rng = 0x5a9e0001d5eedull;
  const std::vector<std::size_t> divisor_pool = {1, 2, 3, 4, 6, 8};
  for (int trial = 0; trial < 60; ++trial) {
    // Random 2-D or 3-D dims whose every dimension divides by any thread
    // count we draw (multiples of 24 keep validate() happy).
    const int rank = 2 + static_cast<int>(next_rand(rng) % 2);
    std::vector<std::size_t> dims;
    for (int i = 0; i < rank; ++i) {
      dims.push_back(24 * (1 + next_rand(rng) % 2));
    }
    const auto pick = [&] {
      StripeSpec s;
      s.dims = dims;
      s.striping = Striping::kStriped;
      s.stripe_dim = static_cast<int>(next_rand(rng) % rank);
      s.threads =
          static_cast<int>(divisor_pool[next_rand(rng) % divisor_pool.size()]);
      return s;
    };
    const StripeSpec src = pick();
    const StripeSpec dst = pick();

    const auto plan = build_transfer_plan(src, dst);

    // Per-thread local->global maps, brute force.
    std::vector<std::vector<std::size_t>> src_map;
    for (int s = 0; s < src.threads; ++s) src_map.push_back(global_map(src, s));
    std::vector<std::vector<std::size_t>> dst_map;
    for (int d = 0; d < dst.threads; ++d) dst_map.push_back(global_map(dst, d));

    // Walk every segment of every pair: the source element and the
    // destination element must be the same global index, and the union
    // over the whole plan must cover each global index exactly once.
    std::map<std::size_t, int> covered;
    for (const auto& pair : plan) {
      const auto& sm = src_map[static_cast<std::size_t>(pair.src_thread)];
      const auto& dm = dst_map[static_cast<std::size_t>(pair.dst_thread)];
      for (const Segment& seg : pair.segments) {
        ASSERT_LE(seg.src_offset + seg.length, sm.size())
            << "trial " << trial;
        ASSERT_LE(seg.dst_offset + seg.length, dm.size())
            << "trial " << trial;
        for (std::size_t k = 0; k < seg.length; ++k) {
          const std::size_t g = sm[seg.src_offset + k];
          EXPECT_EQ(g, dm[seg.dst_offset + k])
              << "trial " << trial << ": src/dst disagree on global index";
          ++covered[g];
        }
      }
    }
    ASSERT_EQ(covered.size(), src.total_elems()) << "trial " << trial;
    for (const auto& [g, count] : covered) {
      ASSERT_EQ(count, 1) << "trial " << trial << ": global index " << g
                          << " transferred " << count << " times";
    }
  }
}

}  // namespace
}  // namespace sage::runtime
