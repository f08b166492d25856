// Tile traffic model: exact hand-computed values on matmul, trip
// estimation, reference dedup, capacity penalty, imperfect-statement
// and outside-the-band handling.
#include "model/tile_cost.hpp"

#include <gtest/gtest.h>

#include "ir/parser.hpp"

namespace inlt {
namespace {

constexpr const char* kMatmulSrc = R"(param N
do I = 1, N
  do J = 1, N
    do K = 1, N
      S1: C(I, J) = C(I, J) + A(I, K) * B(K, J)
    end
  end
end
)";

std::vector<const Node*> stmt_loops(const Program& p, size_t stmt = 0) {
  return p.statements().at(stmt).loops;
}

TEST(LoopTripEstimate, ConstantBoundsAreExact) {
  constexpr const char* src = R"(do I = 2, 10
  do J = 1, 10, 3
    do K = 5, 2
      S1: A(I) = A(I) + 1.0
    end
  end
end
)";
  Program p = parse_program(src);
  std::vector<const Node*> loops = stmt_loops(p);
  ASSERT_EQ(loops.size(), 3u);
  ModelOptions opts;
  EXPECT_DOUBLE_EQ(loop_trip_estimate(loops[0], opts), 9.0);
  EXPECT_DOUBLE_EQ(loop_trip_estimate(loops[1], opts), 4.0);
  EXPECT_DOUBLE_EQ(loop_trip_estimate(loops[2], opts), 0.0);
}

TEST(LoopTripEstimate, SymbolicBoundsUseNominal) {
  Program p = parse_program(kMatmulSrc);
  std::vector<const Node*> loops = stmt_loops(p);
  ModelOptions opts;
  EXPECT_DOUBLE_EQ(loop_trip_estimate(loops[0], opts), 64.0);
  opts.nominal_trip = 100;
  EXPECT_DOUBLE_EQ(loop_trip_estimate(loops[0], opts), 100.0);
}

TEST(LoopTripEstimate, ExactlyOnceLoopsTripOnce) {
  // Codegen's one-trip loop: symbolic bounds, but one and the same
  // term, so one trip rather than the nominal 64.
  Program p = parse_program(R"(param N
do J = 1, N
  do L = -J, -J
    do M = 1, N
      S1: A(J, M) = A(J, M) + B(-L, M)
    end
  end
end
)");
  std::vector<const Node*> loops = stmt_loops(p);
  ModelOptions opts;
  EXPECT_DOUBLE_EQ(loop_trip_estimate(loops[0], opts), 64.0);
  EXPECT_DOUBLE_EQ(loop_trip_estimate(loops[1], opts), 1.0);
  EXPECT_DOUBLE_EQ(loop_trip_estimate(loops[2], opts), 64.0);
}

// Matmul at nominal trip 64, line_elems 8, tiles 8x8x8.
//
// Each reference covers 64*64 elements = 64 * 64/8 = 512 lines. Each
// is re-fetched once per tile pass of the one band dim not indexing
// it: 64/8 = 8 passes. The C write and the C read are textually
// identical, so C is charged once:
//   traffic = 3 * 512 * 8 = 12288.
// Per-tile footprint: C 8*(8/8) = 8, A 8, B 8 (K is B's non-contiguous
// dim: 8 lines regardless) -> 24 lines, fits.
TEST(TileTraffic, MatmulExactValues) {
  Program p = parse_program(kMatmulSrc);
  std::vector<const Node*> loops = stmt_loops(p);
  TileTraffic t = estimate_tile_traffic(p, loops, {8, 8, 8});
  EXPECT_DOUBLE_EQ(t.raw_traffic, 12288.0);
  EXPECT_DOUBLE_EQ(t.traffic_lines, 12288.0);
  EXPECT_DOUBLE_EQ(t.footprint_lines, 24.0);
  EXPECT_TRUE(t.fits_cache);
  // Four references, one of them the deduped C read.
  ASSERT_EQ(t.refs.size(), 4u);
  int deduped = 0;
  for (const RefTraffic& r : t.refs)
    if (r.tile_lines == 0) ++deduped;
  EXPECT_EQ(deduped, 1);
  // Every live reference re-fetches 8x.
  for (const RefTraffic& r : t.refs)
    EXPECT_DOUBLE_EQ(r.refetch, 8.0) << r.array;
}

// Untiled point B = (1, 1, 64): C is swept once (K indexes nothing of
// C but runs in one pass), A re-fetches once per J iteration (64x), B
// once per I iteration (64x):
//   traffic = 512 + 512*64 + 512*64 = 66048.
TEST(TileTraffic, MatmulUntiledPoint) {
  Program p = parse_program(kMatmulSrc);
  std::vector<const Node*> loops = stmt_loops(p);
  TileTraffic u = estimate_untiled_traffic(p, loops);
  EXPECT_DOUBLE_EQ(u.raw_traffic, 66048.0);
  EXPECT_TRUE(u.fits_cache);

  // Blocking 8x8x8 is a 5.4x modeled reduction.
  TileTraffic t = estimate_tile_traffic(p, loops, {8, 8, 8});
  EXPECT_LT(t.traffic_lines, u.traffic_lines / 5.0);
}

TEST(TileTraffic, CapacityPenaltyKicksIn) {
  constexpr const char* src = R"(do I = 1, 512
  do J = 1, 512
    do K = 1, 512
      S1: C(I, J) = C(I, J) + A(I, K) * B(K, J)
    end
  end
end
)";
  Program p = parse_program(src);
  std::vector<const Node*> loops = stmt_loops(p);
  TileTraffic big = estimate_tile_traffic(p, loops, {256, 256, 256});
  // C alone holds 256 * 256/8 = 8192 lines per tile: over capacity.
  EXPECT_FALSE(big.fits_cache);
  EXPECT_GT(big.footprint_lines, 4096.0);
  EXPECT_GT(big.traffic_lines, big.raw_traffic);

  TileTraffic small = estimate_tile_traffic(p, loops, {16, 16, 16});
  EXPECT_TRUE(small.fits_cache);
  EXPECT_DOUBLE_EQ(small.traffic_lines, small.raw_traffic);
}

TEST(TileTraffic, TileSizeClampsToTrip) {
  constexpr const char* src = R"(do I = 1, 4
  do J = 1, 4
    S1: A(I, J) = A(I, J) + 1.0
  end
end
)";
  Program p = parse_program(src);
  std::vector<const Node*> loops = stmt_loops(p);
  // Sizes beyond the trip behave exactly like size == trip.
  TileTraffic huge = estimate_tile_traffic(p, loops, {100, 100});
  TileTraffic exact = estimate_tile_traffic(p, loops, {4, 4});
  EXPECT_DOUBLE_EQ(huge.traffic_lines, exact.traffic_lines);
  EXPECT_DOUBLE_EQ(huge.footprint_lines, exact.footprint_lines);
}

TEST(TileTraffic, StatementsOutsideTheBandAreIgnored) {
  // Band (J, L) of left-looking Cholesky covers only S3; S1 and S2 sit
  // outside the J subtree and contribute nothing.
  constexpr const char* src = R"(param N
do K = 1, N
  do J = 1, K - 1
    do L = K, N
      S3: A(L, K) = A(L, K) - A(L, J) * A(K, J)
    end
  end
  S1: A(K, K) = sqrt(A(K, K))
  do I = K + 1, N
    S2: A(I, K) = A(I, K) / A(K, K)
  end
end
)";
  Program p = parse_program(src);
  // S3 is statement 0 in program order; its loops are K, J, L.
  std::vector<const Node*> loops = stmt_loops(p, 0);
  ASSERT_EQ(loops.size(), 3u);
  std::vector<const Node*> band{loops[1], loops[2]};  // J, L
  TileTraffic t = estimate_tile_traffic(p, band, {8, 8});
  for (const RefTraffic& r : t.refs) EXPECT_EQ(r.stmt, "S3");
  EXPECT_FALSE(t.refs.empty());
}

}  // namespace
}  // namespace inlt
