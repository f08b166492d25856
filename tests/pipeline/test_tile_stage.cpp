// The kTile pipeline stage: full-mode search with SearchOptions::tile
// must tile every legal candidate's generated program, verification
// must run against the *tiled* program (with the partition remapped to
// tile loops), and legality-only mode must skip the stage entirely.
#include "pipeline/search.hpp"

#include <gtest/gtest.h>

#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"

namespace inlt {
namespace {

Program matmul() {
  return parse_program(R"(param N
do I = 1, N
  do J = 1, N
    do K = 1, N
      S1: C(I, J) = C(I, J) + A(I, K) * B(K, J)
    end
  end
end
)");
}

TEST(TileStage, FullSearchCarriesAppliedPlans) {
  SessionOptions opts;
  opts.threads = 1;
  TransformSession session(matmul(), opts);

  SearchOptions sopts;
  sopts.tile = true;
  sopts.tile_opts.auto_select = true;
  sopts.verify_params = {{"N", 9}};
  SearchResult res = session.search(SearchSpace{}, sopts);

  ASSERT_FALSE(res.hits.empty());
  EXPECT_GT(res.stats.verified, 0);
  EXPECT_EQ(res.stats.verify_failed, 0);

  int applied = 0;
  for (const SearchHit& h : res.hits) {
    ASSERT_TRUE(h.tile.has_value()) << "hit " << h.index;
    if (!h.tile->applied) continue;
    ++applied;
    EXPECT_FALSE(h.tile->tile_vars.empty()) << "hit " << h.index;
    ASSERT_TRUE(h.result.program.has_value());
    // The hit's program IS the tiled program: its tile loops exist.
    std::string text = print_program(*h.result.program);
    EXPECT_NE(text.find("do " + h.tile->tile_vars[0]), std::string::npos)
        << text;
    EXPECT_LT(h.tile->tiled_traffic, h.tile->untiled_traffic);
    // Verification above ran on exactly this (tiled) program.
    ASSERT_TRUE(h.result.verify.has_value());
    EXPECT_TRUE(h.result.verify->equivalent);
  }
  // Matmul is fully permutable: every order is legal and tileable.
  EXPECT_EQ(applied, static_cast<int>(res.hits.size()));
}

TEST(TileStage, LegalityOnlySkipsTiling) {
  SessionOptions opts;
  opts.threads = 1;
  TransformSession session(matmul(), opts);

  SearchOptions sopts;
  sopts.mode = SearchMode::kLegalityOnly;
  sopts.tile = true;
  sopts.tile_opts.auto_select = true;
  SearchResult res = session.search(SearchSpace{}, sopts);

  ASSERT_FALSE(res.hits.empty());
  for (const SearchHit& h : res.hits)
    EXPECT_FALSE(h.tile.has_value()) << "hit " << h.index;
}

TEST(TileStage, UntileableCandidatesKeepTheirProgram) {
  // The running example's generated programs are not all analyzable or
  // tileable; the stage must degrade per candidate (note set, program
  // untouched) and never fail the search.
  SessionOptions opts;
  opts.threads = 1;
  TransformSession session(gallery::fig1_running_example(), opts);

  SearchOptions sopts;
  sopts.tile = true;
  sopts.tile_opts.auto_select = true;
  sopts.verify_params = {{"N", 8}};
  SearchResult res = session.search(SearchSpace{}, sopts);

  ASSERT_FALSE(res.hits.empty());
  EXPECT_EQ(res.stats.verify_failed, 0);
  for (const SearchHit& h : res.hits) {
    ASSERT_TRUE(h.tile.has_value());
    if (!h.tile->applied) {
      EXPECT_FALSE(h.tile->note.empty()) << "hit " << h.index;
      EXPECT_TRUE(h.result.program.has_value());
    }
  }
}

TEST(TileStage, ParallelVerificationUsesRemappedPartition) {
  // exec_threads > 1 exercises tiled_partition inside the verify
  // stage: the doall partition of the candidate is remapped to tile
  // loops before the parallel run. Bit-identical results are the
  // whole point — verify_failed must stay 0.
  SessionOptions opts;
  opts.threads = 1;
  TransformSession session(matmul(), opts);

  SearchOptions sopts;
  sopts.tile = true;
  sopts.tile_opts.sizes = {4, 4, 4};
  sopts.tile_opts.force = true;
  sopts.verify_params = {{"N", 11}};
  sopts.exec_threads = 4;
  SearchResult res = session.search(SearchSpace{}, sopts);

  ASSERT_FALSE(res.hits.empty());
  EXPECT_GT(res.stats.verified, 0);
  EXPECT_EQ(res.stats.verify_failed, 0);
}

// Runs at most once without running exactly once: a lower term with
// denominator 1 that is also an upper term, as strip-mining a one-trip
// loop gives (`do L = max(LT, -J), min(LT + 31, -J)`).
bool strip_mined_one_trip(const Node& n) {
  if (n.runs_once()) return false;
  for (const BoundTerm& t : n.lower().terms)
    for (const BoundTerm& u : n.upper().terms)
      if (t.den == 1 && t == u) return true;
  return false;
}

TEST(TileStage, LeavesOneTripLoopsUntiled) {
  // LU's skew-bound-1 candidates emit loops that run exactly once
  // (`do L = -J, -J`); the tile stage keeps them out of its bands, so
  // no tiled hit visits every row of an empty tile.
  SessionOptions opts;
  opts.threads = 1;
  TransformSession session(gallery::lu(), opts);

  SearchOptions sopts;
  sopts.tile = true;
  SearchResult res = session.search(SearchSpace{1, 1}, sopts);

  ASSERT_EQ(res.hits.size(), 162u);
  int applied = 0, once = 0, strip_mined = 0;
  std::string first;
  for (const SearchHit& h : res.hits) {
    ASSERT_TRUE(h.result.program.has_value()) << "hit " << h.index;
    if (h.tile && h.tile->applied) ++applied;
    int bad = 0;
    walk(*h.result.program,
         [&](const Node& n, const std::vector<const Node*>&) {
           if (!n.is_loop()) return;
           once += n.runs_once();
           bad += strip_mined_one_trip(n);
         });
    if (bad > 0 && strip_mined++ == 0)
      first = print_program(*h.result.program);
  }
  EXPECT_GT(applied, 0);
  EXPECT_GT(once, 0);
  EXPECT_EQ(strip_mined, 0) << "first such hit:\n" << first;
}

TEST(TileStage, ExplicitSizesPropagate) {
  SessionOptions opts;
  opts.threads = 1;
  TransformSession session(matmul(), opts);

  SearchOptions sopts;
  sopts.tile = true;
  sopts.tile_opts.sizes = {8, 8, 8};
  sopts.tile_opts.force = true;
  SearchResult res = session.search(SearchSpace{}, sopts);

  ASSERT_FALSE(res.hits.empty());
  for (const SearchHit& h : res.hits) {
    ASSERT_TRUE(h.tile.has_value());
    if (h.tile->applied) {
      EXPECT_EQ(h.tile->spec.sizes, (std::vector<i64>{8, 8, 8}));
    }
  }
}

}  // namespace
}  // namespace inlt
