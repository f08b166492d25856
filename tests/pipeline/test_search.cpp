// TransformSession::search(): results must be index-aligned with the
// materialized candidate list and bit-identical to sequential
// evaluate() calls — pruning may only skip candidates evaluate()
// would reject.
#include "pipeline/search.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "ir/gallery.hpp"
#include "ir/printer.hpp"
#include "transform/legality.hpp"

namespace inlt {
namespace {

// Evaluate every materialized candidate sequentially and check the
// search result against it, index by index.
void expect_search_matches_evaluate(Program (*make)(), const SearchSpace& space,
                                    bool exact = false) {
  SessionOptions opts;
  opts.threads = 1;
  opts.exact = exact;
  TransformSession ref(make(), opts);
  PermutationSkewGenerator gen(ref.layout(), space);
  std::vector<IntMat> cands = materialize_candidates(ref.layout(), gen);

  TransformSession searcher(make(), opts);
  PermutationSkewGenerator gen2(searcher.layout(), space);
  SearchResult res = searcher.search(gen2);

  ASSERT_EQ(res.stats.candidates_total, static_cast<i64>(cands.size()));
  EXPECT_EQ(res.stats.evaluated + res.stats.pruned_candidates,
            res.stats.candidates_total);
  EXPECT_EQ(res.stats.legal + res.stats.illegal_evaluated,
            res.stats.evaluated);
  EXPECT_EQ(res.stats.legal, static_cast<i64>(res.hits.size()));

  size_t h = 0;
  for (size_t i = 0; i < cands.size(); ++i) {
    CandidateResult expected = ref.evaluate(cands[i]);
    bool hit = h < res.hits.size() &&
               res.hits[h].index == static_cast<i64>(i);
    ASSERT_EQ(hit, expected.legal) << "candidate " << i;
    if (!hit) continue;
    const SearchHit& sh = res.hits[h++];
    // The hit's matrix is the materialized candidate at its index...
    EXPECT_TRUE(sh.matrix == cands[i]);
    // ...and the result is bit-identical to a sequential evaluate().
    ASSERT_TRUE(sh.result.legal);
    ASSERT_TRUE(sh.result.program.has_value());
    EXPECT_EQ(print_program(*sh.result.program),
              print_program(*expected.program))
        << "candidate " << i;
    EXPECT_EQ(sh.result.legality.unsatisfied, expected.legality.unsatisfied);
    EXPECT_EQ(sh.result.error, expected.error);
  }
  EXPECT_EQ(h, res.hits.size());  // every hit consumed, in order
}

TEST(SearchTest, CholeskyOrderSweepMatchesEvaluate) {
  expect_search_matches_evaluate(&gallery::cholesky, SearchSpace{});
}

TEST(SearchTest, LuOrderSweepMatchesEvaluate) {
  expect_search_matches_evaluate(&gallery::lu, SearchSpace{});
}

TEST(SearchTest, SimplifiedCholeskySkewSweepMatchesEvaluate) {
  expect_search_matches_evaluate(&gallery::simplified_cholesky,
                                 SearchSpace{/*skew_bound=*/1,
                                             /*skew_depth=*/1});
}

TEST(SearchTest, CholeskySkewSweepMatchesEvaluate) {
  expect_search_matches_evaluate(&gallery::cholesky,
                                 SearchSpace{/*skew_bound=*/1,
                                             /*skew_depth=*/1});
}

TEST(SearchTest, ExactModeEvaluatesEverything) {
  // The hull engine must not prune exact-mode searches.
  SessionOptions opts;
  opts.exact = true;
  opts.threads = 1;
  TransformSession session(gallery::simplified_cholesky(), opts);
  SearchResult res = session.search(SearchSpace{});
  EXPECT_EQ(res.stats.pruned_candidates, 0);
  EXPECT_EQ(res.stats.evaluated, res.stats.candidates_total);
  expect_search_matches_evaluate(&gallery::simplified_cholesky, SearchSpace{},
                                 /*exact=*/true);
}

TEST(SearchTest, PruningActuallyHappens) {
  // Cholesky's order sweep has illegal prefixes; the engine must prune
  // at least one whole subtree rather than evaluating every candidate.
  TransformSession session(gallery::cholesky());
  SearchResult res = session.search(SearchSpace{});
  EXPECT_GT(res.stats.pruned_subtrees, 0);
  EXPECT_GT(res.stats.pruned_candidates, 0);
  EXPECT_LT(res.stats.evaluated, res.stats.candidates_total);
  EXPECT_GT(res.stats.legal, 0);
}

TEST(SearchTest, LegalityOnlyModeMatchesFullVerdicts) {
  // The filter mode must classify every candidate exactly like the
  // full pipeline — same hit indices, same unsatisfied sets — it just
  // skips code generation.
  SessionOptions opts;
  opts.threads = 1;
  TransformSession session(gallery::cholesky(), opts);
  SearchSpace space{/*skew_bound=*/1, /*skew_depth=*/1};
  SearchResult full = session.search(space);
  SearchResult filter = session.search(
      space, SearchOptions{.mode = SearchMode::kLegalityOnly});

  EXPECT_EQ(filter.stats.candidates_total, full.stats.candidates_total);
  EXPECT_EQ(filter.stats.legal, full.stats.legal);
  ASSERT_EQ(filter.hits.size(), full.hits.size());
  for (size_t i = 0; i < full.hits.size(); ++i) {
    EXPECT_EQ(filter.hits[i].index, full.hits[i].index);
    EXPECT_TRUE(filter.hits[i].matrix == full.hits[i].matrix);
    EXPECT_TRUE(filter.hits[i].result.legal);
    EXPECT_EQ(filter.hits[i].result.legality.unsatisfied,
              full.hits[i].result.legality.unsatisfied);
    // No program generated in filter mode.
    EXPECT_FALSE(filter.hits[i].result.program.has_value());
  }
}

TEST(SearchTest, LegalityOnlyModeExact) {
  // Exact mode cannot use the hull engine; the filter still decides
  // each candidate with the ILP test and must agree with full search.
  SessionOptions opts;
  opts.exact = true;
  opts.threads = 1;
  TransformSession session(gallery::simplified_cholesky(), opts);
  SearchResult full = session.search(SearchSpace{});
  SearchResult filter = session.search(
      SearchSpace{}, SearchOptions{.mode = SearchMode::kLegalityOnly});
  ASSERT_EQ(filter.hits.size(), full.hits.size());
  for (size_t i = 0; i < full.hits.size(); ++i) {
    EXPECT_EQ(filter.hits[i].index, full.hits[i].index);
    EXPECT_FALSE(filter.hits[i].result.program.has_value());
  }
}

TEST(SearchTest, SinkStreamsHitsInOrder) {
  TransformSession session(gallery::cholesky());
  std::vector<i64> streamed;
  SearchResult res = session.search(
      SearchSpace{},
      SearchOptions{.sink = [&](const SearchHit& h) {
        streamed.push_back(h.index);
      }});
  ASSERT_EQ(streamed.size(), res.hits.size());
  for (size_t i = 0; i < streamed.size(); ++i)
    EXPECT_EQ(streamed[i], res.hits[i].index);
  EXPECT_TRUE(std::is_sorted(streamed.begin(), streamed.end()));
}

TEST(SearchTest, RepeatedSearchesReuseTheEngine) {
  TransformSession session(gallery::lu());
  SearchResult first = session.search(SearchSpace{});
  i64 hits0 = Stats::global().value("incremental.memo_hits");
  SearchResult second = session.search(SearchSpace{});
  // Second sweep of the same space: every engine push is memoized.
  EXPECT_GT(Stats::global().value("incremental.memo_hits"), hits0);
  EXPECT_EQ(first.stats.legal, second.stats.legal);
  EXPECT_EQ(first.hits.size(), second.hits.size());
  for (size_t i = 0; i < first.hits.size(); ++i)
    EXPECT_EQ(first.hits[i].index, second.hits[i].index);
}

TEST(SearchTest, RejectionBreakdownAccountsForEveryIllegalCandidate) {
  // Hull mode on the Cholesky order sweep: every illegal candidate is
  // rejected by the engine (at a prefix or at the leaf), so the
  // provenance must attribute exactly the pruned count, and the
  // per-dependence and per-row tallies must each sum to it.
  SessionOptions opts;
  opts.threads = 1;
  TransformSession session(gallery::cholesky(), opts);
  SearchResult res = session.search(SearchSpace{});
  ASSERT_GT(res.stats.pruned_candidates, 0);
  EXPECT_EQ(res.rejections.rejected,
            res.stats.pruned_candidates + res.stats.illegal_evaluated);

  i64 by_dep = 0, by_row = 0;
  for (i64 n : res.rejections.by_dependence) {
    EXPECT_GE(n, 0);
    by_dep += n;
  }
  for (i64 n : res.rejections.by_row) {
    EXPECT_GE(n, 0);
    by_row += n;
  }
  EXPECT_EQ(by_dep, res.rejections.rejected);
  EXPECT_EQ(by_row, res.rejections.rejected);
  ASSERT_EQ(res.rejections.by_dependence.size(),
            session.dependences().deps.size());
  // by_row has one bucket per slot plus the completion bucket.
  EXPECT_EQ(res.rejections.by_row.size(),
            session.layout().all_loop_positions().size() + 1);
  EXPECT_NE(res.rejections.to_text(session.dependences()).find("rejected"),
            std::string::npos);
}

TEST(SearchTest, RejectionTotalMatchesBatchLegality) {
  // The number of candidates the breakdown attributes equals the
  // number check_legality rejects over the materialized list.
  SessionOptions opts;
  opts.threads = 1;
  TransformSession session(gallery::cholesky(), opts);
  PermutationSkewGenerator gen(session.layout(), SearchSpace{});
  std::vector<IntMat> cands = materialize_candidates(session.layout(), gen);
  i64 illegal = 0;
  for (const IntMat& m : cands)
    if (!check_legality(session.layout(), session.dependences(), m).legal())
      ++illegal;

  PermutationSkewGenerator gen2(session.layout(), SearchSpace{});
  SearchOptions sopts;
  sopts.mode = SearchMode::kLegalityOnly;
  SearchResult res = session.search(gen2, sopts);
  EXPECT_EQ(res.rejections.rejected, illegal);
  // Every attributed dependence is one that actually appears in a
  // violation somewhere in the space.
  for (size_t d = 0; d < res.rejections.by_dependence.size(); ++d) {
    if (res.rejections.by_dependence[d] == 0) continue;
    bool violates_somewhere = false;
    for (const IntMat& m : cands) {
      LegalityResult lr =
          check_legality(session.layout(), session.dependences(), m);
      for (const Diagnostic& dg : lr.diagnostics)
        if (dg.dep_index == static_cast<int>(d)) violates_somewhere = true;
    }
    EXPECT_TRUE(violates_somewhere) << "dependence " << d;
  }
}

TEST(SearchTest, ProgressCallbackIsMonotonicAndFinal) {
  SessionOptions opts;
  opts.threads = 1;
  TransformSession session(gallery::cholesky(), opts);
  std::vector<SearchProgress> reports;
  SearchOptions sopts;
  sopts.mode = SearchMode::kLegalityOnly;
  sopts.progress_interval = 1;  // report as often as possible
  sopts.progress = [&](const SearchProgress& p) { reports.push_back(p); };
  SearchResult res = session.search(SearchSpace{}, sopts);

  ASSERT_FALSE(reports.empty());
  i64 prev = -1;
  for (const SearchProgress& p : reports) {
    EXPECT_GE(p.done, prev);
    prev = p.done;
    EXPECT_EQ(p.total, res.stats.candidates_total);
    EXPECT_LE(p.done, p.total);
    EXPECT_GE(p.elapsed_s, 0.0);
    EXPECT_GE(p.rate, 0.0);
    EXPECT_GE(p.prune_rate, 0.0);
    EXPECT_LE(p.prune_rate, 1.0);
    EXPECT_GE(p.eta_s, 0.0);
  }
  // The final report closes the bar: done == total, final tallies.
  EXPECT_EQ(reports.back().done, res.stats.candidates_total);
  EXPECT_EQ(reports.back().legal, res.stats.legal);
  EXPECT_EQ(reports.back().pruned, res.stats.pruned_candidates);
}

TEST(SearchTest, ProgressNotCalledWhenUnset) {
  // No progress callback: nothing to report, nothing crashes — and a
  // repeat search on the now-warm session agrees with the first.
  TransformSession session(gallery::lu());
  const SearchOptions sopts{.mode = SearchMode::kLegalityOnly};
  SearchResult a = session.search(SearchSpace{}, sopts);
  SearchResult b = session.search(SearchSpace{}, sopts);
  EXPECT_EQ(a.stats.legal, b.stats.legal);
  EXPECT_EQ(a.rejections.rejected, b.rejections.rejected);
  EXPECT_EQ(a.rejections.by_dependence, b.rejections.by_dependence);
  EXPECT_EQ(a.rejections.by_row, b.rejections.by_row);
}

TEST(SearchTest, GeneratorEnumeratesExpectedCounts) {
  Program p = gallery::cholesky();
  IvLayout layout(p);
  {
    PermutationSkewGenerator gen(layout, SearchSpace{});
    std::vector<IntMat> cands = materialize_candidates(layout, gen);
    EXPECT_EQ(cands.size(), 24u);  // 4! orders
  }
  {
    PermutationSkewGenerator gen(layout, SearchSpace{1, 1});
    // Depth t branching: (4-t) * 3^min(t,1) -> 4 * 9 * 6 * 3 = 648.
    std::vector<IntMat> cands = materialize_candidates(layout, gen);
    EXPECT_EQ(cands.size(), 648u);
  }
}

}  // namespace
}  // namespace inlt
