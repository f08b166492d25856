// The candidate pipeline's building blocks in isolation: stage
// ordering and early rejection in CandidatePipeline, and the
// accounting / bounded best-K heap in CandidateAccumulator.
#include "pipeline/candidate.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace inlt {
namespace {

TEST(CandidatePipeline, StageKindNames) {
  EXPECT_STREQ(stage_kind_name(StageKind::kLegality), "legality");
  EXPECT_STREQ(stage_kind_name(StageKind::kCost), "cost");
  EXPECT_STREQ(stage_kind_name(StageKind::kCodegen), "codegen");
  EXPECT_STREQ(stage_kind_name(StageKind::kTile), "tile");
  EXPECT_STREQ(stage_kind_name(StageKind::kVerify), "verify");
}

TEST(CandidatePipeline, LeafAndDeferredRunInOrder) {
  CandidatePipeline pipe;
  std::vector<std::string> ran;
  pipe.add(StageKind::kLegality, /*deferred=*/false,
           [&](Candidate&) { ran.push_back("legality"); });
  pipe.add(StageKind::kCost, /*deferred=*/true,
           [&](Candidate&) { ran.push_back("cost"); });
  pipe.add(StageKind::kCodegen, /*deferred=*/true,
           [&](Candidate&) { ran.push_back("codegen"); });

  EXPECT_TRUE(pipe.has(StageKind::kLegality));
  EXPECT_TRUE(pipe.has(StageKind::kCost));
  EXPECT_FALSE(pipe.has(StageKind::kTile));
  EXPECT_TRUE(pipe.has_deferred());
  EXPECT_EQ(pipe.describe(), "legality -> cost -> codegen");

  Candidate c;
  pipe.run_leaf(c);
  EXPECT_EQ(ran, (std::vector<std::string>{"legality"}));
  pipe.run_deferred(c);
  EXPECT_EQ(ran, (std::vector<std::string>{"legality", "cost", "codegen"}));
}

TEST(CandidatePipeline, RejectionStopsRemainingStages) {
  CandidatePipeline pipe;
  std::vector<std::string> ran;
  pipe.add(StageKind::kCost, /*deferred=*/true, [&](Candidate& c) {
    ran.push_back("cost");
    c.rejected = true;
  });
  pipe.add(StageKind::kCodegen, /*deferred=*/true,
           [&](Candidate&) { ran.push_back("codegen"); });

  Candidate c;
  pipe.run_deferred(c);
  EXPECT_EQ(ran, (std::vector<std::string>{"cost"}));
  EXPECT_TRUE(c.rejected);

  // An already-rejected candidate runs nothing at all.
  ran.clear();
  Candidate dead;
  dead.rejected = true;
  pipe.run_deferred(dead);
  EXPECT_TRUE(ran.empty());
}

TEST(CandidatePipeline, RunDeferredDropsScratch) {
  // Pending candidates wait for a worker until search() ends; the
  // inter-stage scratch must not live that long.
  CandidatePipeline pipe;
  pipe.add(StageKind::kCost, /*deferred=*/true, [](Candidate& c) {
    c.recovery.emplace();
    c.target_deps.emplace();
    c.plans.emplace_back();
  });
  pipe.add(StageKind::kCodegen, /*deferred=*/true,
           [](Candidate& c) { c.rejected = true; });
  Candidate c;
  pipe.run_deferred(c);
  EXPECT_TRUE(c.rejected);
  EXPECT_FALSE(c.recovery.has_value());
  EXPECT_FALSE(c.target_deps.has_value());
  EXPECT_TRUE(c.plans.empty());
}

TEST(CandidatePipeline, StagesAreTimedOnlyWhenEnabled) {
  CandidatePipeline pipe;
  pipe.add(StageKind::kTile, /*deferred=*/true, [](Candidate&) {});
  auto runs = [&] {
    return Stats::global().snapshot().histograms["search.stage.tile_ns"].count;
  };
  const i64 before = runs();
  Candidate c;
  pipe.run_deferred(c);
  EXPECT_EQ(runs(), before);
  Stats::enable_timing();
  pipe.run_deferred(c);
  pipe.run_deferred(c);
  Stats::enable_timing(false);
  EXPECT_EQ(runs(), before + 2);
}

TEST(CandidatePipeline, EmptyPipelineHasNothing) {
  CandidatePipeline pipe;
  EXPECT_FALSE(pipe.has_deferred());
  EXPECT_EQ(pipe.describe(), "");
  Candidate c;
  pipe.run_leaf(c);  // no-op
  EXPECT_FALSE(c.rejected);
}

Candidate legal_candidate(i64 index, double cost_lines) {
  Candidate c;
  c.index = index;
  c.result.legal = true;
  CostEstimate est;
  est.total_lines = cost_lines;
  c.cost = std::move(est);
  return c;
}

TEST(CandidateAccumulator, KeepsAllHitsWithoutTopK) {
  SearchOptions sopts;
  CandidateAccumulator acc(/*num_deps=*/2, /*nslots=*/3, {0, 1, 2}, sopts);
  for (i64 i = 0; i < 4; ++i) {
    acc.note_evaluated();
    acc.settle(legal_candidate(i, 100 - i));
  }
  SearchResult res = acc.take();
  ASSERT_EQ(res.hits.size(), 4u);
  for (i64 i = 0; i < 4; ++i) EXPECT_EQ(res.hits[i].index, i);
  EXPECT_EQ(res.stats.legal, 4);
  EXPECT_EQ(res.stats.evaluated, 4);
}

TEST(CandidateAccumulator, TopKKeepsBestByCostThenIndex) {
  SearchOptions sopts;
  sopts.top_k = 2;
  CandidateAccumulator acc(2, 3, {0, 1, 2}, sopts);
  const double costs[] = {5, 3, 3, 1, 4};
  for (i64 i = 0; i < 5; ++i) {
    acc.note_evaluated();
    acc.settle(legal_candidate(i, costs[i]));
  }
  SearchResult res = acc.take();
  ASSERT_EQ(res.hits.size(), 2u);
  // Best: cost 1 (index 3), then the cost-3 tie broken by index (1).
  EXPECT_EQ(res.hits[0].index, 3);
  EXPECT_DOUBLE_EQ(res.hits[0].cost->total_lines, 1);
  EXPECT_EQ(res.hits[1].index, 1);
  EXPECT_DOUBLE_EQ(res.hits[1].cost->total_lines, 3);
  // The heap bounds the hit list, not the accounting.
  EXPECT_EQ(res.stats.legal, 5);
}

TEST(CandidateAccumulator, AllTiedTopKKeepsEarliestIndices) {
  SearchOptions sopts;
  sopts.top_k = 2;
  CandidateAccumulator acc(1, 2, {0, 1}, sopts);
  for (i64 i = 0; i < 4; ++i) {
    acc.note_evaluated();
    acc.settle(legal_candidate(i, 7.0));
  }
  SearchResult res = acc.take();
  ASSERT_EQ(res.hits.size(), 2u);
  EXPECT_EQ(res.hits[0].index, 0);
  EXPECT_EQ(res.hits[1].index, 1);
}

TEST(CandidateAccumulator, MissingCostSortsLast) {
  SearchOptions sopts;
  sopts.top_k = 2;
  CandidateAccumulator acc(1, 2, {0, 1}, sopts);
  Candidate no_cost;
  no_cost.index = 0;
  no_cost.result.legal = true;  // estimate failed: cost stays empty
  acc.note_evaluated();
  acc.settle(std::move(no_cost));
  acc.note_evaluated();
  acc.settle(legal_candidate(1, 9.0));
  acc.note_evaluated();
  acc.settle(legal_candidate(2, 4.0));
  SearchResult res = acc.take();
  ASSERT_EQ(res.hits.size(), 2u);
  EXPECT_EQ(res.hits[0].index, 2);
  EXPECT_EQ(res.hits[1].index, 1);
}

TEST(CandidateAccumulator, SinkSeesEveryLegalCandidate) {
  SearchOptions sopts;
  sopts.top_k = 1;
  std::vector<i64> seen;
  sopts.sink = [&](const SearchHit& h) { seen.push_back(h.index); };
  CandidateAccumulator acc(1, 2, {0, 1}, sopts);
  for (i64 i = 0; i < 3; ++i) {
    acc.note_evaluated();
    acc.settle(legal_candidate(i, 10.0 - static_cast<double>(i)));
  }
  SearchResult res = acc.take();
  EXPECT_EQ(seen, (std::vector<i64>{0, 1, 2}));
  ASSERT_EQ(res.hits.size(), 1u);
  EXPECT_EQ(res.hits[0].index, 2);  // cheapest
}

TEST(CandidateAccumulator, IllegalCandidateAttributedThroughDiagnostic) {
  SearchOptions sopts;
  // Layout positions 0..3 map to slots {-, 0, 1, -}: edge positions
  // carry no slot.
  CandidateAccumulator acc(/*num_deps=*/3, /*nslots=*/2, {-1, 0, 1, -1},
                           sopts);
  Candidate bad;
  bad.index = 0;
  bad.result.legal = false;
  Diagnostic d;
  d.stage = Stage::kLegality;
  d.dep_index = 2;
  d.row = 2;  // layout position 2 -> slot 1
  bad.result.legality.diagnostics.push_back(d);
  acc.note_evaluated();
  acc.settle(std::move(bad));

  SearchResult res = acc.take();
  EXPECT_EQ(res.stats.illegal_evaluated, 1);
  EXPECT_EQ(res.rejections.rejected, 1);
  EXPECT_EQ(res.rejections.by_dependence[2], 1);
  EXPECT_EQ(res.rejections.by_row[1], 1);
}

TEST(CandidateAccumulator, IllegalWithoutProvenanceOnlyCounts) {
  // A codegen-stage failure has no dependence to blame: it lands in
  // illegal_evaluated but not in the rejection breakdown.
  SearchOptions sopts;
  CandidateAccumulator acc(2, 2, {0, 1}, sopts);
  Candidate bad;
  bad.index = 0;
  bad.result.legal = false;
  bad.result.error = "codegen failed";
  acc.note_evaluated();
  acc.settle(std::move(bad));
  SearchResult res = acc.take();
  EXPECT_EQ(res.stats.illegal_evaluated, 1);
  EXPECT_EQ(res.rejections.rejected, 0);
}

TEST(CandidateAccumulator, PruneAccounting) {
  SearchOptions sopts;
  CandidateAccumulator acc(/*num_deps=*/2, /*nslots=*/3, {0, 1, 2}, sopts);
  acc.prune_subtree(/*dep=*/0, /*row=*/1, /*leaves=*/5);
  acc.prune_leaf(/*dep=*/1);
  SearchResult res = acc.take();
  EXPECT_EQ(res.stats.pruned_subtrees, 1);
  EXPECT_EQ(res.stats.pruned_candidates, 6);
  EXPECT_EQ(res.rejections.rejected, 6);
  EXPECT_EQ(res.rejections.by_dependence[0], 5);
  EXPECT_EQ(res.rejections.by_dependence[1], 1);
  EXPECT_EQ(res.rejections.by_row[1], 5);
  // A leaf prune decided only at completion: the trailing bucket.
  EXPECT_EQ(res.rejections.by_row[3], 1);
}

TEST(CandidateAccumulator, SubtreeTallyAddsToTheWalks) {
  // A subtree's tally (its prunes and counted leaves) adds to the
  // calling thread's as if one walk had recorded both.
  SearchOptions sopts;
  CandidateAccumulator acc(/*num_deps=*/2, /*nslots=*/3, {0, 1, 2}, sopts);
  acc.prune_subtree(/*dep=*/0, /*row=*/0, /*leaves=*/8);
  WalkTally sub(/*num_deps=*/2, /*nslots=*/3);
  sub.prune_subtree(/*dep=*/1, /*row=*/2, /*leaves=*/2);
  sub.prune_leaf(/*dep=*/0);
  sub.note_evaluated();
  sub.count_legal();
  acc.tally().add(sub);
  SearchResult res = acc.take();
  EXPECT_EQ(res.stats.pruned_subtrees, 2);
  EXPECT_EQ(res.stats.pruned_candidates, 11);
  EXPECT_EQ(res.stats.evaluated, 1);
  EXPECT_EQ(res.stats.legal, 1);
  EXPECT_TRUE(res.hits.empty());
  EXPECT_EQ(res.rejections.rejected, 11);
  EXPECT_EQ(res.rejections.by_dependence, (std::vector<i64>{9, 2}));
  EXPECT_EQ(res.rejections.by_row, (std::vector<i64>{8, 0, 2, 1}));
}

TEST(CandidateAccumulator, VerifyCountersFollowSettledResults) {
  SearchOptions sopts;
  CandidateAccumulator acc(1, 1, {0}, sopts);
  Candidate ok = legal_candidate(0, 1.0);
  VerifyResult good;
  good.equivalent = true;
  ok.result.verify = good;
  acc.note_evaluated();
  acc.settle(std::move(ok));

  Candidate mismatch = legal_candidate(1, 2.0);
  VerifyResult badv;
  badv.equivalent = false;
  mismatch.result.verify = badv;
  acc.note_evaluated();
  acc.settle(std::move(mismatch));

  SearchResult res = acc.take();
  EXPECT_EQ(res.stats.verified, 2);
  EXPECT_EQ(res.stats.verify_failed, 1);
}

}  // namespace
}  // namespace inlt
