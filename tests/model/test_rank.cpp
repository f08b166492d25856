// Rank mode end to end: the cost model against VM ground truth, and
// the determinism / bounding guarantees of top-k ranked search.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "exec/interp.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "model/cost.hpp"
#include "pipeline/search.hpp"
#include "support/stats.hpp"
#include "transform/completion.hpp"

namespace inlt {
namespace {

// Probe one program with an undersized direct-mapped tag table — the
// deterministic stand-in for a real cache's miss count.
i64 probed_lines(const Program& p, i64 n, int bucket_bits) {
  Memory mem;
  const std::map<std::string, i64> params = {{"N", n}};
  declare_arrays(p, params, mem);
  fill_spd(mem, 1);
  CacheProbe probe;
  probe.bucket_bits = bucket_bits;
  InterpOptions io;
  io.cache_probe = &probe;
  interpret(p, params, mem, io);
  return probe.lines;
}

TEST(RankTest, ModelTopOneMatchesProbeOnCholeskyOrders) {
  // The acceptance check: across the expressible Cholesky orderings,
  // the order the model scores cheapest must also touch the fewest
  // probe lines. N is chosen so the working set (48*48/8 = 288 lines)
  // overflows the 256-entry table and loop order matters.
  const i64 n = 48;
  TransformSession session(gallery::cholesky());
  const IvLayout& layout = session.layout();
  ModelOptions mopts;
  mopts.nominal_trip = n;

  std::vector<std::string> names;
  std::vector<double> model;
  std::vector<i64> measured;
  const std::vector<std::string> orders = {"KJL", "KLJ", "LJK", "LKJ"};
  for (const std::string& order : orders) {
    std::vector<IntVec> rows;
    for (char c : order) {
      IntVec r(layout.size(), 0);
      r[layout.loop_position(std::string(1, c))] = 1;
      rows.push_back(std::move(r));
    }
    IntMat m =
        complete_transformation(layout, session.dependences(), rows).matrix;
    CandidateResult cand = session.evaluate(m);
    ASSERT_TRUE(cand.legal && cand.program) << order;
    names.push_back(order);
    model.push_back(estimate_cost(layout, m, mopts).total_lines);
    measured.push_back(probed_lines(*cand.program, n, /*bucket_bits=*/8));
  }

  size_t mbest = std::min_element(model.begin(), model.end()) - model.begin();
  size_t vbest =
      std::min_element(measured.begin(), measured.end()) - measured.begin();
  EXPECT_EQ(names[mbest], names[vbest])
      << "model best " << names[mbest] << " (" << model[mbest]
      << " lines) vs measured best " << names[vbest] << " ("
      << measured[vbest] << " lines)";
}

TEST(RankTest, RankedSearchIsDeterministicAcrossThreadCounts) {
  // The Cost stage runs on worker threads; the merged
  // ranking must not depend on how many there are.
  std::vector<std::vector<std::pair<i64, double>>> runs;
  for (int threads : {1, 2, 4}) {
    SessionOptions opts;
    opts.threads = threads;
    TransformSession session(gallery::cholesky(), opts);
    SearchOptions sopts;
    sopts.mode = SearchMode::kLegalityOnly;
    sopts.top_k = 5;
    SearchResult res =
        session.search(SearchSpace{/*skew_bound=*/1, /*skew_depth=*/1}, sopts);
    std::vector<std::pair<i64, double>> seq;
    for (const SearchHit& h : res.hits) {
      ASSERT_TRUE(h.cost.has_value());
      seq.emplace_back(h.index, h.cost->total_lines);
    }
    runs.push_back(std::move(seq));
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(RankTest, TopKKeepsTheBestOfTheFullRanking) {
  SessionOptions opts;
  opts.threads = 1;
  TransformSession session(gallery::cholesky(), opts);
  SearchSpace space{/*skew_bound=*/1, /*skew_depth=*/1};

  SearchOptions all;
  all.mode = SearchMode::kLegalityOnly;
  all.cost = true;
  SearchResult full = session.search(space, all);
  ASSERT_GT(full.hits.size(), 2u);
  for (const SearchHit& h : full.hits) ASSERT_TRUE(h.cost.has_value());

  // Reference ranking: stable sort of every hit by (cost, index).
  std::vector<std::pair<double, i64>> ranked;
  for (const SearchHit& h : full.hits)
    ranked.emplace_back(h.cost->total_lines, h.index);
  std::sort(ranked.begin(), ranked.end());

  SearchOptions top;
  top.mode = SearchMode::kLegalityOnly;
  top.top_k = 2;
  SearchResult best = session.search(space, top);
  ASSERT_EQ(best.hits.size(), 2u);
  for (size_t i = 0; i < best.hits.size(); ++i) {
    EXPECT_EQ(best.hits[i].index, ranked[i].second);
    EXPECT_DOUBLE_EQ(best.hits[i].cost->total_lines, ranked[i].first);
  }
  // Bounding the hit list does not change the accounting.
  EXPECT_EQ(best.stats.legal, full.stats.legal);
  EXPECT_EQ(best.stats.candidates_total, full.stats.candidates_total);
}

TEST(RankTest, SinkSeesEveryLegalCandidateDespiteTopK) {
  TransformSession session(gallery::lu());
  SearchOptions sopts;
  sopts.mode = SearchMode::kLegalityOnly;
  sopts.top_k = 1;
  std::vector<i64> streamed;
  sopts.sink = [&](const SearchHit& h) { streamed.push_back(h.index); };
  SearchResult res = session.search(SearchSpace{}, sopts);
  EXPECT_EQ(res.hits.size(), 1u);
  EXPECT_EQ(static_cast<i64>(streamed.size()), res.stats.legal);
  EXPECT_TRUE(std::is_sorted(streamed.begin(), streamed.end()));
}

TEST(RankTest, CostStageDoesNotPerturbFullModeResults) {
  // Full mode with cost on: every hit gains an estimate, and the
  // generated programs are bit-identical to a cost-less search.
  SessionOptions opts;
  opts.threads = 1;
  TransformSession session(gallery::cholesky(), opts);
  SearchResult plain = session.search(SearchSpace{});
  SearchOptions with_cost;
  with_cost.cost = true;
  SearchResult costed = session.search(SearchSpace{}, with_cost);

  ASSERT_EQ(costed.hits.size(), plain.hits.size());
  for (size_t i = 0; i < plain.hits.size(); ++i) {
    EXPECT_EQ(costed.hits[i].index, plain.hits[i].index);
    ASSERT_TRUE(costed.hits[i].cost.has_value());
    EXPECT_FALSE(plain.hits[i].cost.has_value());
    ASSERT_TRUE(costed.hits[i].result.program.has_value());
    EXPECT_EQ(print_program(*costed.hits[i].result.program),
              print_program(*plain.hits[i].result.program));
  }
}

TEST(RankTest, EqualCostTiesRankByAscendingIndex) {
  // Cholesky's pure permutation space scores in tied groups (legal
  // candidates that only interleave loops across sibling statements
  // share every per-statement stride). Within a tie, the ranked list
  // must keep ascending candidate index — the deterministic tiebreak.
  TransformSession session(gallery::cholesky());
  SearchOptions all;
  all.mode = SearchMode::kLegalityOnly;
  all.cost = true;
  SearchResult full = session.search(SearchSpace{}, all);
  std::vector<std::pair<double, i64>> ranked;
  for (const SearchHit& h : full.hits) {
    ASSERT_TRUE(h.cost.has_value());
    ranked.emplace_back(h.cost->total_lines, h.index);
  }
  std::sort(ranked.begin(), ranked.end());
  // The space actually has ties to break.
  ASSERT_GT(ranked.size(), 1u);
  ASSERT_EQ(ranked[0].first, ranked[1].first);

  SearchOptions top;
  top.mode = SearchMode::kLegalityOnly;
  top.top_k = 3;
  SearchResult best = session.search(SearchSpace{}, top);
  ASSERT_EQ(best.hits.size(), 3u);
  for (size_t i = 0; i < best.hits.size(); ++i) {
    EXPECT_EQ(best.hits[i].index, ranked[i].second);
    if (i > 0 && best.hits[i - 1].cost->total_lines ==
                     best.hits[i].cost->total_lines) {
      EXPECT_LT(best.hits[i - 1].index, best.hits[i].index);
    }
  }
}

TEST(RankTest, StreamingFanOutIsInOrderAndThreadCountInvariant) {
  // 2,058 legal candidates stream through the deferred stages in
  // blocks while the walk runs: more than the in-flight window at 1, 2
  // or 4 threads, so push() has to wait for settling (backpressure).
  // The sink must still see strictly ascending indices, and hits,
  // stats and rejection provenance must not depend on the thread count.
  struct Run {
    std::vector<std::pair<i64, double>> ranked;
    SearchStats stats;
    RejectionBreakdown rejections;
    i64 inflight_peak = 0;
  };
  std::vector<Run> runs;
  for (int threads : {1, 2, 4}) {
    SessionOptions opts;
    opts.threads = threads;
    TransformSession session(gallery::cholesky(), opts);
    SearchOptions sopts;
    sopts.mode = SearchMode::kLegalityOnly;
    sopts.top_k = 8;
    std::vector<i64> streamed;
    sopts.sink = [&](const SearchHit& h) { streamed.push_back(h.index); };
    Stats::global().counter("search.inflight_peak").store(0);
    SearchResult res = session.search(SearchSpace{3, 1}, sopts);

    ASSERT_EQ(static_cast<i64>(streamed.size()), res.stats.legal);
    for (size_t i = 1; i < streamed.size(); ++i)
      ASSERT_LT(streamed[i - 1], streamed[i]) << "threads " << threads;
    Run r;
    for (const SearchHit& h : res.hits)
      r.ranked.emplace_back(h.index, h.cost->total_lines);
    r.stats = res.stats;
    r.rejections = res.rejections;
    r.inflight_peak = Stats::global().value("search.inflight_peak");
    // Candidate records waiting to settle. At one thread survivors go
    // in blocks: bounded by the window (4 blocks of 64) plus the block
    // being filled. At 2 and 4 the space is cut into subtrees of
    // 14 x 7 = 98 leaves below depth 2, and at most the window's
    // 4 per thread plus one are held. Either way, below the number of
    // survivors.
    const i64 unit = threads == 1 ? 64 : 98;
    EXPECT_GT(r.inflight_peak, 0) << "threads " << threads;
    EXPECT_LE(r.inflight_peak, (4 * threads + 1) * unit)
        << "threads " << threads;
    EXPECT_LT(r.inflight_peak, res.stats.legal) << "threads " << threads;
    runs.push_back(std::move(r));
  }
  EXPECT_EQ(runs[0].stats.legal, 2058);
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].ranked, runs[0].ranked);
    EXPECT_EQ(runs[i].stats.candidates_total, runs[0].stats.candidates_total);
    EXPECT_EQ(runs[i].stats.evaluated, runs[0].stats.evaluated);
    EXPECT_EQ(runs[i].stats.legal, runs[0].stats.legal);
    EXPECT_EQ(runs[i].stats.illegal_evaluated,
              runs[0].stats.illegal_evaluated);
    EXPECT_EQ(runs[i].stats.pruned_candidates,
              runs[0].stats.pruned_candidates);
    EXPECT_EQ(runs[i].stats.pruned_subtrees, runs[0].stats.pruned_subtrees);
    EXPECT_EQ(runs[i].rejections.by_dependence,
              runs[0].rejections.by_dependence);
    EXPECT_EQ(runs[i].rejections.by_row, runs[0].rejections.by_row);
    EXPECT_EQ(runs[i].rejections.rejected, runs[0].rejections.rejected);
  }
}

// -- rank by score --------------------------------------------------
// A top-K search scores every legal candidate and builds the full
// estimate only for those whose score is below the worst kept hit.
// These tests hold it to the ranking of a search that estimates every
// candidate in full.

Program load_testdata(const std::string& name) {
  std::ifstream in(std::string(INLT_TESTDATA_DIR) + "/" + name);
  std::stringstream ss;
  ss << in.rdbuf();
  return parse_program(ss.str());
}

struct RankCase {
  std::string name;
  Program (*make)();
  SearchSpace space;
};

// Names the case in test listings (the default prints raw bytes).
void PrintTo(const RankCase& rc, std::ostream* os) { *os << rc.name; }

Program testdata_cholesky() { return load_testdata("cholesky.loop"); }
Program testdata_skew() { return load_testdata("skew_example.loop"); }
Program testdata_stencil() { return load_testdata("stencil.loop"); }

// Every space the exactness tests rank. Cholesky and LU at 2/2 hold
// 18,750 legal candidates each, in heavily tied cost groups.
std::vector<RankCase> rank_cases() {
  return {
      {"cholesky_1_1", &gallery::cholesky, {1, 1}},
      {"cholesky_2_2", &gallery::cholesky, {2, 2}},
      {"lu_2_1", &gallery::lu, {2, 1}},
      {"lu_2_2", &gallery::lu, {2, 2}},
      {"augmentation_2_2", &gallery::augmentation_example, {2, 2}},
      {"testdata_cholesky_2_1", &testdata_cholesky, {2, 1}},
      {"testdata_skew_2_2", &testdata_skew, {2, 2}},
      {"testdata_stencil_2_2", &testdata_stencil, {2, 2}},
  };
}

// Missing estimates sort last, exact ties by ascending index: the
// order the top-K heap keeps.
double ranked_lines(const SearchHit& h) {
  return h.cost ? h.cost->total_lines : std::numeric_limits<double>::infinity();
}

std::vector<const SearchHit*> full_ranking(const SearchResult& res) {
  std::vector<const SearchHit*> out;
  for (const SearchHit& h : res.hits) out.push_back(&h);
  std::sort(out.begin(), out.end(), [](const SearchHit* a, const SearchHit* b) {
    if (ranked_lines(*a) != ranked_lines(*b))
      return ranked_lines(*a) < ranked_lines(*b);
    return a->index < b->index;
  });
  return out;
}

void expect_same_hit(const SearchHit& got, const SearchHit& want,
                     const std::string& at) {
  EXPECT_EQ(got.index, want.index) << at;
  EXPECT_EQ(got.matrix, want.matrix) << at;
  ASSERT_EQ(got.cost.has_value(), want.cost.has_value()) << at;
  if (want.cost) {
    EXPECT_EQ(got.cost->to_json(), want.cost->to_json()) << at;
  }
}

class RankByScore : public ::testing::TestWithParam<RankCase> {};

TEST_P(RankByScore, TopKEqualsTheFirstKOfTheFullRanking) {
  const RankCase& rc = GetParam();
  for (int exec_threads : {1, 4}) {
    SessionOptions one;
    one.threads = 1;
    TransformSession reference(rc.make(), one);
    SearchOptions all;
    all.mode = SearchMode::kLegalityOnly;
    all.cost = true;
    all.exec_threads = exec_threads;
    const SearchResult full = reference.search(rc.space, all);
    ASSERT_GT(full.hits.size(), 0u) << rc.name;
    const std::vector<const SearchHit*> ranked = full_ranking(full);

    for (int threads : {1, 2, 4}) {
      SessionOptions so;
      so.threads = threads;
      TransformSession session(rc.make(), so);
      for (i64 k : {1, 5, 25}) {
        const std::string at = rc.name + " exec_threads " +
                               std::to_string(exec_threads) + " threads " +
                               std::to_string(threads) + " K " +
                               std::to_string(k);
        SearchOptions top;
        top.mode = SearchMode::kLegalityOnly;
        top.top_k = k;
        top.exec_threads = exec_threads;
        const SearchResult best = session.search(rc.space, top);
        const size_t want = std::min(ranked.size(), static_cast<size_t>(k));
        ASSERT_EQ(best.hits.size(), want) << at;
        for (size_t i = 0; i < want; ++i)
          expect_same_hit(best.hits[i], *ranked[i],
                          at + " rank " + std::to_string(i + 1));
        EXPECT_EQ(best.stats.legal, full.stats.legal) << at;
        EXPECT_EQ(best.stats.candidates_total, full.stats.candidates_total)
            << at;
        EXPECT_EQ(best.rejections.by_row, full.rejections.by_row) << at;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Spaces, RankByScore,
                         ::testing::ValuesIn(rank_cases()),
                         [](const ::testing::TestParamInfo<RankCase>& info) {
                           return info.param.name;
                         });

TEST(RankTest, ScoreIsBitIdenticalToTheEstimatesTotal) {
  for (const RankCase& rc : rank_cases()) {
    TransformSession session(rc.make());
    const IvLayout& layout = session.layout();
    SearchOptions all;
    all.mode = SearchMode::kLegalityOnly;
    all.cost = true;
    const SearchResult res = session.search(rc.space, all);
    const CostModel model(layout);
    const AstRecovery skeleton =
        recover_ast(layout, IntMat::identity(layout.size()));
    for (const SearchHit& h : res.hits) {
      ASSERT_TRUE(h.cost.has_value()) << rc.name << " #" << h.index;
      const double score = model.lines(h.matrix, skeleton);
      EXPECT_EQ(std::memcmp(&score, &h.cost->total_lines, sizeof score), 0)
          << rc.name << " #" << h.index << ": " << score << " vs "
          << h.cost->total_lines;
    }
  }
}

TEST(RankTest, BoundedSearchEstimatesFewCandidatesInFull) {
  // Cholesky 2/2 at one thread: every legal candidate is scored, and
  // only the few that could still enter the top 5 are estimated.
  SessionOptions one;
  one.threads = 1;
  TransformSession session(gallery::cholesky(), one);
  SearchOptions top;
  top.mode = SearchMode::kLegalityOnly;
  top.top_k = 5;
  const StatsSnapshot before = Stats::global().snapshot();
  const SearchResult res = session.search(SearchSpace{2, 2}, top);
  const StatsSnapshot delta = Stats::global().snapshot() - before;
  EXPECT_EQ(res.stats.legal, 18750);
  EXPECT_EQ(delta.counter("model.scores"), res.stats.legal);
  EXPECT_GE(delta.counter("model.estimates"), 5);
  EXPECT_LT(delta.counter("model.estimates"), 50);
}

TEST(RankTest, MemoMissesCountDistinctStepsAtAnyThreadCount) {
  // A miss is counted by the lookup whose insert wins: two threads
  // racing on one N_S count one miss and one hit. Ranking the
  // 403,368-candidate Cholesky 3/2 space computes the same steps at
  // any thread count, so it counts the same misses.
  std::vector<i64> misses;
  for (int threads : {1, 2, 4}) {
    SessionOptions so;
    so.threads = threads;
    TransformSession session(testdata_cholesky(), so);
    SearchOptions top;
    top.mode = SearchMode::kLegalityOnly;
    top.cost = true;
    top.top_k = 5;
    const StatsSnapshot before = Stats::global().snapshot();
    session.search(SearchSpace{3, 2}, top);
    const StatsSnapshot delta = Stats::global().snapshot() - before;
    misses.push_back(delta.counter("model.direction_memo_misses"));
  }
  EXPECT_GT(misses[0], 0);
  EXPECT_EQ(misses[1], misses[0]);
  EXPECT_EQ(misses[2], misses[0]);
}

TEST(RankTest, SinkSeesTheFullEstimateOfEveryHit) {
  // With a sink the bound is off: every streamed hit carries the same
  // estimate an unbounded cost search gives it.
  for (int threads : {1, 4}) {
    SessionOptions so;
    so.threads = threads;
    TransformSession session(gallery::cholesky(), so);
    SearchOptions all;
    all.mode = SearchMode::kLegalityOnly;
    all.cost = true;
    const SearchResult full = session.search(SearchSpace{2, 1}, all);

    SearchOptions top;
    top.mode = SearchMode::kLegalityOnly;
    top.top_k = 5;
    std::vector<std::string> streamed;
    top.sink = [&](const SearchHit& h) {
      streamed.push_back(h.cost ? h.cost->to_json() : "missing");
    };
    const StatsSnapshot before = Stats::global().snapshot();
    const SearchResult best = session.search(SearchSpace{2, 1}, top);
    const StatsSnapshot delta = Stats::global().snapshot() - before;
    ASSERT_EQ(streamed.size(), full.hits.size()) << "threads " << threads;
    for (size_t i = 0; i < streamed.size(); ++i)
      EXPECT_EQ(streamed[i], full.hits[i].cost->to_json())
          << "threads " << threads << " hit " << i;
    EXPECT_EQ(delta.counter("model.estimates"), best.stats.legal)
        << "threads " << threads;
    ASSERT_EQ(best.hits.size(), 5u);
    const std::vector<const SearchHit*> ranked = full_ranking(full);
    for (size_t i = 0; i < best.hits.size(); ++i)
      expect_same_hit(best.hits[i], *ranked[i], "threads " +
                                                    std::to_string(threads));
  }
}

// A generator that also writes the edge columns of loop rows (a
// nonzero entry there is a legal linear transformation: loop rows are
// unconstrained by block structure).
class EdgeColumnGenerator : public CandidateGenerator {
 public:
  EdgeColumnGenerator(const IvLayout& layout, SearchSpace space)
      : inner_(layout, space) {
    for (int p = 0; p < layout.size(); ++p)
      if (layout.positions()[p].kind == PositionKind::kEdge)
        edges_.push_back(p);
  }
  std::unique_ptr<CandidateGenerator> clone() const override {
    return std::make_unique<EdgeColumnGenerator>(*this);
  }
  int num_slots() const override { return inner_.num_slots(); }
  i64 num_options(int depth) const override {
    return 2 * inner_.num_options(depth);
  }
  IntVec row(i64 k) const override {
    IntVec r = inner_.row(k / 2);
    if (k % 2 == 1)
      for (size_t e = 0; e < edges_.size(); ++e)
        r[edges_[e]] += static_cast<i64>(e) + 1;
    return r;
  }
  void push(i64 k) override { inner_.push(k / 2); }
  void pop() override { inner_.pop(); }

 private:
  PermutationSkewGenerator inner_;
  std::vector<int> edges_;
};

TEST(RankTest, EveryCandidateRecoversTheSharedSkeleton) {
  for (const RankCase& rc : rank_cases()) {
    if (rc.space.skew_depth > 1) continue;  // the 1-deep spaces suffice
    const Program program = rc.make();
    const IvLayout layout(program);
    const std::string skeleton = print_program(
        *recover_ast(layout, IntMat::identity(layout.size())).target);
    PermutationSkewGenerator perm(layout, rc.space);
    EdgeColumnGenerator edges(layout, rc.space);
    for (CandidateGenerator* gen :
         std::vector<CandidateGenerator*>{&perm, &edges}) {
      const std::vector<IntMat> all = materialize_candidates(layout, *gen);
      ASSERT_GT(all.size(), 0u) << rc.name;
      for (size_t i = 0; i < all.size(); ++i)
        ASSERT_EQ(print_program(*recover_ast(layout, all[i]).target),
                  skeleton)
            << rc.name << " candidate " << i;
    }
  }
}

TEST(RankTest, EdgeColumnSpaceRanksTheSameCutIntoSubtrees) {
  // Each worker walks its subtrees with its own clone of the
  // generator: the top 5, the full cost ranking and all accounting of
  // the edge-column space equal the one-thread walk, which never cuts.
  struct Run {
    std::vector<std::pair<i64, std::string>> top, all;
    SearchStats stats;
    RejectionBreakdown rejections;
  };
  std::vector<Run> runs;
  for (int threads : {1, 2, 4}) {
    SessionOptions so;
    so.threads = threads;
    TransformSession session(gallery::cholesky(), so);
    EdgeColumnGenerator gen(session.layout(), SearchSpace{2, 1});
    SearchOptions top;
    top.mode = SearchMode::kLegalityOnly;
    top.top_k = 5;
    SearchOptions all = top;
    all.top_k = 0;
    all.cost = true;
    const StatsSnapshot before = Stats::global().snapshot();
    const SearchResult best = session.search(gen, top);
    const SearchResult every = session.search(gen, all);
    const StatsSnapshot delta = Stats::global().snapshot() - before;
    if (threads == 1) {
      EXPECT_EQ(delta.counter("search.subtrees"), 0);
    } else {
      EXPECT_GT(delta.counter("search.subtrees"), 0) << "threads " << threads;
    }
    // One score per legal candidate, whoever scores it.
    EXPECT_EQ(delta.counter("model.scores"), best.stats.legal);
    Run r;
    for (const SearchHit& h : best.hits)
      r.top.emplace_back(h.index, h.cost->to_json());
    for (const SearchHit& h : every.hits)
      r.all.emplace_back(h.index, h.cost->to_json());
    r.stats = best.stats;
    r.rejections = best.rejections;
    EXPECT_EQ(every.stats.legal, best.stats.legal);
    runs.push_back(std::move(r));
  }
  ASSERT_EQ(runs[0].top.size(), 5u);
  for (size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].top, runs[0].top);
    EXPECT_EQ(runs[i].all, runs[0].all);
    EXPECT_EQ(runs[i].stats.evaluated, runs[0].stats.evaluated);
    EXPECT_EQ(runs[i].stats.legal, runs[0].stats.legal);
    EXPECT_EQ(runs[i].stats.pruned_candidates,
              runs[0].stats.pruned_candidates);
    EXPECT_EQ(runs[i].stats.pruned_subtrees, runs[0].stats.pruned_subtrees);
    EXPECT_EQ(runs[i].rejections.by_dependence,
              runs[0].rejections.by_dependence);
    EXPECT_EQ(runs[i].rejections.by_row, runs[0].rejections.by_row);
  }
}

TEST(RankTest, EdgeColumnCandidatesRankLikeOneShotEstimates) {
  // The search's shared skeleton gives every hit of the edge-column
  // generator the estimate a per-candidate recovery gives it.
  for (int threads : {1, 4}) {
    SessionOptions so;
    so.threads = threads;
    TransformSession session(gallery::cholesky(), so);
    const IvLayout& layout = session.layout();
    EdgeColumnGenerator gen(layout, SearchSpace{1, 1});
    SearchOptions all;
    all.mode = SearchMode::kLegalityOnly;
    all.cost = true;
    const SearchResult full = session.search(gen, all);
    ASSERT_GT(full.hits.size(), 0u);
    for (const SearchHit& h : full.hits) {
      ASSERT_TRUE(h.cost.has_value()) << "#" << h.index;
      EXPECT_EQ(h.cost->to_json(),
                estimate_cost(layout, session.dependences(), h.matrix,
                              recover_ast(layout, h.matrix))
                    .to_json())
          << "threads " << threads << " #" << h.index;
    }
    SearchOptions top;
    top.mode = SearchMode::kLegalityOnly;
    top.top_k = 5;
    const SearchResult best = session.search(gen, top);
    const std::vector<const SearchHit*> ranked = full_ranking(full);
    ASSERT_EQ(best.hits.size(), std::min<size_t>(5, ranked.size()));
    for (size_t i = 0; i < best.hits.size(); ++i)
      expect_same_hit(best.hits[i], *ranked[i],
                      "threads " + std::to_string(threads));
  }
}

}  // namespace
}  // namespace inlt
