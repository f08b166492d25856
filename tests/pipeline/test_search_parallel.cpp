// The deferred evaluation stage of full-mode search() runs candidates
// on worker threads; the merged result must be bit-identical to a
// single-threaded run — same hits in the same order, same stats, same
// rejection provenance — with or without semantic verification.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ir/gallery.hpp"
#include "ir/printer.hpp"
#include "pipeline/candidate.hpp"
#include "pipeline/search.hpp"
#include "support/stats.hpp"

namespace inlt {
namespace {

SearchResult run_search(Program (*make)(), int threads,
                        const SearchSpace& space,
                        const SearchOptions& sopts) {
  SessionOptions opts;
  opts.threads = threads;
  TransformSession session(make(), opts);
  PermutationSkewGenerator gen(session.layout(), space);
  return session.search(gen, sopts);
}

void expect_identical(const SearchResult& a, const SearchResult& b) {
  EXPECT_EQ(a.stats.candidates_total, b.stats.candidates_total);
  EXPECT_EQ(a.stats.evaluated, b.stats.evaluated);
  EXPECT_EQ(a.stats.legal, b.stats.legal);
  EXPECT_EQ(a.stats.illegal_evaluated, b.stats.illegal_evaluated);
  EXPECT_EQ(a.stats.pruned_candidates, b.stats.pruned_candidates);
  EXPECT_EQ(a.stats.pruned_subtrees, b.stats.pruned_subtrees);
  EXPECT_EQ(a.stats.verified, b.stats.verified);
  EXPECT_EQ(a.stats.verify_failed, b.stats.verify_failed);
  EXPECT_EQ(a.rejections.by_dependence, b.rejections.by_dependence);
  EXPECT_EQ(a.rejections.by_row, b.rejections.by_row);
  EXPECT_EQ(a.rejections.rejected, b.rejections.rejected);
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (size_t i = 0; i < a.hits.size(); ++i) {
    EXPECT_EQ(a.hits[i].index, b.hits[i].index);
    EXPECT_TRUE(a.hits[i].matrix == b.hits[i].matrix);
    ASSERT_EQ(a.hits[i].result.program.has_value(),
              b.hits[i].result.program.has_value());
    if (a.hits[i].result.program.has_value()) {
      EXPECT_EQ(print_program(*a.hits[i].result.program),
                print_program(*b.hits[i].result.program));
    }
    ASSERT_EQ(a.hits[i].result.verify.has_value(),
              b.hits[i].result.verify.has_value());
    if (a.hits[i].result.verify.has_value()) {
      EXPECT_EQ(a.hits[i].result.verify->equivalent,
                b.hits[i].result.verify->equivalent);
      EXPECT_EQ(a.hits[i].result.verify->max_diff,
                b.hits[i].result.verify->max_diff);
    }
  }
}

TEST(SearchParallel, FourThreadsMatchSequential) {
  SearchSpace space{/*skew_bound=*/1, /*skew_depth=*/1};
  SearchOptions sopts;
  SearchResult seq = run_search(&gallery::cholesky, 1, space, sopts);
  SearchResult par = run_search(&gallery::cholesky, 4, space, sopts);
  EXPECT_GT(seq.stats.legal, 0);
  expect_identical(seq, par);
}

TEST(SearchParallel, VerificationRunsOnWorkerThreads) {
  SearchSpace space{};
  SearchOptions sopts;
  sopts.verify_params = {{"N", 6}};
  SearchResult seq = run_search(&gallery::lu, 1, space, sopts);
  SearchResult par = run_search(&gallery::lu, 4, space, sopts);
  EXPECT_GT(seq.stats.legal, 0);
  // Every legal candidate was verified and none disagreed with the
  // source: legality and codegen are sound, so a verify failure here
  // means the engines diverged.
  EXPECT_EQ(seq.stats.verified, seq.stats.legal);
  EXPECT_EQ(seq.stats.verify_failed, 0);
  for (const SearchHit& h : seq.hits) {
    ASSERT_TRUE(h.result.verify.has_value());
    EXPECT_TRUE(h.result.verify->equivalent) << h.result.verify->to_string();
  }
  expect_identical(seq, par);
}

TEST(SearchParallel, SinkStreamsInAscendingIndexOrder) {
  SearchSpace space{/*skew_bound=*/1, /*skew_depth=*/1};
  SessionOptions opts;
  opts.threads = 4;
  TransformSession session(gallery::simplified_cholesky(), opts);
  PermutationSkewGenerator gen(session.layout(), space);
  SearchOptions sopts;
  std::vector<i64> seen;
  sopts.sink = [&](const SearchHit& h) { seen.push_back(h.index); };
  SearchResult res = session.search(gen, sopts);
  ASSERT_EQ(seen.size(), res.hits.size());
  for (size_t i = 0; i < res.hits.size(); ++i)
    EXPECT_EQ(seen[i], res.hits[i].index);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

TEST(SearchParallel, ExecThreadsDoNotChangeSearchResults) {
  // Verification through the partitioned exec engine (exec_threads > 1)
  // must leave hits, verdicts and stats bit-identical: parallel
  // execution is memcmp-identical to serial, so the search cannot see
  // the difference. Search workers and exec workers also compose here
  // (each search worker's verification takes a turn on the exec pool).
  SearchSpace space{};
  SearchOptions serial;
  serial.verify_params = {{"N", 8}};
  SearchOptions threaded = serial;
  threaded.exec_threads = 2;
  SearchResult a = run_search(&gallery::cholesky, 2, space, serial);
  SearchResult b = run_search(&gallery::cholesky, 2, space, threaded);
  EXPECT_GT(a.stats.legal, 0);
  EXPECT_EQ(a.stats.verified, a.stats.legal);
  EXPECT_EQ(b.stats.verify_failed, 0);
  expect_identical(a, b);
}

TEST(SearchParallel, ExecThreadsDoNotChangeRanking) {
  // Rank mode with exec_threads == 1 must order exactly as before the
  // parallel-work term existed (effective == total); the same search
  // at exec_threads > 1 may reorder but must score the same matrices
  // legal and fill the parallel fields.
  SearchSpace space{/*skew_bound=*/1, /*skew_depth=*/1};
  SearchOptions sopts;
  sopts.mode = SearchMode::kLegalityOnly;
  sopts.cost = true;
  SearchOptions threaded = sopts;
  threaded.exec_threads = 4;
  SearchResult one = run_search(&gallery::lu, 2, space, sopts);
  SearchResult four = run_search(&gallery::lu, 2, space, threaded);
  ASSERT_EQ(one.hits.size(), four.hits.size());
  for (size_t i = 0; i < one.hits.size(); ++i) {
    EXPECT_EQ(one.hits[i].index, four.hits[i].index);
    ASSERT_TRUE(one.hits[i].cost.has_value());
    ASSERT_TRUE(four.hits[i].cost.has_value());
    const CostEstimate& c1 = *one.hits[i].cost;
    const CostEstimate& c4 = *four.hits[i].cost;
    EXPECT_DOUBLE_EQ(c1.total_lines, c4.total_lines);
    // exec_threads == 1: the parallel term is a no-op on the score.
    EXPECT_DOUBLE_EQ(c1.effective_lines, c1.total_lines);
    // exec_threads == 4: any candidate with a partition scores below
    // its serial estimate, never above.
    EXPECT_LE(c4.effective_lines, c4.total_lines);
    if (!c4.partition.empty() && c4.parallel_fraction > 0) {
      EXPECT_LT(c4.effective_lines, c4.total_lines);
    }
    EXPECT_EQ(c1.partition, c4.partition);
  }
}

TEST(SearchParallel, LegalityOnlyModeUnaffectedByThreadCount) {
  SearchOptions sopts;
  sopts.mode = SearchMode::kLegalityOnly;
  SearchResult seq = run_search(&gallery::cholesky, 1, SearchSpace{}, sopts);
  SearchResult par = run_search(&gallery::cholesky, 4, SearchSpace{}, sopts);
  EXPECT_EQ(seq.stats.legal, par.stats.legal);
  EXPECT_EQ(seq.stats.pruned_candidates, par.stats.pruned_candidates);
  ASSERT_EQ(seq.hits.size(), par.hits.size());
  for (size_t i = 0; i < seq.hits.size(); ++i)
    EXPECT_EQ(seq.hits[i].index, par.hits[i].index);
}

TEST(SearchParallel, ExactModeReportsTheSameDiagnosticsAtFourThreads) {
  // Exact mode cannot prune, so each of LU's 24 orders runs through
  // codegen on the worker threads, and the illegal ones report into
  // the session's diagnostics concurrently.
  auto run = [](int threads) {
    SessionOptions opts;
    opts.exact = true;
    opts.threads = threads;
    TransformSession session(gallery::lu(), opts);
    SearchResult res = session.search(SearchSpace{});
    std::vector<std::string> messages;
    for (const Diagnostic& d : session.diags().all())
      messages.push_back(d.message);
    std::sort(messages.begin(), messages.end());  // a multiset
    return std::make_pair(std::move(res), std::move(messages));
  };
  const auto [seq, seq_messages] = run(1);
  const auto [par, par_messages] = run(4);
  EXPECT_EQ(seq.stats.evaluated, seq.stats.candidates_total);
  EXPECT_GT(seq.stats.legal, 0);
  EXPECT_GT(seq.stats.illegal_evaluated, 0);
  expect_identical(seq, par);
  ASSERT_EQ(seq.hits.size(), par.hits.size());
  for (size_t i = 0; i < seq.hits.size(); ++i)
    EXPECT_EQ(seq.hits[i].result.error, par.hits[i].result.error);
  EXPECT_FALSE(seq_messages.empty());
  EXPECT_EQ(seq_messages, par_messages);
}

// -- the split walk ----------------------------------------------------
// With several session threads a large space is cut into subtrees that
// workers walk on engines of their own; everything a search reports
// must still equal the one-thread walk, which never cuts.

// Subtree units a search handed to its workers (0: single survivors).
i64 subtrees_of(const std::function<void()>& search) {
  const StatsSnapshot before = Stats::global().snapshot();
  search();
  return (Stats::global().snapshot() - before).counter("search.subtrees");
}

void expect_same_verdicts(const SearchResult& a, const SearchResult& b) {
  expect_identical(a, b);
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (size_t i = 0; i < a.hits.size(); ++i)
    EXPECT_EQ(a.hits[i].result.legality.unsatisfied,
              b.hits[i].result.legality.unsatisfied);
}

TEST(SplitWalk, LegalityOnlySkewSpaceMatchesOneThread) {
  // Cholesky at skew 2/2: 75,000 candidates, cut into subtrees at 2, 3
  // and 4 threads. Hits (with their unsatisfied sets), stats and the
  // rejection breakdown must equal the uncut one-thread walk.
  SearchOptions sopts;
  sopts.mode = SearchMode::kLegalityOnly;
  SearchResult seq;
  EXPECT_EQ(subtrees_of([&] {
              seq = run_search(&gallery::cholesky, 1, SearchSpace{2, 2}, sopts);
            }),
            0);
  ASSERT_GT(seq.stats.legal, 0);
  for (int threads : {2, 3, 4}) {
    SearchResult par;
    EXPECT_GT(subtrees_of([&] {
                par = run_search(&gallery::cholesky, threads,
                                 SearchSpace{2, 2}, sopts);
              }),
              0)
        << "threads " << threads;
    expect_same_verdicts(seq, par);
  }
}

TEST(SplitWalk, SkewZeroSpaceHandsOverSingleSurvivors) {
  // The 24 orders of Cholesky have too few prefixes to cut at any
  // depth: even at 4 threads each survivor is its own unit.
  SearchOptions sopts;
  sopts.mode = SearchMode::kLegalityOnly;
  sopts.top_k = 3;
  SearchResult seq = run_search(&gallery::cholesky, 1, SearchSpace{}, sopts);
  SearchResult par;
  EXPECT_EQ(subtrees_of([&] {
              par = run_search(&gallery::cholesky, 4, SearchSpace{}, sopts);
            }),
            0);
  expect_same_verdicts(seq, par);
}

TEST(SplitWalk, ProgressIsMonotoneAndEndsAtTotal) {
  for (int threads : {1, 4}) {
    SessionOptions opts;
    opts.threads = threads;
    TransformSession session(gallery::cholesky(), opts);
    SearchOptions sopts;
    sopts.mode = SearchMode::kLegalityOnly;
    sopts.top_k = 5;
    sopts.progress_interval = 1;
    std::vector<SearchProgress> reports;
    sopts.progress = [&](const SearchProgress& p) { reports.push_back(p); };
    const SearchResult res = session.search(SearchSpace{2, 2}, sopts);
    ASSERT_FALSE(reports.empty()) << "threads " << threads;
    for (size_t i = 1; i < reports.size(); ++i) {
      EXPECT_GE(reports[i].done, reports[i - 1].done) << "threads " << threads;
      EXPECT_GE(reports[i].legal, reports[i - 1].legal);
      EXPECT_LE(reports[i].done, reports[i].total);
    }
    EXPECT_EQ(reports.back().done, res.stats.candidates_total)
        << "threads " << threads;
    EXPECT_EQ(reports.back().legal, res.stats.legal);
    EXPECT_EQ(reports.back().pruned, res.stats.pruned_candidates);
  }
}

// Permutations × skews whose rows throw at one leaf-level option: the
// throw happens below any cut, so at several threads on a worker.
class ThrowingGenerator : public CandidateGenerator {
 public:
  ThrowingGenerator(const IvLayout& layout, SearchSpace space)
      : inner_(layout, space) {}
  std::unique_ptr<CandidateGenerator> clone() const override {
    return std::make_unique<ThrowingGenerator>(*this);
  }
  int num_slots() const override { return inner_.num_slots(); }
  i64 num_options(int depth) const override {
    return inner_.num_options(depth);
  }
  IntVec row(i64 k) const override {
    if (depth_ == num_slots() - 1 && k == 1)
      throw std::runtime_error("row failed");
    return inner_.row(k);
  }
  void push(i64 k) override {
    inner_.push(k);
    ++depth_;
  }
  void pop() override {
    inner_.pop();
    --depth_;
  }

 private:
  PermutationSkewGenerator inner_;
  int depth_ = 0;
};

TEST(SplitWalk, ThrowInsideASubtreeIsRethrownFromSearch) {
  for (int threads : {1, 4}) {
    SessionOptions opts;
    opts.threads = threads;
    TransformSession session(gallery::cholesky(), opts);
    SearchOptions sopts;
    sopts.mode = SearchMode::kLegalityOnly;
    sopts.top_k = 5;
    ThrowingGenerator bad(session.layout(), SearchSpace{2, 2});
    EXPECT_THROW(session.search(bad, sopts), std::runtime_error)
        << "threads " << threads;
    // The walk unwound: the session's engine is back at depth 0 and a
    // later search reports what a fresh session does.
    const SearchResult again = session.search(SearchSpace{1, 1}, sopts);
    const SearchResult fresh =
        run_search(&gallery::cholesky, threads, SearchSpace{1, 1}, sopts);
    expect_same_verdicts(fresh, again);
  }
}

// The fan-out under search(), driven directly: uneven per-candidate
// work on three workers must still settle in push order, within the
// window, and a stage that throws on a worker must surface on the
// calling thread instead of ending the process.
TEST(InOrderFanOut, SettlesInPushOrderUnderUnevenWork) {
  std::vector<i64> settled;
  std::atomic<int> bad_worker{0};
  InOrderFanOut<Candidate> fan(
      /*threads=*/3, /*block=*/4, /*window=*/8,
      [&](Candidate& c, int worker) {
        if (worker < 0 || worker >= 3) ++bad_worker;
        // The early blocks hold one candidate each; even ones are
        // slow, so odd ones finish before the block ahead of them.
        if (c.index % 2 == 0)
          std::this_thread::sleep_for(std::chrono::microseconds(300));
        c.result.legal = c.index % 3 != 0;
      },
      [&](Candidate&& c) {
        EXPECT_EQ(c.result.legal, c.index % 3 != 0);
        settled.push_back(c.index);
      });
  for (i64 i = 0; i < 203; ++i) {
    Candidate c;
    c.index = i;
    fan.push(std::move(c));
  }
  fan.finish();
  ASSERT_EQ(settled.size(), 203u);
  for (i64 i = 0; i < 203; ++i) EXPECT_EQ(settled[i], i);
  EXPECT_EQ(fan.pushed(), 203);
  EXPECT_LE(fan.inflight_peak(), (8 + 1) * 4);
  EXPECT_GT(fan.workers(), 0);
  EXPECT_EQ(bad_worker.load(), 0);
}

TEST(InOrderFanOut, WorkerFailureIsRethrownOnTheCallingThread) {
  for (int threads : {1, 2}) {
    std::vector<i64> settled;
    InOrderFanOut<Candidate> fan(
        threads, /*block=*/2, /*window=*/2,
        [](Candidate& c, int) {
          if (c.index == 5) throw std::runtime_error("stage failed");
        },
        [&](Candidate&& c) { settled.push_back(c.index); });
    auto run = [&] {
      for (i64 i = 0; i < 12; ++i) {
        Candidate c;
        c.index = i;
        fan.push(std::move(c));
      }
      fan.finish();
    };
    EXPECT_THROW(run(), std::runtime_error) << "threads " << threads;
    // The first blocks hold one candidate each: the five before the
    // failing one settled, in order; none after it.
    ASSERT_EQ(settled.size(), 5u) << "threads " << threads;
    for (i64 i = 0; i < 5; ++i) EXPECT_EQ(settled[i], i);
  }
}

}  // namespace
}  // namespace inlt
