// The candidate pipeline — one record, one stage list, one
// accumulator.
//
// search() used to interleave three concerns in one recursive walk:
// deciding candidates (legality / codegen / verification, with the
// work differing by mode), accounting for them (stats, rejection
// provenance, hit collection — assembled in three separate places) and
// scheduling them (inline at the leaf vs. deferred to worker threads).
// This header separates them:
//
//  * `Candidate` is the first-class record a candidate accumulates as
//    it moves through the stages: index, matrix, CandidateResult,
//    optional cost estimate and tile plan, plus inter-stage scratch
//    (the target-space dependences and codegen's plans). Every
//    candidate of one search shares one recovered AST skeleton.
//  * `CandidatePipeline` is an ordered list of named stages
//    (Legality -> Cost -> Codegen -> Tile -> Verify), each
//    timed as a span and a `search.stage.<name>_ns` histogram while
//    tracing or Stats timing is on. Full mode,
//    the legality-only filter and rank mode are *configurations* of
//    this list — which stages are present and what each one runs —
//    not separate code paths. Under the hull test the walk itself is
//    the legality verdict, so the list holds a Legality stage only in
//    exact mode. Stages marked deferred run on worker threads; a stage
//    that rejects a candidate stops its remaining stages.
//  * `WalkTally` counts what a walk decides without a record: pruned
//    subtrees and leaves with their provenance, evaluated leaves, and
//    in bounded rank mode the legal leaves whose score cannot make the
//    top K.
//  * `CandidateAccumulator` is the single merge point for every
//    decided candidate: it owns the SearchResult, a WalkTally for the
//    calling thread's walk, and the hit list — including the bounded
//    best-K heap rank mode uses, ordered by (cost, index) so results
//    are deterministic at any thread count. Once the heap is full it
//    publishes the worst kept cost as an atomic bound, which the Cost
//    stage and the subtree walks read to skip work that cannot make
//    the top K.
//  * `InOrderFanOut` schedules the deferred work: units (single
//    survivors, or whole subtrees of the space) stream to worker
//    threads in blocks while the calling thread keeps walking, and
//    come back to the accumulator in enumeration order.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "model/cost.hpp"
#include "pipeline/search.hpp"
#include "support/stats.hpp"

namespace inlt {

/// The named stages a candidate can pass through, in pipeline order.
enum class StageKind {
  kLegality,  ///< legality verdict (engine, or exact ILP)
  kCost,      ///< static cache-locality score/estimate (model/cost.hpp)
  kCodegen,   ///< full code generation + simplify (evaluate_impl)
  kTile,      ///< tile the generated program (tile/plan.hpp)
  kVerify,    ///< semantic verification against the source program
};

const char* stage_kind_name(StageKind k);

/// One candidate moving through the pipeline.
struct Candidate {
  i64 index = -1;  ///< position in the depth-first enumeration
  IntMat matrix;
  CandidateResult result;
  /// Cost-model estimate (kCost stage; unset if the stage is absent,
  /// the estimate failed, or in rank mode the candidate's score could
  /// not make the top K).
  std::optional<CostEstimate> cost;
  /// Rank mode: the score (CostModel::lines) a subtree walk already
  /// computed, so the kCost stage does not score the candidate twice.
  std::optional<double> score;
  /// Inter-stage scratch, built on first use by the stage that needs
  /// it and dropped when the deferred stages finish (run_deferred), so
  /// a pending candidate holds it only while a worker runs it: the
  /// recovered AST. search() no longer fills it (its stages share one
  /// skeleton per search); perfbench's traced re-drive still does...
  std::optional<AstRecovery> recovery;
  /// ...the target-space dependences M·D (transform/target_deps.hpp)
  /// the cost, tile and verify stages share...
  std::optional<DependenceSet> target_deps;
  /// ...and code generation's per-statement plans (kCodegen stage),
  /// which name the augmented loops the tile stage must follow.
  std::vector<StatementPlan> plans;
  /// Tile plan for the generated program (kTile stage; unset if the
  /// stage is absent or the candidate generated no code).
  std::optional<TilePlan> tile;
  /// Set by a stage that definitively rejects the candidate; the
  /// remaining stages are skipped. Distinct from `result.legal`
  /// because exact-mode codegen decides legality *inside* its stage —
  /// `legal == false` before that stage ran means "undecided".
  bool rejected = false;
};

/// An ordered list of named stages over Candidate. Leaf stages run
/// inline on the thread that walked to the candidate; deferred stages
/// run per candidate, possibly on worker threads (they must be
/// thread-safe and independent per candidate).
class CandidatePipeline {
 public:
  using StageFn = std::function<void(Candidate&)>;

  void add(StageKind kind, bool deferred, StageFn run);

  /// Run the leaf (non-deferred) stages in order; stops early when a
  /// stage rejects the candidate.
  void run_leaf(Candidate& c) const { run(c, /*deferred=*/false); }
  /// Run the deferred stages in order; stops early on rejection. Drops
  /// the candidate's inter-stage scratch afterwards.
  void run_deferred(Candidate& c) const;

  bool has(StageKind kind) const;
  bool has_deferred() const;
  /// "legality -> cost" — the configured stage list.
  std::string describe() const;

 private:
  struct Stage {
    StageKind kind;
    bool deferred;
    StageFn fn;
    HistogramCell* ns;  ///< search.stage.<name>_ns
  };
  void run(Candidate& c, bool deferred) const;

  std::vector<Stage> stages_;
};

/// Streaming, in-order fan-out of deferred work items. The calling
/// thread pushes items in enumeration order; they are grouped into
/// blocks and handed to up to `threads` worker threads (started
/// lazily, one per submitted block until `threads` run) while the
/// caller keeps walking. A block holds a quarter of the items pushed
/// so far per thread, at least 1 and at most `block`, so a search
/// with few survivors still spreads them over the workers. Finished
/// blocks are settled on the calling thread, strictly in push order,
/// as soon as every earlier block is settled too; once `window` blocks
/// are unsettled, push() waits for the oldest one (backpressure), so
/// at most (window + 1) × block items are held at once. With
/// threads == 1 there are no workers: each block runs on the calling
/// thread when it fills. `work(item, worker)` names the worker running
/// it, 0 ≤ worker < threads (the calling thread is worker 0 when
/// threads == 1), so the caller can keep state per worker. An
/// exception `work` throws on a worker is rethrown by push() or
/// finish() when its block would settle. Not thread-safe itself —
/// push(), finish() and the settle callback all run on the thread that
/// owns the fan-out; `work` runs on any thread.
template <class Item>
class InOrderFanOut {
 public:
  using WorkFn = std::function<void(Item&, int worker)>;
  using SettleFn = std::function<void(Item&&)>;

  InOrderFanOut(int threads, size_t block, size_t window, WorkFn work,
                SettleFn settle)
      : threads_(std::max(1, threads)),
        block_(std::max<size_t>(1, block)),
        window_limit_(std::max<size_t>(1, window)),
        work_(std::move(work)),
        settle_(std::move(settle)) {}
  /// Stops and joins the workers; unsettled items are dropped.
  ~InOrderFanOut() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closing_ = true;
      queue_.clear();
    }
    work_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }
  InOrderFanOut(const InOrderFanOut&) = delete;
  InOrderFanOut& operator=(const InOrderFanOut&) = delete;

  void push(Item&& item) {
    open_.push_back(std::move(item));
    ++pushed_;
    peak_ = std::max(peak_, pushed_ - settled_);
    if (open_.size() < next_block_) return;
    submit();
    settle_ready(/*wait=*/window_.size() >= window_limit_);
  }
  /// Submit the partial block, then wait for and settle everything.
  /// Ends the fan-out: the workers exit and no push() may follow.
  void finish() {
    if (!open_.empty()) submit();
    {
      // Nothing more will be queued: workers exit once the queue drains.
      std::lock_guard<std::mutex> lock(mu_);
      closing_ = true;
    }
    work_cv_.notify_all();
    while (!window_.empty()) settle_ready(/*wait=*/true);
  }

  /// Items pushed so far.
  i64 pushed() const { return pushed_; }
  /// Most items pushed but not yet settled at any one time.
  i64 inflight_peak() const { return peak_; }
  /// Worker threads started (0 when threads == 1).
  int workers() const { return static_cast<int>(workers_.size()); }

 private:
  struct Block {
    std::vector<Item> items;
    bool done = false;           // guarded by mu_
    std::exception_ptr failure;  // what `work` threw on a worker, if anything
  };

  void submit() {
    auto b = std::make_unique<Block>();
    b->items.swap(open_);
    next_block_ = std::clamp<size_t>(
        static_cast<size_t>(pushed_) / (4 * static_cast<size_t>(threads_)),
        1, block_);
    open_.reserve(next_block_);
    Block* raw = b.get();
    window_.push_back(std::move(b));
    if (threads_ == 1) {
      for (Item& item : raw->items) work_(item, 0);
      raw->done = true;  // no workers: nothing else touches the flag
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(raw);
    }
    work_cv_.notify_one();
    if (static_cast<int>(workers_.size()) < threads_) {
      const int id = static_cast<int>(workers_.size());
      workers_.emplace_back([this, id] { worker(id); });
    }
  }

  /// Settle the finished prefix of the window; with `wait`, first
  /// block until the oldest block is finished.
  void settle_ready(bool wait) {
    std::vector<std::unique_ptr<Block>> ready;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (wait)
        done_cv_.wait(lock, [this] { return window_.front()->done; });
      while (!window_.empty() && window_.front()->done) {
        ready.push_back(std::move(window_.front()));
        window_.pop_front();
      }
    }
    for (std::unique_ptr<Block>& b : ready) {
      if (b->failure) std::rethrow_exception(b->failure);
      for (Item& item : b->items) {
        settle_(std::move(item));
        ++settled_;
      }
      b.reset();
    }
  }

  void worker(int id) {
    for (;;) {
      Block* b;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [this] { return closing_ || !queue_.empty(); });
        if (queue_.empty()) return;
        b = queue_.front();
        queue_.pop_front();
      }
      // A throwing stage must not end the process from a worker: the
      // failure travels with the block and is rethrown when it settles.
      std::exception_ptr failure;
      try {
        for (Item& item : b->items) work_(item, id);
      } catch (...) {
        failure = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        b->failure = failure;
        b->done = true;
      }
      done_cv_.notify_one();
    }
  }

  const int threads_;
  const size_t block_;
  const size_t window_limit_;
  WorkFn work_;
  SettleFn settle_;

  std::vector<Item> open_;  // the block being filled
  size_t next_block_ = 1;   // its size when full
  std::deque<std::unique_ptr<Block>> window_;  // submitted, in push order
  i64 pushed_ = 0;
  i64 settled_ = 0;
  i64 peak_ = 0;

  std::mutex mu_;  // guards queue_, closing_ and Block::done
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::deque<Block*> queue_;  // submitted, not yet taken by a worker
  bool closing_ = false;
  std::vector<std::thread> workers_;
};

/// What a walk over the candidate space decides without a Candidate
/// record: pruned subtrees and leaves with their rejection provenance,
/// leaves evaluated, and — in bounded rank mode — legal leaves whose
/// score could not make the top K, which are only counted. The calling
/// thread's walk records into the accumulator's tally; a subtree unit
/// records into its own, which the accumulator adds when the unit
/// settles. Everything here is a sum, so the result does not depend
/// on how the space was cut.
class WalkTally {
 public:
  WalkTally() = default;
  WalkTally(size_t num_deps, int nslots);

  /// A viable prefix turned illegal: its whole subtree of `leaves`
  /// candidates is pruned, attributed to dependence `dep` decided at
  /// slot `row`.
  void prune_subtree(int dep, int row, i64 leaves);
  /// A viable prefix with an illegal completion died at the leaf.
  void prune_leaf(int dep);
  /// A candidate reached the leaf and is decided by the pipeline.
  void note_evaluated() { ++stats.evaluated; }
  /// A legal candidate that needs no record (see WalkTally).
  void count_legal() { ++stats.legal; }
  /// Rejection provenance: `n` candidates killed by dependence `dep`,
  /// decided at slot `row` (nslots, or out of range: at completion).
  void attribute(int dep, int row, i64 n);
  /// Add another tally of the same search.
  void add(const WalkTally& o);

  SearchStats stats;
  RejectionBreakdown rejections;

 private:
  int nslots_ = 0;
};

/// The single merge point for decided candidates: owns the
/// SearchResult and all bookkeeping that used to be assembled ad hoc
/// at three separate sites in search(). Not thread-safe — the walk
/// above the cut and the merge both run on the calling thread, in
/// enumeration order, which is what makes results deterministic.
class CandidateAccumulator {
 public:
  /// `pos_to_slot` maps a layout position to its slot index (for
  /// converting a legality diagnostic's deciding row into a by_row
  /// bucket); `nslots` indexes the trailing completion bucket.
  CandidateAccumulator(size_t num_deps, int nslots,
                       std::vector<int> pos_to_slot,
                       const SearchOptions& sopts);

  SearchStats& stats() { return tally_.stats; }
  /// The calling thread's walk records its prunes and leaves here;
  /// the three members below are shorthands for it.
  WalkTally& tally() { return tally_; }
  void prune_subtree(int dep, int row, i64 leaves) {
    tally_.prune_subtree(dep, row, leaves);
  }
  void prune_leaf(int dep) { tally_.prune_leaf(dep); }
  void note_evaluated() { tally_.note_evaluated(); }

  /// Merge one pipeline-decided candidate: legal candidates feed the
  /// hit list (or the bounded best-K heap), the sink and the
  /// verification counters; rejected ones feed illegal_evaluated and
  /// the diagnostic-localized rejection provenance. Must be called in
  /// ascending index order — the (cost, index) tiebreak relies on it.
  void settle(Candidate&& c);

  /// The worst kept hit's total_lines once the best-K heap is full,
  /// infinity before. It only falls. A candidate not yet settled whose
  /// score is not below it cannot enter the heap: its index is above
  /// every settled one, so it loses a tie too. The one member safe to
  /// call from any thread.
  double bound() const { return bound_.load(); }

  /// Finalize (sorts the best-K heap by ascending cost, index) and
  /// move the result out.
  SearchResult take();

 private:
  SearchResult out_;
  WalkTally tally_;
  std::atomic<double> bound_{std::numeric_limits<double>::infinity()};
  const SearchOptions& sopts_;
  std::vector<int> pos_to_slot_;
  int nslots_;
};

}  // namespace inlt
