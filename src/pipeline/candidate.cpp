#include "pipeline/candidate.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <limits>
#include <sstream>
#include <utility>

#include "support/trace.hpp"

namespace inlt {

const char* stage_kind_name(StageKind k) {
  switch (k) {
    case StageKind::kLegality: return "legality";
    case StageKind::kCost:     return "cost";
    case StageKind::kCodegen:  return "codegen";
    case StageKind::kTile:     return "tile";
    case StageKind::kVerify:   return "verify";
  }
  return "?";
}

namespace {

// Span names must be static strings: the tracer keeps the pointer.
const char* stage_span_name(StageKind k) {
  switch (k) {
    case StageKind::kLegality: return "search.stage.legality";
    case StageKind::kCost:     return "search.stage.cost";
    case StageKind::kCodegen:  return "search.stage.codegen";
    case StageKind::kTile:     return "search.stage.tile";
    case StageKind::kVerify:   return "search.stage.verify";
  }
  return "search.stage.?";
}

}  // namespace

void CandidatePipeline::add(StageKind kind, bool deferred, StageFn run) {
  HistogramCell* ns = &Stats::global().histogram(
      std::string(stage_span_name(kind)) + "_ns");
  stages_.push_back(Stage{kind, deferred, std::move(run), ns});
}

bool CandidatePipeline::has(StageKind kind) const {
  for (const Stage& s : stages_)
    if (s.kind == kind) return true;
  return false;
}

bool CandidatePipeline::has_deferred() const {
  for (const Stage& s : stages_)
    if (s.deferred) return true;
  return false;
}

std::string CandidatePipeline::describe() const {
  std::ostringstream os;
  for (size_t i = 0; i < stages_.size(); ++i) {
    if (i) os << " -> ";
    os << stage_kind_name(stages_[i].kind);
  }
  return os.str();
}

void CandidatePipeline::run(Candidate& c, bool deferred) const {
  for (const Stage& s : stages_) {
    if (s.deferred != deferred) continue;
    if (c.rejected) return;
    // Gated like the tracer: the legality-only walk runs leaf stages
    // millions of times per second, so untimed stages read no clock.
    if (!Stats::timing_enabled() && !Tracer::enabled()) {
      s.fn(c);
      continue;
    }
    ScopedSpan span(stage_span_name(s.kind), "search");
    const auto t0 = std::chrono::steady_clock::now();
    s.fn(c);
    s.ns->record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
}

void CandidatePipeline::run_deferred(Candidate& c) const {
  run(c, /*deferred=*/true);
  c.recovery.reset();
  c.target_deps.reset();
  c.plans = {};
}

struct InOrderFanOut::Block {
  std::vector<Candidate> cands;
  bool done = false;           // guarded by mu_
  std::exception_ptr failure;  // what `work` threw on a worker, if anything
};

InOrderFanOut::InOrderFanOut(int threads, size_t block, size_t window,
                             WorkFn work, SettleFn settle)
    : threads_(std::max(1, threads)),
      block_(std::max<size_t>(1, block)),
      window_limit_(std::max<size_t>(1, window)),
      work_(std::move(work)),
      settle_(std::move(settle)) {}

InOrderFanOut::~InOrderFanOut() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closing_ = true;
    queue_.clear();
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void InOrderFanOut::push(Candidate&& c) {
  open_.push_back(std::move(c));
  ++pushed_;
  peak_ = std::max(peak_, pushed_ - settled_);
  if (open_.size() < next_block_) return;
  submit();
  settle_ready(/*wait=*/window_.size() >= window_limit_);
}

void InOrderFanOut::finish() {
  if (!open_.empty()) submit();
  {
    // Nothing more will be queued: workers exit once the queue drains.
    std::lock_guard<std::mutex> lock(mu_);
    closing_ = true;
  }
  work_cv_.notify_all();
  while (!window_.empty()) settle_ready(/*wait=*/true);
}

void InOrderFanOut::submit() {
  auto b = std::make_unique<Block>();
  b->cands.swap(open_);
  next_block_ = std::clamp<size_t>(
      static_cast<size_t>(pushed_) / (4 * static_cast<size_t>(threads_)), 1,
      block_);
  open_.reserve(next_block_);
  Block* raw = b.get();
  window_.push_back(std::move(b));
  if (threads_ == 1) {
    for (Candidate& c : raw->cands) work_(c);
    raw->done = true;  // no workers: nothing else touches the flag
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(raw);
  }
  work_cv_.notify_one();
  if (static_cast<int>(workers_.size()) < threads_)
    workers_.emplace_back([this] { worker(); });
}

void InOrderFanOut::settle_ready(bool wait) {
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
    for (Candidate& c : b->cands) {
      settle_(std::move(c));
      ++settled_;
    }
    b.reset();
  }
}

void InOrderFanOut::worker() {
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
      for (Candidate& c : b->cands) work_(c);
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

namespace {

// Missing estimates (cost stage absent, or the estimate failed) sort
// last; exact cost ties break by ascending candidate index, which
// settle()'s in-order contract makes deterministic.
double hit_lines(const SearchHit& h) {
  return h.cost ? h.cost->total_lines : std::numeric_limits<double>::infinity();
}

bool hit_better(const SearchHit& a, const SearchHit& b) {
  double la = hit_lines(a), lb = hit_lines(b);
  if (la != lb) return la < lb;
  return a.index < b.index;
}

}  // namespace

CandidateAccumulator::CandidateAccumulator(size_t num_deps, int nslots,
                                           std::vector<int> pos_to_slot,
                                           const SearchOptions& sopts)
    : sopts_(sopts), pos_to_slot_(std::move(pos_to_slot)), nslots_(nslots) {
  out_.rejections.by_dependence.assign(num_deps, 0);
  out_.rejections.by_row.assign(static_cast<size_t>(nslots) + 1, 0);
}

// Rejection provenance: n candidates killed by dependence `dep`,
// decided at slot `row` (nslots == decided only at completion).
void CandidateAccumulator::attribute(int dep, int row, i64 n) {
  if (dep >= 0 && dep < static_cast<int>(out_.rejections.by_dependence.size()))
    out_.rejections.by_dependence[dep] += n;
  if (row < 0 || row > nslots_) row = nslots_;
  out_.rejections.by_row[row] += n;
  out_.rejections.rejected += n;
}

void CandidateAccumulator::prune_subtree(int dep, int row, i64 leaves) {
  ++out_.stats.pruned_subtrees;
  out_.stats.pruned_candidates += leaves;
  attribute(dep, row, leaves);
}

void CandidateAccumulator::prune_leaf(int dep) {
  ++out_.stats.pruned_candidates;
  attribute(dep, nslots_, 1);
}

void CandidateAccumulator::settle(Candidate&& c) {
  if (c.result.legal) {
    ++out_.stats.legal;
    if (c.result.verify) {
      ++out_.stats.verified;
      if (!c.result.verify->equivalent) ++out_.stats.verify_failed;
    }
    SearchHit h{c.index, std::move(c.matrix), std::move(c.result),
                std::move(c.cost), std::move(c.tile)};
    if (sopts_.sink) sopts_.sink(h);
    const i64 k = sopts_.top_k;
    if (k <= 0) {
      out_.hits.push_back(std::move(h));
    } else if (static_cast<i64>(out_.hits.size()) < k) {
      out_.hits.push_back(std::move(h));
      std::push_heap(out_.hits.begin(), out_.hits.end(), hit_better);
    } else if (hit_better(h, out_.hits.front())) {
      std::pop_heap(out_.hits.begin(), out_.hits.end(), hit_better);
      out_.hits.back() = std::move(h);
      std::push_heap(out_.hits.begin(), out_.hits.end(), hit_better);
    }
    if (k > 0 && static_cast<i64>(out_.hits.size()) == k)
      bound_.store(hit_lines(out_.hits.front()));
    return;
  }
  ++out_.stats.illegal_evaluated;
  // Attribute through the first localized legality diagnostic
  // (codegen-stage failures carry no dependence provenance).
  for (const Diagnostic& dg : c.result.legality.diagnostics) {
    if (dg.stage != Stage::kLegality || dg.dep_index < 0) continue;
    int slot = dg.row >= 0 && dg.row < static_cast<int>(pos_to_slot_.size())
                   ? pos_to_slot_[dg.row]
                   : -1;
    attribute(dg.dep_index, slot < 0 ? nslots_ : slot, 1);
    break;
  }
}

SearchResult CandidateAccumulator::take() {
  if (sopts_.top_k > 0)
    std::sort(out_.hits.begin(), out_.hits.end(), hit_better);
  return std::move(out_);
}

}  // namespace inlt
