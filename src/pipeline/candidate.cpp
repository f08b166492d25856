#include "pipeline/candidate.hpp"

#include <algorithm>
#include <chrono>
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

WalkTally::WalkTally(size_t num_deps, int nslots) : nslots_(nslots) {
  rejections.by_dependence.assign(num_deps, 0);
  rejections.by_row.assign(static_cast<size_t>(nslots) + 1, 0);
}

void WalkTally::attribute(int dep, int row, i64 n) {
  if (dep >= 0 && dep < static_cast<int>(rejections.by_dependence.size()))
    rejections.by_dependence[dep] += n;
  if (row < 0 || row > nslots_) row = nslots_;
  rejections.by_row[row] += n;
  rejections.rejected += n;
}

void WalkTally::prune_subtree(int dep, int row, i64 leaves) {
  ++stats.pruned_subtrees;
  stats.pruned_candidates += leaves;
  attribute(dep, row, leaves);
}

void WalkTally::prune_leaf(int dep) {
  ++stats.pruned_candidates;
  attribute(dep, nslots_, 1);
}

void WalkTally::add(const WalkTally& o) {
  stats.candidates_total += o.stats.candidates_total;
  stats.evaluated += o.stats.evaluated;
  stats.legal += o.stats.legal;
  stats.illegal_evaluated += o.stats.illegal_evaluated;
  stats.pruned_candidates += o.stats.pruned_candidates;
  stats.pruned_subtrees += o.stats.pruned_subtrees;
  stats.verified += o.stats.verified;
  stats.verify_failed += o.stats.verify_failed;
  for (size_t d = 0; d < o.rejections.by_dependence.size(); ++d)
    rejections.by_dependence[d] += o.rejections.by_dependence[d];
  for (size_t r = 0; r < o.rejections.by_row.size(); ++r)
    rejections.by_row[r] += o.rejections.by_row[r];
  rejections.rejected += o.rejections.rejected;
}

CandidateAccumulator::CandidateAccumulator(size_t num_deps, int nslots,
                                           std::vector<int> pos_to_slot,
                                           const SearchOptions& sopts)
    : tally_(num_deps, nslots),
      sopts_(sopts),
      pos_to_slot_(std::move(pos_to_slot)),
      nslots_(nslots) {}

void CandidateAccumulator::settle(Candidate&& c) {
  SearchStats& stats = tally_.stats;
  if (c.result.legal) {
    ++stats.legal;
    if (c.result.verify) {
      ++stats.verified;
      if (!c.result.verify->equivalent) ++stats.verify_failed;
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
  ++stats.illegal_evaluated;
  // Attribute through the first localized legality diagnostic
  // (codegen-stage failures carry no dependence provenance).
  for (const Diagnostic& dg : c.result.legality.diagnostics) {
    if (dg.stage != Stage::kLegality || dg.dep_index < 0) continue;
    int slot = dg.row >= 0 && dg.row < static_cast<int>(pos_to_slot_.size())
                   ? pos_to_slot_[dg.row]
                   : -1;
    tally_.attribute(dg.dep_index, slot < 0 ? nslots_ : slot, 1);
    break;
  }
}

SearchResult CandidateAccumulator::take() {
  if (sopts_.top_k > 0)
    std::sort(out_.hits.begin(), out_.hits.end(), hit_better);
  out_.stats = tally_.stats;
  out_.rejections = std::move(tally_.rejections);
  return std::move(out_);
}

}  // namespace inlt
