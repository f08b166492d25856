// Candidate-space search over transformation matrices.
//
// The paper's workflow evaluates many candidate matrices against one
// analyzed nest. `TransformSession::search()` walks a candidate space
// depth-first, one loop row at a time, through the IncrementalLegality
// engine: prefixes shared by many candidates are tested once, and a
// prefix that already violates a dependence prunes its whole subtree
// without materializing a single matrix. Only candidates the engine
// cannot reject are evaluated through the full pipeline, so every
// reported result is bit-identical to a sequential `evaluate()` call
// on the same matrix.
//
// Subtrees: when the session has several threads and the space is
// large, the calling thread walks only down to a cut depth — the
// shallowest with at least 8 viable prefixes per thread — and hands
// each viable prefix there to a worker as one unit. Each worker walks
// its subtrees with its own clone of the generator and its own
// engine, and the units settle in enumeration order, so results are
// the same at any thread count. Full-mode searches, whose survivors
// cost milliseconds each, and small spaces hand over single survivors
// instead.
//
// Candidate indices: candidates are numbered in depth-first
// enumeration order (the order `materialize_candidates` produces), and
// pruned subtrees advance the index by their exact leaf count, so a
// hit's `index` always addresses the same matrix in the materialized
// list — pruning never shifts the numbering.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "instance/layout.hpp"
#include "linalg/matrix.hpp"
#include "model/cost.hpp"
#include "pipeline/session.hpp"
#include "tile/plan.hpp"

namespace inlt {

/// A candidate space enumerated one loop row at a time. Slot s is the
/// s-th loop position of the layout (`all_loop_positions()` order,
/// outermost first); edge rows are fixed to identity by the driver, so
/// every generated candidate preserves the AST shape.
///
/// Contract: `num_options(depth)` must not depend on the pushed
/// prefix — candidate indexing (and therefore pruning accounting)
/// relies on subtree sizes being a function of depth alone. `row(k)`
/// may depend only on the options pushed so far.
class CandidateGenerator {
 public:
  virtual ~CandidateGenerator() = default;

  /// An independent copy in the same state, for a worker thread to
  /// walk its own subtrees with (search() clones at depth 0).
  virtual std::unique_ptr<CandidateGenerator> clone() const = 0;

  /// Loop rows per candidate (== number of loop positions).
  virtual int num_slots() const = 0;
  /// Branching factor at a depth, prefix-independent.
  virtual i64 num_options(int depth) const = 0;
  /// Full-width row for option k at the current depth.
  virtual IntVec row(i64 k) const = 0;
  /// Commit option k and descend one level.
  virtual void push(i64 k) = 0;
  /// Undo the latest push.
  virtual void pop() = 0;
};

/// Permutations of the nest's loops, each row optionally skewed
/// against the previously placed loops: the row placing variable v at
/// slot t is e_v + Σ c_s·e_{v_s} with c_s ∈ [-skew_bound, skew_bound]
/// over the last `skew_depth` placed variables. skew_bound = 0 gives
/// the pure order sweep (n! candidates).
struct SearchSpace {
  i64 skew_bound = 0;
  int skew_depth = 1;
};

class PermutationSkewGenerator : public CandidateGenerator {
 public:
  explicit PermutationSkewGenerator(const IvLayout& layout,
                                    SearchSpace space = {});

  std::unique_ptr<CandidateGenerator> clone() const override;
  int num_slots() const override;
  i64 num_options(int depth) const override;
  IntVec row(i64 k) const override;
  void push(i64 k) override;
  void pop() override;

 private:
  int skew_window(int depth) const;
  /// Index into slots_ of the k-th still-unplaced variable.
  int unused_at(i64 var_choice) const;

  const IvLayout& layout_;
  SearchSpace space_;
  std::vector<int> slots_;        // loop positions, ascending
  std::vector<int> chosen_;       // per depth: index into slots_
  std::vector<std::uint8_t> used_;
};

/// Where rejected candidates died: provenance aggregated over the
/// whole search (SearchResult::rejections). A candidate rejected by
/// the incremental engine is attributed to the dependence that killed
/// it and to the row (slot) where the lexicographic walk decided;
/// candidates rejected only at completion (zero projection with the
/// source not preceding the destination) land in the final `by_row`
/// bucket, index num_slots().
struct RejectionBreakdown {
  /// Rejected candidates per dependence index (size = deps.size()).
  std::vector<i64> by_dependence;
  /// Rejected candidates per deciding slot, outermost first; the extra
  /// trailing bucket counts completion-time rejections (size =
  /// num_slots() + 1).
  std::vector<i64> by_row;
  /// Total candidates attributed (== stats.pruned_candidates plus the
  /// evaluated-illegal candidates a legality diagnostic localizes).
  i64 rejected = 0;

  std::string to_text(const DependenceSet& deps) const;
};

/// Search accounting. `candidates_total` = `evaluated` +
/// `pruned_candidates`; `evaluated` = `legal` + `illegal_evaluated`.
struct SearchStats {
  i64 candidates_total = 0;
  /// Candidates decided at the leaf — full pipeline in
  /// SearchMode::kFull, legality verdict alone in kLegalityOnly.
  i64 evaluated = 0;
  i64 legal = 0;
  /// Evaluated but rejected by the full pipeline (exact-mode
  /// rejections, structure errors, codegen failures).
  i64 illegal_evaluated = 0;
  /// Candidates skipped because the engine rejected them (at a shared
  /// prefix or at the leaf) — all provably illegal.
  i64 pruned_candidates = 0;
  /// Interior prefixes whose whole subtree was pruned at once.
  i64 pruned_subtrees = 0;
  /// Legal candidates semantically verified against the source
  /// (full mode with SearchOptions::verify_params only).
  i64 verified = 0;
  /// Verified candidates whose execution did NOT match the source —
  /// always 0 unless something upstream (legality, codegen) is wrong.
  i64 verify_failed = 0;

  /// Total candidates classified illegal, evaluated or not.
  i64 illegal() const { return illegal_evaluated + pruned_candidates; }
};

/// One legal candidate, streamed in enumeration order.
struct SearchHit {
  i64 index = 0;   ///< position in the depth-first enumeration
  IntMat matrix;   ///< the candidate
  /// SearchMode::kFull: identical to evaluate(matrix).
  /// SearchMode::kLegalityOnly: legal flag + legality.unsatisfied
  /// only; no generated program.
  CandidateResult result;
  /// Static cache-locality estimate (model/cost.hpp); set when
  /// SearchOptions::cost (or top_k) is active and the estimate
  /// succeeded.
  std::optional<CostEstimate> cost;
  /// Tile plan for the generated program; set when SearchOptions::tile
  /// is active and the candidate generated code. When the plan
  /// applied, `result.program` IS the tiled program.
  std::optional<TilePlan> tile;
};

struct SearchResult {
  /// Legal candidates: ascending index, except under
  /// SearchOptions::top_k where only the K best survive, sorted by
  /// ascending (cost, index).
  std::vector<SearchHit> hits;
  SearchStats stats;
  /// Where the rejected candidates died (dependence × row).
  RejectionBreakdown rejections;
};

/// Enumerate the generator's full candidate space in search order —
/// the reference list `SearchHit::index` points into. Restores the
/// generator to depth 0.
std::vector<IntMat> materialize_candidates(const IvLayout& layout,
                                           CandidateGenerator& gen);

}  // namespace inlt
