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
// Candidate indices: candidates are numbered in depth-first
// enumeration order (the order `materialize_candidates` produces), and
// pruned subtrees advance the index by their exact leaf count, so a
// hit's `index` always addresses the same matrix in the materialized
// list — pruning never shifts the numbering.
#pragma once

#include <functional>
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
/// relies on subtree sizes being a function of depth alone.
class CandidateGenerator {
 public:
  virtual ~CandidateGenerator() = default;

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

/// Periodic search telemetry, delivered through
/// `SearchOptions::progress` roughly every `progress_interval`
/// candidates (and once more when the walk finishes, with
/// done == total). Rates are measured from the start of the search.
struct SearchProgress {
  i64 done = 0;        ///< candidates decided so far (evaluated + pruned)
  i64 total = 0;       ///< size of the whole candidate space
  i64 legal = 0;       ///< legal candidates found so far
  i64 pruned = 0;      ///< candidates pruned so far
  double elapsed_s = 0;    ///< seconds since the search started
  double rate = 0;         ///< candidates decided per second
  double prune_rate = 0;   ///< pruned / done
  double eta_s = 0;        ///< remaining / rate (0 when rate is 0)
};

using SearchProgressFn = std::function<void(const SearchProgress&)>;

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

/// Called for each legal candidate as soon as it is found.
using SearchSink = std::function<void(const SearchHit&)>;

/// Knobs for TransformSession::search. The two-argument overloads are
/// shorthands for an options struct carrying only `sink` and `mode`.
struct SearchOptions {
  SearchMode mode = SearchMode::kFull;
  /// Receives each legal candidate as soon as it is found.
  SearchSink sink;
  /// Periodic telemetry callback; never called when unset.
  SearchProgressFn progress;
  /// Candidates between progress reports (approximate: a pruned
  /// subtree advances the count in one step). Must be positive.
  i64 progress_interval = 1 << 16;
  /// Full mode only: when non-empty, semantically verify every legal
  /// candidate's generated program against the source at these
  /// parameter bindings (exec/verify.hpp); the outcome lands in
  /// `CandidateResult::verify` and the `verified` / `verify_failed`
  /// stats. Verification shares the deferred evaluation stage, so it
  /// runs on the session's worker threads.
  std::map<std::string, i64> verify_params;
  /// Input fill for verification runs.
  FillKind verify_fill = FillKind::kSpd;
  /// Seed for verification inputs.
  unsigned verify_seed = 1;
  /// Execution engine for verification runs.
  ExecEngine verify_engine = ExecEngine::kVm;
  /// Worker threads for each verification run (exec/parallel.hpp):
  /// with > 1, the source reference and every candidate execute with
  /// their doall levels chunked over the shared exec pool (the
  /// candidate's partition comes from analyze_target_parallelism on
  /// its completed matrix). Results are bit-identical to serial at any
  /// value, so hits and stats do not depend on it. Also forwarded to
  /// the cost model's parallel-work term when `cost` is active.
  int exec_threads = 1;
  /// Run the static cost model (model/cost.hpp) on every legal
  /// candidate: adds the Cost stage to the candidate pipeline
  /// (deferred, on the session's worker threads) and fills each hit's
  /// `cost`. Works in both modes; kLegalityOnly + cost is "rank mode"
  /// — scores without generating code.
  bool cost = false;
  /// Model knobs when `cost` is active. The pad mode is taken from
  /// the session's codegen options, not from here.
  ModelOptions model;
  /// Keep only the K best hits, ordered by ascending
  /// (cost.total_lines, index) — a bounded heap, so ranking a huge
  /// space is O(K) memory. Implies `cost`; 0 keeps every hit.
  /// Stats still count all legal candidates and the sink still sees
  /// every one of them. Without a sink, a candidate gets the full
  /// estimate only if its score (CostModel::lines) can still make the
  /// top K; the kept hits are the same either way.
  i64 top_k = 0;
  /// Full mode only: tile every legal candidate's generated program.
  /// After codegen a band and sizes are planned (tile/plan.hpp) from
  /// the candidate's target-space dependences M·D
  /// (transform/target_deps.hpp), not from a re-analysis of the
  /// generated nest; only a generated program whose loop/statement tree
  /// differs from the recovered skeleton (augmented or reconstruction
  /// loops, a subtree removed by simplification), or a session that
  /// pads non-diagonally, is analyzed afresh — counted in the
  /// `tile.reanalysis_fallbacks` counter. When the plan applies, the
  /// hit's program is replaced by the tiled rewrite — so verification
  /// (verify_params) checks the *tiled* program against the source and
  /// its doall partition is remapped to the tile loops
  /// (tiled_partition). Candidates whose generated program cannot be
  /// analyzed or tiled keep their untiled program, with the reason in
  /// the hit's `tile->note`.
  bool tile = false;
  /// Band/size/auto knobs when `tile` is active.
  TileOptions tile_opts;
};

/// Enumerate the generator's full candidate space in search order —
/// the reference list `SearchHit::index` points into. Restores the
/// generator to depth 0.
std::vector<IntMat> materialize_candidates(const IvLayout& layout,
                                           CandidateGenerator& gen);

}  // namespace inlt
