// TransformSession — the persistent pipeline layer.
//
// The paper's workflow is many transformations probed against one
// program: analyze a nest once, then evaluate many candidate matrices
// (completion seeds, permutations, skews) for legality and generated
// code. The free functions (`analyze_dependences`, `check_legality`,
// `generate_code`) recompute layout recovery, dependence analysis and
// Fourier–Motzkin projections from scratch on every call; a session
// amortizes them:
//
//  * the Program, IvLayout and DependenceSet are computed once and
//    owned by the session;
//  * Fourier–Motzkin eliminations are memoized in a ProjectionCache
//    keyed by a canonical serialization of the constraint system, so
//    repeated candidate evaluations (and the per-row elimination
//    chains inside a single code generation) reuse projections;
//  * every candidate's outcome is reported as structured Diagnostics
//    collected in a per-session DiagnosticEngine;
//  * `search` walks a whole candidate space, deciding and evaluating
//    candidates on the session's worker threads (search.hpp).
//
// Instrumentation (FM eliminations, cache hits/misses, legality
// checks, per-stage codegen time) accumulates on Stats::global().
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "codegen/generate.hpp"
#include "exec/verify.hpp"
#include "linalg/project.hpp"
#include "model/cost.hpp"
#include "support/diag.hpp"
#include "support/stats.hpp"
#include "tile/plan.hpp"

namespace inlt {

class CandidateGenerator;
class IncrementalLegality;
struct SearchHit;
struct SearchResult;
struct SearchSpace;

struct SessionOptions {
  AnalyzerOptions analyzer;
  CodegenOptions codegen;
  /// Use the exact ILP legality pipeline instead of direction-vector
  /// hulls (accepts some matrices the hull test rejects; slower).
  bool exact = false;
  /// Run the simplification pass on generated programs.
  bool simplify = true;
  /// Worker threads for search(); 0 = use hardware concurrency,
  /// 1 = sequential, n > 1 = exactly n workers.
  int threads = 0;
};

/// How much work search() invests per surviving candidate.
///
///  * kFull — run the complete pipeline (codegen + simplify) on every
///    candidate the engine cannot reject; each hit's result is
///    bit-identical to `evaluate()` on the same matrix.
///  * kLegalityOnly — stop at the legality verdict: hits carry the
///    legal flag and the unsatisfied-dependence indices but no
///    generated program. This is the high-throughput filter mode —
///    decide a whole space, then `evaluate()` only the chosen
///    winners. Verdicts (hit indices, legal flags, unsatisfied sets)
///    are identical to kFull wherever the full pipeline would not
///    fail *after* the legality stage (codegen errors surface only
///    when code is actually generated).
enum class SearchMode {
  kFull,
  kLegalityOnly,
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

/// Called for each legal candidate as soon as it is found.
using SearchSink = std::function<void(const SearchHit&)>;

/// Knobs for TransformSession::search.
struct SearchOptions {
  SearchMode mode = SearchMode::kFull;
  /// Receives each legal candidate as soon as it is found.
  SearchSink sink{};
  /// Periodic telemetry callback; never called when unset.
  SearchProgressFn progress{};
  /// Candidates between progress reports (approximate: a pruned
  /// subtree advances the count in one step). Must be positive.
  i64 progress_interval = 1 << 16;
  /// Full mode only: when non-empty, semantically verify every legal
  /// candidate's generated program against the source at these
  /// parameter bindings (exec/verify.hpp); the outcome lands in
  /// `CandidateResult::verify` and the `verified` / `verify_failed`
  /// stats. Verification shares the deferred evaluation stage, so it
  /// runs on the session's worker threads.
  std::map<std::string, i64> verify_params{};
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
  ModelOptions model{};
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
  TileOptions tile_opts{};
};

/// Outcome of evaluating one candidate matrix.
struct CandidateResult {
  bool legal = false;
  /// Hull legality result (empty when opts.exact — see diagnostics).
  LegalityResult legality;
  /// Generated (optionally simplified) program; set iff legal.
  std::optional<Program> program;
  /// Structured diagnostics for this candidate: legality violations,
  /// structure errors, codegen failures. Empty for a clean candidate.
  std::vector<Diagnostic> diagnostics;
  /// what() of the error that stopped the pipeline, empty otherwise.
  std::string error;
  /// Semantic verification against the source program; set only by
  /// full-mode search() when SearchOptions::verify_params is non-empty
  /// and the candidate generated code.
  std::optional<VerifyResult> verify;
};

class TransformSession {
 public:
  /// Parse `source_text` and analyze it. Throws on parse/analysis
  /// errors (same exceptions as the free functions).
  static TransformSession from_source(const std::string& source_text,
                                      SessionOptions opts = {});

  explicit TransformSession(Program program, SessionOptions opts = {});
  ~TransformSession();

  const Program& program() const { return *program_; }
  const IvLayout& layout() const { return *layout_; }
  const DependenceSet& dependences() const { return deps_; }
  const SessionOptions& options() const { return opts_; }

  /// Evaluate one candidate: legality plus, when legal, generated
  /// code. Never throws for candidate-specific failures — they land in
  /// the result's diagnostics (and in diags()).
  CandidateResult evaluate(const IntMat& m);

  /// Walk a candidate space depth-first through the incremental
  /// legality engine: prefixes whose partial transformed dependences
  /// are already lexicographically negative prune their whole subtree;
  /// surviving candidates are evaluated exactly like `evaluate()` (the
  /// reported results are bit-identical and index-aligned with the
  /// enumeration order — see search.hpp). `sopts.sink`, when set,
  /// receives each legal candidate as it is found. In exact mode the hull
  /// engine cannot prune (the ILP test accepts more matrices), so
  /// every candidate is evaluated.
  ///
  /// The engine's memo trie lives on the session: repeated searches —
  /// and overlapping spaces — reuse each other's per-prefix work. When
  /// the space is cut into subtrees (see search.hpp), that is the walk
  /// above the cut; each worker walks its subtrees on an engine of its
  /// own, cleared after every subtree.
  /// Not safe to call concurrently on one session.
  SearchResult search(CandidateGenerator& gen,
                      const SearchOptions& sopts = {});
  /// Convenience: permutation × bounded-skew space over this layout.
  SearchResult search(const SearchSpace& space,
                      const SearchOptions& sopts = {});

  /// All diagnostics reported by evaluations so far.
  DiagnosticEngine& diags() { return diags_; }

  /// The FM projection memo. Clearing it turns the next evaluation
  /// cold again.
  ProjectionCache& projection_cache() { return cache_; }

  /// Process-wide instrumentation registry (counters incremented by
  /// this session's work among everything else).
  Stats& stats() const { return Stats::global(); }

 private:
  /// `plans`, when set, receives code generation's per-statement plans.
  CandidateResult evaluate_impl(const IntMat& m,
                                std::vector<StatementPlan>* plans = nullptr);

  SessionOptions opts_;
  std::unique_ptr<Program> program_;  // stable address: layout_ points in
  std::unique_ptr<IvLayout> layout_;
  DependenceSet deps_;
  ProjectionCache cache_;
  // Created lazily by the first search(); owns the prefix memo trie.
  std::unique_ptr<IncrementalLegality> engine_;
  std::mutex diag_mu_;  // search() workers report concurrently
  DiagnosticEngine diags_;
};

}  // namespace inlt
