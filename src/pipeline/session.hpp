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
//  * `evaluate_all` fans a batch of candidates across a small thread
//    pool (the per-candidate paths are side-effect-free; results are
//    deterministic and index-aligned with the input).
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
#include "support/diag.hpp"
#include "support/stats.hpp"

namespace inlt {

class CandidateGenerator;
class IncrementalLegality;
struct SearchHit;
struct SearchOptions;
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
  /// Worker threads for evaluate_all; 0 = use hardware concurrency,
  /// 1 = sequential, n > 1 = exactly n workers.
  int threads = 0;
  /// Ceiling applied when `threads` is resolved from hardware
  /// concurrency (0 = no ceiling). Explicit `threads` requests are
  /// never capped.
  int max_threads = 0;
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

/// Resolve a worker-thread request against hardware concurrency, an
/// optional ceiling and the number of work items (the semantics of
/// SessionOptions::threads / max_threads). Shared by evaluate_all and
/// the deferred evaluation stage of full-mode search().
int resolve_threads(int requested, int ceiling, size_t work_items);

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

  /// Evaluate a batch across the session thread pool. Results are
  /// index-aligned with `candidates` and identical to sequential
  /// evaluate() calls (cached projections are bit-identical to
  /// uncached ones).
  std::vector<CandidateResult> evaluate_all(
      const std::vector<IntMat>& candidates);

  /// Walk a candidate space depth-first through the incremental
  /// legality engine: prefixes whose partial transformed dependences
  /// are already lexicographically negative prune their whole subtree;
  /// surviving candidates are evaluated exactly like `evaluate()` (the
  /// reported results are bit-identical and index-aligned with the
  /// enumeration order — see search.hpp). `sink`, when set, receives
  /// each legal candidate as it is found. In exact mode the hull
  /// engine cannot prune (the ILP test accepts more matrices), so
  /// every candidate is evaluated.
  ///
  /// The engine's memo trie lives on the session: repeated searches —
  /// and overlapping spaces — reuse each other's per-prefix work.
  /// Not safe to call concurrently on one session.
  SearchResult search(CandidateGenerator& gen,
                      const std::function<void(const SearchHit&)>& sink = {},
                      SearchMode mode = SearchMode::kFull);
  /// Convenience: permutation × bounded-skew space over this layout.
  SearchResult search(const SearchSpace& space,
                      const std::function<void(const SearchHit&)>& sink = {},
                      SearchMode mode = SearchMode::kFull);

  /// Full-option search: mode + sink + periodic progress telemetry
  /// (see SearchOptions in search.hpp). The two-argument overloads
  /// above are shorthands for this one.
  SearchResult search(CandidateGenerator& gen, const SearchOptions& sopts);
  SearchResult search(const SearchSpace& space, const SearchOptions& sopts);

  /// All diagnostics reported by evaluations so far.
  DiagnosticEngine& diags() { return diags_; }

  /// The FM projection memo. Clearing it turns the next evaluation
  /// cold again (bench_session measures exactly this).
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
  std::mutex diag_mu_;  // evaluate_all workers report concurrently
  DiagnosticEngine diags_;
};

}  // namespace inlt
