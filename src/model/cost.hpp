// Static cache-locality cost model — the profitability layer.
//
// The paper's motivating observation (§1, §5.5) is that many legal
// transformations of one nest have very different performance; the
// legality machinery alone cannot say which candidate to pick. This
// model ranks candidates without generating or running code: for each
// statement it expresses the source iteration variables in terms of
// the *transformed* loops (per-statement transformation N_S, completed
// to a nonsingular basis with the HNF/nullspace machinery of linalg),
// reads off the per-array-reference stride against the innermost
// target loop, classifies the reference's reuse, and charges an
// estimated number of distinct cache lines touched:
//
//   temporal  — no subscript moves with the innermost loop: the
//               reference stays on one line for the whole inner loop.
//   spatial   — only the last (row-major contiguous) subscript moves,
//               by |g| < line_elems per iteration: a new line every
//               line_elems/|g| iterations.
//   none      — an outer subscript moves (row jumps), or the
//               contiguous stride is a whole line or more: a new line
//               every iteration.
//
// Scores are symbolic-size estimates: every loop is assumed to run
// `nominal_trip` iterations, so a statement at depth k charges
// nominal_trip^(k-1) executions of its innermost loop. The resulting
// CostEstimate is totally ordered (fewer estimated lines = better;
// rank search breaks exact ties by candidate index) and renders both
// as prose (`explain`) and JSON. Ground truth: the VM's cache-line
// probe (exec/interp.hpp CacheProbe) counts the lines a candidate
// actually touches; bench_model keeps the two in rank agreement.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "dependence/analyzer.hpp"
#include "instance/layout.hpp"
#include "linalg/rational.hpp"
#include "support/cache_geometry.hpp"
#include "transform/block_structure.hpp"

namespace inlt {

struct ModelOptions {
  /// Array elements (doubles) per cache line — shared with the VM's
  /// CacheProbe and the tile model via support/cache_geometry.hpp.
  i64 line_elems = kCacheLineElems;
  /// Assumed iterations per loop — the stand-in for symbolic N.
  i64 nominal_trip = 64;
  PadMode pad = PadMode::kDiagonal;
  /// Threads assumed available to the parallel execution engine
  /// (exec/parallel.hpp). With > 1, the dependence-aware overload
  /// discounts the line count of statements under a partitioned doall
  /// level by Amdahl's law (CostEstimate::effective_lines), so
  /// candidates that expose an outer doall compare lower under
  /// CostEstimate's operator<. Search's top-K heap orders by
  /// total_lines, not by this discounted score. 1 leaves
  /// effective_lines == total_lines.
  int exec_threads = 1;
};

/// Reuse classification of one reference w.r.t. the innermost loop.
enum class ReuseClass {
  kTemporal,  ///< subscripts invariant in the innermost loop
  kSpatial,   ///< contiguous subscript moves by less than a line
  kNone,      ///< a new cache line (nearly) every iteration
};

const char* reuse_class_name(ReuseClass c);

/// Cost of one array reference of one statement.
struct RefCost {
  std::string stmt;
  std::string array;
  bool is_write = false;
  /// Per-subscript-dimension stride for one step of the statement's
  /// innermost transformed loop (exact, in elements of that dimension).
  std::vector<Rational> stride_dims;
  ReuseClass reuse = ReuseClass::kNone;
  /// Estimated distinct cache lines this reference touches over the
  /// whole nest (nominal_trip iterations per loop).
  double lines = 0;
};

/// Totally ordered cost of one candidate: fewer estimated distinct
/// cache lines is better.
struct CostEstimate {
  double total_lines = 0;
  std::vector<RefCost> refs;  ///< statement (syntactic) order, write first

  // Parallel-work term (dependence-aware overload only; otherwise
  // effective_lines == total_lines and the rest stay at defaults).
  /// Amdahl-adjusted lines at `exec_threads`: serial share at full
  /// cost, the share under a partitioned doall divided by the threads.
  double effective_lines = 0;
  /// Fraction of total_lines charged to statements under a
  /// partitioned doall level of the transformed nest.
  double parallel_fraction = 0;
  int exec_threads = 1;
  /// Partitioned doall levels of the candidate (see ParallelSchedule).
  std::vector<std::string> partition;

  /// Strict weak order: by effective_lines (== total_lines whenever
  /// the parallel term is off), then total_lines. Exact ties compare
  /// equal; rank search breaks them by candidate index.
  friend bool operator<(const CostEstimate& a, const CostEstimate& b) {
    if (a.effective_lines != b.effective_lines)
      return a.effective_lines < b.effective_lines;
    return a.total_lines < b.total_lines;
  }

  /// Per-reference breakdown, one line each, statement-grouped.
  std::string to_text() const;
  /// {"total_lines":..,"refs":[{...},...]} (no trailing newline).
  std::string to_json() const;
};

/// The cost model bound to one source layout and one ModelOptions —
/// what search() builds once per search and every candidate's kCost
/// stage shares. Construction tabulates, per statement, its loop
/// variables, the subscript coefficients of each access as integer
/// rows, and its Definition-4 embedding; an estimate then only forms
/// each statement's N_S (Def 7) from M. The step direction `dir` of
/// the innermost target loop — and the subscript strides it gives each
/// reference — depend on N_S alone, so they are memoized per
/// (statement, N_S): a search over permutations × skews revisits a few
/// thousand distinct N_S across hundreds of thousands of estimates.
/// The memo is lock-striped, so lines() and estimate() may run on many
/// threads at once; it lives as long as the model. The memo also holds
/// each reference's reuse class and lines, which depend only on the
/// strides.
///
/// Score vs estimate: lines() is the cheap score, the estimate's
/// total_lines and nothing else. It reads the same memoized entries
/// and sums the same per-reference lines in the same order, so it is
/// bit-identical to estimate().total_lines, but it builds no RefCost,
/// partition or parallel term. Rank search scores every legal
/// candidate and builds the full estimate only for those whose score
/// can still enter the top K (DESIGN.md, "Rank by score").
///
/// Memo lookups count in the `model.direction_memo_hits` /
/// `model.direction_memo_misses` Stats counters, scores in
/// `model.scores` and estimates in `model.estimates`. A miss counts
/// once per N_S the memo stores: of two threads racing to compute the
/// same one, the thread whose insert loses counts a hit. Each thread
/// gathers its hits and scores and adds them when it next uses another
/// model, when the model is destroyed on that thread, or when the
/// thread exits.
struct CostModelTables;

class CostModel {
 public:
  /// `skeleton`, when set, is the recovery most calls will pass (the
  /// one search() shares among all its candidates; it must outlive
  /// the model): each statement's target loop positions in it are
  /// resolved here, once, instead of by name on every call.
  explicit CostModel(const IvLayout& src, const ModelOptions& opts = {},
                     const AstRecovery* skeleton = nullptr);
  ~CostModel();

  const ModelOptions& options() const { return opts_; }

  /// The score of candidate `m`: estimate(m, skeleton).total_lines,
  /// bit for bit. `skeleton` must be recover_ast(src, m); NewAST reads
  /// only M's edge rows, so one recovery serves every candidate that
  /// shares them.
  double lines(const IntMat& m, const AstRecovery& skeleton) const;
  /// Base estimate of candidate `m`; `rec` must be recover_ast(src, m).
  CostEstimate estimate(const IntMat& m, const AstRecovery& rec) const;
  /// Dependence-aware estimate from the candidate's target-space
  /// dependences (target_dependences(src, deps, m, rec)).
  CostEstimate estimate(const IntMat& m, const AstRecovery& rec,
                        const DependenceSet& target_deps) const;

 private:
  ModelOptions opts_;
  std::unique_ptr<CostModelTables> tables_;
  std::atomic<i64>& estimates_;
  std::atomic<i64>& misses_;
};

/// Estimate the cost of candidate `m` against the source layout: a
/// one-shot wrapper over a temporary CostModel that recovers the AST
/// first. Pure static analysis: no code generation, no execution.
/// Statements whose per-statement transformation is rank-deficient
/// are completed with nullspace rows (the innermost loops augmentation
/// would add); see DESIGN.md for the model's known inaccuracies.
/// Throws (like recover_ast) when the matrix is not block-structured.
CostEstimate estimate_cost(const IvLayout& src, const IntMat& m,
                           const ModelOptions& opts = {});

/// Dependence-aware estimate; `rec` must come from recover_ast(src, m).
/// The base estimate plus the parallel-work term: the candidate's
/// doall partition (analyze_target_parallelism) fills `partition` and
/// `parallel_fraction` at any thread count; the parallel share of the
/// lines is divided by `opts.exec_threads` in effective_lines. With
/// exec_threads == 1 total_lines, refs and effective_lines equal the
/// base estimate's.
CostEstimate estimate_cost(const IvLayout& src, const DependenceSet& deps,
                           const IntMat& m, const AstRecovery& rec,
                           const ModelOptions& opts = {});

}  // namespace inlt
