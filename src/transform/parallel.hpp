// Parallelism detection (§1/§7): "parallelizing a loop requires
// finding a row in the nullspace of the dependence matrix".
//
// A target loop whose row annihilates every dependence column carries
// no dependence: its iterations can run in parallel (a doall). This
// module computes an integer basis of such rows, restricted to the
// positions where every dependence entry is an exact distance (a
// direction entry can only be annihilated by a zero coefficient).
#pragma once

#include "dependence/analyzer.hpp"
#include "transform/block_structure.hpp"
#include "transform/target_deps.hpp"

namespace inlt {

/// Basis of full-width rows r (supported on loop positions) with
/// r · d == 0 for every dependence column d. Empty when every loop
/// direction carries some dependence.
std::vector<IntVec> parallel_row_basis(const IvLayout& layout,
                                       const DependenceSet& deps);

/// Names of the source loops that are doall as written: their unit row
/// is (up to scale) in the parallel basis.
std::vector<std::string> parallel_loops(const IvLayout& layout,
                                        const DependenceSet& deps);

/// Classification of one loop level of the transformed nest.
struct TargetLevel {
  int position = -1;   ///< position in the target layout
  std::string var;     ///< loop variable in the target AST
  int depth = 0;       ///< number of enclosing target loops
  bool doall = false;  ///< no dependence is carried at this level
  /// Index into deps.deps of the first dependence carried here
  /// (meaningful only when !doall).
  int carrier = -1;
  /// Sequential only because an outer interval entry could not be
  /// resolved (the carrier *may* be carried here, not *is*).
  bool ambiguous = false;
  /// Selected for chunked parallel execution: the outermost doall
  /// level on its nest path.
  bool partitioned = false;
};

/// A doall/wavefront execution schedule for a transformed nest (§1/§7:
/// a doall level is a row annihilating every transformed dependence
/// column that its statements share).
struct ParallelSchedule {
  /// Target loop levels in syntactic (depth-first) order.
  std::vector<TargetLevel> levels;
  /// Variables of the partitioned levels, syntactic order. Empty means
  /// serial execution: no doall level exists.
  std::vector<std::string> partition;
  /// Sequential target loops enclosing some partitioned level,
  /// outermost first — the wavefront's time loops.
  std::vector<std::string> time_loops;
  /// Some partitioned level runs under a sequential time loop (skewed
  /// nests: outer time, inner parallel).
  bool wavefront = false;

  /// Human-readable report; `deps` names the carried dependences.
  std::string to_text(const DependenceSet& deps) const;
};

/// Schedule of a nest as written: classify every loop level of
/// `layout`'s program as doall or sequential under `deps` (given in
/// `layout`'s coordinates), pick the outermost doall on each nest path
/// as the partition and derive the wavefront structure. The source
/// nest with its analyzed dependences, or a transformed nest with its
/// target_dependences.
ParallelSchedule source_parallel_schedule(const IvLayout& layout,
                                          const DependenceSet& deps);

/// The schedule of candidate M's transformed nest from its target-space
/// dependences (target_dependences(src, deps, m, rec)). `carrier`
/// indices stay valid for the source DependenceSet, which is
/// index-aligned with them.
ParallelSchedule analyze_target_parallelism(const AstRecovery& rec,
                                            const DependenceSet& target_deps);

/// Same, computing the target dependences. `rec` must be
/// recover_ast(src, m).
ParallelSchedule analyze_target_parallelism(const IvLayout& src,
                                            const DependenceSet& deps,
                                            const IntMat& m,
                                            const AstRecovery& rec);

}  // namespace inlt
