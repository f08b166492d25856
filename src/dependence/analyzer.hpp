// Dependence analysis over instance vectors (§3).
//
// For every pair of accesses to the same array (at least one a write),
// the analyzer builds the affine system of §3 — loop bounds, same-
// location equalities, and execution-order constraints — introduces the
// Δ variables of Eq. (3) for every instance-vector position, and uses
// the Omega-test substrate to classify each Δ as an exact distance or
// a direction. The result is the paper's dependence matrix: one column
// per dependence, rows indexed by instance-vector positions.
#pragma once

#include <string>
#include <vector>

#include "dependence/direction.hpp"
#include "instance/layout.hpp"

namespace inlt {

struct Dependence {
  std::string src;  ///< label of the source statement
  std::string dst;  ///< label of the destination statement
  DepKind kind = DepKind::kFlow;
  std::string array;  ///< the array inducing the dependence
  DepVector vector;   ///< length == layout.size()
};

struct DependenceSet {
  std::vector<Dependence> deps;

  /// Columns of the paper's dependence matrix.
  std::vector<DepVector> columns() const;

  std::string to_string() const;
};

struct AnalyzerOptions {
  PadMode pad = PadMode::kDiagonal;
  /// Window for exact-distance detection; a |Δ| beyond this is reported
  /// as an unbounded direction. 8 comfortably covers real loop nests.
  i64 distance_scan_limit = 8;
};

/// Run dependence analysis. The program must be a source program:
/// unit steps, no guards, affine bounds with denominator 1. Throws
/// InvalidProgramError otherwise.
DependenceSet analyze_dependences(const IvLayout& layout,
                                  const AnalyzerOptions& opts = {});

/// The message of the InvalidProgramError analyze_dependences would
/// throw for `p`, or "" when `p` is analyzable. Structural only: no
/// constraint system is built, so callers that already hold a
/// program's dependences can keep the analyzer's eligibility rules.
std::string analysis_blocker(const Program& p);

}  // namespace inlt
