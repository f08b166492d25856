// Per-statement transformations (Definition 7) and augmentation with
// extra loops (§5.4, Theorem 3, Fig 7).
//
// A statement S nested in k loops has source instance vectors that are
// an affine function of its iteration vector: IV = A_S·I_S + b_S. The
// transformed labels of S's loops are therefore M_S·I_S + c_S with
// M_S = proj(M·A_S) and c_S = proj(M·b_S). When rank(M_S) < k,
// multiple source instances collapse onto one target instance and the
// Complete procedure appends rows (new loops around S) that carry the
// self-dependences M left unsatisfied.
#pragma once

#include <map>

#include "dependence/analyzer.hpp"
#include "transform/legality.hpp"

namespace inlt {

/// Definition 4's embedding of one statement: its source instance
/// vector as an affine function IV = a·I_S + b of its iteration vector
/// (padded positions copy their pad source under kDiagonal; edge
/// positions on its path contribute the constant 1).
struct StatementEmbedding {
  IntMat a;  ///< layout.size() x k
  IntVec b;  ///< layout.size()
};

StatementEmbedding statement_embedding(const IvLayout& src,
                                       const std::string& label,
                                       PadMode pad = PadMode::kDiagonal);

struct PerStatement {
  /// k_tree x k: target tree-loop labels (outermost first) as a
  /// function of the source iteration vector.
  IntMat matrix;
  /// Constant part (from edge labels and alignment offsets).
  IntVec offset;
};

/// Definition 7's per-statement transformation for one statement.
PerStatement per_statement_transform(const IvLayout& src,
                                     const AstRecovery& rec, const IntMat& m,
                                     const std::string& label,
                                     PadMode pad = PadMode::kDiagonal);

/// Fig 7's Complete procedure: extend `t_s` (rows orthogonal to every
/// unsatisfied self-dependence) to full column rank by appending unit
/// rows at dependence heights, then nullspace rows. The appended unit
/// rows make every vector of `d_s` lexicographically positive under
/// the extended matrix (Theorem 3 part 2).
IntMat complete_rows(const IntMat& t_s, std::vector<DepVector> d_s);

/// The full per-statement plan for code generation: tree rows followed
/// by augmentation rows.
struct StatementPlan {
  std::string label;
  IntMat t_full;      ///< (k_tree + augmented) x k
  IntVec offset_full; ///< row offsets (augmented rows have offset 0)
  int num_tree_rows = 0;
  /// Rows kept in N_S (Definition 8): not zero and not linear
  /// combinations of previous rows. Rows absent here are singular
  /// loops and receive equality guards (§5.5).
  std::vector<int> nonsingular_rows;
};

/// Build the plan for every statement: per-statement transform,
/// augmentation driven by the legality result's unsatisfied
/// dependences, and the N_S row selection.
std::vector<StatementPlan> plan_statements(const IvLayout& src,
                                           const DependenceSet& deps,
                                           const IntMat& m,
                                           const AstRecovery& rec,
                                           const LegalityResult& legality,
                                           PadMode pad = PadMode::kDiagonal);

/// Same, driven by explicit per-statement unsatisfied self-dependence
/// projections (as the exact legality checker produces).
std::vector<StatementPlan> plan_statements_from_self(
    const IvLayout& src, const IntMat& m, const AstRecovery& rec,
    const std::map<std::string, std::vector<DepVector>>& unsatisfied_self,
    PadMode pad = PadMode::kDiagonal);

}  // namespace inlt
