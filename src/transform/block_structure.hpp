// Block structure of transformation matrices and AST recovery
// (Fig 5, Fig 6: procedure NewAST).
//
// A square transformation matrix is structurally valid when, for every
// multi-child node, the submatrix over that node's edge positions is a
// permutation matrix (with zeroes elsewhere in those rows) and the
// child subtree blocks are mapped block-to-block following the same
// permutation. Loop rows are unconstrained — they carry the linear
// loop transformation. From a valid matrix the transformed AST (source
// AST with children recursively reordered) is recovered.
#pragma once

#include <memory>

#include "instance/layout.hpp"
#include "linalg/matrix.hpp"

namespace inlt {

/// Result of NewAST: the recovered target program plus bookkeeping
/// linking it back to the source.
struct AstRecovery {
  /// The transformed program. Loop bounds are copied from the source
  /// verbatim; code generation recomputes them.
  std::unique_ptr<Program> target;
  /// Layout of the target program (points into *target).
  std::unique_ptr<IvLayout> target_layout;
};

/// Is the matrix block-structured for this source layout? Returns a
/// diagnostic string (empty = valid).
std::string check_block_structure(const IvLayout& src, const IntMat& m);

/// Procedure NewAST (Fig 6): recover the transformed AST. Throws
/// TransformError if the matrix is not block-structured. Reads only
/// M's edge rows: matrices that agree on them recover the same AST.
AstRecovery recover_ast(const IvLayout& src, const IntMat& m);

}  // namespace inlt
