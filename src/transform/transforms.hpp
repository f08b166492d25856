// Constructors for the transformation matrices of §4: permutation,
// reversal, skewing, scaling, alignment, statement reordering, loop
// distribution and loop jamming.
//
// Square transformations map one instance-vector space to itself (the
// AST shape is preserved up to child reordering); distribution and
// jamming are non-square and also produce the target program.
#pragma once

#include "dependence/analyzer.hpp"
#include "instance/layout.hpp"
#include "linalg/matrix.hpp"

namespace inlt {

/// Interchange two loops: the permutation matrix swapping their
/// instance-vector positions (§4.1's first example).
IntMat loop_interchange(const IvLayout& layout, const std::string& a,
                        const std::string& b);

/// General loop permutation: `order[i]` names the loop whose values
/// land in the i-th loop position (loop positions enumerated in layout
/// order). Must be a permutation of all loop variables.
IntMat loop_permutation(const IvLayout& layout,
                        const std::vector<std::string>& order);

/// Reversal: identity with -1 at the loop's diagonal entry.
IntMat loop_reversal(const IvLayout& layout, const std::string& var);

/// Scaling: identity with `factor` at the loop's diagonal entry. Throws
/// Error unless factor >= 1.
IntMat loop_scaling(const IvLayout& layout, const std::string& var,
                    i64 factor);

/// Skewing `target` by `factor` times `source` (§4.1's second example:
/// skewing the outer loop by the inner is loop_skew(.., "I", "J", -1)).
IntMat loop_skew(const IvLayout& layout, const std::string& target,
                 const std::string& source, i64 factor);

/// Statement reordering (§4.2): permute the children of `parent_var`'s
/// loop (or of the program root when parent_var is empty). `perm[old]`
/// = new child index. The matrix swaps edge positions and moves the
/// child subtree blocks accordingly (Fig 5's block structure). Throws
/// Error unless `perm` is a permutation of the children.
IntMat statement_reorder(const IvLayout& layout,
                         const std::string& parent_var,
                         const std::vector<int>& perm);

/// Statement alignment (§4.3): identity plus `offset` at (row = loop
/// position, column = the statement's deepest path-edge position), so
/// instances of that statement shift by `offset` in the loop while
/// other statements are untouched. The statement must have a path edge
/// (alignment of the only statement of a perfect nest is a plain loop
/// shift, which is not a linear map on instance vectors).
///
/// Note: the paper's §4.3 display puts the extra entry in the *other*
/// statement's edge column, which contradicts its own before/after
/// vectors; we match the vectors.
IntMat statement_alignment(const IvLayout& layout, const std::string& label,
                           const std::string& var, i64 offset);

/// Result of a structural (non-square) transformation.
struct StructuralTransform {
  IntMat matrix;    ///< target-size x source-size
  Program target;   ///< the transformed program (bounds copied, then
                    ///< adjusted by the caller / code generator)
};

/// Loop distribution (§4.2): split the loop `var` into two copies, the
/// first receiving children [0, split) and the second [split, m).
/// The loop must be a root of the program (the paper distributes
/// outermost loops; distributing an inner loop changes the parent
/// node's arity, which the instance-vector formulation models the same
/// way — we support root loops, which covers the paper's uses).
StructuralTransform loop_distribution(const IvLayout& layout,
                                      const std::string& var, int split);

/// Loop jamming (§4.2): fuse two adjacent root loops `first` and
/// `second` into one (the inverse of distribution). The fused loop
/// takes `first`'s variable name and bounds.
StructuralTransform loop_jamming(const IvLayout& layout,
                                 const std::string& first,
                                 const std::string& second);

/// §1: "loop distribution is not always legal; in particular, it is
/// not legal in any of the matrix factorization codes." Distribution
/// of root loop `var` at `split` runs the first child group entirely
/// before the second, so it is legal iff no dependence runs from a
/// statement in the second group to one in the first. Returns a
/// diagnostic naming the offending dependence, empty when legal.
std::string check_distribution_legality(const IvLayout& layout,
                                        const DependenceSet& deps,
                                        const std::string& var, int split);

}  // namespace inlt
