// Target-space dependences (§5): the dependences of the nest a legal
// matrix M generates, derived from the source dependences as M·D
// instead of re-analysing the generated program.
//
// A target loop position p carries row p of M, so for a dependence d
// between statements S and T, (M·d)[p] is exactly the difference of
// the target labels at p whenever p encloses both endpoints. At a
// position p that does not enclose an endpoint X, the generated
// program's instance vector pads X from X's pad source u = u_X(p) in
// the *target* tree (Definition 4 applied to the transformed AST), not
// from row p of M. Each endpoint's label there is an affine function
// g·I + c of its source iteration vector (M_p·E_X where p encloses X,
// M_u·E_X where it does not, E_X = A_X·I_X + b_X its Definition-4
// embedding). The re-padding rule: a row w with w·A_S = g_S and
// w·A_T = g_T gives the component exactly as w·d + (c_T − c_S); the
// rows tried are M_p — which succeeds precisely when
//
//     (M_p − M_u)·A_X = 0   for each padded endpoint X,
//
// keeping (M·d)[p] up to edge constants — then the rows the endpoints
// are padded from. When none reproduces both labels the component is
// '*'. For loop orders diagonal padding is a copy, so every component
// is kept; for skews across imperfect levels the rule is conservative
// (the interval hull of w·d can also be wider than the generated
// program's own).
//
// These vectors describe the generated program when it has the
// recovered skeleton's loop/statement tree and the source dependences
// were analyzed with diagonal padding. Components at positions
// enclosing both endpoints (all the legality test and doall
// classification read) are M·d regardless.
//
// Augmentation (§5.4) wraps a statement X in extra loops, each carrying
// a row r of X's completed transformation: label r·I_X, expressed by r
// placed on X's own loop positions. The same rule then gives the
// component of every dependence at an augmented loop (the other
// endpoint is padded there from one of X's tree loops).
// generated_dependences re-indexes the vectors into the generated
// program's layout on that basis; a generated tree it cannot follow
// (reconstruction loops of a non-unimodular N_S, a subtree simplify
// deleted) gets no vectors, and callers analyze that program instead.
#pragma once

#include <optional>
#include <vector>

#include "dependence/analyzer.hpp"
#include "transform/block_structure.hpp"
#include "transform/per_statement.hpp"

namespace inlt {

/// The target-space dependences of candidate `m`: one dependence per
/// source dependence, index-aligned with `deps.deps` (same endpoints,
/// kind and array), its vector M·d re-padded as above, in the
/// coordinates of `*rec.target_layout`. `rec` must be
/// recover_ast(src, m).
DependenceSet target_dependences(const IvLayout& src,
                                 const DependenceSet& deps, const IntMat& m,
                                 const AstRecovery& rec);

/// The same dependences in the coordinates of `gen`, the layout of the
/// program code generation built for `m` from `plans`: skeleton
/// positions (matched by name) keep their `target_deps` components,
/// augmented loops get the components described above. nullopt when
/// `gen` is not the skeleton plus augmented loops.
std::optional<DependenceSet> generated_dependences(
    const IvLayout& src, const DependenceSet& deps, const IntMat& m,
    const AstRecovery& rec, const DependenceSet& target_deps,
    const std::vector<StatementPlan>& plans, const IvLayout& gen);

}  // namespace inlt
