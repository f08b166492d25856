// The per-loop lowering plan that both the VM compiler and the C
// emitter (exec/cgen.cpp) read, so the two engines make the same
// decisions and fault at the same access, plus the emitter's
// unroll-and-jam plan. Defined in exec/lower.cpp.
#pragma once

#include <vector>

#include "ir/ast.hpp"

namespace inlt {

struct LoopPlan {
  /// Child indices of the fast statements (the unguarded statement
  /// children), whose checks run once per loop entry.
  std::vector<int> fast;
  bool leaf = false;  ///< every child is fast, and there is one
  /// Access `access` (Statement::accesses() order: the write, then the
  /// reads in tree order) of child `stmt`, checked at subscript
  /// dimension `dim` over the first and last iterate; dim -1 checks
  /// that the array is bound.
  struct Check {
    int stmt = 0, access = 0, dim = 0;
  };
  /// In statement, access, dimension order. A repeat (same array,
  /// dimension and subscript) cannot fail where its first copy passed,
  /// so it is left out.
  std::vector<Check> checks;
};

/// The plan of loop node `loop`, from the Program alone.
LoopPlan plan_loop(const Node& loop);

/// `loop`'s only child, followed down the chain of links: unguarded
/// loops with one child loop that run exactly once (Node::runs_once).
/// `inner` is the first loop that is not such a link, null when `loop`
/// has another child or a statement child.
struct LoopChain {
  const Node* inner = nullptr;
  std::vector<const Node*> links;  ///< outer first
};
LoopChain loop_chain(const Node& loop);

/// How the C emitter unrolls and jams a column-walking nest (DESIGN.md
/// "Jammed column walks"): `loop` (J) has unit step, does not run
/// exactly once, and has, through its loop_chain, one leaf loop L of
/// unit step with one-term bounds. Some leaf write has J with
/// coefficient 1 in its last subscript and no L there, so 8
/// consecutive J values touch 8 adjacent doubles.
struct JamPlan {
  const Node* leaf = nullptr;  ///< null: `loop` does not jam
  std::vector<const Node*> chain;  ///< the one-trip loops, outer first
  /// Each leaf statement's accesses (Statement::accesses() order) in J,
  /// L and the names outside `loop`: a chain variable is replaced by
  /// its value.
  std::vector<std::vector<ArrayAccess>> accesses;
  /// The leaf's bounds, one term each, in the same names: monotonic in
  /// J, so over 8 columns they are extreme at the first and the last.
  Bound lower, upper;
  struct Ref {
    int stmt = 0, access = 0;
  };
  /// A write and another access of its array that a runtime test must
  /// prove apart: in one of `dims` their value ranges over the group's
  /// (J, L) box are disjoint (in any other dimension they always
  /// meet). Every pair left out has identical subscripts, injective in
  /// (J, L).
  struct Pair {
    Ref write, other;
    std::vector<int> dims;
  };
  std::vector<Pair> pairs;
};

/// The jam plan of loop node `loop`, from the Program alone.
JamPlan plan_jam(const Node& loop);

}  // namespace inlt
