// The per-loop lowering plan that both the VM compiler and the C
// emitter (exec/cgen.cpp) read, so the two engines make the same
// decisions and fault at the same access. Defined in exec/compile.cpp.
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

}  // namespace inlt
