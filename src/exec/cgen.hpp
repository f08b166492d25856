// Lowering a Program to standalone C for the native execution engine.
//
// emit_native_c walks the (possibly transformed) loop forest exactly
// like the AST walker does — the same bounds rounding, guard order,
// statement-instance accounting and uninterpreted-function hash — and
// renders it as one self-contained C translation unit with raw-pointer
// array accesses. It includes no header and calls nothing: `sqrt` is
// the one external name, and under -fno-math-errno it compiles to one
// instruction, so the kernel links with -nostdlib (exec/native).
// Compiled with `-O1 -ffp-contract=off`, a kernel that runs to the end
// produces bit-identical Memory and InterpStats to the VM and the
// walker: every floating-point operation keeps the operand pairing of
// the ScalarExpr tree, so under IEEE double semantics with contraction
// disabled each intermediate rounds the same way in all three engines.
//
// The kernel ABI is position-based so one compiled object serves every
// parameter binding and Memory instance:
//
//   i64 inltc_kernel(double** arrays, const i64* shapes,
//                    const i64* params, i64 max_instances, i64* stats);
//
// (i64 is the kernel's `long long`, 64-bit like the host's int64_t.)
//
//   arrays  — base pointers, one per NativeKernelSource::arrays entry
//             (NULL when the program never declared the array);
//   shapes  — per array, per dimension: lo, hi, element stride;
//   params  — one value per NativeKernelSource::params entry;
//   stats   — out: {instances, loop_iterations, guard_failures};
//   return  — 0 ok, 1 *bail*: the run met a fault or the instance
//             budget. A bail writes no text and leaves Memory partly
//             written; the host restores it and replays the run on the
//             VM, which produces the exact Error (exec/native.hpp).
//
// Checks come from the lowering plan the VM also reads (exec/lower.hpp),
// so a wrong candidate bails before any access leaves its array. The
// kernel bails on
//
//  * a failed hoisted check: a *fast* statement — unguarded, directly
//    inside a loop — is checked once per non-empty entry of that loop,
//    one branch-free test of the NULL test of each array and the
//    plan's distinct (array, dimension, subscript) checks, the
//    subscript's minimum and maximum over the loop's first and last
//    iterate. Its body computes offsets with no branches;
//  * a failed per-access check (NULL or bounds) of a guarded or
//    loop-less statement;
//  * a *leaf* loop (every child a fast statement, k of them) whose n
//    iterations need more than the budget left (k·n instances), tested
//    at its entry: the loop itself runs with no budget test;
//  * any other statement that exceeds the budget, tested per instance.
//
// A *jammed* column walk (JamPlan, exec/lower.hpp) runs 8 consecutive J
// values per sweep of its leaf only when the group's pair, entry and
// budget checks all pass, and otherwise runs the plain loop from the
// group's first column (DESIGN.md "Jammed column walks").
//
// Integer arithmetic is NOT overflow-checked (the kernel is compiled
// with -fwrapv); adversarial parameter values belong on the checked
// VM.
#pragma once

#include <string>
#include <vector>

#include "ir/ast.hpp"

namespace inlt {

/// One emitted kernel: the C source plus the binding order the host
/// must honor when packing the arrays/shapes/params arguments.
struct NativeKernelSource {
  std::string code;
  /// Array names in binding order (sorted); ranks[i] is the rank the
  /// kernel was emitted for — the Memory side must match.
  std::vector<std::string> arrays;
  std::vector<int> ranks;
  /// Free (non-loop) variable names in binding order (sorted).
  std::vector<std::string> params;
};

/// Exported symbol name of the emitted kernel.
inline constexpr const char* kNativeKernelSymbol = "inltc_kernel";

/// Render `p` as a C translation unit. Throws Error on programs the
/// emitter cannot express (rank-inconsistent array uses); callers
/// treat that as "native unavailable" and fall back to the VM.
NativeKernelSource emit_native_c(const Program& p);

}  // namespace inlt
