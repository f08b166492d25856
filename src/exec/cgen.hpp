// Lowering a Program to standalone C for the native execution engine.
//
// emit_native_c walks the (possibly transformed) loop forest exactly
// like the AST walker does — the same bounds rounding, guard order,
// statement-instance accounting and uninterpreted-function hash — and
// renders it as one self-contained C translation unit with raw-pointer
// array accesses. Compiled with `-O1 -ffp-contract=off` (exec/native),
// the resulting kernel produces bit-identical Memory and InterpStats
// to the VM and the walker: every floating-point operation keeps the
// operand pairing of the ScalarExpr tree, so under IEEE double
// semantics with contraction disabled each intermediate rounds the
// same way in all three engines.
//
// The kernel ABI is position-based so one compiled object serves every
// parameter binding and Memory instance:
//
//   i64 inltc_kernel(double** arrays, const i64* shapes,
//                    const i64* params, i64 max_instances,
//                    i64* stats, char* err, i64 errcap);
//
// (i64 is the kernel's `long long`, 64-bit like the host's int64_t.)
//
//   arrays  — base pointers, one per NativeKernelSource::arrays entry
//             (NULL when the program never declared the array; the
//             kernel faults politely if such an access executes);
//   shapes  — per array, per dimension: lo, hi, element stride;
//   params  — one value per NativeKernelSource::params entry;
//   stats   — out: {instances, loop_iterations, guard_failures};
//   err     — out: failure message when the return value is nonzero
//             (0 ok, 2 bounds, 3 instance budget, 4 undeclared array).
//
// Checks follow the VM's rule (exec/compile.cpp), so a wrong candidate
// still fails loudly instead of scribbling memory, and fails at the
// same access with the same message as on the VM:
//
//  * a *fast* statement — unguarded, directly inside a loop — is
//    checked once per non-empty entry of that loop: the NULL test of
//    each array, then per access (write, then reads) and dimension the
//    subscript's minimum and maximum over the loop's first and last
//    iterate. Its body computes offsets with no branches;
//  * guarded and loop-less statements check every access as it
//    executes;
//  * a *leaf* loop (every child a fast statement, k of them) runs its
//    first m = min(n, (max_instances - instances) / k) iterations with
//    no budget test; if m < n, one checked tail iteration faults at
//    exactly the instance where the VM does. Every other statement
//    tests the budget per instance.
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
