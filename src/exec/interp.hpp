// Interpreter for inlt programs.
//
// Executes a Program against a Memory, giving transformations an
// executable semantics: a transformed program is correct when it
// leaves memory in the same state as the source program on the same
// inputs. Uninterpreted functions (f(), g(), ...) evaluate to a
// deterministic hash of the function name, the evaluated arguments and
// the current loop environment, so they are pure and order-independent
// — exactly what comparing two statement orders requires.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "exec/array.hpp"
#include "ir/ast.hpp"
#include "support/cache_geometry.hpp"

namespace inlt {

/// One array access performed by an executed statement instance.
struct AccessEvent {
  std::string stmt;   ///< statement label
  std::string array;
  std::vector<i64> index;
  bool is_write = false;
};

/// Which execution engine interpret() uses. All three produce
/// bit-identical results (memory state, InterpStats, the
/// uninterpreted-function values); the VM is roughly an order of
/// magnitude faster than the walker, and the native engine compiles
/// the program to machine code for another large factor — at the cost
/// of one out-of-process C compile on first sight of a program (cached
/// on disk afterwards; see exec/native.hpp).
enum class ExecEngine {
  kVm,         ///< compile to bytecode and run it (exec/vm.hpp)
  kAstWalker,  ///< recursive tree walk (reference semantics)
  kNative,     ///< lower to C, compile, dlopen and run (exec/native.hpp);
               ///< falls back to the VM (with a Stage::kExec warning on
               ///< stderr) when no C compiler or dlopen is available.
               ///< Serial only: a parallel partition rides the VM, the
               ///< one engine substitution interpret() still makes
               ///< (counted in `exec.native.partition_substitutions`).
};

/// Bucketed distinct-cache-line estimator — the VM's ground-truth
/// probe for the static cost model (model/cost.hpp). Every executed
/// array access maps to a deterministic logical line (array identity
/// plus element offset / line_elems; arrays are treated as
/// line-aligned), and lines are tracked in a direct-mapped tag table
/// of 2^bucket_bits entries: a tag change counts one line. With the
/// table generously sized relative to the working set, `lines`
/// approximates the number of distinct lines touched; undersized, it
/// approximates the miss count of a direct-mapped cache of that many
/// lines. Results are machine-independent (no real addresses).
///
/// Geometry defaults come from support/cache_geometry.hpp so the
/// probe, the static cost model and the tile working-set model all
/// measure the same machine.
struct CacheProbe {
  /// Elements per line; must be a power of two.
  i64 line_elems = kCacheLineElems;
  /// log2 of tag-table entries.
  int bucket_bits = kCacheProbeBucketBits;

  // -- results --
  i64 accesses = 0;  ///< array accesses observed
  i64 lines = 0;     ///< estimated distinct lines touched

  /// Record one access to logical line `line_id`. Lazily sizes the
  /// tag table on first use.
  void touch(std::uint64_t line_id) {
    if (tags.empty()) tags.assign(std::size_t{1} << bucket_bits, 0);
    ++accesses;
    const std::uint64_t tag = line_id + 1;  // 0 = empty bucket
    std::uint64_t& slot =
        tags[(line_id * 0x9E3779B97F4A7C15ull) >> (64 - bucket_bits)];
    if (slot != tag) {
      slot = tag;
      ++lines;
    }
  }

  std::vector<std::uint64_t> tags;  ///< direct-mapped line tags
};

struct InterpOptions {
  /// Bound on executed statement instances (runaway guard).
  i64 max_instances = 50'000'000;
  /// Optional access observer (drives the dependence-order oracle in
  /// exec/trace.hpp). Reads are reported before the write. AST walker
  /// only (interpret() rejects it with any other engine): the VM and
  /// native code do not materialize per-access events.
  std::function<void(const AccessEvent&)> observer;
  /// Engine selection.
  ExecEngine engine = ExecEngine::kVm;
  /// When set, count cache lines touched during execution. Serial VM
  /// runs only (interpret() rejects it with any other engine or with a
  /// partitioned run); results
  /// accumulate into the pointed-to probe, so one probe can span
  /// several runs.
  CacheProbe* cache_probe = nullptr;
  /// Partitioned parallel execution (exec/parallel.hpp). When
  /// num_threads > 1 and `partition` names at least one loop of the
  /// program, the VM chunks those (doall) loops across a shared
  /// worker pool — bit-identical Memory, summed InterpStats, and the
  /// instance budget enforced per worker. Serial otherwise. VM engine
  /// (kNative is substituted by the VM here); the walker always runs
  /// serially.
  int num_threads = 1;
  std::vector<std::string> partition;
  /// Opt-in per-opcode VM profiling: bucket the nanoseconds spent in
  /// each bytecode op (guards, loop enter/advance, statements) and in
  /// statements by loop depth into the Stats log₂ histograms
  /// (`vm.op.*_ns`, `vm.stmt.depth*_ns`). VM engine, serial path only
  /// (a partitioned run ignores it: the partitioned driver has its own
  /// per-worker profiler — support/profile.hpp). Execution results are
  /// unchanged; it selects the VM dispatch loop's profiled mode, a
  /// separate instantiation, so the default path pays nothing.
  /// Profiled runs execute every statement instance one at a time: the
  /// VM's batched leaf-loop executor stays off, so the histograms time
  /// the per-instance interpreter.
  bool profile = false;
};

struct InterpStats {
  i64 instances = 0;       ///< statement instances executed
  i64 loop_iterations = 0; ///< loop header iterations executed
  i64 guard_failures = 0;  ///< guard evaluations that suppressed a subtree
};

/// Run the program. `params` binds symbolic parameters; arrays must be
/// pre-declared in `mem` (see declare_arrays below).
InterpStats interpret(const Program& p, const std::map<std::string, i64>& params,
                      Memory& mem, const InterpOptions& opts = {});

/// Declare every array the program touches, sized so all subscripts at
/// the given parameter values are in range (probed conservatively from
/// the subscript expressions).
void declare_arrays(const Program& p, const std::map<std::string, i64>& params,
                    Memory& mem);

/// Fill every declared array with deterministic pseudo-random values
/// (seeded), e.g. as common input for source/target comparison.
void randomize(Memory& mem, unsigned seed);

/// The distinct reasons (sorted) for which kNative runs in this process
/// fell back to the VM: the messages of the Stage::kExec warnings
/// interpret() prints once each. Counts live in the Stats counter
/// `exec.native.fallbacks`.
std::vector<std::string> native_fallback_reasons();

/// Fill arrays so matrices are symmetric positive definite when square
/// — diagonally dominant values — letting Cholesky-like codes run
/// without NaNs.
void fill_spd(Memory& mem, unsigned seed);

}  // namespace inlt
