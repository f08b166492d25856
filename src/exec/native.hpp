// The native execution engine: C codegen -> shared object -> dlopen.
//
// The third engine behind InterpOptions::engine (after the AST walker
// and the bytecode VM). A Program is lowered to standalone C
// (exec/cgen.hpp), compiled out of process with the system C compiler
// (`$INLTC_CC`, else `$CC`, else `cc`) at `-O1 -fPIC -shared
// -ffp-contract=off -fwrapv -fno-math-errno -nostdlib`, and loaded with
// dlopen. The kernel calls nothing, so it links no libc or libm: the
// .so has no DT_NEEDED entry and no undefined symbol. It runs against
// the same Memory the VM uses and produces bit-identical array state
// and InterpStats.
//
// Compiled kernels are content-addressed on disk:
//
//   key   = sha256(emitted C source, compiler id line, flags)
//   path  = $INLTC_CACHE_DIR | $XDG_CACHE_HOME/inltc | ~/.cache/inltc
//           | /tmp/inltc-cache-$UID, file <key>.so (+ <key>.c beside it)
//
// Writes go through a process-unique temp file and rename(2), so
// concurrent sessions sharing a cache directory never observe a
// half-written object — at worst both compile and the second rename
// wins. A cache entry that fails to dlopen/dlsym (truncated, foreign
// ABI) is deleted and recompiled, never trusted. Open handles live in
// an in-process LRU (64 entries) of
// refcounted handles; eviction dlcloses once the last running kernel
// is done.
//
// Failure split: anything that prevents *preparing* a kernel (no
// compiler, compile error, dlopen unsupported) makes native_prepare
// return null with a Stage::kExec diagnostic — interpret() then falls
// back to the VM. A prepared kernel carries only the fast path: on a
// fault (bounds, undeclared array) or at the instance budget it
// *bails* with no text. native_try_run copies Memory before the run;
// on a bail it restores the copy, counts `exec.native.bails` and
// replays the run on the VM, whose Error, failing Memory and
// InterpStats are the result — the same as the other engines', so a
// wrong candidate still fails, never silently falls back.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "exec/interp.hpp"
#include "support/diag.hpp"

namespace inlt {

class NativeKernel;  // opaque: an open, runnable compiled kernel

/// True when kernels can be prepared right now (dlopen supported and
/// the resolved compiler answers `--version`). `why` gets the reason
/// when false.
bool native_available(std::string* why = nullptr);

/// The compiler command the engine would use: $INLTC_CC, else $CC,
/// else "cc" (re-read from the environment on every call).
std::string native_compiler();

/// The cache directory (created on demand): $INLTC_CACHE_DIR, else
/// $XDG_CACHE_HOME/inltc, else $HOME/.cache/inltc, else a per-uid
/// directory under /tmp.
std::string native_cache_dir();

/// The content-address of `p`'s kernel under the current compiler and
/// flags — the basename (sans extension) of its cache files.
std::string native_cache_key(const Program& p);

/// Compile (or fetch from cache) the kernel for `p`. Returns null and
/// fills `why` (severity kWarning, Stage::kExec) when the engine is
/// unavailable or the compile fails; never throws for those cases.
std::shared_ptr<NativeKernel> native_prepare(const Program& p,
                                             Diagnostic* why = nullptr);

/// Run a prepared kernel: binds `params`, packs array pointers and
/// shapes from `mem`, executes, and returns the stats. Takes no copy of
/// `mem`: when the kernel bails it throws an Error that names the bail
/// (not the VM's text) and leaves `mem` partly written. For callers
/// that run in bounds with a budget they never reach (benchmarks);
/// everyone else goes through interpret().
InterpStats native_run(const NativeKernel& kernel,
                       const std::map<std::string, i64>& params, Memory& mem,
                       const InterpOptions& opts);

/// Used by interpret(): prepare + run, replaying a bail on the VM from
/// a copy of `mem` taken before the run. Returns false (and fills
/// `why`) when the engine could not be prepared — the caller falls
/// back to the VM. The replay's errors propagate as Error.
bool native_try_run(const Program& p, const std::map<std::string, i64>& params,
                    Memory& mem, const InterpOptions& opts, InterpStats* out,
                    Diagnostic* why);

/// Drop every cached open handle (dlclosing ones not currently
/// running). Tests use this to force the disk-cache path.
void native_lru_clear();

}  // namespace inlt
