// Differential suite for the native engine (exec/native.hpp): every
// gallery program, every tools/testdata/ program and the transformed
// variants from test_vm.cpp run as compiled C kernels and as VM
// bytecode on identical inputs; final memory must match to the last
// bit and InterpStats must be equal. Failures must match too: the same
// out-of-bounds message, and at every instance budget the same Memory
// left behind, jammed column walks included. Plus the compile-cache
// contract: cold compile / warm disk hit / in-process LRU hit,
// corrupted cache entries recompiled (never trusted), concurrent
// sessions racing the cache dir, $INLTC_CACHE_DIR override, and the VM
// fallback when no compiler is reachable or the cache dir is unwritable.
//
// Every test runs against its own throwaway cache directory, so a
// developer's real ~/.cache/inltc is never touched. Tests skip (not
// fail) when the host has no usable C compiler.
#include <gtest/gtest.h>

#include <elf.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "codegen/generate.hpp"
#include "dependence/analyzer.hpp"
#include "exec/cgen.hpp"
#include "exec/native.hpp"
#include "exec/verify.hpp"
#include "exec/vm.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "pipeline/search.hpp"
#include "support/sha256.hpp"
#include "support/stats.hpp"
#include "tile/plan.hpp"
#include "transform/transforms.hpp"

namespace inlt {
namespace {

namespace fs = std::filesystem;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

Program load_testdata(const std::string& name) {
  return parse_program(read_file(std::string(INLT_TESTDATA_DIR) + "/" + name));
}

void expect_bit_identical(const Memory& a, const Memory& b,
                          const std::string& what) {
  ASSERT_EQ(a.arrays().size(), b.arrays().size()) << what;
  for (const auto& [name, arr] : a.arrays()) {
    const DenseArray& other = b.at(name);
    ASSERT_EQ(arr.data().size(), other.data().size()) << what << " " << name;
    EXPECT_EQ(std::memcmp(arr.data().data(), other.data().data(),
                          arr.data().size() * sizeof(double)),
              0)
        << what << ": array " << name << " differs between engines";
  }
}

/// Each test gets a private cache dir via $INLTC_CACHE_DIR and a
/// cleared handle LRU, so cache-behavior assertions see exactly the
/// compiles they caused.
class NativeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string why;
    if (!native_available(&why)) GTEST_SKIP() << why;
    const char* old = std::getenv("INLTC_CACHE_DIR");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    // The pid keeps dirs disjoint across the parallel ctest processes
    // (gtest_discover_tests runs each test in its own process, and a
    // sibling's TearDown must not sweep a dir we are compiling into).
    static int counter = 0;
    dir_ = (fs::temp_directory_path() /
            ("inltc-test-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter++)))
               .string();
    fs::create_directories(dir_);
    ::setenv("INLTC_CACHE_DIR", dir_.c_str(), 1);
    native_lru_clear();
  }

  void TearDown() override {
    if (had_old_)
      ::setenv("INLTC_CACHE_DIR", old_.c_str(), 1);
    else
      ::unsetenv("INLTC_CACHE_DIR");
    native_lru_clear();
    if (!dir_.empty()) {
      std::error_code ec;
      fs::remove_all(dir_, ec);
    }
  }

  std::string dir_;
  std::string old_;
  bool had_old_ = false;
};

void expect_native_matches_vm(const Program& p,
                              const std::map<std::string, i64>& params,
                              FillKind fill, unsigned seed,
                              const std::string& what) {
  Memory proto;
  declare_arrays(p, params, proto);
  if (fill == FillKind::kSpd)
    fill_spd(proto, seed);
  else
    randomize(proto, seed);

  Memory native_mem = proto, vm_mem = proto;
  InterpOptions native_opts;
  native_opts.engine = ExecEngine::kNative;
  InterpOptions vm_opts;
  vm_opts.engine = ExecEngine::kVm;

  i64 fallbacks0 = Stats::global().value("exec.native.fallbacks");
  InterpStats native_st = interpret(p, params, native_mem, native_opts);
  ASSERT_EQ(Stats::global().value("exec.native.fallbacks"), fallbacks0)
      << what << ": expected a real native run, not a VM fallback";
  InterpStats vm_st = interpret(p, params, vm_mem, vm_opts);

  EXPECT_EQ(native_st.instances, vm_st.instances) << what;
  EXPECT_EQ(native_st.loop_iterations, vm_st.loop_iterations) << what;
  EXPECT_EQ(native_st.guard_failures, vm_st.guard_failures) << what;
  expect_bit_identical(native_mem, vm_mem, what);
}

void differential(const Program& p, const std::string& what,
                  std::map<std::string, i64> params = {{"N", 9}}) {
  for (unsigned seed : {1u, 2u, 3u}) {
    for (FillKind fill : {FillKind::kSpd, FillKind::kRandom}) {
      expect_native_matches_vm(p, params, fill, seed,
                               what + " seed=" + std::to_string(seed));
    }
  }
}

using NativeDifferential = NativeTest;

TEST_F(NativeDifferential, GalleryFig1) {
  differential(gallery::fig1_running_example(), "fig1");
}
TEST_F(NativeDifferential, GallerySimplifiedCholesky) {
  differential(gallery::simplified_cholesky(), "simplified_cholesky");
}
TEST_F(NativeDifferential, GalleryFig3PerfectNest) {
  differential(gallery::fig3_perfect_nest(), "fig3");
}
TEST_F(NativeDifferential, GalleryAugmentation) {
  differential(gallery::augmentation_example(), "augmentation");
}
TEST_F(NativeDifferential, GalleryCholesky) {
  differential(gallery::cholesky(), "cholesky");
}
TEST_F(NativeDifferential, GalleryCholeskyDistributed) {
  differential(gallery::simplified_cholesky_distributed(), "cholesky_dist");
}
TEST_F(NativeDifferential, GalleryLu) { differential(gallery::lu(), "lu"); }

TEST_F(NativeDifferential, TestdataCholesky) {
  differential(load_testdata("cholesky.loop"), "cholesky.loop");
}
TEST_F(NativeDifferential, TestdataSkewExample) {
  differential(load_testdata("skew_example.loop"), "skew_example.loop");
}
TEST_F(NativeDifferential, TestdataStencil) {
  differential(load_testdata("stencil.loop"), "stencil.loop");
}

TEST_F(NativeDifferential, SkewedStencil) {
  Program p = load_testdata("stencil.loop");
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);
  IntMat m = loop_skew(layout, "J", "I", 1);
  CodegenResult res = generate_code(layout, deps, m);
  differential(res.program, "skewed stencil");
}

TEST_F(NativeDifferential, ScaledSkewedFig3DivisibilityGuards) {
  // Non-unimodular scaling: kDivisible guards and ceil/floor bounds
  // with den > 1 — the emitter's inltc_cdiv/fdiv/fmod paths.
  Program p = gallery::fig3_perfect_nest();
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);
  IntMat m = mat_mul(loop_skew(layout, "I", "J", 1),
                     loop_scaling(layout, "J", 2));
  CodegenResult res = generate_code(layout, deps, m);
  differential(res.program, "scaled+skewed fig3");
}

TEST_F(NativeDifferential, GuardedStatements) {
  Program p = parse_program(R"(
param N
do I = 1, N
  do J = 1, N
    if ((I + J) mod 2 == 0)
      S1: A(I, J) = A(I, J) + 1.0
    endif
    if (I - J >= 0)
      S2: B(I - J) = B(I - J) + A(I, J)
    endif
  end
end
)");
  differential(p, "guarded");
}

TEST_F(NativeDifferential, InterchangedCholesky) {
  Program p = gallery::cholesky();
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);
  IntMat m = loop_interchange(layout, "J", "L");
  CodegenResult res = generate_code(layout, deps, m);
  differential(res.program, "interchanged cholesky");
}

TEST_F(NativeDifferential, ZeroTripLoops) {
  // N=0/N=1 leave arrays undeclared: the kernel receives NULL base
  // pointers and must treat the never-executed accesses as non-events.
  Program p = gallery::fig3_perfect_nest();
  differential(p, "fig3 N=1", {{"N", 1}});
  differential(p, "fig3 N=0", {{"N", 0}});
}

TEST_F(NativeTest, VerifyEquivalenceThroughNativeEngine) {
  Program p = load_testdata("stencil.loop");
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);
  IntMat m = loop_skew(layout, "J", "I", 1);
  CodegenResult res = generate_code(layout, deps, m);
  VerifyResult nat = verify_equivalence(p, res.program, {{"N", 12}},
                                        FillKind::kRandom, 1,
                                        ExecEngine::kNative);
  VerifyResult vm = verify_equivalence(p, res.program, {{"N", 12}},
                                       FillKind::kRandom, 1,
                                       ExecEngine::kVm);
  EXPECT_TRUE(nat.equivalent);
  EXPECT_TRUE(vm.equivalent);
  EXPECT_EQ(nat.max_diff, vm.max_diff);
  EXPECT_EQ(nat.src_instances, vm.src_instances);
}

// ---- runtime failure semantics (must throw, never fall back) ----

TEST_F(NativeTest, OutOfBoundsStillFailsLoudly) {
  Program p = parse_program(R"(
param N
do I = 1, N
  S1: A(I) = 1.0
end
)");
  Memory mem;
  mem.declare("A", {1}, {4});  // too small for N=5
  InterpOptions opts;
  opts.engine = ExecEngine::kNative;
  try {
    interpret(p, {{"N", 5}}, mem, opts);
    FAIL() << "expected out-of-bounds Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("out of bounds"), std::string::npos)
        << e.what();
  }
}

TEST_F(NativeTest, InstanceBudgetEnforced) {
  Program p = gallery::cholesky();
  Memory mem;
  declare_arrays(p, {{"N", 8}}, mem);
  fill_spd(mem, 1);
  InterpOptions opts;
  opts.engine = ExecEngine::kNative;
  opts.max_instances = 10;
  try {
    interpret(p, {{"N", 8}}, mem, opts);
    FAIL() << "expected budget Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("instance budget"), std::string::npos)
        << e.what();
  }
}

// ---- failure parity with the VM ----
//
// The emitter hoists a fast statement's checks (unguarded, directly in
// a loop) to the loop's entry, and leaf loops test the budget once at
// entry; a kernel that fails either bails and the VM replays the run.
// Both engines must fail with the same message, leaving the same
// Memory behind.

/// Run `p` on both engines from the same prototype; both must throw.
/// Returns the two messages and expects bit-identical final Memory.
std::pair<std::string, std::string> fail_on_both(
    const Program& p, const std::map<std::string, i64>& params,
    const Memory& proto, i64 max_instances, const std::string& what) {
  std::string msgs[2];
  Memory mems[2] = {proto, proto};
  const ExecEngine engines[2] = {ExecEngine::kNative, ExecEngine::kVm};
  for (int e = 0; e < 2; ++e) {
    InterpOptions opts;
    opts.engine = engines[e];
    opts.max_instances = max_instances;
    try {
      interpret(p, params, mems[e], opts);
      ADD_FAILURE() << what << ": engine " << e << " did not throw";
    } catch (const Error& err) {
      msgs[e] = err.what();
    }
  }
  expect_bit_identical(mems[0], mems[1], what);
  return {msgs[0], msgs[1]};
}

TEST_F(NativeTest, OutOfBoundsMessagesMatchVmForHoistedAndGuardedStatements) {
  // S1 is fast (its checks run at the I loop's entry): the read B(I+1)
  // leaves [1, 5] at its last iterate, 9. S2 is guarded, so it is
  // checked per access and faults at I = 5 with index 6.
  Program hoisted = parse_program(R"(
param N
do I = 1, N
  S1: A(I) = B(I + 1)
end
)");
  Program guarded = parse_program(R"(
param N
do I = 1, N
  if (I - 3 >= 0)
    S2: A(I) = A(I) + B(I + 1)
  endif
end
)");
  Memory proto;
  proto.declare("A", {1}, {8});
  proto.declare("B", {1}, {5});
  randomize(proto, 1);
  const std::map<std::string, i64> params{{"N", 8}};
  auto [nat_h, vm_h] =
      fail_on_both(hoisted, params, proto, 50'000'000, "hoisted");
  EXPECT_EQ(nat_h, vm_h);
  EXPECT_EQ(nat_h, "array index out of bounds: B dim 0 index 9 not in [1, 5]");
  auto [nat_g, vm_g] =
      fail_on_both(guarded, params, proto, 50'000'000, "guarded");
  EXPECT_EQ(nat_g, vm_g);
  EXPECT_EQ(nat_g, "array index out of bounds: B dim 0 index 6 not in [1, 5]");
}

TEST_F(NativeTest, RepeatedChecksAreDroppedWithoutMovingFaults) {
  // A(I, J) appears twice and the subscript I three times, so the J
  // loop's entry runs each distinct (array, dimension, subscript) check
  // once. A repeat cannot fail where its first copy passed: each shape
  // of A below cuts the first or the last iterate of one loop, and
  // both engines fault with the text they always gave, leaving the
  // rows before the faulting entry done and nothing else.
  Program p = parse_program(R"(
param N
do I = 1, N
  do J = 1, N
    S1: A(I, J) = A(I, J) * 2.0 + A(I, J - 1)
  end
end
)");
  Program rows = parse_program(R"(
param N
param M
do I = 1, M
  do J = 1, N
    S1: A(I, J) = A(I, J) * 2.0 + A(I, J - 1)
  end
end
)");
  struct Shape {
    std::vector<i64> lo, hi;
    i64 done_rows;
    std::string text;
  };
  const std::string oob = "array index out of bounds: A dim ";
  const Shape shapes[] = {
      {{1, 1}, {6, 6}, 0, oob + "1 index 0 not in [1, 6]"},  // J - 1, first
      {{1, 0}, {6, 5}, 0, oob + "1 index 6 not in [0, 5]"},  // J, last
      {{2, 0}, {6, 6}, 0, oob + "0 index 1 not in [2, 6]"},  // I, first
      {{1, 0}, {5, 6}, 5, oob + "0 index 6 not in [1, 5]"},  // I, last
  };
  const std::map<std::string, i64> params{{"N", 6}};
  for (const Shape& s : shapes) {
    Memory proto;
    proto.declare("A", s.lo, s.hi);
    randomize(proto, 1);
    auto [nat, vm] = fail_on_both(p, params, proto, 50'000'000, s.text);
    EXPECT_EQ(nat, s.text);
    EXPECT_EQ(vm, s.text);
    Memory vm_mem = proto;
    EXPECT_THROW(interpret(p, params, vm_mem), Error);
    Memory done = proto;
    InterpOptions walker;
    walker.engine = ExecEngine::kAstWalker;
    interpret(rows, {{"N", 6}, {"M", s.done_rows}}, done, walker);
    expect_bit_identical(vm_mem, done, s.text);
    // Checks are dropped, not accesses: all three stay hoisted.
    VmProgram compiled(p, params, vm_mem);
    EXPECT_EQ(compiled.hoisted_accesses(), 3);
    EXPECT_EQ(compiled.checked_accesses(), 0);
  }
}

TEST_F(NativeTest, BudgetFaultsMatchVmAtEveryInstance) {
  // Every budget from 0 to one short of the run's instance count, so
  // the fault lands everywhere once: in S1 (in the K loop, which is
  // not a leaf loop), and in the first, middle and last iterations of
  // the leaf loops I (S2) and L (S3) — e.g. budget 1 faults at S2's
  // first iterate, budget 4 at its last (N = 5). The second program's
  // leaf loop has two statements and step 2, so the tail iteration
  // can fault at either statement.
  const Program two_stmt_leaf = parse_program(R"(
param N
do I = 1, N
  S1: B(I) = 0.5
  do J = 1, N, 2
    S2: A(I, J) = A(I, J) + B(I)
    S3: C(J) = C(J) * 2.0 + A(I, J)
  end
end
)");
  for (const Program& p : {gallery::cholesky(), two_stmt_leaf}) {
    const std::map<std::string, i64> params{{"N", 5}};
    Memory proto;
    declare_arrays(p, params, proto);
    fill_spd(proto, 2);
    Memory full = proto;
    InterpOptions vm_opts;
    const i64 total = interpret(p, params, full, vm_opts).instances;
    ASSERT_GT(total, 10);
    for (i64 budget = 0; budget < total; ++budget)
      fail_on_both(p, params, proto, budget,
                   "budget " + std::to_string(budget));
  }
}

TEST_F(NativeTest, UndeclaredArrayFailsWithOneTextOnEveryEngine) {
  // Only A is declared. The walker and the VM write A(1) and fail at
  // S2's first access to B; the native kernel bails at the I loop's
  // hoisted NULL test and the VM replays the run, so it leaves the
  // same A(1).
  Program p = parse_program(R"(
param N
do I = 1, N
  S1: A(I) = 1.0
  S2: B(I) = A(I)
end
)");
  Memory proto;
  proto.declare("A", {1}, {4});
  const ExecEngine engines[] = {ExecEngine::kAstWalker, ExecEngine::kVm,
                                ExecEngine::kNative};
  for (ExecEngine engine : engines) {
    Memory mem = proto;
    InterpOptions opts;
    opts.engine = engine;
    try {
      interpret(p, {{"N", 4}}, mem, opts);
      ADD_FAILURE() << "engine " << static_cast<int>(engine)
                    << " did not throw";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), "undeclared array B");
    }
    EXPECT_EQ(mem.at("A").get({1}), 1.0);
  }
}

TEST_F(NativeTest, FaultingRunsBailAndReplayOnTheVm) {
  // A clean run adds no bail. A run that outgrows the instance budget
  // bails once, and the VM replays it from the Memory before the run:
  // its Error and its failing Memory are the result. Called directly,
  // the kernel has no copy to replay from and names the bail instead.
  const Program p = parse_program(R"(
param N
do I = 1, N
  S1: A(I) = A(I) * 2.0 + 1.0
  do J = 1, N
    S2: B(I, J) = B(I, J) + A(I)
  end
end
)");
  const std::map<std::string, i64> params{{"N", 6}};
  Memory proto;
  declare_arrays(p, params, proto);
  randomize(proto, 1);
  InterpOptions opts;
  opts.engine = ExecEngine::kNative;

  StatsSnapshot s0 = Stats::global().snapshot();
  Memory clean = proto;
  interpret(p, params, clean, opts);
  StatsSnapshot d = Stats::global().snapshot() - s0;
  EXPECT_EQ(d.counter("exec.native.runs"), 1);
  EXPECT_EQ(d.counter("exec.native.bails"), 0);

  opts.max_instances = 20;
  auto [nat, vm] = fail_on_both(p, params, proto, opts.max_instances,
                                "budget 20");
  EXPECT_EQ(nat, "interpreter instance budget exceeded");
  EXPECT_EQ(nat, vm);
  d = Stats::global().snapshot() - s0;
  EXPECT_EQ(d.counter("exec.native.runs"), 1);
  EXPECT_EQ(d.counter("exec.native.bails"), 1);

  std::shared_ptr<NativeKernel> k = native_prepare(p);
  ASSERT_NE(k, nullptr);
  Memory direct = proto;
  try {
    native_run(*k, params, direct, opts);
    ADD_FAILURE() << "native_run did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("native kernel bailed"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(NativeTest, SqrtOfNegativeIsBitIdenticalOnEveryEngine) {
  // Under -fno-math-errno the kernel's sqrt is one instruction. Every
  // argument here is negative (randomize fills [0, 1)): the NaNs must
  // match the VM's and the walker's bit for bit, payload included.
  const Program p = parse_program(R"(
param N
do I = 1, N
  S1: A(I) = sqrt(A(I) - 2.0)
end
)");
  const std::map<std::string, i64> params{{"N", 16}};
  Memory proto;
  declare_arrays(p, params, proto);
  randomize(proto, 1);
  const ExecEngine engines[] = {ExecEngine::kNative, ExecEngine::kVm,
                                ExecEngine::kAstWalker};
  std::vector<Memory> mems;
  StatsSnapshot s0 = Stats::global().snapshot();
  for (ExecEngine engine : engines) {
    mems.push_back(proto);
    InterpOptions opts;
    opts.engine = engine;
    interpret(p, params, mems.back(), opts);
  }
  StatsSnapshot d = Stats::global().snapshot() - s0;
  ASSERT_EQ(d.counter("exec.native.runs"), 1) << "expected a real native run";
  EXPECT_TRUE(std::isnan(mems[0].at("A").get({1})));
  expect_bit_identical(mems[0], mems[1], "native vs VM");
  expect_bit_identical(mems[0], mems[2], "native vs walker");
}

TEST_F(NativeTest, KernelObjectNeedsNoLibrary) {
  // Built with -nostdlib, a kernel names no shared library and leaves
  // no symbol for the loader to resolve. A sanitizer build resolves
  // its runtime from the host process instead, so the test skips.
  if (native_compiler().find("-fsanitize") != std::string::npos)
    GTEST_SKIP() << "sanitized kernels import their runtime";
  const Program p = load_testdata("cholesky.loop");
  ASSERT_NE(native_prepare(p), nullptr);
  const std::string so = read_file(dir_ + "/" + native_cache_key(p) + ".so");
  Elf64_Ehdr eh;
  ASSERT_GE(so.size(), sizeof(eh));
  std::memcpy(&eh, so.data(), sizeof(eh));
  ASSERT_EQ(std::memcmp(eh.e_ident, ELFMAG, SELFMAG), 0);
  if (eh.e_ident[EI_CLASS] != ELFCLASS64) GTEST_SKIP() << "not ELF64";
  int needed = 0, defined = 0, undefined = 0;
  for (int i = 0; i < eh.e_shnum; ++i) {
    Elf64_Shdr sh;
    std::memcpy(&sh, so.data() + eh.e_shoff + i * eh.e_shentsize, sizeof(sh));
    const char* at = so.data() + sh.sh_offset;
    if (sh.sh_type == SHT_DYNAMIC) {
      for (size_t off = 0; off + sizeof(Elf64_Dyn) <= sh.sh_size;
           off += sizeof(Elf64_Dyn)) {
        Elf64_Dyn dyn;
        std::memcpy(&dyn, at + off, sizeof(dyn));
        needed += dyn.d_tag == DT_NEEDED;
      }
    } else if (sh.sh_type == SHT_DYNSYM) {
      // Entry 0 is the reserved null symbol.
      for (size_t off = sizeof(Elf64_Sym); off + sizeof(Elf64_Sym) <= sh.sh_size;
           off += sizeof(Elf64_Sym)) {
        Elf64_Sym sym;
        std::memcpy(&sym, at + off, sizeof(sym));
        (sym.st_shndx == SHN_UNDEF ? undefined : defined) += 1;
      }
    }
  }
  EXPECT_EQ(needed, 0);
  EXPECT_EQ(undefined, 0);
  EXPECT_GE(defined, 1);  // inltc_kernel
}

// ---- jammed column walks ----
//
// A unit-step loop J over one unit-step leaf loop L (possibly through
// one-trip loops) whose write walks J along its last subscript runs in
// groups of 8 columns, L outer; a group that fails its bounds, pair or
// budget checks runs the plain loop instead. Results, InterpStats,
// failure texts and the Memory a failure leaves are the VM's.

/// Emitting `p` counts this many jammed nests.
i64 jammed_nests(const Program& p) {
  const i64 before = Stats::global().value("exec.native.jammed_nests");
  emit_native_c(p);
  return Stats::global().value("exec.native.jammed_nests") - before;
}

/// The skew-bound-0 orders of `p`, named by search hit index.
std::vector<std::pair<i64, Program>> orders_of(const Program& p) {
  std::vector<std::pair<i64, Program>> out;
  TransformSession session(p);
  for (SearchHit& h : session.search(SearchSpace{}).hits)
    out.emplace_back(h.index, std::move(*h.result.program));
  return out;
}

TEST_F(NativeTest, ColumnWalkingOrdersJamAndMatchVm) {
  const std::pair<std::string, Program> inputs[] = {
      {"cholesky", load_testdata("cholesky.loop")}, {"lu", gallery::lu()}};
  int jammed = 0;
  for (const auto& [name, source] : inputs) {
    const auto orders = orders_of(source);
    ASSERT_EQ(orders.size(), 6u) << name;
    for (const auto& [index, program] : orders) {
      const std::string what = name + " #" + std::to_string(index);
      const bool walks_columns = index == 2 || index == 3 || index == 5;
      EXPECT_EQ(jammed_nests(program), walks_columns ? 1 : 0) << what;
      jammed += walks_columns;
      std::vector<i64> sizes{31, 64, 67};
      for (i64 n = 1; n <= 17; ++n) sizes.push_back(n);
      for (i64 n : sizes)
        expect_native_matches_vm(program, {{"N", n}}, FillKind::kSpd, 1,
                                 what + " N=" + std::to_string(n));
    }
  }
  EXPECT_EQ(jammed, 6);
}

TEST_F(NativeTest, TriangularColumnsMatchVm) {
  // Leaf bounds that move with J leave rows not every column runs:
  // above the shared range (L = 1, J), below it (L = J, N), and on
  // both sides of a range no two columns share (L = J, J + 3). The
  // last nest reaches its leaf through a one-trip loop whose value
  // moves with J.
  const Program p = parse_program(R"(
param N
do J = 1, N
  do L = 1, J
    S1: A(L, J) = A(L, J) * 0.5 + 1.0
  end
end
do J = 1, N
  do L = J, N
    S2: A(L, J) = A(L, J) - B(L, J) * 0.25
  end
end
do J = 1, N
  do L = J, J + 3
    S3: B(L, J) = B(L, J) + A(L - J + 1, J)
  end
end
do J = 1, N
  do M = J + 1, J + 1
    do L = M, N + 1
      S4: B(L, M) = B(L, M) * 0.5 + A(L - 1, J)
    end
  end
end
)");
  EXPECT_EQ(jammed_nests(p), 4);
  for (i64 n : {7, 8, 9, 16, 23})
    differential(p, "triangular", {{"N", n}});
}

TEST_F(NativeTest, JammedNestFaultsMatchVm) {
  // Every budget over LU #2 (J outer, L inner), Cholesky #3 (a
  // one-trip loop between J and L, a triangular leaf) and a
  // two-statement leaf at N = 12, where the first few K iterations (or
  // the one J loop) each run one group of 8.
  const Program lu2 = orders_of(gallery::lu())[2].second;
  const Program chol3 = orders_of(load_testdata("cholesky.loop"))[3].second;
  const Program two_stmt = parse_program(R"(
param N
do J = 1, N
  do L = J, N
    S1: A(L, J) = A(L, J) * 0.5 + 1.0
    S2: B(L, J) = A(L, J) + B(L, J)
  end
end
)");
  for (const Program& p : {lu2, chol3, two_stmt}) {
    ASSERT_EQ(jammed_nests(p), 1);
    const std::map<std::string, i64> params{{"N", 12}};
    Memory proto;
    declare_arrays(p, params, proto);
    fill_spd(proto, 2);
    Memory full = proto;
    const i64 total = interpret(p, params, full).instances;
    for (i64 budget = 0; budget < total; ++budget) {
      auto [nat, vm] = fail_on_both(p, params, proto, budget,
                                    "budget " + std::to_string(budget));
      EXPECT_EQ(nat, vm);
    }
  }
  // B(L, J - 1) leaves dimension 1 at the first J, or at the last J
  // (inside the second group at N = 17, in the plain remainder loop
  // at N = 20).
  const Program walk = parse_program(R"(
param N
do J = 2, N
  do L = 1, N
    S1: A(L, J) = A(L, J) + B(L, J - 1) * 0.5
  end
end
)");
  ASSERT_EQ(jammed_nests(walk), 1);
  for (i64 n : {17, 20}) {
    struct Shape {
      i64 lo, hi;
      std::string text;
    };
    const std::string oob = "array index out of bounds: B dim 1 index ";
    const Shape shapes[] = {
        {2, n, oob + "1 not in [2, " + std::to_string(n) + "]"},
        {1, n - 2,
         oob + std::to_string(n - 1) + " not in [1, " + std::to_string(n - 2) +
             "]"},
    };
    for (const Shape& s : shapes) {
      Memory proto;
      proto.declare("A", {1, 1}, {n, n});
      proto.declare("B", {1, s.lo}, {n, s.hi});
      randomize(proto, 3);
      auto [nat, vm] = fail_on_both(walk, {{"N", n}}, proto, 50'000'000,
                                    s.text + " N=" + std::to_string(n));
      EXPECT_EQ(nat, s.text);
      EXPECT_EQ(vm, s.text);
    }
  }
}

TEST_F(NativeTest, DependentColumnsDoNotJam) {
  // A recurrence carried by J: the read is the write moved one column,
  // so no group can prove the pair apart and the nest is not jammed.
  const Program carried = parse_program(R"(
param N
do J = 2, N
  do L = 1, N
    S1: A(L, J) = A(L, J - 1) * 0.5 + A(L, J)
  end
end
)");
  EXPECT_EQ(jammed_nests(carried), 0);
  differential(carried, "J-carried recurrence", {{"N", 20}});
  // Jammed, but at M = 1 column J reads the next row of column J - 1,
  // which the jammed order would not have written yet: the pair's
  // ranges overlap, so every group runs the plain loop. At M = 8 the
  // ranges are apart and the groups run jammed.
  const Program shifted = parse_program(R"(
param N
param M
do J = 1, N
  do L = 1, N
    S1: A(L, J) = A(L + 1, J - M) * 0.5 + A(L, J)
  end
end
)");
  EXPECT_EQ(jammed_nests(shifted), 1);
  for (i64 m : {1, 8})
    differential(shifted, "M=" + std::to_string(m), {{"N", 20}, {"M", m}});
}

TEST_F(NativeTest, EmittedCholeskyIsLean) {
  // No header, no fault text, no budget tail, and no bounds or budget
  // test inside any leaf loop's body: those run at loop entry, where a
  // failing one bails.
  const std::string code = emit_native_c(gallery::cholesky()).code;
  EXPECT_EQ(code.find("#include"), std::string::npos);
  EXPECT_EQ(code.find("snprintf"), std::string::npos);
  EXPECT_EQ(code.find("errcap"), std::string::npos);
  EXPECT_EQ(code.find("budget runs out here"), std::string::npos);
  int leaf_loops = 0;
  for (size_t at = code.find("for ("); at != std::string::npos;
       at = code.find("for (", at + 1)) {
    const size_t open = code.find('{', at);
    size_t close = open;
    for (int depth = 0; close < code.size(); ++close) {
      if (code[close] == '{') ++depth;
      if (code[close] == '}' && --depth == 0) break;
    }
    const std::string body = code.substr(open, close - open);
    if (body.find("for (") != std::string::npos) continue;  // not a leaf
    ++leaf_loops;
    EXPECT_EQ(body.find("INLTC_OOB"), std::string::npos) << body;
    EXPECT_EQ(body.find("INLTC_UNDECL"), std::string::npos) << body;
    EXPECT_EQ(body.find("max_instances"), std::string::npos) << body;
    EXPECT_EQ(body.find("return"), std::string::npos) << body;
  }
  EXPECT_EQ(leaf_loops, 2);  // the I loop (S2) and the L loop (S3)
}

// ---- compile-cache contract ----

TEST_F(NativeTest, ColdCompileThenWarmHits) {
  Program p = gallery::simplified_cholesky();
  std::map<std::string, i64> params{{"N", 6}};
  Memory proto;
  declare_arrays(p, params, proto);
  fill_spd(proto, 1);
  InterpOptions opts;
  opts.engine = ExecEngine::kNative;

  StatsSnapshot s0 = Stats::global().snapshot();
  Memory m1 = proto;
  interpret(p, params, m1, opts);
  StatsSnapshot s1 = Stats::global().snapshot() - s0;
  EXPECT_EQ(s1.counter("exec.native.compiles"), 1) << "cold run must compile";

  // Second run, same process: the open handle is still in the LRU.
  Memory m2 = proto;
  interpret(p, params, m2, opts);
  StatsSnapshot s2 = Stats::global().snapshot() - s0;
  EXPECT_EQ(s2.counter("exec.native.compiles"), 1) << "warm run recompiled";
  EXPECT_GE(s2.counter("exec.native.lru_hits"), 1);

  // "New session": drop open handles, keep the disk cache.
  native_lru_clear();
  Memory m3 = proto;
  interpret(p, params, m3, opts);
  StatsSnapshot s3 = Stats::global().snapshot() - s0;
  EXPECT_EQ(s3.counter("exec.native.compiles"), 1)
      << "disk-cached kernel recompiled";
  EXPECT_GE(s3.counter("exec.native.disk_hits"), 1);

  expect_bit_identical(m1, m2, "warm");
  expect_bit_identical(m1, m3, "disk");
}

TEST_F(NativeTest, CacheDirOverrideIsHonored) {
  Program p = gallery::fig1_running_example();
  EXPECT_EQ(native_cache_dir(), dir_);
  std::string key = native_cache_key(p);
  Memory mem;
  declare_arrays(p, {{"N", 6}}, mem);
  randomize(mem, 1);
  InterpOptions opts;
  opts.engine = ExecEngine::kNative;
  interpret(p, {{"N", 6}}, mem, opts);
  EXPECT_TRUE(fs::exists(fs::path(dir_) / (key + ".so")))
      << "compiled kernel not in $INLTC_CACHE_DIR";
  EXPECT_TRUE(fs::exists(fs::path(dir_) / (key + ".c")))
      << "emitted source not kept beside the object";
}

TEST_F(NativeTest, CorruptedCacheEntryIsRecompiledNotTrusted) {
  Program p = gallery::fig1_running_example();
  std::map<std::string, i64> params{{"N", 6}};
  Memory proto;
  declare_arrays(p, params, proto);
  randomize(proto, 2);
  InterpOptions opts;
  opts.engine = ExecEngine::kNative;

  Memory m1 = proto;
  interpret(p, params, m1, opts);

  // Drop the open handle first — overwriting the backing file of a
  // live dlopen mapping is a SIGBUS — then replace the object with
  // garbage on a fresh inode.
  native_lru_clear();
  std::string so = dir_ + "/" + native_cache_key(p) + ".so";
  ASSERT_TRUE(fs::exists(so));
  fs::remove(so);
  {
    std::ofstream f(so, std::ios::binary);
    f << "this is not a shared object";
  }

  StatsSnapshot s0 = Stats::global().snapshot();
  Memory m2 = proto;
  interpret(p, params, m2, opts);  // must recompile, not trust the garbage
  StatsSnapshot d = Stats::global().snapshot() - s0;
  EXPECT_EQ(d.counter("exec.native.cache_bad"), 1);
  EXPECT_EQ(d.counter("exec.native.compiles"), 1);
  EXPECT_EQ(d.counter("exec.native.fallbacks"), 0);
  expect_bit_identical(m1, m2, "recompiled after corruption");
}

TEST_F(NativeTest, ConcurrentSessionsDontRaceTheCacheDir) {
  // Several threads hit the same empty cache with the same program:
  // atomic renames mean everyone ends with a working kernel and a
  // correct result, however the compile race resolves.
  Program p = gallery::simplified_cholesky();
  std::map<std::string, i64> params{{"N", 8}};
  Memory proto;
  declare_arrays(p, params, proto);
  fill_spd(proto, 3);

  Memory vm_mem = proto;
  InterpOptions vm_opts;
  vm_opts.engine = ExecEngine::kVm;
  interpret(p, params, vm_mem, vm_opts);

  constexpr int kThreads = 4;
  std::vector<Memory> mems(kThreads, proto);
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        InterpOptions opts;
        opts.engine = ExecEngine::kNative;
        interpret(p, params, mems[t], opts);
      } catch (const std::exception& e) {
        errors[t] = e.what();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(errors[t].empty()) << "thread " << t << ": " << errors[t];
    expect_bit_identical(mems[t], vm_mem, "thread " + std::to_string(t));
  }
}

TEST_F(NativeTest, ConcurrentPrepareOfOneTextCompilesOnce) {
  // Four threads prepare one program at once against an empty cache
  // and a cleared LRU: the first compiles, the others wait for that
  // compile and share its kernel.
  Program p = gallery::simplified_cholesky();
  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<NativeKernel>> kernels(kThreads);
  std::atomic<int> ready{0};
  StatsSnapshot s0 = Stats::global().snapshot();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      kernels[t] = native_prepare(p);
    });
  }
  for (std::thread& th : threads) th.join();
  StatsSnapshot d = Stats::global().snapshot() - s0;
  EXPECT_EQ(d.counter("exec.native.compiles"), 1);
  ASSERT_NE(kernels[0], nullptr);
  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(kernels[t], kernels[0]) << "thread " << t;
  size_t objects = 0;
  for (const auto& e : fs::directory_iterator(dir_))
    objects += e.path().extension() == ".so";
  EXPECT_EQ(objects, 1u);
}

TEST_F(NativeTest, FallsBackToVmWithoutCompiler) {
  // Point the engine at a compiler that cannot exist: interpret() must
  // warn, fall back, and still produce the VM's exact result.
  ::setenv("INLTC_CC", "/nonexistent/inltc-no-such-cc", 1);
  Program p = gallery::simplified_cholesky();
  std::map<std::string, i64> params{{"N", 6}};
  Memory proto;
  declare_arrays(p, params, proto);
  fill_spd(proto, 1);

  std::string why;
  EXPECT_FALSE(native_available(&why));
  EXPECT_NE(why.find("no usable C compiler"), std::string::npos) << why;

  StatsSnapshot s0 = Stats::global().snapshot();
  Memory native_mem = proto, vm_mem = proto;
  InterpOptions opts;
  opts.engine = ExecEngine::kNative;
  InterpStats st = interpret(p, params, native_mem, opts);
  StatsSnapshot d = Stats::global().snapshot() - s0;
  EXPECT_EQ(d.counter("exec.native.fallbacks"), 1);
  EXPECT_EQ(d.counter("exec.native.compiles"), 0);

  opts.engine = ExecEngine::kVm;
  InterpStats vm_st = interpret(p, params, vm_mem, opts);
  EXPECT_EQ(st.instances, vm_st.instances);
  expect_bit_identical(native_mem, vm_mem, "fallback");
  ::unsetenv("INLTC_CC");
}

TEST_F(NativeTest, UnwritableCacheDirFallsBackToVmOnce) {
  // A cache path beneath a regular file can be neither created nor
  // written, whoever runs the test (root included): each run must fall
  // back to the VM and leave the VM's result. The reason names the
  // cache directory, not a per-kernel file, so two different programs
  // add one reason between them.
  const std::string blocker = dir_ + "/not-a-dir";
  { std::ofstream(blocker) << "regular file"; }
  ::setenv("INLTC_CACHE_DIR", (blocker + "/cache").c_str(), 1);
  const std::map<std::string, i64> params{{"N", 7}};

  const std::vector<std::string> reasons0 = native_fallback_reasons();
  StatsSnapshot s0 = Stats::global().snapshot();
  for (const Program& p : {gallery::simplified_cholesky(), gallery::lu()}) {
    Memory proto;
    declare_arrays(p, params, proto);
    fill_spd(proto, 2);
    Memory native_mem = proto, vm_mem = proto;
    InterpOptions opts;
    opts.engine = ExecEngine::kNative;
    InterpStats st = interpret(p, params, native_mem, opts);
    opts.engine = ExecEngine::kVm;
    InterpStats vm_st = interpret(p, params, vm_mem, opts);
    EXPECT_EQ(st.instances, vm_st.instances);
    expect_bit_identical(native_mem, vm_mem, "unwritable cache dir");
  }
  StatsSnapshot d = Stats::global().snapshot() - s0;
  EXPECT_EQ(d.counter("exec.native.fallbacks"), 2);
  EXPECT_EQ(d.counter("exec.native.runs"), 0);

  std::vector<std::string> added;
  for (const std::string& r : native_fallback_reasons())
    if (std::find(reasons0.begin(), reasons0.end(), r) == reasons0.end())
      added.push_back(r);
  ASSERT_EQ(added.size(), 1u);
  EXPECT_NE(added[0].find("cannot write into " + blocker + "/cache;"),
            std::string::npos)
      << added[0];
}

TEST_F(NativeTest, CacheKeyIsStableAndSourceSensitive) {
  Program a = gallery::simplified_cholesky();
  Program b = gallery::lu();
  EXPECT_EQ(native_cache_key(a), native_cache_key(a));
  EXPECT_NE(native_cache_key(a), native_cache_key(b));
  EXPECT_EQ(native_cache_key(a).size(), 64u);  // sha256 hex
}

TEST_F(NativeTest, EmittedSourceIsDeterministic) {
  Program p = gallery::cholesky();
  NativeKernelSource s1 = emit_native_c(p);
  NativeKernelSource s2 = emit_native_c(p);
  EXPECT_EQ(s1.code, s2.code);
  EXPECT_EQ(s1.arrays, s2.arrays);
  EXPECT_EQ(s1.params, s2.params);
  // The UF hash helpers and the restrict qualifier must be present —
  // they are what the bit-identity and aliasing contracts ride on.
  EXPECT_NE(s1.code.find("inltc_uf_unit"), std::string::npos);
  EXPECT_NE(s1.code.find("double* restrict"), std::string::npos);
  EXPECT_NE(s1.code.find("-ffp-contract=off"), std::string::npos);
}

// The emitted text is the compile cache's key: any change recompiles
// every kernel. These sha256 hashes pin the text for a fixed corpus of
// source, searched, skewed, tiled and scaled programs. Programs that
// call f() are left out: their std::hash literal depends on the
// standard library. On a mismatch the text is written to a temp file
// for diffing.
TEST(NativeEmitter, TextUnchangedOnCorpus) {
  std::vector<std::pair<std::string, Program>> corpus;
  corpus.emplace_back("cholesky.loop", load_testdata("cholesky.loop"));
  TransformSession session(load_testdata("cholesky.loop"));
  for (SearchHit& h : session.search(SearchSpace{}).hits)
    corpus.emplace_back("cholesky.loop hit " + std::to_string(h.index),
                        std::move(*h.result.program));
  corpus.emplace_back("cholesky_ijk.loop", load_testdata("cholesky_ijk.loop"));
  {
    Program p = load_testdata("stencil.loop");
    IvLayout layout(p);
    DependenceSet deps = analyze_dependences(layout);
    corpus.emplace_back(
        "stencil.loop skew I J 1",
        generate_code(layout, deps, loop_skew(layout, "I", "J", 1)).program);
  }
  TileOptions topts;
  topts.sizes = {5, 7};
  topts.force = true;
  TiledProgram tp = apply_tile(gallery::lu(), topts);
  ASSERT_TRUE(tp.program.has_value()) << tp.plan.note;
  corpus.emplace_back("tiled lu", std::move(*tp.program));
  {
    Program p = gallery::fig3_perfect_nest();
    IvLayout layout(p);
    DependenceSet deps = analyze_dependences(layout);
    IntMat m = mat_mul(loop_skew(layout, "I", "J", 1),
                       loop_scaling(layout, "J", 2));
    corpus.emplace_back("scaled fig3", generate_code(layout, deps, m).program);
  }
  const std::vector<std::string> expected = {
      "acbabaad21ac7c64ec0ec23efc18390cbc3b91e0bcecf041812b1e1fbba53660",
      "acbabaad21ac7c64ec0ec23efc18390cbc3b91e0bcecf041812b1e1fbba53660",
      "5bf7b62047009f3a96b27b9ba4b297fc8c8002f8115126a071cbb13d878e28c1",
      "7d013ae2d1152f643a00933680eabb0beaa1b390aa310e388037daf0a4c0addb",
      "490b152827b210756fc7df888aff9f5e8db5821cd61a68beafe76e9d0d6100c6",
      "39e1f9becafe108ab7eafdf49a13bbc0f29945da99c754ad690ff9a11b9fc6de",
      "e858cad091e87d91a3d44279dfb6216244f42dcd2d848ebcd31c66fc06ed828e",
      "571bc0ec7ea61a16a9528bc416fbe5366ff8ed15a23b8cec4e03ddbfb3896bb6",
      "9fe4f1e20ae1f87b272855ff836bbf49a76b70a63ca9422ab20220ab72e08dcd",
      "490ed4fe74bd72523ef4407a8ea4e8eaf9abf3789911f2dfc6f69810b5948757",
      "ea8dc378e63b1c90f6cd13ea2022cae3dd0aa92913dd9181c464587b79d54c46",
  };
  EXPECT_EQ(corpus.size(), expected.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    const auto& [name, program] = corpus[i];
    const std::string code = emit_native_c(program).code;
    if (name == "scaled fig3") {
      EXPECT_NE(code.find("inltc_fmod("), std::string::npos)
          << "no divisibility guard";
    }
    if (i < expected.size() && sha256_hex(code) == expected[i]) continue;
    std::string file = "inltc_emitted_" + std::to_string(i) + ".c";
    fs::path out = fs::temp_directory_path() / file;
    std::ofstream(out) << code;
    ADD_FAILURE() << name << ": emitted C changed (sha256 " << sha256_hex(code)
                  << "); text written to " << out.string();
  }
}

}  // namespace
}  // namespace inlt
