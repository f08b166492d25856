// Differential suite for the native engine (exec/native.hpp): every
// gallery program, every tools/testdata/ program and the transformed
// variants from test_vm.cpp run as compiled C kernels and as VM
// bytecode on identical inputs; final memory must match to the last
// bit and InterpStats must be equal. Failures must match too: the same
// out-of-bounds message, and at every instance budget the same Memory
// left behind. Plus the compile-cache contract:
// cold compile / warm disk hit / in-process LRU hit, corrupted cache
// entries recompiled (never trusted), concurrent sessions racing the
// cache dir, $INLTC_CACHE_DIR override, and the VM fallback when no
// compiler is reachable.
//
// Every test runs against its own throwaway cache directory, so a
// developer's real ~/.cache/inltc is never touched. Tests skip (not
// fail) when the host has no usable C compiler.
#include <gtest/gtest.h>

#include <unistd.h>

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
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "support/stats.hpp"
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
// a loop) to the loop's entry exactly where the VM does, and leaf
// loops defer the budget test to one checked tail iteration: both
// engines must fail at the same access, with the same message, leaving
// the same Memory behind.

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

TEST_F(NativeTest, EmittedCholeskyIsLean) {
  // No libc header but stddef.h, and no bounds or budget test inside
  // any leaf loop's body: those run at loop entry and in the budget
  // tail iteration.
  const std::string code = emit_native_c(gallery::cholesky()).code;
  std::istringstream lines(code);
  std::string ln;
  while (std::getline(lines, ln)) {
    if (ln.rfind("#include", 0) == 0) {
      EXPECT_EQ(ln, "#include <stddef.h>");
    }
  }
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

}  // namespace
}  // namespace inlt
