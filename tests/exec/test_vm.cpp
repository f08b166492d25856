// Differential suite: the bytecode VM (exec/vm.hpp) against the AST
// walker, bit for bit. Every gallery program, every tools/testdata/
// program and a set of transformed variants (skew, scaling with
// divisibility guards, distribution) runs under both engines on
// identical inputs across several seeds and both fill kinds; final
// memory must match to the last bit and InterpStats must be equal.
// The LeafExecutor tests do the same for the VM's leaf-loop executor
// (loop orders, recurrences, operand kinds, tiles, trip counts around
// the chunk width) and check that budget and bounds failures, the
// cache probe and the profiler behave as on the per-instance path.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>

#include "codegen/generate.hpp"
#include "codegen/simplify.hpp"
#include "dependence/analyzer.hpp"
#include "exec/parallel.hpp"
#include "exec/verify.hpp"
#include "exec/vm.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "pipeline/search.hpp"
#include "pipeline/session.hpp"
#include "support/stats.hpp"
#include "tile/plan.hpp"
#include "transform/completion.hpp"
#include "transform/transforms.hpp"

namespace inlt {
namespace {

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

// Bitwise memory equality — max_abs_diff would treat -0.0 == 0.0 and
// miss NaNs; "bit-identical" means the raw doubles agree.
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

void expect_engines_agree(const Program& p,
                          const std::map<std::string, i64>& params,
                          FillKind fill, unsigned seed,
                          const std::string& what) {
  Memory proto;
  declare_arrays(p, params, proto);
  if (fill == FillKind::kSpd)
    fill_spd(proto, seed);
  else
    randomize(proto, seed);

  Memory vm_mem = proto, walker_mem = proto;
  InterpOptions vm_opts;
  vm_opts.engine = ExecEngine::kVm;
  InterpOptions walker_opts;
  walker_opts.engine = ExecEngine::kAstWalker;
  InterpStats vm_st = interpret(p, params, vm_mem, vm_opts);
  InterpStats walker_st = interpret(p, params, walker_mem, walker_opts);

  EXPECT_EQ(vm_st.instances, walker_st.instances) << what;
  EXPECT_EQ(vm_st.loop_iterations, walker_st.loop_iterations) << what;
  EXPECT_EQ(vm_st.guard_failures, walker_st.guard_failures) << what;
  expect_bit_identical(vm_mem, walker_mem, what);
}

void differential(const Program& p, const std::string& what,
                  std::map<std::string, i64> params = {{"N", 9}}) {
  for (unsigned seed : {1u, 2u, 3u}) {
    for (FillKind fill : {FillKind::kSpd, FillKind::kRandom}) {
      expect_engines_agree(p, params, fill, seed,
                           what + " seed=" + std::to_string(seed));
    }
  }
}

TEST(VmDifferential, GalleryFig1) { differential(gallery::fig1_running_example(), "fig1"); }
TEST(VmDifferential, GallerySimplifiedCholesky) {
  differential(gallery::simplified_cholesky(), "simplified_cholesky");
}
TEST(VmDifferential, GalleryFig3PerfectNest) {
  differential(gallery::fig3_perfect_nest(), "fig3");
}
TEST(VmDifferential, GalleryAugmentation) {
  differential(gallery::augmentation_example(), "augmentation");
}
TEST(VmDifferential, GalleryCholesky) { differential(gallery::cholesky(), "cholesky"); }
TEST(VmDifferential, GalleryCholeskyDistributed) {
  differential(gallery::simplified_cholesky_distributed(), "cholesky_dist");
}
TEST(VmDifferential, GalleryLu) { differential(gallery::lu(), "lu"); }

TEST(VmDifferential, TestdataCholesky) {
  differential(load_testdata("cholesky.loop"), "cholesky.loop");
}
TEST(VmDifferential, TestdataSkewExample) {
  differential(load_testdata("skew_example.loop"), "skew_example.loop");
}
TEST(VmDifferential, TestdataStencil) {
  differential(load_testdata("stencil.loop"), "stencil.loop");
}

// Transformed programs exercise the codegen-only constructs: cover
// bounds, per-statement guards, singular loops from non-unimodular
// scaling (kDivisible guards), and skewed wavefronts.
TEST(VmDifferential, SkewedStencil) {
  Program p = load_testdata("stencil.loop");
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);
  IntMat m = loop_skew(layout, "J", "I", 1);
  CodegenResult res = generate_code(layout, deps, m);
  differential(res.program, "skewed stencil");
}

TEST(VmDifferential, ScaledPerfectNestReconstructionLoops) {
  // Non-unimodular scaling: codegen adds single-iteration
  // reconstruction loops whose ceil/floor bounds encode the stride
  // condition — deeper nests with multi-term bounds.
  Program p = gallery::fig3_perfect_nest();
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);
  IntMat m = mat_mul(loop_skew(layout, "I", "J", 1),
                     loop_scaling(layout, "J", 2));
  CodegenResult res = generate_code(layout, deps, m);
  int src_loops = 0, dst_loops = 0;
  auto count = [](const Program& prog, int& n) {
    walk(prog, [&](const Node& node, const std::vector<const Node*>&) {
      if (node.kind() == Node::Kind::kLoop) ++n;
    });
  };
  count(p, src_loops);
  count(res.program, dst_loops);
  EXPECT_GT(dst_loops, src_loops) << print_program(res.program);
  differential(res.program, "scaled+skewed fig3");
}

TEST(VmDifferential, GuardedStatements) {
  // Hand-written guards exercise the VM's kGuards path and the
  // per-access checked (non-hoisted) offset computation.
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

TEST(VmDifferential, ReversedInterchangedCholesky) {
  Program p = gallery::cholesky();
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);
  // Interchange the J/L pair of the update nest (legal for cholesky).
  IntMat m = loop_interchange(layout, "J", "L");
  CodegenResult res = generate_code(layout, deps, m);
  differential(res.program, "interchanged cholesky");
}

// Zero-trip loops leave arrays undeclared; both engines must treat a
// never-executed access as a non-event.
TEST(VmDifferential, ZeroTripLoops) {
  Program p = gallery::fig3_perfect_nest();
  differential(p, "fig3 N=1", {{"N", 1}});
  differential(p, "fig3 N=0", {{"N", 0}});
}

TEST(Vm, DeclareArraysShapesMatchSubscriptExtremes) {
  // stencil: U(I,J), U(I-1,J), U(I,J-1) over I,J in 1..N.
  Memory mem;
  declare_arrays(load_testdata("stencil.loop"), {{"N", 6}}, mem);
  ASSERT_TRUE(mem.has("U"));
  EXPECT_EQ(mem.at("U").lo(0), 0);
  EXPECT_EQ(mem.at("U").hi(0), 6);
  EXPECT_EQ(mem.at("U").lo(1), 0);
  EXPECT_EQ(mem.at("U").hi(1), 6);
}

TEST(Vm, ProbeRangesRespectGuards) {
  Program p = parse_program(R"(
param N
do I = 1, N
  if (I - 3 >= 0)
    S1: A(I) = 1.0
  endif
end
)");
  auto ranges = VmProgram::probe_ranges(p, {{"N", 5}});
  ASSERT_TRUE(ranges.count("A"));
  EXPECT_EQ(ranges.at("A").lo[0], 3);
  EXPECT_EQ(ranges.at("A").hi[0], 5);
}

TEST(Vm, BoundsChecksHoistedForUnguardedStatements) {
  Program p = gallery::cholesky();
  Memory mem;
  declare_arrays(p, {{"N", 4}}, mem);
  VmProgram vm(p, {{"N", 4}}, mem);
  EXPECT_GT(vm.hoisted_accesses(), 0);
  EXPECT_EQ(vm.checked_accesses(), 0);  // cholesky has no guards
}

TEST(Vm, GuardedStatementsKeepPerAccessChecks) {
  Program p = parse_program(R"(
param N
do I = 1, N
  if (I - 3 >= 0)
    S1: A(I) = A(I - 1) + 1.0
  endif
end
)");
  Memory mem;
  declare_arrays(p, {{"N", 5}}, mem);
  VmProgram vm(p, {{"N", 5}}, mem);
  EXPECT_EQ(vm.hoisted_accesses(), 0);
  EXPECT_GT(vm.checked_accesses(), 0);
}

TEST(Vm, OutOfBoundsStillFailsLoudly) {
  // A deliberately wrong program: A sized for 1..N but read at A(I+1).
  Program p = parse_program(R"(
param N
do I = 1, N
  S1: A(I) = 1.0
end
)");
  Memory mem;
  mem.declare("A", {1}, {4});  // too small for N=5
  InterpOptions opts;
  opts.engine = ExecEngine::kVm;
  EXPECT_THROW(interpret(p, {{"N", 5}}, mem, opts), Error);
}

TEST(Vm, InstanceBudgetEnforcedIdentically) {
  Program p = gallery::cholesky();
  for (ExecEngine engine : {ExecEngine::kVm, ExecEngine::kAstWalker}) {
    Memory mem;
    declare_arrays(p, {{"N", 8}}, mem);
    InterpOptions opts;
    opts.engine = engine;
    opts.max_instances = 10;
    EXPECT_THROW(interpret(p, {{"N", 8}}, mem, opts), Error);
  }
}

TEST(Vm, ObserverNeedsWalkerEngine) {
  Program p = gallery::simplified_cholesky();
  Memory mem;
  declare_arrays(p, {{"N", 4}}, mem);
  fill_spd(mem, 1);
  int events = 0;
  InterpOptions opts;
  opts.observer = [&](const AccessEvent&) { ++events; };
  // Off the walker, the observer is rejected before anything runs.
  for (ExecEngine engine : {ExecEngine::kVm, ExecEngine::kNative}) {
    opts.engine = engine;
    Memory untouched = mem;
    EXPECT_THROW(interpret(p, {{"N", 4}}, untouched, opts), Error);
    EXPECT_EQ(events, 0);
    expect_bit_identical(untouched, mem, "rejected observer run");
  }
  // On the walker it sees every access: one write per instance plus
  // the reads.
  opts.engine = ExecEngine::kAstWalker;
  InterpStats st = interpret(p, {{"N", 4}}, mem, opts);
  EXPECT_GT(st.instances, 0);
  EXPECT_GT(events, st.instances);
}

TEST(Vm, CacheProbeNeedsVmEngine) {
  Program p = gallery::simplified_cholesky();
  Memory mem;
  declare_arrays(p, {{"N", 4}}, mem);
  fill_spd(mem, 1);
  CacheProbe probe;
  InterpOptions opts;
  opts.cache_probe = &probe;
  for (ExecEngine engine : {ExecEngine::kAstWalker, ExecEngine::kNative}) {
    opts.engine = engine;
    EXPECT_THROW(interpret(p, {{"N", 4}}, mem, opts), Error);
  }
  // Nor does a partitioned VM run fall back to serial to feed it.
  opts.engine = ExecEngine::kVm;
  opts.num_threads = 2;
  opts.partition = {"J"};  // S2's doall level
  EXPECT_THROW(interpret(p, {{"N", 4}}, mem, opts), Error);
  EXPECT_EQ(probe.accesses, 0);
}

TEST(Vm, RebindRunsAgainstFreshMemory) {
  Program p = gallery::cholesky();
  std::map<std::string, i64> params{{"N", 6}};
  Memory a;
  declare_arrays(p, params, a);
  fill_spd(a, 7);
  Memory b = a;

  VmProgram vm(p, params, a);
  vm.run();
  vm.rebind(b);
  vm.run();
  expect_bit_identical(a, b, "rebind");
}

TEST(Vm, VerifyEquivalenceAgreesAcrossEngines) {
  Program p = load_testdata("stencil.loop");
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);
  IntMat m = loop_skew(layout, "J", "I", 1);
  CodegenResult res = generate_code(layout, deps, m);
  VerifyResult vm_r = verify_equivalence(p, res.program, {{"N", 12}},
                                         FillKind::kRandom, 1,
                                         ExecEngine::kVm);
  VerifyResult ast_r = verify_equivalence(p, res.program, {{"N", 12}},
                                          FillKind::kRandom, 1,
                                          ExecEngine::kAstWalker);
  EXPECT_TRUE(vm_r.equivalent);
  EXPECT_TRUE(ast_r.equivalent);
  EXPECT_EQ(vm_r.max_diff, ast_r.max_diff);
  EXPECT_EQ(vm_r.src_instances, ast_r.src_instances);
}

TEST(Vm, VerifyReferenceCapturesExecutionErrors) {
  Program src = parse_program(R"(
param N
do I = 1, N
  S1: A(I) = 1.0
end
)");
  // "Transformed" program indexing past the source's sizing.
  Program bad = parse_program(R"(
param N
do I = 1, N
  S1: A(I + 1) = 1.0
end
)");
  VerifyReference ref(src, {{"N", 5}});
  VerifyResult r = ref.check(bad);
  EXPECT_FALSE(r.equivalent);
  EXPECT_FALSE(r.error.empty());
}

// Satellite regression: absurd parameter values must raise
// OverflowError from checked arithmetic, not wrap into a bogus (or
// negative) allocation size / flat offset.
TEST(Vm, HugeParameterOverflowsLoudly) {
  Program p = parse_program(R"(
param N
do I = 1, N
  S1: A(3000000000 * I) = 1.0
end
)");
  Memory mem;
  EXPECT_THROW(declare_arrays(p, {{"N", 4000000000}}, mem), OverflowError);
}

TEST(Vm, NearOverflowExtentFailsInArraySizing) {
  // hi - lo + 1 itself overflows i64: the checked ctor must throw.
  EXPECT_THROW(DenseArray({-4611686018427387904}, {4611686018427387904}),
               OverflowError);
}

TEST(Vm, ProbeCollapseMatchesFullIteration) {
  // Leaf-collapse must not change declared shapes: compare probe
  // ranges against a brute-force walk for a skewed (negative stride)
  // subscript pattern.
  Program p = parse_program(R"(
param N
do I = 1, N
  do J = 1, N
    S1: A(2 * I - 3 * J) = A(3 * J - 2 * I) + 1.0
  end
end
)");
  auto ranges = VmProgram::probe_ranges(p, {{"N", 7}});
  ASSERT_TRUE(ranges.count("A"));
  EXPECT_EQ(ranges.at("A").lo[0], 2 * 1 - 3 * 7);
  EXPECT_EQ(ranges.at("A").hi[0], 3 * 7 - 2 * 1);
}

// -- Leaf-loop executor ----------------------------------------------

struct LeafCounts {
  i64 batched = 0;
  i64 serial = 0;
  i64 instances = 0;
  i64 entries = 0;  // leaf activations the executor ran
  i64 carried = 0;  // of those, entered on the carried path
};

// Run `p` on a VmProgram and on the AST walker from the same random
// input: Memory bit for bit, InterpStats equal. Returns how the VM's
// leaf executor ran.
LeafCounts leaf_differential(const Program& p,
                             const std::map<std::string, i64>& params,
                             const std::string& what, unsigned seed = 1) {
  Memory proto;
  declare_arrays(p, params, proto);
  randomize(proto, seed);
  Memory vm_mem = proto, walker_mem = proto;
  VmProgram vm(p, params, vm_mem);
  InterpStats vs = vm.run();
  InterpOptions wopts;
  wopts.engine = ExecEngine::kAstWalker;
  InterpStats ws = interpret(p, params, walker_mem, wopts);
  EXPECT_EQ(vs.instances, ws.instances) << what;
  EXPECT_EQ(vs.loop_iterations, ws.loop_iterations) << what;
  EXPECT_EQ(vs.guard_failures, ws.guard_failures) << what;
  expect_bit_identical(vm_mem, walker_mem, what);
  return {vm.batched_instances(), vm.serial_leaf_instances(), vs.instances,
          vm.leaf_entries(), vm.carried_entries()};
}

// The six orders of the Cholesky update nest (1 <= K < L <= J <= N)
// and of the LU update nest (1 <= K < J, L <= N), outermost first.
// The *K orders are the K-innermost reductions.
const std::vector<std::pair<std::string, std::string>>& update_orders() {
  static const std::vector<std::pair<std::string, std::string>> orders = {
      {"cholesky KJL", R"(
param N
do K = 1, N
  do J = K + 1, N
    do L = K + 1, J
      S1: A(J, L) = A(J, L) - A(J, K) * A(L, K)
    end
  end
end
)"},
      {"cholesky KLJ", R"(
param N
do K = 1, N
  do L = K + 1, N
    do J = L, N
      S1: A(J, L) = A(J, L) - A(J, K) * A(L, K)
    end
  end
end
)"},
      {"cholesky JKL", R"(
param N
do J = 1, N
  do K = 1, J - 1
    do L = K + 1, J
      S1: A(J, L) = A(J, L) - A(J, K) * A(L, K)
    end
  end
end
)"},
      {"cholesky JLK", R"(
param N
do J = 1, N
  do L = 2, J
    do K = 1, L - 1
      S1: A(J, L) = A(J, L) - A(J, K) * A(L, K)
    end
  end
end
)"},
      {"cholesky LKJ", R"(
param N
do L = 2, N
  do K = 1, L - 1
    do J = L, N
      S1: A(J, L) = A(J, L) - A(J, K) * A(L, K)
    end
  end
end
)"},
      {"cholesky LJK", R"(
param N
do L = 2, N
  do J = L, N
    do K = 1, L - 1
      S1: A(J, L) = A(J, L) - A(J, K) * A(L, K)
    end
  end
end
)"},
      {"lu KJL", R"(
param N
do K = 1, N
  do J = K + 1, N
    do L = K + 1, N
      S1: A(J, L) = A(J, L) - A(J, K) * A(K, L)
    end
  end
end
)"},
      {"lu KLJ", R"(
param N
do K = 1, N
  do L = K + 1, N
    do J = K + 1, N
      S1: A(J, L) = A(J, L) - A(J, K) * A(K, L)
    end
  end
end
)"},
      {"lu JKL", R"(
param N
do J = 2, N
  do K = 1, J - 1
    do L = K + 1, N
      S1: A(J, L) = A(J, L) - A(J, K) * A(K, L)
    end
  end
end
)"},
      {"lu JLK", R"(
param N
do J = 2, N
  do L = 2, N
    do K = 1, min(J - 1, L - 1)
      S1: A(J, L) = A(J, L) - A(J, K) * A(K, L)
    end
  end
end
)"},
      {"lu LKJ", R"(
param N
do L = 2, N
  do K = 1, L - 1
    do J = K + 1, N
      S1: A(J, L) = A(J, L) - A(J, K) * A(K, L)
    end
  end
end
)"},
      {"lu LJK", R"(
param N
do L = 2, N
  do J = 2, N
    do K = 1, min(J - 1, L - 1)
      S1: A(J, L) = A(J, L) - A(J, K) * A(K, L)
    end
  end
end
)"},
  };
  return orders;
}

TEST(LeafExecutor, CholeskyAndLuUpdateOrdersBatchEveryInstance) {
  // Every inner loop of the six orders touches disjoint cells, or (K
  // innermost) reads only its own loop-invariant write cell: all of
  // it batches, the reductions through the recurrence rule.
  for (const auto& [name, text] : update_orders()) {
    Program p = parse_program(text);
    for (i64 n : {9, 70}) {
      LeafCounts c = leaf_differential(p, {{"N", n}},
                                       name + " N=" + std::to_string(n));
      EXPECT_GT(c.instances, 0) << name;
      EXPECT_EQ(c.batched, c.instances) << name << " N=" << n;
      EXPECT_EQ(c.serial, 0) << name << " N=" << n;
    }
  }
}

TEST(LeafExecutor, FullKernelsAndTheirGeneratedOrders) {
  // The imperfect kernels themselves, and the (simplified) code the
  // pipeline generates for the four expressible Cholesky orders (§5).
  std::vector<std::pair<std::string, Program>> progs;
  progs.emplace_back("cholesky", gallery::cholesky());
  progs.emplace_back("lu", gallery::lu());
  Program chol = gallery::cholesky();
  IvLayout layout(chol);
  DependenceSet deps = analyze_dependences(layout);
  for (const std::string order : {"KJL", "KLJ", "LJK", "LKJ"}) {
    std::vector<IntVec> rows;
    for (char c : order) {
      IntVec r(7, 0);
      r[layout.loop_position(std::string(1, c))] = 1;
      rows.push_back(r);
    }
    CompletionResult res = complete_transformation(layout, deps, rows);
    progs.emplace_back(
        "cholesky " + order,
        simplify_program(generate_code(layout, deps, res.matrix).program));
  }
  for (const auto& [name, p] : progs) {
    for (i64 n : {1, 2, 9, 70}) {
      LeafCounts c =
          leaf_differential(p, {{"N", n}}, name + " N=" + std::to_string(n));
      if (n == 70) {
        EXPECT_GT(c.batched, c.instances / 2) << name;
      }
    }
  }
}

TEST(LeafExecutor, CrossIterationOverlapRunsAtWidthOne) {
  // Forward recurrence: iteration i reads what i-1 wrote.
  Program fwd = parse_program(R"(
param N
do I = 1, N
  S1: A(I) = A(I - 1) + B(I)
end
)");
  // Backward overlap: iteration i reads the cell i+1 writes.
  Program bwd = parse_program(R"(
param N
do I = 1, N
  S1: A(I) = A(I + 1) * 0.5
end
)");
  // Every iteration reads the fixed cell A(I, 3) that iteration 3
  // writes: later iterations must see the new value.
  Program fixed = parse_program(R"(
param N
do I = 1, 4
  do J = 1, N
    S1: A(I, J) = A(I, 3) * 2.0 + B(J)
  end
end
)");
  // Every iteration writes the fixed cell A(I, 3) that iteration 3
  // reads: it must see iteration 2's write.
  Program sink = parse_program(R"(
param N
do I = 1, 4
  do J = 1, N
    S1: A(I, 3) = A(I, J) + B(J)
  end
end
)");
  for (const auto& [name, p] :
       {std::pair<std::string, const Program*>{"forward", &fwd},
        {"backward", &bwd},
        {"fixed read", &fixed},
        {"fixed write", &sink}}) {
    for (i64 n : {3, 63, 64, 65, 129}) {
      LeafCounts c = leaf_differential(*p, {{"N", n}},
                                       name + " N=" + std::to_string(n));
      EXPECT_EQ(c.batched, 0) << name;
      EXPECT_EQ(c.serial, c.instances) << name;
    }
  }
}

TEST(LeafExecutor, TwoStatementBodies) {
  // S2 reads the cell S1 wrote in the same iteration.
  Program write_read = parse_program(R"(
param N
do I = 1, N
  S1: A(I) = B(I) * 2.0
  S2: C(I) = A(I) + B(I)
end
)");
  // S2 reads and rewrites S1's cell in the same iteration.
  Program write_write = parse_program(R"(
param N
do I = 1, N
  do J = 1, N
    S1: A(I, J) = B(J, I) + 1.0
    S2: A(I, J) = A(I, J) * A(I, J)
  end
end
)");
  for (const auto& [name, p] :
       {std::pair<std::string, const Program*>{"write-read", &write_read},
        {"write-write", &write_write}}) {
    LeafCounts c = leaf_differential(*p, {{"N", 100}}, name);
    EXPECT_EQ(c.batched, c.instances) << name;
  }
  // A loop-invariant cell S1 accumulates and S2 reads: S2 must see
  // every partial sum, so the leaf runs at width 1.
  Program cross = parse_program(R"(
param N
do I = 1, N
  do J = 1, N
    S1: T(I) = T(I) + B(I, J)
    S2: C(I, J) = T(I) * 2.0
  end
end
)");
  LeafCounts c = leaf_differential(cross, {{"N", 70}}, "cross-statement");
  EXPECT_EQ(c.batched, 0);
  EXPECT_EQ(c.serial, c.instances);
}

TEST(LeafExecutor, VarAffineAndFuncOperandsInABatchedBody) {
  Program p = parse_program(R"(
param N
do I = 1, N
  do J = 1, N
    S1: B(I, J) = A(I, J) * J + f(A(I, J), I) + M
    S2: C(J, I) = sqrt(A(J, I)) - g(J) / (I + 1.0)
  end
end
)");
  // Turn the bare loop variable M into an affine scalar operand
  // (kAffine), as code generation does for substituted variables.
  Statement& s1 = p.mutable_roots()[0]
                      ->mutable_children()[0]
                      ->mutable_children()[0]
                      ->mutable_stmt_data();
  s1.rhs->substitute_var("M", AffineExpr::variable("I") * 2 +
                                  AffineExpr::variable("J") * 3 +
                                  AffineExpr(-5));
  for (i64 n : {1, 63, 64, 65, 129}) {
    LeafCounts c = leaf_differential(p, {{"N", n}}, "operands N=" +
                                                        std::to_string(n));
    EXPECT_EQ(c.batched, c.instances) << n;
  }
}

TEST(LeafExecutor, TiledLeavesWithPartialLastTiles) {
  Program hand = parse_program(R"(
param N
do II = 1, N, 8
  do JJ = 1, N, 8
    do I = II, min(II + 7, N)
      do J = JJ, min(JJ + 7, N)
        S1: C(I, J) = C(I, J) + A(I, J) * B(J, I)
      end
    end
  end
end
)");
  for (i64 n : {5, 21, 67}) {
    LeafCounts c = leaf_differential(hand, {{"N", n}},
                                     "hand-tiled N=" + std::to_string(n));
    EXPECT_EQ(c.batched, c.instances) << n;
  }
  // The tile stage's own rewrite of LU's update band, sized so the
  // last tiles are partial.
  TileOptions topts;
  topts.sizes = {5, 7};
  topts.force = true;
  TiledProgram tp = apply_tile(gallery::lu(), topts);
  ASSERT_TRUE(tp.program.has_value()) << tp.plan.note;
  for (i64 n : {9, 23, 40}) {
    LeafCounts c = leaf_differential(*tp.program, {{"N", n}},
                                     "tiled lu N=" + std::to_string(n));
    EXPECT_GT(c.batched, 0) << print_program(*tp.program);
  }
}

TEST(LeafExecutor, TripCountsAroundTheChunkWidth) {
  Program stream = parse_program(R"(
param N
do I = 1, N
  S1: A(I) = A(I) * B(I) + 1.0
end
)");
  Program reduce = parse_program(R"(
param N
do I = 1, 3
  do K = 1, N
    S1: C(I) = C(I) + A(K) * B(K, I)
  end
end
)");
  for (i64 n : {1, 63, 64, 65, 129}) {
    LeafCounts a =
        leaf_differential(stream, {{"N", n}}, "stream N=" + std::to_string(n));
    EXPECT_EQ(a.batched, n);
    LeafCounts b =
        leaf_differential(reduce, {{"N", n}}, "reduce N=" + std::to_string(n));
    EXPECT_EQ(b.batched, 3 * n);
  }
}

// Run `p` from `proto` with the given options; returns the error text
// ("" when it completed) and leaves the final memory in `out`.
std::string run_vm_catching(const Program& p,
                            const std::map<std::string, i64>& params,
                            const Memory& proto, const InterpOptions& opts,
                            Memory& out) {
  out = proto;
  try {
    VmProgram vm(p, params, out);
    vm.run(opts);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(LeafExecutor, BudgetFailuresMatchThePerInstancePath) {
  // A budget sweep over every instance count: in the first chunk, at
  // and around chunk boundaries, inside the K-innermost recurrence.
  // The profiled run is the per-instance path; the walker is the
  // reference. Each must throw the same text after the same writes.
  std::vector<std::pair<std::string, Program>> progs;
  progs.emplace_back("two statements", parse_program(R"(
param N
do I = 1, N
  S1: A(I) = B(I) + 1.0
  S2: C(I) = A(I) * 2.0
end
)"));
  progs.emplace_back("recurrence", parse_program(R"(
param N
do I = 1, 2
  do K = 1, N
    S1: C(I) = C(I) + A(K) * B(K, I)
  end
end
)"));
  progs.emplace_back("cholesky", gallery::cholesky());
  for (const auto& [name, p] : progs) {
    std::map<std::string, i64> params{{"N", 140}};
    if (name == "cholesky") params["N"] = 12;
    Memory proto;
    declare_arrays(p, params, proto);
    randomize(proto, 5);
    InterpOptions full;
    Memory done;
    ASSERT_EQ(run_vm_catching(p, params, proto, full, done), "");
    VmProgram probe_vm(p, params, done);
    const i64 total = probe_vm.run().instances;
    for (i64 budget = 0; budget <= total; ++budget) {
      InterpOptions opts;
      opts.max_instances = budget;
      InterpOptions prof = opts;
      prof.profile = true;
      InterpOptions walk = opts;
      walk.engine = ExecEngine::kAstWalker;
      Memory vm_mem, prof_mem, walk_mem;
      std::string ve = run_vm_catching(p, params, proto, opts, vm_mem);
      std::string pe = run_vm_catching(p, params, proto, prof, prof_mem);
      walk_mem = proto;
      std::string we;
      try {
        interpret(p, params, walk_mem, walk);
      } catch (const Error& e) {
        we = e.what();
      }
      const std::string what = name + " budget " + std::to_string(budget);
      EXPECT_EQ(ve, pe) << what;
      EXPECT_EQ(ve.empty(), budget == total) << what;
      EXPECT_EQ(we.empty(), budget == total) << what;
      if (budget < total) {
        EXPECT_NE(ve.find("interpreter instance budget exceeded"),
                  std::string::npos)
            << what << ": " << ve;
      }
      expect_bit_identical(vm_mem, prof_mem, what);
      expect_bit_identical(vm_mem, walk_mem, what);
    }
  }
}

TEST(LeafExecutor, OutOfBoundsTextUnchanged) {
  // A batched leaf writing one past its array: the hoisted check at
  // loop entry reports the exact array, dimension and index that the
  // per-instance path (and the native engine's emitted C) report.
  Program p = parse_program(R"(
param N
do I = 1, N
  do J = 1, N
    S1: A(I, J + 1) = B(I, J) * 2.0
  end
end
)");
  std::map<std::string, i64> params{{"N", 70}};
  Memory proto;
  proto.declare("A", {1, 1}, {70, 70});
  proto.declare("B", {1, 1}, {70, 70});
  randomize(proto, 2);
  Memory vm_mem, prof_mem;
  InterpOptions prof;
  prof.profile = true;
  std::string ve = run_vm_catching(p, params, proto, {}, vm_mem);
  std::string pe = run_vm_catching(p, params, proto, prof, prof_mem);
  EXPECT_EQ(ve, "array index out of bounds: A dim 1 index 71 not in [1, 70]");
  EXPECT_EQ(ve, pe);
  expect_bit_identical(vm_mem, prof_mem, "out of bounds");
}

TEST(LeafExecutor, ProbeAndProfileStayPerInstance) {
  Program p = parse_program(R"(
param N
do I = 1, N
  do J = 1, N
    S1: A(I, J) = A(I, J) + B(J, I) * C(I)
  end
end
)");
  std::map<std::string, i64> params{{"N", 40}};
  Memory proto;
  declare_arrays(p, params, proto);
  randomize(proto, 3);

  // Cache probe: every access of every instance is observed, in the
  // per-instance order, so the line count is the unbatched one.
  Memory probed = proto;
  CacheProbe probe;
  InterpOptions popts;
  popts.cache_probe = &probe;
  VmProgram pvm(p, params, probed);
  InterpStats pst = pvm.run(popts);
  EXPECT_EQ(pvm.batched_instances() + pvm.serial_leaf_instances(), 0);
  EXPECT_EQ(probe.accesses, 4 * pst.instances);

  // Profiled run: one vm.op.stmt_ns sample per statement instance.
  HistogramCell& stmt_ns = Stats::global().histogram("vm.op.stmt_ns");
  const i64 before = stmt_ns.count();
  Memory profiled = proto;
  InterpOptions fopts;
  fopts.profile = true;
  VmProgram fvm(p, params, profiled);
  InterpStats fst = fvm.run(fopts);
  EXPECT_EQ(fvm.batched_instances() + fvm.serial_leaf_instances(), 0);
  EXPECT_EQ(stmt_ns.count() - before, fst.instances);

  // Both match the batched run bit for bit.
  Memory batched = proto;
  VmProgram bvm(p, params, batched);
  bvm.run();
  EXPECT_EQ(bvm.batched_instances(), pst.instances);
  expect_bit_identical(batched, probed, "probe");
  expect_bit_identical(batched, profiled, "profile");
}

TEST(LeafExecutor, CountersAddedOncePerRun) {
  Program p = parse_program(R"(
param N
do I = 1, N
  S1: A(I) = B(I) + 1.0
end
do I = 1, N
  S2: C(I) = C(I - 1) + 1.0
end
)");
  std::map<std::string, i64> params{{"N", 100}};
  Memory mem;
  declare_arrays(p, params, mem);
  StatsSnapshot s0 = Stats::global().snapshot();
  VmProgram vm(p, params, mem);
  vm.run();
  StatsSnapshot d = Stats::global().snapshot() - s0;
  EXPECT_EQ(d.counter("exec.vm.batched_instances"), 100);
  EXPECT_EQ(d.counter("exec.vm.serial_leaf_instances"), 100);
}

TEST(LeafExecutor, PartitionedLeavesMatchSerial) {
  // The marked loop is itself a leaf (I) or encloses one (the update
  // nest's L): per-worker executors, scratch and exit barriers.
  Program leaf = parse_program(R"(
param N
do I = 1, N
  S1: A(I) = B(I) * 2.0 + C(I)
end
)");
  Program nest = parse_program(update_orders()[0].second);  // cholesky KJL
  for (const auto& [p, part] :
       {std::pair<const Program*, std::string>{&leaf, "I"}, {&nest, "J"}}) {
    std::map<std::string, i64> params{{"N", 150}};
    Memory proto;
    declare_arrays(*p, params, proto);
    randomize(proto, 4);
    Memory serial = proto, par = proto;
    InterpStats ss = interpret(*p, params, serial);
    for (int threads : {2, 4}) {
      par = proto;
      InterpOptions opts;
      opts.num_threads = threads;
      InterpStats ps = run_partitioned(*p, params, par, {part}, threads, opts);
      EXPECT_EQ(ps.instances, ss.instances) << part;
      EXPECT_EQ(ps.loop_iterations, ss.loop_iterations) << part;
      expect_bit_identical(serial, par, "partitioned " + part);
    }
  }
}

// -- Carried leaf entries ---------------------------------------------

TEST(LeafExecutor, CarriedRowsMatchTheWalker) {
  // Parents whose rows the carried path walks, and (last four) leaves
  // it leaves per entry: each bit for bit against the walker.
  const std::vector<std::pair<std::string, std::string>> carried = {
      // Triangular: the first four rows, then the last three, are
      // zero-trip.
      {"zero-trip first rows", R"(
param N
do I = 1, N
  do J = 5, I
    S1: A(I, J) = A(I, J) + B(J, I) * 2.0
  end
end
)"},
      {"zero-trip last rows", R"(
param N
do I = 1, N
  do J = I, N - 3
    S1: A(I, J) = A(I, J - 1) * 0.5 + B(I, J)
  end
end
)"},
      {"non-unit parent steps", R"(
param N
do K = 1, N, 2
  do I = K, N, 3
    do J = K, I
      S1: A(I, J) = A(I, J) - A(I, K) * A(J, K)
    end
  end
end
)"},
      // min/max bounds with partial last tiles, and a leaf whose lower
      // bound changes its active term mid-activation.
      {"tiled", R"(
param N
do IT = 1, N, 5
  do JT = 1, N, 4
    do I = max(IT, 2), min(IT + 4, N)
      do J = max(JT, I - 3), min(JT + 3, N, I + 6)
        S1: C(I, J) = C(I, J) + A(I, J) * B(J, I)
      end
    end
  end
end
)"},
      // One-trip loops: a link that runs exactly once, and a tiled
      // loop that runs at most once. The tiled one is no link: it is
      // the leaf's parent, carried as one row whenever it runs.
      {"one-trip link", R"(
param N
do K = 1, N
  do J = 2*K, 2*K
    do L = K, N
      S1: A(L, K) = A(L, K) + B(J - K, L) * 0.5
    end
  end
end
)"},
      {"tiled one-trip link", R"(
param N
do K = 1, N
  do LT = -N, -1, 4
    do J = 1, N
      do L = max(LT, -J), min(LT + 3, -J)
        do M = K, N
          S1: A(J, M) = A(J, M) - A(K, M) * B(-L, K)
        end
      end
    end
  end
end
)"},
  };
  const std::vector<std::pair<std::string, std::string>> per_entry = {
      {"leaf step 2", R"(
param N
do I = 1, N
  do J = 1, I, 2
    S1: A(I, J) = A(I, J) + B(J, I)
  end
end
)"},
      // Even rows only: zero-trip rows in the middle of the activation.
      {"bound denominators", R"(
param N
do I = 1, N
  do J = ceil(I, 2), floor(I, 2)
    S1: A(I, J) = B(J, I) * 3.0
  end
end
)"},
      // Rows 2..7 zero-trip: a cover-mode (max) upper bound.
      {"cover-mode bound", R"(
param N
do I = 1, N
  do J = 3, max(I - 5, 4 - I)
    S1: A(I, J) = A(I, J) + 1.0
  end
end
)"},
      {"affine operand", R"(
param N
do I = 1, N
  do J = 1, I
    S1: A(I, J) = A(I, J) + M
  end
end
)"},
  };
  auto programs = [](const auto& texts) {
    std::vector<std::pair<std::string, Program>> out;
    for (const auto& [name, text] : texts)
      out.emplace_back(name, parse_program(text));
    return out;
  };
  auto uncarried = programs(per_entry);
  // Make M an affine operand (kAffine), as codegen substitutes.
  uncarried.back().second.mutable_roots()[0]
      ->mutable_children()[0]
      ->mutable_children()[0]
      ->mutable_stmt_data()
      .rhs->substitute_var("M", AffineExpr::variable("I") * 2 +
                                    AffineExpr::variable("J"));
  for (i64 n : {1, 2, 9, 23, 70}) {
    const std::map<std::string, i64> params{{"N", n}};
    for (const auto& [name, p] : programs(carried)) {
      LeafCounts c = leaf_differential(p, params, name + " N=" + std::to_string(n));
      EXPECT_EQ(c.carried, c.entries) << name << " N=" << n;
      if (n >= 9) {
        EXPECT_GT(c.carried, 0) << name;
      }
    }
    for (const auto& [name, p] : uncarried) {
      LeafCounts c = leaf_differential(p, params, name + " N=" + std::to_string(n));
      EXPECT_EQ(c.carried, 0) << name << " N=" << n;
    }
  }
}

// The error text and Memory of a run, and of the same run with the
// profiler on (the per-instance path) and, unless it faults out of
// bounds (the walker checks each access, not each loop entry), on the
// walker.
struct FaultParity {
  std::string vm, per_instance, walker;
};
FaultParity fault_parity(const Program& p,
                         const std::map<std::string, i64>& params,
                         const Memory& proto, i64 budget,
                         const std::string& what, bool walker = true) {
  InterpOptions opts;
  opts.max_instances = budget;
  InterpOptions prof = opts;
  prof.profile = true;
  Memory vm_mem, prof_mem, walk_mem = proto;
  FaultParity f;
  f.vm = run_vm_catching(p, params, proto, opts, vm_mem);
  f.per_instance = run_vm_catching(p, params, proto, prof, prof_mem);
  InterpOptions walk = opts;
  walk.engine = ExecEngine::kAstWalker;
  try {
    interpret(p, params, walk_mem, walk);
  } catch (const Error& e) {
    f.walker = e.what();
  }
  EXPECT_EQ(f.vm, f.per_instance) << what;
  expect_bit_identical(vm_mem, prof_mem, what);
  if (walker) {
    EXPECT_EQ(f.vm, f.walker) << what;
    expect_bit_identical(vm_mem, walk_mem, what);
  }
  return f;
}

TEST(LeafExecutor, CarriedOutOfBoundsAtALaterRowMatches) {
  // Rows I <= N - 3 stay inside A's second dimension; row N - 2 is the
  // first whose entry check fails (in the tiled form, at its last
  // tile). The carried activation leaves it to the per-entry path,
  // which faults at that entry after exactly the instances before it:
  // with that many as the budget the run still faults out of bounds,
  // with one fewer it runs out first.
  const i64 n = 40;
  const std::map<std::string, i64> params{{"N", n}};
  const i64 rows_before = (n - 3) * (n - 2) / 2;
  for (const auto& [text, before] :
       {std::pair<std::string, i64>{R"(
param N
do I = 1, N
  do J = 1, I
    S1: A(I, J) = B(I, J) * 2.0
  end
end
)",
                                    rows_before},
        {R"(
param N
do I = 1, N
  do JT = 1, N, 8
    do J = max(JT, 1), min(JT + 7, I)
      S1: A(I, J) = B(I, J) * 2.0
    end
  end
end
)",
         rows_before + 32}}) {
    Program p = parse_program(text);
    Memory proto;
    proto.declare("A", {1, 1}, {n, n - 3});
    proto.declare("B", {1, 1}, {n, n});
    randomize(proto, 6);
    const std::string oob = "array index out of bounds: A dim 1 index " +
                            std::to_string(n - 2) + " not in [1, " +
                            std::to_string(n - 3) + "]";
    EXPECT_EQ(fault_parity(p, params, proto, 1000000, "oob", false).vm, oob);
    EXPECT_EQ(fault_parity(p, params, proto, before, "at budget", false).vm,
              oob);
    EXPECT_EQ(fault_parity(p, params, proto, before - 1, "budget").vm,
              "interpreter instance budget exceeded");
  }
}

TEST(LeafExecutor, CarriedBudgetRunsOutMidParent) {
  // Every budget up to the total, over parents walked carried (with a
  // one-trip link and a tiled leaf): the activation the budget does
  // not cover runs per entry and stops at the same instance.
  const std::vector<std::string> texts = {update_orders()[0].second, R"(
param N
do K = 1, N
  do J = 2*K, 2*K
    do L = K, N
      S1: A(L, K) = A(L, K) + A(J - K, L) * 0.5
    end
  end
end
)",
                                          R"(
param N
do IT = 1, N, 3
  do I = max(IT, 2), min(IT + 2, N)
    do J = max(1, I - 4), I
      S1: C(I, J) = C(I, J) + A(I, J) * B(J, I)
    end
  end
end
)"};
  for (const std::string& text : texts) {
    Program p = parse_program(text);
    const std::map<std::string, i64> params{{"N", 9}};
    Memory proto;
    declare_arrays(p, params, proto);
    randomize(proto, 7);
    Memory done = proto;
    VmProgram vm(p, params, done);
    const i64 total = vm.run().instances;
    EXPECT_GT(vm.carried_entries(), 0);
    for (i64 budget = 0; budget <= total; ++budget) {
      FaultParity f = fault_parity(p, params, proto, budget,
                                   "budget " + std::to_string(budget));
      EXPECT_EQ(f.vm.empty(), budget == total) << budget;
    }
  }
}

TEST(LeafExecutor, CarriedEntriesCounted) {
  // The Cholesky source: every row of the update nest's J loop enters
  // its leaf L carried; only S2's I leaf (under K, beside S1) does not.
  Program p = load_testdata("cholesky.loop");
  const std::map<std::string, i64> params{{"N", 64}};
  Memory mem;
  declare_arrays(p, params, mem);
  fill_spd(mem, 1);
  StatsSnapshot s0 = Stats::global().snapshot();
  VmProgram vm(p, params, mem);
  vm.run();
  StatsSnapshot d = Stats::global().snapshot() - s0;
  EXPECT_GT(vm.carried_entries(), 0.9 * static_cast<double>(vm.leaf_entries()));
  EXPECT_EQ(d.counter("exec.vm.leaf_entries"), vm.leaf_entries());
  EXPECT_EQ(d.counter("exec.vm.carried_entries"), vm.carried_entries());
}

TEST(LeafExecutor, CarriedCountsIndependentOfSearchThreads) {
  // search --full --verify 64 --skew-bound 1: every verification run
  // is the same VM run at any thread count, so are its entry counts.
  std::vector<std::pair<i64, i64>> counts;
  for (int threads : {1, 4}) {
    SessionOptions so;
    so.threads = threads;
    TransformSession s(load_testdata("cholesky.loop"), so);
    SearchOptions o;
    o.mode = SearchMode::kFull;
    o.verify_params = {{"N", 64}};
    SearchSpace space;
    space.skew_bound = 1;
    StatsSnapshot s0 = Stats::global().snapshot();
    SearchResult r = s.search(space, o);
    StatsSnapshot d = Stats::global().snapshot() - s0;
    EXPECT_EQ(r.stats.verified, r.stats.legal);
    counts.emplace_back(d.counter("exec.vm.leaf_entries"),
                        d.counter("exec.vm.carried_entries"));
  }
  EXPECT_GT(counts[0].second, 0);
  EXPECT_EQ(counts[0], counts[1]);
}

}  // namespace
}  // namespace inlt
