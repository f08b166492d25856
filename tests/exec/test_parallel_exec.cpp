// Partitioned parallel execution (exec/parallel.hpp) against the
// serial VM, bit for bit: a doall level writes disjoint locations per
// iteration, so chunked execution must leave Memory memcmp-identical
// to a serial run at any thread count, with InterpStats summing to the
// serial stats exactly. Kernels × seeds × thread counts, plus the
// fallback, error-propagation and pool-reuse paths.
#include <gtest/gtest.h>

#include <cstring>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "codegen/generate.hpp"
#include "dependence/analyzer.hpp"
#include "exec/parallel.hpp"
#include "exec/verify.hpp"
#include "exec/vm.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "support/check.hpp"
#include "transform/parallel.hpp"
#include "transform/transforms.hpp"

namespace inlt {
namespace {

void expect_bit_identical(const Memory& a, const Memory& b,
                          const std::string& what) {
  ASSERT_EQ(a.arrays().size(), b.arrays().size()) << what;
  for (const auto& [name, arr] : a.arrays()) {
    const DenseArray& other = b.at(name);
    ASSERT_EQ(arr.data().size(), other.data().size()) << what << " " << name;
    EXPECT_EQ(std::memcmp(arr.data().data(), other.data().data(),
                          arr.data().size() * sizeof(double)),
              0)
        << what << ": array " << name << " differs from the serial run";
  }
}

struct Kernel {
  std::string name;
  Program program;
  std::vector<std::string> partition;
};

// Test corpus: source nests with their doall partitions, plus the
// skewed-stencil wavefront (sequential time loop over a chunked inner
// doall — the schedule that exercises the per-activation barriers).
std::vector<Kernel> kernels() {
  std::vector<Kernel> out;
  for (auto [name, p] : std::initializer_list<std::pair<const char*, Program>>{
           {"cholesky", gallery::cholesky()}, {"lu", gallery::lu()}}) {
    IvLayout layout(p);
    DependenceSet deps = analyze_dependences(layout);
    ParallelSchedule s = source_parallel_schedule(layout, deps);
    EXPECT_FALSE(s.partition.empty());
    out.push_back({name, p, s.partition});
  }
  {
    Program p = parse_program(R"(
param N
do I = 1, N
  do J = 1, N
    S1: U(I, J) = U(I - 1, J) + U(I, J - 1)
  end
end
)");
    IvLayout layout(p);
    DependenceSet deps = analyze_dependences(layout);
    IntMat m = loop_skew(layout, "I", "J", 1);
    CodegenResult gen = generate_code(layout, deps, m);
    AstRecovery rec = recover_ast(layout, m);
    ParallelSchedule s = analyze_target_parallelism(layout, deps, m, rec);
    EXPECT_EQ(s.partition, (std::vector<std::string>{"J"}));
    EXPECT_TRUE(s.wavefront);
    out.push_back({"stencil_wavefront", gen.program, s.partition});
  }
  return out;
}

void expect_parallel_matches_serial(const Kernel& k,
                                    const std::map<std::string, i64>& params,
                                    FillKind fill, unsigned seed,
                                    int threads) {
  Memory proto;
  declare_arrays(k.program, params, proto);
  if (fill == FillKind::kSpd)
    fill_spd(proto, seed);
  else
    randomize(proto, seed);

  Memory serial_mem = proto;
  InterpStats serial = interpret(k.program, params, serial_mem, {});

  Memory par_mem = proto;
  InterpOptions opts;
  opts.num_threads = threads;
  opts.partition = k.partition;
  InterpStats par = interpret(k.program, params, par_mem, opts);

  std::string what = k.name + " seed " + std::to_string(seed) + " threads " +
                     std::to_string(threads);
  EXPECT_EQ(par.instances, serial.instances) << what;
  EXPECT_EQ(par.loop_iterations, serial.loop_iterations) << what;
  EXPECT_EQ(par.guard_failures, serial.guard_failures) << what;
  expect_bit_identical(par_mem, serial_mem, what);
}

TEST(ParallelExec, BitIdenticalAcrossThreadsSeedsKernels) {
  for (const Kernel& k : kernels())
    for (unsigned seed : {1u, 2u})
      for (int threads : {1, 2, 8})
        expect_parallel_matches_serial(k, {{"N", 17}}, FillKind::kSpd, seed,
                                       threads);
}

TEST(ParallelExec, RandomFillAndOddSizes) {
  // Sizes that don't divide evenly across 8 workers, including fewer
  // iterations than workers (empty chunks).
  for (const Kernel& k : kernels())
    for (i64 n : {1, 3, 7, 13})
      expect_parallel_matches_serial(k, {{"N", n}}, FillKind::kRandom, 5, 8);
}

TEST(ParallelExec, ZeroTripPartitionedLoop) {
  // N = 0: every activation of every loop is zero-trip; all workers
  // must skip consistently without deadlocking on the exit barrier.
  for (const Kernel& k : kernels())
    expect_parallel_matches_serial(k, {{"N", 0}}, FillKind::kRandom, 1, 4);
}

TEST(ParallelExec, SerialFallbackWithoutPartition) {
  // No partition: interpret() must run serially and still agree.
  Program p = gallery::cholesky();
  std::map<std::string, i64> params{{"N", 9}};
  Memory proto;
  declare_arrays(p, params, proto);
  fill_spd(proto, 1);
  Memory a = proto, b = proto;
  InterpStats serial = interpret(p, params, a, {});
  InterpOptions opts;
  opts.num_threads = 8;  // threads without a partition: serial path
  InterpStats par = interpret(p, params, b, opts);
  EXPECT_EQ(par.instances, serial.instances);
  expect_bit_identical(a, b, "fallback");
}

TEST(ParallelExec, PartitionNamingNoLoopFallsBack) {
  Program p = gallery::cholesky();
  std::map<std::string, i64> params{{"N", 9}};
  Memory proto;
  declare_arrays(p, params, proto);
  fill_spd(proto, 1);
  Memory a = proto, b = proto;
  InterpStats serial = interpret(p, params, a, {});
  InterpStats par =
      run_partitioned(p, params, b, {"NOSUCHLOOP"}, 8, InterpOptions{});
  EXPECT_EQ(par.instances, serial.instances);
  expect_bit_identical(a, b, "no-such-loop fallback");
}

TEST(ParallelExec, WorkerErrorAbortsTeamAndPropagates) {
  // Shrink an array below what the program touches: some worker hits
  // the bounds check mid-chunk, aborts the barrier, and the original
  // error (not the abort echo) reaches the caller.
  Program p = parse_program(R"(
param N
do T = 1, 3
  do I = 1, N
    S1: A(I) = A(I) + 1.0
  end
end
)");
  std::map<std::string, i64> params{{"N", 64}};
  Memory mem;
  mem.declare("A", {1}, {32});  // program writes A(1..64)
  try {
    run_partitioned(p, params, mem, {"I"}, 4, InterpOptions{});
    FAIL() << "expected an out-of-bounds error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("out of bounds"), std::string::npos)
        << e.what();
    EXPECT_EQ(std::string(e.what()).find(ExecBarrier::aborted_message()),
              std::string::npos)
        << "abort echo leaked instead of the original error: " << e.what();
  }
}

TEST(ParallelExec, PoolReuseAcrossRunsAndWidths) {
  // The shared pool persists and regrows; alternating widths across
  // runs must stay correct (stale round state would hang or corrupt).
  Program p = gallery::lu();
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);
  ParallelSchedule s = source_parallel_schedule(layout, deps);
  Kernel k{"lu", p, s.partition};
  for (int threads : {2, 8, 3, 8, 2})
    expect_parallel_matches_serial(k, {{"N", 13}}, FillKind::kSpd, 9, threads);
}

TEST(ParallelExec, BarrierAbortReleasesWaiters) {
  ExecBarrier b(2);
  b.abort();
  EXPECT_THROW(b.arrive_and_wait(), Error);
}

TEST(ParallelExec, VerifyEquivalenceWithExecPlan) {
  // The plumbed verify path: parallel execution must not change
  // verification verdicts.
  Program p = parse_program(R"(
param N
do I = 1, N
  do J = 1, N
    S1: U(I, J) = U(I - 1, J) + U(I, J - 1)
  end
end
)");
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);
  IntMat m = loop_skew(layout, "I", "J", 1);
  CodegenResult gen = generate_code(layout, deps, m);
  AstRecovery rec = recover_ast(layout, m);
  ParallelSchedule s = analyze_target_parallelism(layout, deps, m, rec);

  ExecPlan plan;
  plan.threads = 8;
  plan.target_partition = s.partition;
  VerifyResult r =
      verify_equivalence(p, gen.program, {{"N", 20}}, FillKind::kRandom, 1,
                         ExecEngine::kVm, plan);
  EXPECT_TRUE(r.equivalent) << r.to_string();

  VerifyReference ref(p, {{"N", 20}}, FillKind::kRandom, 1, ExecEngine::kVm,
                      plan);
  EXPECT_TRUE(ref.check(gen.program).equivalent);
  EXPECT_TRUE(ref.check(gen.program, s.partition).equivalent);
  // A genuinely different program must still fail under the plan.
  Program other = parse_program(R"(
param N
do I = 1, N
  do J = 1, N
    S1: U(I, J) = U(I - 1, J) + 2.0
  end
end
)");
  EXPECT_FALSE(ref.check(other, {"J"}).equivalent);
}

}  // namespace
}  // namespace inlt
