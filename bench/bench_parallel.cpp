// Parallel execution engine head-to-head: the partitioned doall/
// wavefront driver (exec/parallel.hpp) vs. the serial VM on the same
// programs and inputs — Cholesky, LU, the 2-D stencil, and the §5.5
// skewed wavefront form of that stencil, at N ∈ {64, 96, 128} and
// 1/2/4/8 worker threads.
//
// Each kernel's doall partition comes from the parallelism analysis
// itself (source_parallel_schedule / analyze_target_parallelism), not
// from hand annotation, so the benchmark measures exactly what the
// --exec-threads verification path runs. The serial stencil has no
// doall level and exercises the serial fallback (speedup ~1 by
// construction). Every parallel run is checked memcmp-identical to the
// serial run before anything is timed; a mismatch aborts the process.
//
// Emits BENCH_parallel.json (override with --out=PATH). Speedups are
// reported as data, not asserted: they depend on the host's core
// count (nproc on the CI runners; 1 on a uniprocessor, where every
// ratio is ~1 and only the bit-identity check has teeth). See
// bench/harness.hpp for --benchmark_min_time.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "codegen/generate.hpp"
#include "exec/interp.hpp"
#include "harness.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "support/profile.hpp"
#include "transform/parallel.hpp"
#include "transform/transforms.hpp"

namespace {

using namespace inlt;

Program stencil() {
  return parse_program(R"(
param N
do I = 1, N
  do J = 1, N
    S1: U(I, J) = U(I - 1, J) + U(I, J - 1)
  end
end
)");
}

struct Kernel {
  std::string name;
  Program program;
  std::vector<std::string> partition;
  bool wavefront = false;
};

std::vector<Kernel> kernels() {
  std::vector<Kernel> out;
  for (auto [name, p] : {std::pair<const char*, Program>{
                             "cholesky_kij", gallery::cholesky()},
                         {"lu", gallery::lu()}}) {
    IvLayout layout(p);
    DependenceSet deps = analyze_dependences(layout);
    ParallelSchedule s = source_parallel_schedule(layout, deps);
    out.push_back({name, p, s.partition, s.wavefront});
  }
  {
    // Serial contrast: the stencil as written has no doall level, so
    // the engine falls back to one thread at any requested count.
    Program p = stencil();
    IvLayout layout(p);
    DependenceSet deps = analyze_dependences(layout);
    ParallelSchedule s = source_parallel_schedule(layout, deps);
    out.push_back({"stencil_serial", p, s.partition, s.wavefront});
  }
  {
    // §5.5: skewing exposes the inner doall; the time loop runs the
    // per-activation barriers hard (one barrier pair per diagonal).
    Program p = stencil();
    IvLayout layout(p);
    DependenceSet deps = analyze_dependences(layout);
    IntMat m = loop_skew(layout, "I", "J", 1);
    CodegenResult gen = generate_code(layout, deps, m);
    AstRecovery rec = recover_ast(layout, m);
    ParallelSchedule s = analyze_target_parallelism(layout, deps, m, rec);
    out.push_back({"stencil_wavefront", gen.program, s.partition,
                   s.wavefront});
  }
  return out;
}

struct Run {
  double seconds = 0;  // total measured interpret() time
  i64 runs = 0;
  i64 instances = 0;   // per run
  double per_run() const {
    return runs > 0 ? seconds / static_cast<double>(runs) : 0;
  }
};

// One untimed correctness run: the parallel result must be bit
// identical to the serial reference or the benchmark is measuring a
// wrong answer — abort rather than publish a number.
void check_identical(const Kernel& k, const std::map<std::string, i64>& params,
                     const Memory& proto, const Memory& serial, int threads) {
  Memory mem = proto;
  InterpOptions opts;
  opts.num_threads = threads;
  opts.partition = k.partition;
  interpret(k.program, params, mem, opts);
  for (const auto& [name, arr] : serial.arrays()) {
    const DenseArray& got = mem.at(name);
    if (got.data().size() != arr.data().size() ||
        std::memcmp(got.data().data(), arr.data().data(),
                    arr.data().size() * sizeof(double)) != 0) {
      std::fprintf(stderr,
                   "bench_parallel: %s at %d threads is NOT bit-identical "
                   "to serial (array %s)\n",
                   k.name.c_str(), threads, name.c_str());
      std::abort();
    }
  }
}

// Time interpret() at `threads` on copies of `proto` until the budget
// is spent (min 3 timed runs, one untimed warmup). Copies stay outside
// the timer.
Run measure(const Kernel& k, const std::map<std::string, i64>& params,
            const Memory& proto, int threads, double budget_s) {
  InterpOptions opts;
  opts.num_threads = threads;
  opts.partition = k.partition;
  Run r;
  {
    Memory warm = proto;
    r.instances = interpret(k.program, params, warm, opts).instances;
  }
  for (;;) {
    Memory mem = proto;
    const double t0 = bench::now_s();
    interpret(k.program, params, mem, opts);
    r.seconds += bench::now_s() - t0;
    r.runs += 1;
    if (r.seconds >= budget_s && r.runs >= 3) break;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args =
      bench::parse_args(argc, argv, {"BENCH_parallel.json", 0.25});
  // --profile attaches the execution profiler's per-thread-count report
  // (utilization, barrier share, measured parallel fraction) to each
  // timed entry. The profiler's clock reads ride inside the timed
  // region, so --profile numbers are not comparable to unprofiled ones
  // — the CI regression gate runs without it.
  bool profile = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--profile") == 0) profile = true;

  const std::vector<i64> sizes = {64, 96, 128};
  const std::vector<int> threads = {1, 2, 4, 8};

  std::ostringstream js;
  js << "{\"benchmark\":\"bench_parallel\",\"kernels\":[";
  bool first_kernel = true;
  for (const Kernel& k : kernels()) {
    if (!first_kernel) js << ",";
    first_kernel = false;
    js << "{\"name\":\"" << k.name << "\",\"partition\":[";
    for (size_t i = 0; i < k.partition.size(); ++i)
      js << (i ? "," : "") << "\"" << k.partition[i] << "\"";
    js << "],\"wavefront\":" << (k.wavefront ? "true" : "false")
       << ",\"sizes\":[";
    double speedup8_at_largest = 0;
    for (size_t s = 0; s < sizes.size(); ++s) {
      std::map<std::string, i64> params{{"N", sizes[s]}};
      Memory proto;
      declare_arrays(k.program, params, proto);
      fill_spd(proto, 3);

      Memory serial_mem = proto;
      interpret(k.program, params, serial_mem, {});
      for (int t : threads) check_identical(k, params, proto, serial_mem, t);

      if (s) js << ",";
      js << "{\"n\":" << sizes[s] << ",\"threads\":[";
      double serial_per_run = 0;
      for (size_t t = 0; t < threads.size(); ++t) {
        const bool prof_this = profile && threads[t] > 1;
        if (prof_this) {
          ExecProfiler::global().clear();
          ExecProfiler::global().enable();
        }
        Run r = measure(k, params, proto, threads[t], args.budget_s);
        if (prof_this) ExecProfiler::global().disable();
        if (threads[t] == 1) serial_per_run = r.per_run();
        double speedup =
            r.per_run() > 0 ? serial_per_run / r.per_run() : 0;
        if (threads[t] == 8) speedup8_at_largest = speedup;

        std::printf("%-18s N=%3lld threads=%d %10lld inst | %9.4f s/run | "
                    "%6.2fx\n",
                    k.name.c_str(), static_cast<long long>(sizes[s]),
                    threads[t], static_cast<long long>(r.instances),
                    r.per_run(), speedup);

        if (t) js << ",";
        js << "{\"threads\":" << threads[t] << ",\"seconds\":" << r.seconds
           << ",\"runs\":" << r.runs << ",\"instances\":" << r.instances
           << ",\"seconds_per_run\":" << r.per_run()
           << ",\"speedup\":" << speedup << ",\"bit_identical\":true";
        if (prof_this && ExecProfiler::global().report_count() > 0) {
          ProfileReport rep = ExecProfiler::global().merged();
          js << ",\"profile\":{\"avg_utilization\":" << rep.avg_utilization()
             << ",\"load_imbalance\":" << rep.load_imbalance()
             << ",\"barrier_share\":" << rep.barrier_share()
             << ",\"measured_parallel_fraction\":"
             << rep.measured_parallel_fraction() << "}";
        }
        js << "}";
      }
      js << "]}";
    }
    js << "],\"speedup_8t_at_largest\":" << speedup8_at_largest << "}";
  }
  js << "]}\n";

  std::ofstream out(args.out);
  out << js.str();
  std::printf("wrote %s\n", args.out.c_str());
  return 0;
}
