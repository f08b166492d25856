// Execution-engine throughput: the compiled bytecode VM vs. the
// recursive AST walker vs. the native (C-compiled) engine on the same
// programs and inputs, across the kernels semantic verification
// actually runs — Cholesky, LU, a 2-D stencil, and the skewed
// (wavefront) form of that stencil, at several problem sizes.
//
// Each measurement times `interpret()` end to end (the VM side
// includes bytecode compilation; the native side runs after one
// untimed warmup, so its timed runs hit the in-process kernel cache —
// exactly what a verification sweep over many seeds sees). Emits
// BENCH_interp.json (override with --out=PATH) and, when a C compiler
// is available, BENCH_native.json (--native-out=PATH) with the
// machine-independent facts the regression gate wants: native results
// bit-identical to the VM on every kernel and size, zero recompiles on
// a second (disk-cached) pass, and the geomean native-vs-VM throughput
// ratio at the largest size. BENCH_interp.json also records, per
// kernel and size, the share of statement instances the VM's leaf
// executor ran batched — deterministic, so the Cholesky share is gated.
// Without a compiler the native report
// records {"unavailable": true} and the gates skip. See
// bench/harness.hpp for --benchmark_min_time.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "codegen/generate.hpp"
#include "exec/interp.hpp"
#include "exec/native.hpp"
#include "exec/vm.hpp"
#include "harness.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "support/stats.hpp"
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

Program skewed_wavefront() {
  // The classic transformed shape: stencil with J skewed by I — cover
  // bounds and a wavefront traversal, the generated-code case.
  Program p = stencil();
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);
  return generate_code(layout, deps, loop_skew(layout, "J", "I", 1)).program;
}

struct Kernel {
  std::string name;
  Program (*make)();
};

struct EngineRun {
  double seconds = 0;  // total measured interpret() time
  i64 runs = 0;
  i64 instances = 0;   // per run
  double ips() const {
    return seconds > 0 ? static_cast<double>(instances) * runs / seconds : 0;
  }
};

// Time interpret() on copies of `proto` until the budget is spent
// (min 3 timed runs, one untimed warmup — for the native engine the
// warmup also absorbs the one-time C compile). Memory copies stay
// outside the timer.
EngineRun measure(const Program& p, const std::map<std::string, i64>& params,
                  const Memory& proto, ExecEngine engine, double budget_s) {
  InterpOptions opts;
  opts.engine = engine;
  EngineRun er;
  {
    Memory warm = proto;
    er.instances = interpret(p, params, warm, opts).instances;
  }
  for (;;) {
    Memory mem = proto;
    const double t0 = bench::now_s();
    interpret(p, params, mem, opts);
    er.seconds += bench::now_s() - t0;
    er.runs += 1;
    if (er.seconds >= budget_s && er.runs >= 3) break;
  }
  return er;
}

bool bit_identical(const Memory& a, const Memory& b) {
  if (a.arrays().size() != b.arrays().size()) return false;
  for (const auto& [name, arr] : a.arrays()) {
    if (!b.has(name)) return false;
    const DenseArray& other = b.at(name);
    if (arr.data().size() != other.data().size()) return false;
    if (std::memcmp(arr.data().data(), other.data().data(),
                    arr.data().size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

// Share of one VM run's statement instances that the leaf executor
// ran chunked (exec/vm.hpp).
double batched_share(const Program& p, const std::map<std::string, i64>& params,
                     const Memory& proto) {
  Memory mem = proto;
  VmProgram vm(p, params, mem);
  const i64 instances = vm.run().instances;
  return instances > 0 ? static_cast<double>(vm.batched_instances()) /
                             static_cast<double>(instances)
                       : 0;
}

void emit_engine(std::ostream& os, const char* name, const EngineRun& er) {
  os << "\"" << name << "\":{"
     << "\"seconds\":" << er.seconds << ",\"runs\":" << er.runs
     << ",\"instances\":" << er.instances
     << ",\"instances_per_second\":" << er.ips() << "}";
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args =
      bench::parse_args(argc, argv, {"BENCH_interp.json", 0.25});
  std::string native_out_path = "BENCH_native.json";
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--native-out=", 13) == 0)
      native_out_path = argv[i] + 13;

  std::string native_why;
  const bool have_native = native_available(&native_why);
  if (!have_native)
    std::printf("native engine unavailable (%s); VM/walker columns only\n",
                native_why.c_str());

  const std::vector<Kernel> kernels = {
      {"cholesky", &gallery::cholesky},
      {"lu", &gallery::lu},
      {"stencil", &stencil},
      {"skewed_wavefront", &skewed_wavefront},
  };
  const std::vector<i64> sizes = {16, 32, 64, 96};

  bool all_bit_identical = true;
  double log_ratio_sum = 0;  // geomean accumulator at the largest size
  int log_ratio_count = 0;

  std::ostringstream js;
  std::ostringstream njs;
  js << "{\"benchmark\":\"bench_interp\",\"kernels\":[";
  njs << "{\"benchmark\":\"bench_native\",\"unavailable\":"
      << (have_native ? "false" : "true") << ",\"compiler\":\""
      << (have_native ? native_compiler() : std::string()) << "\",\"kernels\":[";
  for (size_t k = 0; k < kernels.size(); ++k) {
    Program p = kernels[k].make();
    if (k) {
      js << ",";
      njs << ",";
    }
    js << "{\"name\":\"" << kernels[k].name << "\",\"sizes\":[";
    njs << "{\"name\":\"" << kernels[k].name << "\",\"sizes\":[";
    double largest_speedup = 0;
    double largest_native_vs_vm = 0;
    double largest_share = 0;
    for (size_t s = 0; s < sizes.size(); ++s) {
      std::map<std::string, i64> params{{"N", sizes[s]}};
      Memory proto;
      declare_arrays(p, params, proto);
      fill_spd(proto, 3);

      EngineRun walker =
          measure(p, params, proto, ExecEngine::kAstWalker, args.budget_s);
      EngineRun vm = measure(p, params, proto, ExecEngine::kVm, args.budget_s);
      double speedup = walker.ips() > 0 ? vm.ips() / walker.ips() : 0;
      largest_speedup = speedup;  // sizes ascend; last one wins
      const double share = batched_share(p, params, proto);
      largest_share = share;

      EngineRun native;
      double native_vs_vm = 0;
      bool identical = true;
      if (have_native) {
        native = measure(p, params, proto, ExecEngine::kNative, args.budget_s);
        native_vs_vm = vm.ips() > 0 ? native.ips() / vm.ips() : 0;
        largest_native_vs_vm = native_vs_vm;
        Memory vm_mem = proto;
        Memory native_mem = proto;
        InterpOptions vopts;
        vopts.engine = ExecEngine::kVm;
        interpret(p, params, vm_mem, vopts);
        InterpOptions nopts;
        nopts.engine = ExecEngine::kNative;
        interpret(p, params, native_mem, nopts);
        identical = bit_identical(vm_mem, native_mem);
        all_bit_identical = all_bit_identical && identical;
      }

      if (have_native)
        std::printf("%-18s N=%3lld %10lld inst | walker %11.0f i/s | "
                    "vm %11.0f i/s (%5.2fx, %3.0f%% batched) | "
                    "native %11.0f i/s (%5.2fx vm)%s\n",
                    kernels[k].name.c_str(), static_cast<long long>(sizes[s]),
                    static_cast<long long>(vm.instances), walker.ips(),
                    vm.ips(), speedup, 100 * share, native.ips(),
                    native_vs_vm, identical ? "" : "  BIT MISMATCH");
      else
        std::printf("%-18s N=%3lld %10lld inst | walker %12.0f inst/s | "
                    "vm %12.0f inst/s | %6.2fx | %3.0f%% batched\n",
                    kernels[k].name.c_str(), static_cast<long long>(sizes[s]),
                    static_cast<long long>(vm.instances), walker.ips(),
                    vm.ips(), speedup, 100 * share);

      if (s) {
        js << ",";
        njs << ",";
      }
      js << "{\"n\":" << sizes[s] << ",";
      emit_engine(js, "walker", walker);
      js << ",";
      emit_engine(js, "vm", vm);
      if (have_native) {
        js << ",";
        emit_engine(js, "native", native);
      }
      js << ",\"speedup\":" << speedup << ",\"batched_share\":" << share
         << "}";
      njs << "{\"n\":" << sizes[s] << ",";
      emit_engine(njs, "native", native);
      njs << ",\"native_vs_vm\":" << native_vs_vm
          << ",\"bit_identical\":" << (identical ? "true" : "false") << "}";
    }
    js << "],\"speedup_at_largest\":" << largest_speedup
       << ",\"batched_share_at_largest\":" << largest_share << "}";
    njs << "],\"native_vs_vm_at_largest\":" << largest_native_vs_vm << "}";
    if (have_native && largest_native_vs_vm > 0) {
      log_ratio_sum += std::log(largest_native_vs_vm);
      ++log_ratio_count;
    }
  }
  js << "]}\n";

  // Second pass: drop the in-process handle cache and run every kernel
  // once more at the largest size. Every kernel must come back from the
  // on-disk cache — zero recompiles — or the content-addressed cache is
  // broken.
  i64 recompiles_second_run = 0;
  if (have_native) {
    native_lru_clear();
    StatsSnapshot s0 = Stats::global().snapshot();
    for (const Kernel& kern : kernels) {
      Program p = kern.make();
      std::map<std::string, i64> params{{"N", sizes.back()}};
      Memory mem;
      declare_arrays(p, params, mem);
      fill_spd(mem, 3);
      InterpOptions opts;
      opts.engine = ExecEngine::kNative;
      interpret(p, params, mem, opts);
    }
    StatsSnapshot d = Stats::global().snapshot() - s0;
    recompiles_second_run = d.counter("exec.native.compiles");
  }
  const double geomean =
      log_ratio_count > 0 ? std::exp(log_ratio_sum / log_ratio_count) : 0;
  njs << "],\"bit_identical\":" << (all_bit_identical ? "true" : "false")
      << ",\"recompiles_second_run\":" << recompiles_second_run
      << ",\"geomean_native_vs_vm_at_largest\":" << geomean << "}\n";

  std::ofstream out(args.out);
  out << js.str();
  std::printf("wrote %s\n", args.out.c_str());
  std::ofstream nout(native_out_path);
  nout << njs.str();
  if (have_native)
    std::printf(
        "wrote %s (bit_identical=%s, recompiles_second_run=%lld, "
        "geomean native/vm at N=%lld: %.2fx)\n",
        native_out_path.c_str(), all_bit_identical ? "true" : "false",
        static_cast<long long>(recompiles_second_run),
        static_cast<long long>(sizes.back()), geomean);
  else
    std::printf("wrote %s (native unavailable)\n", native_out_path.c_str());
  return all_bit_identical ? 0 : 1;
}
