// Tiled vs. untiled execution head-to-head: left-looking Cholesky and
// LU (the forms whose fully-permutable (outer, update) band actually
// blocks) plus the 2-D stencil (a control: every reference is indexed
// by both band dims, so blocking cannot help), at N ∈ {128, 256},
// explicit tile sizes {8, 16, 32} and the cost model's auto pick.
//
// For each (kernel, N, tiling) the tiled program is first checked
// bit-identical to the untiled reference under both the VM and the
// native engine — tiling is a reorder, a single differing bit means a
// wrong rewrite and the process aborts rather than publish a number.
// Then native wall-clock is measured both ways (the VM as secondary
// data: interpreter dispatch dilutes memory effects), and a
// small-table CacheProbe (tag table sized to the modeled cache
// capacity, so it approximates misses of a direct-mapped cache of
// that size) gives a machine-independent locality ratio.
//
// Emits BENCH_tile.json (override with --out=PATH; --n=A,B overrides
// the size sweep). Gated in bench/baseline.json on the
// machine-independent facts — bit-identity and the probe ratios —
// plus a generous floor on the recorded auto-tile wall-clock ratio:
// on hosts whose outer cache swallows the whole working set the
// fetch reduction does not convert to wall clock (see EXPERIMENTS.md
// C11). See bench/harness.hpp for --benchmark_min_time.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exec/interp.hpp"
#include "exec/native.hpp"
#include "harness.hpp"
#include "ir/parser.hpp"
#include "support/cache_geometry.hpp"
#include "tile/plan.hpp"

namespace {

using namespace inlt;

// Left-looking (jki) Cholesky: the output of completing the paper's
// Cholesky fragment with the L-before-K order — the (K, J) band tiles.
Program cholesky_jki() {
  return parse_program(R"(
param N
do K = 1, N
  do J = 1, K - 1
    do L = K, N
      S3: A(L, K) = A(L, K) - A(L, J) * A(K, J)
    end
  end
  S1: A(K, K) = sqrt(A(K, K))
  do I = K + 1, N
    S2: A(I, K) = A(I, K) / A(K, K)
  end
end
)");
}

// Left-looking (jki) LU, no pivoting: column J is updated by all
// previous columns, then scaled — the (J, K) band tiles.
Program lu_jki() {
  return parse_program(R"(
param N
do J = 1, N
  do K = 1, J - 1
    do I = K + 1, N
      S1: A(I, J) = A(I, J) - A(I, K) * A(K, J)
    end
  end
  do I = J + 1, N
    S2: A(I, J) = A(I, J) / A(J, J)
  end
end
)");
}

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
  std::vector<std::string> band;  // loops for the explicit-size runs
};

struct Run {
  double best = 0;  // fastest single run: robust to interference spikes
  i64 runs = 0;
  double per_run() const { return best; }
};

// Default interpreter budget is sized for tests; N=1024 runs need more.
constexpr i64 kInstanceBudget = i64{4} << 30;

Run measure(const Program& p, const std::map<std::string, i64>& params,
            const Memory& proto, ExecEngine engine, double budget_s) {
  InterpOptions opts;
  opts.engine = engine;
  opts.max_instances = kInstanceBudget;
  Run r;
  {
    Memory warm = proto;  // untimed: native compile, cache warm-up
    interpret(p, params, warm, opts);
  }
  double spent = 0;
  for (;;) {
    Memory mem = proto;
    const double t0 = bench::now_s();
    interpret(p, params, mem, opts);
    const double dt = bench::now_s() - t0;
    spent += dt;
    if (r.runs == 0 || dt < r.best) r.best = dt;
    r.runs += 1;
    // Min-of-runs within a time budget; a single slow run (VM at large
    // N) is not repeated past 5x the budget.
    if ((spent >= budget_s && r.runs >= 3) || spent >= 5 * budget_s) break;
  }
  return r;
}

// Abort unless `p` leaves memory bit-identical to the reference under
// `engine` — a benchmark of a wrong rewrite is worse than no number.
void check_identical(const Program& p,
                     const std::map<std::string, i64>& params,
                     const Memory& proto, const Memory& ref,
                     ExecEngine engine, const std::string& what) {
  Memory mem = proto;
  InterpOptions opts;
  opts.engine = engine;
  opts.max_instances = kInstanceBudget;
  interpret(p, params, mem, opts);
  for (const auto& [name, arr] : ref.arrays()) {
    const DenseArray& got = mem.at(name);
    if (got.data().size() != arr.data().size() ||
        std::memcmp(got.data().data(), arr.data().data(),
                    arr.data().size() * sizeof(double)) != 0) {
      std::fprintf(stderr,
                   "bench_tile: %s is NOT bit-identical to the untiled "
                   "reference (array %s)\n",
                   what.c_str(), name.c_str());
      std::abort();
    }
  }
}

// Distinct-line estimate from a tag table sized to the modeled cache:
// approximates misses of a direct-mapped cache of capacity_lines.
i64 probe_lines(const Program& p, const std::map<std::string, i64>& params,
                const Memory& proto) {
  Memory mem = proto;
  CacheProbe probe;
  int bits = 0;
  while ((i64{1} << bits) < kCacheCapacityLines) ++bits;
  probe.bucket_bits = bits;
  InterpOptions opts;
  opts.cache_probe = &probe;
  opts.max_instances = kInstanceBudget;
  interpret(p, params, mem, opts);
  return probe.lines;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args =
      bench::parse_args(argc, argv, {"BENCH_tile.json", 0.2});
  std::vector<i64> sizes_n = {128, 256};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--n=", 0) != 0) continue;
    sizes_n.clear();
    std::istringstream is(arg.substr(4));
    std::string tok;
    while (std::getline(is, tok, ','))
      sizes_n.push_back(std::atoll(tok.c_str()));
    if (sizes_n.empty()) sizes_n = {128, 256};
  }

  std::string native_why;
  const bool have_native = native_available(&native_why);
  if (!have_native)
    std::fprintf(stderr, "bench_tile: native engine unavailable (%s); "
                 "native speedups will ride the VM fallback\n",
                 native_why.c_str());

  std::vector<Kernel> kernels;
  kernels.push_back({"cholesky_jki", cholesky_jki(), {"K", "J"}});
  kernels.push_back({"lu_jki", lu_jki(), {"J", "K"}});
  kernels.push_back({"stencil", stencil(), {"I", "J"}});

  const std::vector<i64> tile_sizes = {8, 16, 32};

  double best_auto_native_speedup_n256 = 0;

  std::ostringstream js;
  js << "{\"benchmark\":\"bench_tile\",\"native_unavailable\":"
     << (have_native ? "false" : "true") << ",\"kernels\":[";
  bool first_kernel = true;
  for (const Kernel& k : kernels) {
    if (!first_kernel) js << ",";
    first_kernel = false;
    js << "{\"name\":\"" << k.name << "\",\"sizes\":[";
    double headline_speedup = 0;  // best native speedup at largest N
    for (size_t s = 0; s < sizes_n.size(); ++s) {
      const i64 n = sizes_n[s];
      std::map<std::string, i64> params{{"N", n}};
      Memory proto;
      declare_arrays(k.program, params, proto);
      fill_spd(proto, 3);

      Memory ref = proto;
      InterpOptions ref_opts;
      ref_opts.max_instances = kInstanceBudget;
      interpret(k.program, params, ref, ref_opts);
      check_identical(k.program, params, proto, ref, ExecEngine::kNative,
                      k.name + " untiled/native");

      const i64 untiled_lines = probe_lines(k.program, params, proto);
      Run un_vm =
          measure(k.program, params, proto, ExecEngine::kVm, args.budget_s);
      Run un_nat =
          measure(k.program, params, proto, ExecEngine::kNative, args.budget_s);

      if (s) js << ",";
      js << "{\"n\":" << n
         << ",\"untiled\":{\"vm_seconds_per_run\":" << un_vm.per_run()
         << ",\"native_seconds_per_run\":" << un_nat.per_run()
         << ",\"probe_lines\":" << untiled_lines << "},\"tiles\":[";

      // One tiled variant: rewrite, verify bit-identity on both
      // engines, then time. Returns the native speedup.
      auto run_tiled = [&](const TileOptions& topts,
                           const char* label) -> double {
        // The planner models trips symbolically; telling it the real N
        // lets the capacity penalty see N=256 working sets.
        ModelOptions mopts;
        mopts.nominal_trip = n;
        TiledProgram tp = apply_tile(k.program, topts, mopts);
        js << "\"applied\":" << (tp.plan.applied ? "true" : "false");
        js << ",\"plan_sizes\":[";
        for (size_t i = 0; i < tp.plan.spec.sizes.size(); ++i)
          js << (i ? "," : "") << tp.plan.spec.sizes[i];
        js << "]";
        if (!tp.program) {
          js << ",\"native_speedup\":1,\"vm_speedup\":1,\"probe_ratio\":1"
             << ",\"bit_identical\":true";
          std::printf("%-13s N=%3lld %-8s not applied (%s)\n", k.name.c_str(),
                      static_cast<long long>(n), label,
                      tp.plan.note.c_str());
          return 1.0;
        }
        const Program& tiled = *tp.program;
        check_identical(tiled, params, proto, ref, ExecEngine::kVm,
                        k.name + " tiled/vm");
        check_identical(tiled, params, proto, ref, ExecEngine::kNative,
                        k.name + " tiled/native");
        const i64 tiled_lines = probe_lines(tiled, params, proto);
        Run t_vm =
            measure(tiled, params, proto, ExecEngine::kVm, args.budget_s);
        Run t_nat =
            measure(tiled, params, proto, ExecEngine::kNative, args.budget_s);
        const double nat_speedup =
            t_nat.per_run() > 0 ? un_nat.per_run() / t_nat.per_run() : 0;
        const double vm_speedup =
            t_vm.per_run() > 0 ? un_vm.per_run() / t_vm.per_run() : 0;
        const double ratio =
            untiled_lines > 0
                ? static_cast<double>(tiled_lines) /
                      static_cast<double>(untiled_lines)
                : 1.0;
        js << ",\"native_speedup\":" << nat_speedup
           << ",\"vm_speedup\":" << vm_speedup
           << ",\"probe_lines\":" << tiled_lines
           << ",\"probe_ratio\":" << ratio << ",\"bit_identical\":true";
        std::printf("%-13s N=%3lld %-8s native %6.2fx | vm %5.2fx | "
                    "probe %5.3f\n",
                    k.name.c_str(), static_cast<long long>(n), label,
                    nat_speedup, vm_speedup, ratio);
        return nat_speedup;
      };

      for (size_t t = 0; t < tile_sizes.size(); ++t) {
        if (t) js << ",";
        js << "{\"size\":" << tile_sizes[t] << ",";
        TileOptions topts;
        topts.loops = k.band;
        topts.sizes.assign(k.band.size(), tile_sizes[t]);
        topts.force = true;
        double sp = run_tiled(
            topts, (std::to_string(tile_sizes[t]) + "x").c_str());
        if (s + 1 == sizes_n.size()) headline_speedup =
            std::max(headline_speedup, sp);
        js << "}";
      }
      js << "],\"auto\":{";
      TileOptions aopts;
      aopts.auto_select = true;
      double auto_sp = run_tiled(aopts, "auto");
      js << "}";
      if (s + 1 == sizes_n.size()) {
        headline_speedup = std::max(headline_speedup, auto_sp);
        if (n == 256 && k.name != "stencil")
          best_auto_native_speedup_n256 =
              std::max(best_auto_native_speedup_n256, auto_sp);
      }
      js << "}";
    }
    js << "],\"speedup\":" << headline_speedup << "}";
  }
  js << "],\"best_auto_native_speedup_n256\":"
     << best_auto_native_speedup_n256 << "}\n";

  std::ofstream out(args.out);
  out << js.str();
  std::printf("wrote %s\n", args.out.c_str());
  return 0;
}
