// C2, C3, C4, C8 and the LU table: §1's "performance, even on
// sequential machines, can be quite different", measured on the code
// the framework generates.
//
// Families and their programs:
//  * cholesky (tools/testdata/cholesky.loop, right-looking kij) and lu
//    (the gallery LU): the source, every hit of the skew-bound-0 order
//    search, and the completion (§6) of each (K, J, L) ordering of the
//    update statement that completes — 4 of 6 for Cholesky (C1). The
//    two J-outer bordered Cholesky forms no transformation reaches are
//    the hand-written tools/testdata/cholesky_{ijk,ikj}.loop.
//  * skew_example (tools/testdata/skew_example.loop): the source and
//    §5.5's transformed code, `skew I J -1` (C4).
//  * stencil (tools/testdata/stencil.loop): the Gauss-Seidel sweep and
//    its wavefront order, `skew I J 1` (C8).
//
// Before any timing, every program is checked bit-identical to its
// source on the VM and on the native engine at N = 32; the process
// aborts on a mismatch rather than publish a number. Then each program
// runs natively at every size of its family, its first run at each size
// again checked bit for bit against the source's; the fastest of at
// least three runs is reported (more while the --benchmark_min_time
// budget lasts; a budget scaled below the default, as in the CI smoke
// pass, runs each program once).
//
// Emits BENCH_orders.json (override with --out=PATH): per program and
// size the best time, per size the max/min spread over the family, the
// bit-identity flags and the reachable-ordering count — the last two
// are what bench/baseline.json gates. Without a C compiler it writes
// {"unavailable": true}.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exec/native.hpp"
#include "exec/verify.hpp"
#include "harness.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "pipeline/search.hpp"
#include "transform/completion.hpp"
#include "transform/transforms.hpp"

namespace {

using namespace inlt;

constexpr i64 kCheckN = 32;

Program load_testdata(const std::string& name) {
  const std::string path = std::string(INLT_TESTDATA_DIR) + "/" + name;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_orders: cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream os;
  os << in.rdbuf();
  return parse_program(os.str());
}

// Classical (outer, middle, inner) name of a (K, J, L) ordering: K is
// the reduction index k, J the row i, L the column j.
std::string classical(const std::string& kjl) {
  std::string out;
  for (char c : kjl) out += c == 'K' ? 'k' : c == 'J' ? 'i' : 'j';
  return out;
}

// The (K, J, L) ordering a loop-permutation matrix gives the update
// statement.
std::string kjl_order(const IvLayout& layout, const IntMat& m) {
  std::string out;
  for (int slot : layout.all_loop_positions())
    for (int p : layout.all_loop_positions())
      if (m(slot, p) != 0) {
        const std::string& var = layout.positions()[p].name;
        if (var == "K" || var == "J" || var == "L") out += var;
      }
  return out;
}

struct Variant {
  std::string name;
  std::string how;    // source | search | completion | hand-written | transform
  std::string order;  // classical name; empty outside the factorizations
  Program program;
  std::shared_ptr<NativeKernel> native;
  std::vector<double> best_ms;  // per family size
};

struct Family {
  std::string name;
  std::vector<i64> sizes;
  std::vector<Variant> variants;  // [0] is the source
  int reachable = 0;              // (K, J, L) orderings completion reaches
  const Program& source() const { return variants[0].program; }
};

Family factorization(std::string name, Program source,
                     std::vector<i64> sizes,
                     const std::vector<std::string>& hand_written) {
  Family f{std::move(name), std::move(sizes), {}, 0};
  TransformSession session(source);
  f.variants.push_back({"source", "source", "kij", std::move(source), {}, {}});
  for (SearchHit& h : session.search(SearchSpace{}).hits)
    f.variants.push_back({"search#" + std::to_string(h.index), "search",
                          classical(kjl_order(session.layout(), h.matrix)),
                          std::move(*h.result.program), {}, {}});
  std::string kjl = "JKL";
  do {
    std::vector<IntVec> rows;
    for (char c : kjl) {
      IntVec r(session.layout().size(), 0);
      r[session.layout().loop_position(std::string(1, c))] = 1;
      rows.push_back(r);
    }
    IntMat m;
    try {
      m = complete_transformation(session.layout(), session.dependences(),
                                  rows)
              .matrix;
    } catch (const TransformError&) {
      continue;  // C1: no legal completion of this ordering
    }
    CandidateResult r = session.evaluate(m);
    if (!r.program) continue;
    ++f.reachable;
    f.variants.push_back({"complete:" + kjl, "completion", classical(kjl),
                          std::move(*r.program), {}, {}});
  } while (std::next_permutation(kjl.begin(), kjl.end()));
  for (const std::string& order : hand_written)
    f.variants.push_back({"bordered:" + order, "hand-written", order,
                          load_testdata(f.name + "_" + order + ".loop"), {},
                          {}});
  return f;
}

Family transformed(std::string name, const std::string& file,
                   std::vector<i64> sizes, const char* outer,
                   const char* inner, i64 factor) {
  TransformSession session(load_testdata(file));
  CandidateResult r =
      session.evaluate(loop_skew(session.layout(), outer, inner, factor));
  if (!r.program) {
    std::fprintf(stderr, "bench_orders: %s: skew %s %s %lld is illegal\n",
                 name.c_str(), outer, inner, static_cast<long long>(factor));
    std::exit(1);
  }
  Family f{std::move(name), std::move(sizes), {}, 0};
  f.variants.push_back({"source", "source", "", session.program(), {}, {}});
  f.variants.push_back({std::string("skew ") + outer + " " + inner + " " +
                            std::to_string(factor),
                        "transform", "", std::move(*r.program), {}, {}});
  return f;
}

bool same_bits(const Memory& a, const Memory& b) {
  if (a.arrays().size() != b.arrays().size()) return false;
  for (const auto& [name, arr] : a.arrays()) {
    if (!b.has(name)) return false;
    const std::vector<double>& x = arr.data();
    const std::vector<double>& y = b.at(name).data();
    if (x.size() != y.size() ||
        std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

[[noreturn]] void mismatch(const Family& f, const Variant& v,
                           const char* engine, i64 n) {
  std::fprintf(stderr,
               "bench_orders: %s %s is NOT bit-identical to its source "
               "(%s, N=%lld)\n",
               f.name.c_str(), v.name.c_str(), engine,
               static_cast<long long>(n));
  std::abort();
}

// Bit-identity on both engines at N = kCheckN, before any timing.
void check(const Family& f) {
  for (const Variant& v : f.variants)
    for (ExecEngine engine : {ExecEngine::kVm, ExecEngine::kNative})
      if (!verify_equivalence(f.source(), v.program, {{"N", kCheckN}},
                              FillKind::kSpd, 1, engine)
               .equivalent)
        mismatch(f, v, engine == ExecEngine::kVm ? "VM" : "native", kCheckN);
}

// Time every variant natively at every size: best of at least
// `min_runs` runs, more while `budget_s` lasts. The source's first run
// at a size is the reference every other variant's first run must
// match.
void time_family(Family& f, int min_runs, double budget_s) {
  InterpOptions opts;
  opts.max_instances = i64{1} << 40;
  for (Variant& v : f.variants) {
    v.native = native_prepare(v.program);
    if (!v.native) {
      std::fprintf(stderr, "bench_orders: cannot compile %s %s\n",
                   f.name.c_str(), v.name.c_str());
      std::exit(1);
    }
  }
  for (i64 n : f.sizes) {
    const std::map<std::string, i64> params{{"N", n}};
    Memory initial;
    declare_arrays(f.source(), params, initial);
    fill_spd(initial, 1);
    Memory expected;
    Memory work;
    for (Variant& v : f.variants) {
      double best = 0;
      double spent = 0;
      for (int run = 0; run < min_runs || spent < budget_s; ++run) {
        work = initial;
        const double t0 = bench::now_s();
        native_run(*v.native, params, work, opts);
        const double dt = bench::now_s() - t0;
        if (run == 0) {
          if (&v == &f.variants[0])
            expected = work;
          else if (!same_bits(work, expected))
            mismatch(f, v, "native", n);
        }
        best = run == 0 ? dt : std::min(best, dt);
        spent += dt;
      }
      v.best_ms.push_back(best * 1e3);
      std::printf("%-13s N=%5lld %-18s %-5s %10.3f ms\n", f.name.c_str(),
                  static_cast<long long>(n), v.name.c_str(), v.order.c_str(),
                  best * 1e3);
    }
  }
}

// max/min of the family's best times at size index s.
double spread(const Family& f, size_t s) {
  double lo = 0, hi = 0;
  for (const Variant& v : f.variants) {
    const double ms = v.best_ms[s];
    lo = lo == 0 ? ms : std::min(lo, ms);
    hi = std::max(hi, ms);
  }
  return lo > 0 ? hi / lo : 0;
}

void emit(std::ostream& js, const Family& f) {
  js << "{\"name\":\"" << f.name << "\",\"sizes\":[";
  for (size_t s = 0; s < f.sizes.size(); ++s)
    js << (s ? "," : "") << f.sizes[s];
  js << "],\"bit_identical\":true,\"programs\":[";
  for (size_t i = 0; i < f.variants.size(); ++i) {
    const Variant& v = f.variants[i];
    js << (i ? "," : "") << "{\"name\":\"" << v.name << "\",\"how\":\""
       << v.how << "\"";
    if (!v.order.empty()) js << ",\"order\":\"" << v.order << "\"";
    js << ",\"best_ms\":[";
    for (size_t s = 0; s < v.best_ms.size(); ++s)
      js << (s ? "," : "") << v.best_ms[s];
    js << "]}";
  }
  js << "],\"spreads\":[";
  for (size_t s = 0; s < f.sizes.size(); ++s)
    js << (s ? "," : "") << "{\"n\":" << f.sizes[s]
       << ",\"spread\":" << spread(f, s) << "}";
  js << "]}";
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args defaults{"BENCH_orders.json", 0.25};
  const bench::Args args = bench::parse_args(argc, argv, defaults);
  const int min_runs = args.budget_s < defaults.budget_s ? 1 : 3;

  std::string why;
  if (!native_available(&why)) {
    std::printf("native engine unavailable (%s)\n", why.c_str());
    std::ofstream(args.out)
        << "{\"benchmark\":\"bench_orders\",\"unavailable\":true}\n";
    std::printf("wrote %s (native unavailable)\n", args.out.c_str());
    return 0;
  }

  std::vector<Family> families;
  families.push_back(factorization("cholesky", load_testdata("cholesky.loop"),
                                   {64, 128, 256, 512, 1024}, {"ijk", "ikj"}));
  families.push_back(
      factorization("lu", gallery::lu(), {64, 128, 256, 512}, {}));
  families.push_back(transformed("skew_example", "skew_example.loop",
                                 {256, 512, 1024, 2048, 4096}, "I", "J", -1));
  families.push_back(transformed("stencil", "stencil.loop",
                                 {256, 512, 1024, 2048}, "I", "J", 1));

  for (const Family& f : families) check(f);
  for (Family& f : families) time_family(f, min_runs, args.budget_s);

  std::ostringstream js;
  js << "{\"benchmark\":\"bench_orders\",\"unavailable\":false"
     << ",\"compiler\":\"" << native_compiler() << "\",\"check_n\":" << kCheckN
     << ",\"bit_identical\":true,\"reachable_cholesky_orders\":"
     << families[0].reachable << ",\"cholesky_orderings\":6,\"families\":[";
  for (size_t i = 0; i < families.size(); ++i) {
    if (i) js << ",";
    emit(js, families[i]);
  }
  js << "]}\n";
  std::ofstream(args.out) << js.str();
  std::printf("wrote %s\n", args.out.c_str());
  for (const Family& f : families) {
    const size_t s = f.sizes.size() - 1;
    std::printf("%-13s N=%5lld spread %.2fx\n", f.name.c_str(),
                static_cast<long long>(f.sizes[s]), spread(f, s));
  }
  return 0;
}
