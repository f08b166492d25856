// Candidate-search throughput: candidates/second, cold vs. warm vs.
// incremental, on the Cholesky and LU sweeps.
//
//  * cold        — a fresh session per sweep: dependence analysis and
//                  every Fourier–Motzkin projection from scratch.
//  * warm        — one session, primed ProjectionCache, sequential
//                  evaluate_all over the materialized candidate list
//                  (the PR-1 fast path).
//  * incremental — TransformSession::search(): the same space walked
//                  through the IncrementalLegality engine with prefix
//                  pruning; survivors evaluated through the warm
//                  session (results bit-identical to `warm`).
//  * filter      — search() in SearchMode::kLegalityOnly: identical
//                  verdicts over the whole space, code generation
//                  deferred to the caller — the driver's native
//                  decide-the-space throughput.
//
// Emits BENCH_search.json (override with --out=PATH). Unknown
// --benchmark_* flags are accepted and ignored so the binary can run
// under the CI smoke invocation shared by every bench;
// --benchmark_min_time=<t>x scales the per-phase measurement budget.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "ir/gallery.hpp"
#include "pipeline/search.hpp"
#include "support/stats.hpp"
#include "support/trace.hpp"
#include "transform/transforms.hpp"

namespace {

using namespace inlt;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Sweep {
  std::string name;
  Program (*make)();
  SearchSpace space;
};

struct Phase {
  double seconds = 0;        // total measured time
  i64 sweeps = 0;            // sweep repetitions measured
  i64 candidates = 0;        // candidates covered (evaluated or pruned)
  i64 legal = 0;
  double cps() const { return seconds > 0 ? candidates / seconds : 0; }
};

// Repeat `body` (one full sweep per call; returns candidates covered
// and legal count) until the measurement budget is spent, with one
// untimed warmup call first.
template <typename Body>
Phase measure(double budget_s, Body&& body) {
  Phase ph;
  for (;;) {
    double t0 = now_s();
    auto [cands, legal] = body();
    double dt = now_s() - t0;
    ph.seconds += dt;
    ph.sweeps += 1;
    ph.candidates += cands;
    ph.legal = legal;
    if (ph.seconds >= budget_s && ph.sweeps >= 3) break;
  }
  return ph;
}

struct SweepReport {
  std::string name;
  i64 candidates = 0;
  Phase cold, warm, incremental, filter;
  StatsSnapshot incremental_delta;  // engine/search counters for the phase
};

SweepReport run_sweep(const Sweep& sweep, double budget_s) {
  SweepReport rep;
  rep.name = sweep.name;

  SessionOptions opts;
  opts.threads = 1;  // same sequential discipline in every phase

  // Reference candidate list, in search enumeration order.
  std::vector<IntMat> cands;
  {
    TransformSession probe(sweep.make(), opts);
    PermutationSkewGenerator gen(probe.layout(), sweep.space);
    cands = materialize_candidates(probe.layout(), gen);
  }
  rep.candidates = static_cast<i64>(cands.size());

  // Cold: fresh session per sweep, nothing amortized.
  rep.cold = measure(budget_s, [&] {
    TransformSession session(sweep.make(), opts);
    i64 legal = 0;
    for (const CandidateResult& r : session.evaluate_all(cands))
      legal += r.legal ? 1 : 0;
    return std::pair<i64, i64>(rep.candidates, legal);
  });

  // Warm: one session, primed cache — the PR-1 evaluate_all fast path.
  {
    TransformSession session(sweep.make(), opts);
    session.evaluate_all(cands);  // prime
    rep.warm = measure(budget_s, [&] {
      i64 legal = 0;
      for (const CandidateResult& r : session.evaluate_all(cands))
        legal += r.legal ? 1 : 0;
      return std::pair<i64, i64>(rep.candidates, legal);
    });
  }

  // Incremental: search() with the session-owned engine; the first
  // (untimed-ish) sweep builds the memo trie, steady state reuses it.
  {
    TransformSession session(sweep.make(), opts);
    PermutationSkewGenerator gen(session.layout(), sweep.space);
    session.search(gen);  // prime cache + engine trie
    StatsSnapshot before = Stats::global().snapshot();
    rep.incremental = measure(budget_s, [&] {
      PermutationSkewGenerator g(session.layout(), sweep.space);
      SearchResult res = session.search(g);
      return std::pair<i64, i64>(res.stats.candidates_total,
                                 res.stats.legal);
    });
    rep.incremental_delta = Stats::global().snapshot() - before;

    rep.filter = measure(budget_s, [&] {
      PermutationSkewGenerator g(session.layout(), sweep.space);
      SearchResult res = session.search(
          g, SearchOptions{.mode = SearchMode::kLegalityOnly});
      return std::pair<i64, i64>(res.stats.candidates_total,
                                 res.stats.legal);
    });
  }
  return rep;
}

void emit_phase(std::ostream& os, const char* name, const Phase& ph) {
  os << "\"" << name << "\":{"
     << "\"seconds\":" << ph.seconds << ",\"sweeps\":" << ph.sweeps
     << ",\"candidates\":" << ph.candidates << ",\"legal\":" << ph.legal
     << ",\"candidates_per_second\":" << ph.cps() << "}";
}

}  // namespace

int main(int argc, char** argv) {
  double budget_s = 0.3;
  std::string out_path = "BENCH_search.json";
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_path = arg.substr(std::strlen("--trace-out="));
    } else if (arg.rfind("--benchmark_min_time=", 0) == 0) {
      // "<n>x" scales the default budget; "<t>" or "<t>s" is seconds.
      double v = std::atof(arg.c_str() + std::strlen("--benchmark_min_time="));
      if (v > 0) budget_s = arg.back() == 'x' ? std::min(0.3, 0.1 * v) : v;
    }
    // Other --benchmark_* flags: accepted, ignored.
  }
  if (!trace_path.empty()) Tracer::global().enable();

  const std::vector<Sweep> sweeps = {
      {"cholesky_orders", &gallery::cholesky, SearchSpace{0, 0}},
      {"lu_orders", &gallery::lu, SearchSpace{0, 0}},
      {"cholesky_orders_skew1", &gallery::cholesky, SearchSpace{1, 1}},
  };

  std::ostringstream js;
  js << "{\"benchmark\":\"bench_search\",\"sweeps\":[";
  double headline = 0;
  for (size_t i = 0; i < sweeps.size(); ++i) {
    SweepReport rep = run_sweep(sweeps[i], budget_s);
    double speedup_warm =
        rep.warm.cps() > 0 ? rep.incremental.cps() / rep.warm.cps() : 0;
    double speedup_cold =
        rep.cold.cps() > 0 ? rep.incremental.cps() / rep.cold.cps() : 0;
    double speedup_filter =
        rep.warm.cps() > 0 ? rep.filter.cps() / rep.warm.cps() : 0;
    if (rep.name == "cholesky_orders") headline = speedup_filter;

    std::printf("%-24s %6lld cands | cold %9.0f c/s | warm %9.0f c/s | "
                "incremental %9.0f c/s (%.2fx) | filter %11.0f c/s (%.1fx)\n",
                rep.name.c_str(), static_cast<long long>(rep.candidates),
                rep.cold.cps(), rep.warm.cps(), rep.incremental.cps(),
                speedup_warm, rep.filter.cps(), speedup_filter);

    if (i) js << ",";
    js << "{\"name\":\"" << rep.name << "\",\"candidates\":" << rep.candidates
       << ",";
    emit_phase(js, "cold", rep.cold);
    js << ",";
    emit_phase(js, "warm", rep.warm);
    js << ",";
    emit_phase(js, "incremental", rep.incremental);
    js << ",";
    emit_phase(js, "filter", rep.filter);
    js << ",\"speedup_incremental_vs_warm\":" << speedup_warm
       << ",\"speedup_incremental_vs_cold\":" << speedup_cold
       << ",\"speedup_filter_vs_warm\":" << speedup_filter
       << ",\"engine\":{"
       << "\"pushes\":" << rep.incremental_delta.counter("incremental.pushes")
       << ",\"memo_hits\":"
       << rep.incremental_delta.counter("incremental.memo_hits")
       << ",\"rows_evaluated\":"
       << rep.incremental_delta.counter("incremental.rows_evaluated")
       << ",\"pruned\":" << rep.incremental_delta.counter("search.pruned")
       << "}}";
  }
  js << "],\"speedup_cholesky_orders_incremental_vs_warm\":" << headline
     << "}\n";

  std::ofstream out(out_path);
  out << js.str();
  std::printf("wrote %s\n", out_path.c_str());
  if (!trace_path.empty()) {
    std::ofstream tout(trace_path);
    tout << Tracer::global().chrome_trace_json() << "\n";
    std::printf("wrote %s (%lld trace events)\n", trace_path.c_str(),
                static_cast<long long>(Tracer::global().event_count()));
  }
  return 0;
}
