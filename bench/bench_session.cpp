// TransformSession amortization: cold vs. warm candidate evaluation.
//
// The session layer exists because the paper's workflow probes many
// candidate matrices against one program. This benchmark quantifies
// what the session amortizes on the LU/Cholesky order sweeps:
//
//  * Cold      — a fresh session per batch: dependence analysis plus
//                every Fourier–Motzkin projection from scratch.
//  * Warm      — one session, repeated batches: analysis amortized and
//                projections served from the ProjectionCache.
//  * NoCache   — warm analysis but the projection cache cleared before
//                every batch, isolating the cache's contribution.
//  * Threads   — evaluate_all across the session thread pool.
//
// Candidates are the legal loop orders of the §6 Cholesky (KIJL
// permutations) and LU; per-candidate evaluation is legality + full
// code generation.
//
// Emits BENCH_session.json (override with --out=PATH); see
// bench/harness.hpp for --benchmark_min_time. --trace-out=FILE enables
// span tracing for the whole run and writes the merged Chrome trace.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "ir/gallery.hpp"
#include "pipeline/session.hpp"
#include "support/stats.hpp"
#include "support/trace.hpp"
#include "transform/transforms.hpp"

namespace {

using namespace inlt;

// The six K/I/J/L orders of the full Cholesky (test_six_permutations
// exercises the same sweep through the free functions).
std::vector<IntMat> cholesky_candidates(const IvLayout& layout) {
  std::vector<IntMat> out;
  const std::vector<std::vector<std::string>> orders = {
      {"K", "I", "J", "L"}, {"K", "J", "L", "I"}, {"K", "J", "I", "L"},
      {"J", "K", "L", "I"}, {"J", "L", "K", "I"}, {"I", "K", "J", "L"},
  };
  for (const auto& order : orders)
    out.push_back(loop_permutation(layout, order));
  return out;
}

// All 24 K/I/J/L orders of LU: illegal ones are rejected by the
// cached legality path, legal ones fully generated.
std::vector<IntMat> lu_candidates(const IvLayout& layout) {
  std::vector<IntMat> out;
  std::vector<std::string> order = {"I", "J", "K", "L"};
  do {
    out.push_back(loop_permutation(layout, order));
  } while (std::next_permutation(order.begin(), order.end()));
  return out;
}

int evaluate_batch(TransformSession& session,
                   const std::vector<IntMat>& cands) {
  int legal = 0;
  for (const IntMat& m : cands) legal += session.evaluate(m).legal ? 1 : 0;
  return legal;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args =
      bench::parse_args(argc, argv, {"BENCH_session.json", 0.5});
  std::string trace_path;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--trace-out=", 12) == 0)
      trace_path = argv[i] + 12;
  if (!trace_path.empty()) Tracer::global().enable();

  std::vector<bench::Measurement> rows;
  auto timed = [&](std::string name, auto&& op) {
    rows.push_back({std::move(name), bench::time_op(args.budget_s, op), {}});
  };
  const Program chol = gallery::cholesky();

  {
    int legal = 0;
    timed("session_cold", [&] {
      TransformSession session(chol);  // re-analyzes every run
      legal = evaluate_batch(session, cholesky_candidates(session.layout()));
      session.projection_cache().clear();
    });
    rows.back().facts = {{"legal", legal}};
  }

  {
    TransformSession session(chol);
    const std::vector<IntMat> cands = cholesky_candidates(session.layout());
    // Prime the cache once so every timed batch is fully warm.
    evaluate_batch(session, cands);
    const StatsSnapshot before = Stats::global().snapshot();
    timed("session_warm", [&] { evaluate_batch(session, cands); });
    const StatsSnapshot delta = Stats::global().snapshot() - before;
    // Fully warm batches must not miss: every projection is a cache hit.
    rows.back().facts = {
        {"cache_entries", static_cast<double>(session.projection_cache().size())},
        {"cache_hits_per_run",
         static_cast<double>(delta.counter("fm.cache_hits")) /
             static_cast<double>(rows.back().t.runs)},
        {"cache_misses", static_cast<double>(delta.counter("fm.cache_misses"))}};
  }

  {
    // Amortized analysis but no projection reuse: the gap to
    // session_warm is the cache's contribution alone.
    TransformSession session(chol);
    const std::vector<IntMat> cands = cholesky_candidates(session.layout());
    timed("session_warm_no_cache", [&] {
      session.projection_cache().clear();
      evaluate_batch(session, cands);
    });
  }

  for (int threads : {1, 4}) {
    SessionOptions opts;
    opts.threads = threads;
    TransformSession session(chol, opts);
    const std::vector<IntMat> cands = cholesky_candidates(session.layout());
    evaluate_batch(session, cands);  // warm the cache
    timed("session_evaluate_all_threads_" + std::to_string(threads),
          [&] { session.evaluate_all(cands); });
  }

  for (bool warm : {false, true}) {
    TransformSession session(gallery::lu());
    const std::vector<IntMat> cands = lu_candidates(session.layout());
    if (warm) evaluate_batch(session, cands);
    int legal = 0;
    timed(warm ? "session_lu_sweep_warm" : "session_lu_sweep_analysis_only",
          [&] {
            if (!warm) session.projection_cache().clear();
            legal = evaluate_batch(session, cands);
          });
    rows.back().facts = {{"candidates", static_cast<double>(cands.size())},
                         {"legal", legal}};
  }

  bench::write_report("bench_session", rows, args.out);
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    out << Tracer::global().chrome_trace_json() << "\n";
    std::printf("wrote %s (%lld trace events)\n", trace_path.c_str(),
                static_cast<long long>(Tracer::global().event_count()));
  }
  return 0;
}
