// C5 — §1's efficiency claim: the restricted framework keeps analysis
// cheap ("we can use standard dependence abstractions like distances
// and directions ... look for good transformations efficiently").
//
// Measures, on the paper's programs and a generated family of wider
// nests: dependence analysis, the legality test, and the completion
// procedure. Includes the padding-mode ablation from DESIGN.md
// (diagonal vs zero padding), reporting the dependence count, and C9:
// the related-work baseline (per-statement affine schedules found by
// ILP-validated search) next to the completion procedure.
//
// Emits BENCH_framework.json (override with --out=PATH); see
// bench/harness.hpp for --benchmark_min_time.
#include <sstream>
#include <string>
#include <vector>

#include "dependence/analyzer.hpp"
#include "harness.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "pipeline/search.hpp"
#include "support/stats.hpp"
#include "transform/completion.hpp"
#include "transform/exact_legality.hpp"
#include "transform/schedule_baseline.hpp"
#include "transform/transforms.hpp"

namespace {

using namespace inlt;

Program make_wide_nest(int statements) {
  // do K { S0; do J1 { T1 }; S1; do J2 { T2 }; ... } — an imperfect
  // nest whose width scales the number of access pairs quadratically.
  std::ostringstream os;
  os << "param N\ndo K = 1, N\n";
  for (int s = 0; s < statements; ++s) {
    os << "  S" << s << ": A(K, " << s << ") = A(K - 1, " << s << ") + 1.0\n";
    os << "  do J" << s << " = K, N\n";
    os << "    T" << s << ": B(J" << s << ", " << s << ") = A(K, " << s
       << ") * 2.0\n  end\n";
  }
  os << "end\n";
  return parse_program(os.str());
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args =
      bench::parse_args(argc, argv, {"BENCH_framework.json", 0.5});
  std::vector<bench::Measurement> rows;
  // Facts an op computes are attached after it ran:
  // rows.back().facts = {...}.
  auto timed = [&](std::string name, auto&& op) {
    rows.push_back({std::move(name), bench::time_op(args.budget_s, op), {}});
  };

  const Program chol = gallery::cholesky();
  const IvLayout chol_layout(chol);
  const DependenceSet chol_deps = analyze_dependences(chol_layout);
  const i64 chol_ndeps = static_cast<i64>(chol_deps.deps.size());

  timed("dependence_analysis_cholesky",
        [&] { analyze_dependences(chol_layout); });
  rows.back().facts = {{"deps", chol_ndeps}};

  for (int width = 1; width <= 9; width += 2) {
    const Program p = make_wide_nest(width);
    const IvLayout layout(p);
    i64 ndeps = 0;
    timed("dependence_analysis_width_" + std::to_string(width), [&] {
      ndeps = static_cast<i64>(analyze_dependences(layout).deps.size());
    });
    rows.back().facts = {{"deps", ndeps}, {"stmts", 2 * width}};
  }

  for (PadMode pad : {PadMode::kDiagonal, PadMode::kZero}) {
    i64 ndeps = 0;
    timed(pad == PadMode::kDiagonal ? "padding_diagonal" : "padding_zero",
          [&] {
            ndeps = static_cast<i64>(
                analyze_dependences(chol_layout, {pad, 8}).deps.size());
          });
    rows.back().facts = {{"deps", ndeps}};
  }

  // The generality/cost trade-off of §1, measured: exact ILP legality
  // re-solves integer programs per access pair, the hull test is pure
  // interval arithmetic.
  const IntMat identity = IntMat::identity(chol_layout.size());
  const AstRecovery rec = recover_ast(chol_layout, identity);
  timed("exact_legality_cholesky",
        [&] { check_legality_exact(chol_layout, identity, rec); });
  timed("legality_cholesky",
        [&] { check_legality(chol_layout, chol_deps, identity); });

  // The §6 experiment: complete the left-looking partial row.
  IntVec first(chol_layout.size(), 0);
  first[chol_layout.loop_position("L")] = 1;
  timed("completion_cholesky",
        [&] { complete_transformation(chol_layout, chol_deps, {first}); });

  for (int width = 1; width <= 9; width += 2) {
    const Program p = make_wide_nest(width);
    const IvLayout layout(p);
    const DependenceSet deps = analyze_dependences(layout);
    timed("completion_width_" + std::to_string(width),
          [&] { complete_transformation(layout, deps, {}); });
    rows.back().facts = {{"stmts", 2 * width}};
  }

  // Searching a space: what a session amortizes over a batch of
  // evaluate() calls (legality, then codegen of the legal orders), and
  // what the memoized incremental engine saves on top by deciding the
  // same space without generating code.
  SessionOptions one_thread;
  one_thread.threads = 1;
  std::vector<IntMat> orders;
  {
    PermutationSkewGenerator gen(chol_layout, SearchSpace{});
    orders = materialize_candidates(chol_layout, gen);
  }
  const double n_orders = static_cast<double>(orders.size());
  auto evaluate_orders = [&](TransformSession& session) {
    i64 legal = 0;
    for (const IntMat& m : orders) legal += session.evaluate(m).legal ? 1 : 0;
    return legal;
  };
  i64 legal = 0;
  timed("session_cold", [&] {
    TransformSession session(chol, one_thread);  // re-analyzes every run
    legal = evaluate_orders(session);
  });
  rows.back().facts = {{"candidates", n_orders}, {"legal", legal}};

  TransformSession session(chol, one_thread);
  evaluate_orders(session);  // prime the projection cache
  const StatsSnapshot before = Stats::global().snapshot();
  timed("session_warm", [&] { legal = evaluate_orders(session); });
  // A fully warm batch serves every projection from the cache.
  rows.back().facts = {
      {"candidates", n_orders},
      {"legal", legal},
      {"cache_misses",
       (Stats::global().snapshot() - before).counter("fm.cache_misses")}};
  const double warm_s = rows.back().t.seconds_per_op;

  const SearchOptions filter{.mode = SearchMode::kLegalityOnly};
  session.search(SearchSpace{}, filter);  // build the engine's memo trie
  i64 decided = 0;
  timed("search_legality_only_cholesky_orders", [&] {
    const SearchResult res = session.search(SearchSpace{}, filter);
    decided = res.stats.candidates_total;
    legal = res.stats.legal;
  });
  rows.back().facts = {
      {"candidates", decided},
      {"legal", legal},
      {"throughput_vs_session_warm", warm_s / rows.back().t.seconds_per_op}};

  // C9 baseline: compare with completion_cholesky — the gap is the
  // paper's whole argument.
  ScheduleSearchOptions wide;
  wide.coef_max = 3;  // 1-D Cholesky schedules need slope 3 in K
  i64 queries = 0;
  i64 found = 0;
  timed("baseline_schedule_search_cholesky", [&] {
    ScheduleSearchStats stats;
    found = find_schedule(chol_layout, wide, &stats).has_value() ? 1 : 0;
    queries = stats.candidates_checked;
  });
  rows.back().facts = {{"ilp_queries", queries}, {"found", found}};

  bench::write_report("bench_framework", rows, args.out);
  return 0;
}
