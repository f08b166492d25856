// Model-vs-measured head-to-head: does the static cache-locality cost
// model (model/cost.hpp) rank candidates the way execution does?
//
// Three kernel families, each a set of legal transformations of one
// source nest:
//
//  * cholesky_orders — the expressible orderings of the Cholesky
//    update space (KJL, KLJ, LJK, LKJ; the two J-outer forms are not
//    expressible under diagonal padding — see test_six_permutations),
//    built by §6 completion from order rows.
//  * lu_orders — the same construction over the LU factorization
//    nest; the legal subset is discovered at runtime.
//  * skew_example — §5.5's imperfect nest, ranked end-to-end through
//    search() rank mode (legality filter + Complete + Cost stages)
//    over the permutation × skew space.
//
// For every variant the model's estimated distinct cache lines are
// compared against ground truth from the VM's cache probe
// (exec/interp.hpp CacheProbe) running the *generated* program: with
// bucket_bits sized well below the working set the probe approximates
// the miss count of a direct-mapped cache, so loop order matters, and
// the count is bit-deterministic across machines. Wall time per
// variant is reported but not asserted (machine-dependent).
//
// Asserted (exit 1 on failure), per family:
//  * the model's top-1 pick is among the measured-best variants;
//  * no pair of variants is ranked discordantly (model and probe
//    never disagree on which of two variants is better);
//  * Kendall tau is positive, unless every pair ties in both model
//    and measurement — that is the skew family's correct verdict (§5.5
//    skews reorder instances without changing any reference's
//    innermost stride), and mutual tie-out counts as agreement.
//
// Alongside, one rank of the Cholesky permutation × skew space at skew
// bound 2, depth 2 (75,000 candidates) records the per-search cost
// model's N_S memo: its hit ratio (machine-independent; gated in
// bench/baseline.json) and `search.inflight_peak`, the most survivors
// the streaming fan-out held unsettled at once (recorded as data).
//
// Each variant's wall time is the fastest of at least three runs, more
// while the --benchmark_min_time budget lasts; a budget scaled below
// the default, as in the CI smoke pass, runs each variant once.
//
// Emits BENCH_model.json (override with --out=PATH); see
// bench/harness.hpp for --benchmark_min_time.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "exec/interp.hpp"
#include "harness.hpp"
#include "ir/gallery.hpp"
#include "model/cost.hpp"
#include "pipeline/search.hpp"
#include "support/stats.hpp"
#include "transform/completion.hpp"

namespace {

using namespace inlt;

constexpr i64 kN = 96;          // problem size for probe + timing runs
constexpr int kBucketBits = 8;  // 256-line (16 KiB) direct-mapped "cache"

struct VariantRow {
  std::string name;
  double model_lines = 0;
  i64 measured_lines = 0;
  i64 accesses = 0;
  double seconds = 0;
};

struct FamilyReport {
  std::string name;
  std::vector<VariantRow> rows;
  double kendall_tau = 0;
  i64 pairs = 0, concordant = 0, discordant = 0, tied_both = 0;
  bool top1_match = false;
  std::string model_best, measured_best;
  bool pass() const {
    return top1_match && discordant == 0 &&
           (concordant > 0 || tied_both == pairs);
  }
};

// How long measure_program times one variant: the fastest of
// `min_runs` runs, more while `seconds` lasts.
struct RunBudget {
  int min_runs;
  double seconds;
};

// Probe + time one generated program at N = kN.
void measure_program(const Program& p, const RunBudget& budget,
                     VariantRow* row) {
  const std::map<std::string, i64> params = {{"N", kN}};
  {
    Memory mem;
    declare_arrays(p, params, mem);
    fill_spd(mem, 1);
    CacheProbe probe;
    probe.bucket_bits = kBucketBits;
    InterpOptions io;
    io.cache_probe = &probe;
    interpret(p, params, mem, io);
    row->measured_lines = probe.lines;
    row->accesses = probe.accesses;
  }
  double best = 0;
  double spent = 0;
  for (int rep = 0; rep < budget.min_runs || spent < budget.seconds;
       ++rep) {
    Memory mem;
    declare_arrays(p, params, mem);
    fill_spd(mem, 1);
    const double t0 = bench::now_s();
    interpret(p, params, mem, {});
    const double dt = bench::now_s() - t0;
    spent += dt;
    if (rep == 0 || dt < best) best = dt;
  }
  row->seconds = best;
}

// Finish a family: rank agreement between model and measured lines.
void finish(FamilyReport* fam) {
  const std::vector<VariantRow>& r = fam->rows;
  for (size_t i = 0; i < r.size(); ++i)
    for (size_t j = i + 1; j < r.size(); ++j) {
      ++fam->pairs;
      double dm = r[i].model_lines - r[j].model_lines;
      i64 dv = r[i].measured_lines - r[j].measured_lines;
      if (dm * static_cast<double>(dv) > 0)
        ++fam->concordant;
      else if (dm * static_cast<double>(dv) < 0)
        ++fam->discordant;
      else if (dm == 0 && dv == 0)
        ++fam->tied_both;
    }
  fam->kendall_tau =
      fam->pairs > 0 ? static_cast<double>(fam->concordant - fam->discordant) /
                           static_cast<double>(fam->pairs)
                     : 0;
  size_t mbest = 0, vbest = 0;
  for (size_t i = 1; i < r.size(); ++i) {
    if (r[i].model_lines < r[mbest].model_lines) mbest = i;
    if (r[i].measured_lines < r[vbest].measured_lines) vbest = i;
  }
  fam->model_best = r[mbest].name;
  fam->measured_best = r[vbest].name;
  // Ties in measured lines: the model pick counts as top-1 when it
  // measures as well as the best.
  fam->top1_match = r[mbest].measured_lines == r[vbest].measured_lines;
}

// Family 1/2: §6 completion from order rows (one unit row per named
// loop, outermost first); inexpressible orders are skipped.
FamilyReport order_family(const std::string& name, Program (*make)(),
                          const std::vector<std::string>& orders,
                          const RunBudget& budget) {
  FamilyReport fam;
  fam.name = name;
  TransformSession session(make());
  const IvLayout& layout = session.layout();
  const DependenceSet& deps = session.dependences();
  ModelOptions mopts;
  mopts.nominal_trip = kN;

  for (const std::string& order : orders) {
    std::vector<IntVec> rows;
    for (char c : order) {
      IntVec r(layout.size(), 0);
      r[layout.loop_position(std::string(1, c))] = 1;
      rows.push_back(std::move(r));
    }
    IntMat matrix;
    try {
      matrix = complete_transformation(layout, deps, rows).matrix;
    } catch (const TransformError&) {
      std::printf("%-16s %-6s inexpressible under diagonal padding\n",
                  name.c_str(), order.c_str());
      continue;
    }
    CandidateResult cand = session.evaluate(matrix);
    if (!cand.legal || !cand.program) {
      std::printf("%-16s %-6s codegen failed: %s\n", name.c_str(),
                  order.c_str(), cand.error.c_str());
      continue;
    }
    VariantRow row;
    row.name = order;
    row.model_lines = estimate_cost(layout, matrix, mopts).total_lines;
    measure_program(*cand.program, budget, &row);
    fam.rows.push_back(std::move(row));
  }
  finish(&fam);
  return fam;
}

// Family 3: rank mode end-to-end — search() with the Complete + Cost
// stages scores the whole legal permutation × skew space, then every
// hit's generated program is probed.
FamilyReport rank_family(const std::string& name, Program (*make)(),
                         SearchSpace space, const RunBudget& budget) {
  FamilyReport fam;
  fam.name = name;
  TransformSession session(make());
  SearchOptions sopts;
  sopts.mode = SearchMode::kLegalityOnly;
  sopts.cost = true;
  sopts.model.nominal_trip = kN;
  SearchResult res = session.search(space, sopts);
  for (const SearchHit& h : res.hits) {
    CandidateResult cand = session.evaluate(h.matrix);
    if (!cand.legal || !cand.program || !h.cost) continue;
    VariantRow row;
    std::ostringstream label;
    label << "candidate#" << h.index;
    row.name = label.str();
    row.model_lines = h.cost->total_lines;
    measure_program(*cand.program, budget, &row);
    fam.rows.push_back(std::move(row));
  }
  finish(&fam);
  return fam;
}

// The rank pipeline over a large space: memo effectiveness, scores vs
// full estimates and the fan-out's high-water mark, from the Stats
// delta of one search; plus the full estimates of the same search at
// one thread, where the top-K bound each candidate sees (and so the
// count) is deterministic.
struct RankSpaceReport {
  i64 candidates = 0, legal = 0, scores = 0, estimates = 0;
  i64 estimates_threads_1 = 0;
  i64 memo_hits = 0, memo_misses = 0, inflight_peak = 0;
  double seconds = 0;
  double hit_ratio() const {
    const i64 n = memo_hits + memo_misses;
    return n > 0 ? static_cast<double>(memo_hits) / static_cast<double>(n)
                 : 0;
  }
};

RankSpaceReport rank_space() {
  TransformSession session(gallery::cholesky());
  SearchOptions sopts;
  sopts.mode = SearchMode::kLegalityOnly;
  sopts.top_k = 5;
  Stats::global().counter("search.inflight_peak").store(0);
  const StatsSnapshot before = Stats::global().snapshot();
  const double t0 = bench::now_s();
  SearchResult res = session.search(SearchSpace{2, 2}, sopts);
  RankSpaceReport r;
  r.seconds = bench::now_s() - t0;
  const StatsSnapshot delta = Stats::global().snapshot() - before;
  r.candidates = res.stats.candidates_total;
  r.legal = res.stats.legal;
  r.scores = delta.counter("model.scores");
  r.estimates = delta.counter("model.estimates");
  r.memo_hits = delta.counter("model.direction_memo_hits");
  r.memo_misses = delta.counter("model.direction_memo_misses");
  r.inflight_peak = Stats::global().value("search.inflight_peak");

  SessionOptions one;
  one.threads = 1;
  TransformSession serial(gallery::cholesky(), one);
  const StatsSnapshot before1 = Stats::global().snapshot();
  serial.search(SearchSpace{2, 2}, sopts);
  r.estimates_threads_1 =
      (Stats::global().snapshot() - before1).counter("model.estimates");
  return r;
}

void emit_family(std::ostream& os, const FamilyReport& fam) {
  os << "{\"name\":\"" << fam.name << "\",\"n\":" << kN
     << ",\"bucket_bits\":" << kBucketBits << ",\"variants\":[";
  for (size_t i = 0; i < fam.rows.size(); ++i) {
    const VariantRow& r = fam.rows[i];
    os << (i ? "," : "") << "{\"name\":\"" << r.name
       << "\",\"model_lines\":" << r.model_lines
       << ",\"measured_lines\":" << r.measured_lines
       << ",\"accesses\":" << r.accesses << ",\"seconds\":" << r.seconds
       << "}";
  }
  os << "],\"kendall_tau\":" << fam.kendall_tau
     << ",\"pairs\":" << fam.pairs << ",\"concordant\":" << fam.concordant
     << ",\"discordant\":" << fam.discordant
     << ",\"tied_both\":" << fam.tied_both
     << ",\"top1_match\":" << (fam.top1_match ? "true" : "false")
     << ",\"model_best\":\"" << fam.model_best << "\",\"measured_best\":\""
     << fam.measured_best << "\"}";
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args defaults{"BENCH_model.json", 0.05};
  const bench::Args args = bench::parse_args(argc, argv, defaults);
  const RunBudget budget{args.budget_s < defaults.budget_s ? 1 : 3,
                         args.budget_s};

  std::vector<FamilyReport> fams;
  const std::vector<std::string> orders = {"KJL", "KLJ", "LJK",
                                           "LKJ", "JKL", "JLK"};
  fams.push_back(
      order_family("cholesky_orders", &gallery::cholesky, orders, budget));
  fams.push_back(order_family("lu_orders", &gallery::lu, orders, budget));
  fams.push_back(rank_family("skew_example", &gallery::augmentation_example,
                             SearchSpace{1, 1}, budget));

  bool all_pass = true;
  for (const FamilyReport& fam : fams) {
    for (const VariantRow& r : fam.rows)
      std::printf("%-16s %-14s model %12.0f lines | measured %9lld lines "
                  "(%lld accesses) | %8.4fs\n",
                  fam.name.c_str(), r.name.c_str(), r.model_lines,
                  static_cast<long long>(r.measured_lines),
                  static_cast<long long>(r.accesses), r.seconds);
    std::printf("%-16s tau=%+.3f (%lld/%lld/%lld conc/disc/tied)  "
                "model_best=%s measured_best=%s  %s\n",
                fam.name.c_str(), fam.kendall_tau,
                static_cast<long long>(fam.concordant),
                static_cast<long long>(fam.discordant),
                static_cast<long long>(fam.tied_both),
                fam.model_best.c_str(), fam.measured_best.c_str(),
                fam.pass() ? "PASS" : "FAIL");
    all_pass = all_pass && fam.pass();
  }

  const RankSpaceReport rs = rank_space();
  std::printf("rank_space       cholesky skew 2/2: %lld candidates, %lld "
              "legal, %lld scores, %lld estimates (%lld at 1 thread) | "
              "memo %lld hits / %lld misses (ratio %.4f) | inflight peak "
              "%lld | %.3fs\n",
              static_cast<long long>(rs.candidates),
              static_cast<long long>(rs.legal),
              static_cast<long long>(rs.scores),
              static_cast<long long>(rs.estimates),
              static_cast<long long>(rs.estimates_threads_1),
              static_cast<long long>(rs.memo_hits),
              static_cast<long long>(rs.memo_misses), rs.hit_ratio(),
              static_cast<long long>(rs.inflight_peak), rs.seconds);

  std::ostringstream js;
  js << "{\"benchmark\":\"bench_model\",\"families\":[";
  for (size_t i = 0; i < fams.size(); ++i) {
    if (i) js << ",";
    emit_family(js, fams[i]);
  }
  js << "],\"rank_space\":{\"candidates\":" << rs.candidates
     << ",\"legal\":" << rs.legal << ",\"scores\":" << rs.scores
     << ",\"estimates\":" << rs.estimates
     << ",\"estimates_threads_1\":" << rs.estimates_threads_1
     << ",\"memo_hits\":" << rs.memo_hits
     << ",\"memo_misses\":" << rs.memo_misses
     << ",\"memo_hit_ratio\":" << rs.hit_ratio()
     << ",\"inflight_peak\":" << rs.inflight_peak
     << ",\"seconds\":" << rs.seconds << "}";
  js << ",\"rank_agreement\":" << (all_pass ? "true" : "false") << "}\n";
  std::ofstream out(args.out);
  out << js.str();
  std::printf("wrote %s\n", args.out.c_str());
  return all_pass ? 0 : 1;
}
