// The search workloads (verified_search_vm, native_search_cold,
// rank_space): the untraced measurement through TransformSession and
// the traced run that re-drives them layer by layer (traced.cpp).
#include <filesystem>
#include <memory>

#include "bench.hpp"
#include "exec/native.hpp"
#include "ir/parser.hpp"
#include "support/check.hpp"

namespace perfbench {

namespace {

const SearchWorkload kSearchWorkloads[] = {
    // inltc search --full --cost --tile --verify 64 --skew-bound 1
    {"verified_search_vm", {"cholesky", "lu"}, {1, 1}, /*full=*/true,
     /*tile=*/true, /*verify_n=*/64, inlt::ExecEngine::kVm, /*top_k=*/0,
     /*cold_native=*/false},
    // the same at --skew-bound 0 --engine native, compile caches empty
    {"native_search_cold", {"cholesky", "lu"}, {0, 1}, true, true, 64,
     inlt::ExecEngine::kNative, 0, true},
    // inltc rank --skew-bound 3 --skew-depth 2 (top 5)
    {"rank_space", {"cholesky"}, {3, 2}, false, false, 0,
     inlt::ExecEngine::kVm, 5, false},
};

}  // namespace

const SearchWorkload* find_search_workload(const std::string& name) {
  for (const SearchWorkload& w : kSearchWorkloads)
    if (w.name == name) return &w;
  return nullptr;
}

inlt::SessionOptions session_options(int threads) {
  inlt::SessionOptions o;
  o.threads = threads;
  return o;
}

inlt::SearchOptions search_options(const SearchWorkload& w, unsigned seed) {
  inlt::SearchOptions o;
  o.mode = w.full ? inlt::SearchMode::kFull : inlt::SearchMode::kLegalityOnly;
  o.cost = true;
  o.top_k = w.top_k;
  o.tile = w.tile;
  if (w.verify_n > 0) {
    o.verify_params = {{"N", w.verify_n}};
    o.verify_engine = w.engine;
    o.verify_seed = seed;
  }
  return o;
}

void reset_native_caches() {
  inlt::native_lru_clear();
  std::filesystem::path dir = inlt::native_cache_dir();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

Outcome outcome_of(const inlt::SearchResult& r, const SearchWorkload& w) {
  Outcome o;
  o.candidates = r.stats.candidates_total;
  o.legal = r.stats.legal;
  o.verified = r.stats.verified;
  o.verify_failed = r.stats.verify_failed;
  if (w.top_k > 0) {
    for (const inlt::SearchHit& h : r.hits) o.ranked.push_back(h.index);
    return o;
  }
  // Rank-1 of a full search: least estimated lines, then lowest index
  // (the order rank mode uses).
  const inlt::SearchHit* best = nullptr;
  for (const inlt::SearchHit& h : r.hits) {
    if (!h.cost) continue;
    if (!best || h.cost->total_lines < best->cost->total_lines) best = &h;
  }
  if (best) o.ranked.push_back(best->index);
  return o;
}

namespace {

/// The outcome of one search call: hits, and every verification run
/// ending equivalent (one operation per verified candidate).
void check_outcome(Checks& checks, const SearchWorkload& w, const Input& in,
                   const Outcome& o) {
  const std::string at = w.name + "/" + in.name + ": ";
  checks.expect(o.candidates > 0 && o.legal > 0, at + "empty search");
  if (w.verify_n > 0) {
    checks.expect(o.verified == o.legal, at + "not every legal hit verified");
    checks.tally(o.verified, o.verify_failed, at + "verify mismatch");
  }
}

/// Failures the Stats counters record over `delta`: verification runs
/// that did not execute, native kernels that fell back or did not
/// compile.
void check_counters(Checks& checks, const SearchWorkload& w,
                    const inlt::StatsSnapshot& delta) {
  checks.expect(delta.counter("exec.verify.errors") == 0,
                w.name + ": verify execution error");
  if (w.engine == inlt::ExecEngine::kNative) {
    checks.expect(delta.counter("exec.native.fallbacks") == 0,
                  w.name + ": native engine fell back to the VM");
    checks.expect(delta.counter("exec.native.compile_failures") == 0,
                  w.name + ": native compile failed");
  }
}

/// Wall times of one untraced iteration.
struct IterationTimes {
  double setup = 0;     ///< session construction (parse, layout, analysis)
  double pipeline = 0;  ///< the search calls
};

/// One untraced search call per input, each on a fresh session.
IterationTimes untraced_iteration(const SearchWorkload& w,
                                  const std::vector<Input>& inputs,
                                  unsigned seed, int threads,
                                  std::vector<Outcome>* outcomes,
                                  Checks* checks) {
  const inlt::SearchOptions sopts = search_options(w, seed);
  IterationTimes t;
  outcomes->clear();
  for (const Input& in : inputs) {
    settle_heap();
    std::unique_ptr<inlt::TransformSession> s;
    {
      PinToNextCpu pin;
      const auto t0 = Clock::now();
      // What TransformSession::from_source does, into a heap object.
      s = std::make_unique<inlt::TransformSession>(
          inlt::parse_program(in.source), session_options(threads));
      t.setup += seconds_since(t0);
    }
    if (w.cold_native) reset_native_caches();
    const inlt::StatsSnapshot before = inlt::Stats::global().snapshot();
    const auto t0 = Clock::now();
    inlt::SearchResult r = s->search(w.space, sopts);
    t.pipeline += seconds_since(t0);
    outcomes->push_back(outcome_of(r, w));
    if (checks) {
      check_outcome(*checks, w, in, outcomes->back());
      check_counters(*checks, w, inlt::Stats::global().snapshot() - before);
    }
  }
  return t;
}

std::string outcomes_json(const std::vector<Input>& inputs,
                          const std::vector<Outcome>& outcomes) {
  Json j;
  for (size_t i = 0; i < inputs.size(); ++i)
    j.raw(inputs[i].name, outcome_json(outcomes[i]));
  return j.done();
}

std::string measure_search(const Config& cfg, const SearchWorkload& w,
                           const std::vector<Input>& inputs, Checks checks) {
  // Every iteration sets up afresh, as the CLI does; set-up samples are
  // spread over the run like the pipeline samples.
  std::vector<double> setup_s, iter_s;
  std::vector<Outcome> first, outcomes;
  const auto start = Clock::now();
  while (keep_measuring(start, cfg.seconds, iter_s.size())) {
    const IterationTimes t = untraced_iteration(w, inputs, cfg.seed,
                                                cfg.threads, &outcomes,
                                                &checks);
    setup_s.push_back(t.setup);
    iter_s.push_back(t.pipeline);
    if (first.empty())
      first = outcomes;
    else
      checks.expect(outcomes == first,
                    w.name + ": outcome changed between iterations");
  }
  i64 candidates = 0;
  for (const Outcome& o : first) candidates += o.candidates;

  Json j;
  j.str("workload", w.name)
      .integer("threads", cfg.threads)
      .nums("setup_s", setup_s)
      .nums("iter_s", iter_s)
      .integer("candidates_per_iter", candidates)
      .raw("outcomes", outcomes_json(inputs, first));
  return finish(j, checks);
}

/// One traced iteration at threads=1: a root span per input, the
/// layer spans below it (search_traced).
std::vector<Outcome> traced_iteration(const Config& cfg,
                                      const SearchWorkload& w,
                                      const std::vector<Input>& inputs,
                                      SpanRecorder* rec,
                                      std::map<std::string, i64>* work) {
  std::vector<Outcome> out;
  for (const Input& in : inputs) {
    // Outside the root span: emptying the caches is the benchmark's
    // doing, not the pipeline's.
    if (w.cold_native) reset_native_caches();
    Scope root(rec, "pipeline");
    std::unique_ptr<Analyzed> a = analyze_traced(in, rec);
    out.push_back(outcome_of(search_traced(cfg, w, *a, rec, work), w));
  }
  return out;
}

/// Trace mode: alternate an untraced iteration at threads=1 (the
/// comparator for overhead and outcomes) with a traced re-drive.
std::string trace_search(const Config& cfg, const SearchWorkload& w,
                         const std::vector<Input>& inputs, Checks checks) {
  SpanRecorder rec;
  std::vector<double> traced_s, untraced_s;
  std::vector<std::map<std::string, i64>> counts;
  std::vector<Outcome> untraced, traced, first;
  // Warm-up, not recorded: the first iteration in a process pays
  // first-touch costs neither side should carry.
  untraced_iteration(w, inputs, cfg.seed, 1, &untraced, nullptr);
  const auto start = Clock::now();
  for (int it = 0; it < 2 || seconds_since(start) < cfg.seconds; ++it) {
    const IterationTimes t =
        untraced_iteration(w, inputs, cfg.seed, 1, &untraced, nullptr);
    untraced_s.push_back(t.setup + t.pipeline);

    rec.set_iteration(it);
    std::map<std::string, i64> work;
    settle_heap();
    const inlt::StatsSnapshot before = inlt::Stats::global().snapshot();
    traced = traced_iteration(cfg, w, inputs, &rec, &work);
    const inlt::StatsSnapshot delta = inlt::Stats::global().snapshot() - before;
    check_counters(checks, w, delta);
    add_counts(&work, layer_counts(delta));
    counts.push_back(std::move(work));
    traced_s.push_back(static_cast<double>(rec.root_ns(it)) * 1e-9);

    checks.expect(traced == untraced,
                  w.name + ": traced outcome differs from untraced");
    if (first.empty()) first = traced;
  }
  for (size_t i = 0; i < inputs.size(); ++i)
    check_outcome(checks, w, inputs[i], first[i]);

  i64 candidates = 0;
  for (const Outcome& o : first) candidates += o.candidates;
  Json j;
  j.str("workload", w.name);
  trace_fields(j, cfg, rec, traced_s, untraced_s, counts, &checks);
  j.integer("candidates_per_iter", candidates)
      .raw("outcomes", outcomes_json(inputs, first));
  return finish(j, checks);
}

}  // namespace

std::string run_search_workload(const Config& cfg, Checks checks) {
  const SearchWorkload* w = find_search_workload(cfg.workload);
  INLT_CHECK_MSG(w, "unknown workload " + cfg.workload);
  std::vector<Input> inputs;
  for (const std::string& name : w->inputs)
    inputs.push_back(load_input(cfg, name));
  return cfg.trace ? trace_search(cfg, *w, inputs, std::move(checks))
                   : measure_search(cfg, *w, inputs, std::move(checks));
}

}  // namespace perfbench
