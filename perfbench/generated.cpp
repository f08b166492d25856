// run_generated: execute generated code. The program set is the
// source and every legal pure loop order of Cholesky and LU (the
// skew-bound-0 search), compiled natively during set-up and run at
// N=512 in a seed-shuffled order; next to it, each source's wavefront
// schedule runs on the VM serially and partitioned at N=256.
//
// An iteration re-ranks the order space (the rank pipeline: legality
// walk + cost, no code) to pick the orders, then runs them. Every
// native result is compared bit for bit with the source's, and, at a
// small N, with the AST walker's.
#include <algorithm>
#include <cstring>
#include <random>

#include "bench.hpp"
#include "exec/native.hpp"
#include "exec/parallel.hpp"
#include "exec/vm.hpp"
#include "transform/parallel.hpp"

namespace perfbench {

namespace {

constexpr i64 kRunN = 512;    // native order runs
constexpr i64 kWaveN = 256;   // VM wavefront runs
constexpr i64 kCheckN = 24;   // native vs AST walker

/// The order search: inltc search --full --cost --skew-bound 0.
const SearchWorkload kOrders{"run_generated", {"cholesky", "lu"}, {0, 1},
                             /*full=*/true, /*tile=*/false, /*verify_n=*/0,
                             inlt::ExecEngine::kNative, /*top_k=*/0,
                             /*cold_native=*/false};

std::map<std::string, i64> params(i64 n) { return {{"N", n}}; }

inlt::InterpOptions run_options() {
  inlt::InterpOptions o;
  o.max_instances = i64{1} << 40;
  return o;
}

bool same_bits(const inlt::Memory& a, const inlt::Memory& b) {
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

inlt::Memory filled(const inlt::Program& p, i64 n, unsigned seed) {
  inlt::Memory m;
  inlt::declare_arrays(p, params(n), m);
  inlt::fill_spd(m, seed);
  return m;
}

/// One natively compiled program of the set.
struct Kernel {
  std::string name;  ///< "<input>/source" or "<input>/#<index>"
  size_t input = 0;  ///< index into the prepared inputs
  inlt::Program program;
  std::shared_ptr<inlt::NativeKernel> native;
};

/// Everything set-up prepares for one input.
struct PreparedInput {
  std::string name;
  inlt::Program source;
  Outcome orders;  ///< the order search's outcome (rank-1 included)
  std::vector<i64> order_indices;
  inlt::Memory run_initial;   ///< N=kRunN, filled
  inlt::Memory run_expected;  ///< the source's native result
  inlt::Memory wave_initial;  ///< N=kWaveN, filled
  std::vector<std::string> partition;  ///< the source wavefront schedule
  std::unique_ptr<inlt::VmProgram> serial;
};

struct Prepared {
  std::vector<PreparedInput> inputs;
  std::vector<Kernel> kernels;
};

/// Add the source and its generated orders to `p`, compiled natively
/// (the caller empties the handle LRU first, so a warm disk cache
/// means a cache load, not a compile).
void prepare_input(const Config& cfg, Prepared* p, const std::string& name,
                   const inlt::Program& source, inlt::SearchResult orders,
                   SpanRecorder* rec, const inlt::IvLayout& layout,
                   const inlt::DependenceSet& deps) {
  const size_t at = p->inputs.size();
  PreparedInput in;
  in.name = name;
  in.source = source;
  auto add = [&](std::string name, inlt::Program prog) {
    Kernel k{std::move(name), at, std::move(prog), nullptr};
    k.native = in_span(rec, "exec.native_prepare",
                       [&] { return inlt::native_prepare(k.program); });
    p->kernels.push_back(std::move(k));
  };
  in.orders = outcome_of(orders, kOrders);
  add(in.name + "/source", in.source);
  for (inlt::SearchHit& h : orders.hits) {
    in.order_indices.push_back(h.index);
    add(in.name + "/#" + std::to_string(h.index),
        std::move(*h.result.program));
  }
  in.run_initial = filled(in.source, kRunN, cfg.seed);
  in.wave_initial = filled(in.source, kWaveN, cfg.seed);
  in.partition = inlt::source_parallel_schedule(layout, deps).partition;
  // Compiled against a scratch copy; run_all rebinds it to the memory
  // of each run.
  inlt::Memory bind = in.wave_initial;
  in.serial = in_span(rec, "exec.vm_compile", [&] {
    return std::make_unique<inlt::VmProgram>(in.source, params(kWaveN), bind);
  });
  p->inputs.push_back(std::move(in));
}

/// Set-up through the user-facing pipeline: a session per input, the
/// order search, native compilation, arrays, the VM compile.
std::unique_ptr<Prepared> prepare(const Config& cfg,
                                  const std::vector<Input>& inputs,
                                  int threads) {
  inlt::native_lru_clear();
  auto p = std::make_unique<Prepared>();
  for (const Input& in : inputs) {
    inlt::TransformSession s = inlt::TransformSession::from_source(
        in.source, session_options(threads));
    prepare_input(cfg, p.get(), in.name, s.program(),
                  s.search(kOrders.space, search_options(kOrders, cfg.seed)),
                  nullptr, s.layout(), s.dependences());
  }
  return p;
}

/// The same set-up re-driven through the layers with spans.
std::unique_ptr<Prepared> prepare_traced(const Config& cfg,
                                         const std::vector<Input>& inputs,
                                         SpanRecorder* rec,
                                         std::map<std::string, i64>* work) {
  inlt::native_lru_clear();
  auto p = std::make_unique<Prepared>();
  for (const Input& in : inputs) {
    std::unique_ptr<Analyzed> a = analyze_traced(in, rec);
    prepare_input(cfg, p.get(), in.name, a->program,
                  search_traced(cfg, kOrders, *a, rec, work), rec,
                  *a->layout, a->deps);
  }
  return p;
}

/// Per-program and per-schedule run times of one iteration (ms).
struct RunTimes {
  std::map<std::string, std::vector<double>> native_ms;
  std::map<std::string, std::vector<double>> serial_ms;
  std::map<std::string, std::vector<double>> partitioned_ms;
};

double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

/// Run every kernel once (shuffled) and each wavefront serially and
/// partitioned; returns the summed run time in seconds.
double run_all(const Config& cfg, Prepared& p, std::mt19937_64& rng,
               RunTimes* times, Checks* checks, SpanRecorder* rec) {
  std::vector<size_t> order(p.kernels.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  const inlt::InterpOptions opts = run_options();
  double total_ms = 0;
  inlt::Memory work;
  for (size_t i : order) {
    Kernel& k = p.kernels[i];
    if (!k.native) continue;  // check_prepared counted the failure
    PreparedInput& in = p.inputs[k.input];
    work = in.run_initial;
    const auto t0 = Clock::now();
    {
      Scope s(rec, "exec.native_run");
      inlt::native_run(*k.native, params(kRunN), work, opts);
    }
    const double ms = ms_since(t0);
    total_ms += ms;
    times->native_ms[k.name].push_back(ms);
    checks->expect(same_bits(work, in.run_expected),
                   k.name + ": native result differs from the source's");
  }
  for (PreparedInput& in : p.inputs) {
    inlt::Memory serial = in.wave_initial;
    in.serial->rebind(serial);
    auto t0 = Clock::now();
    {
      Scope s(rec, "exec.serial_run");
      in.serial->run(opts);
    }
    double ms = ms_since(t0);
    total_ms += ms;
    times->serial_ms[in.name].push_back(ms);

    inlt::Memory par = in.wave_initial;
    t0 = Clock::now();
    {
      Scope s(rec, "exec.partitioned_run");
      inlt::run_partitioned(in.source, params(kWaveN), par, in.partition,
                            cfg.threads, opts);
    }
    ms = ms_since(t0);
    total_ms += ms;
    times->partitioned_ms[in.name].push_back(ms);
    checks->expect(same_bits(serial, par),
                   in.name + ": partitioned VM result differs from serial");
  }
  return total_ms * 1e-3;
}

/// The rank pipeline over the order space, one call per input on a
/// fresh session; checks it picks the prepared orders. Returns the
/// summed wall time of the calls.
double rank_orders(const Config& cfg, const std::vector<Input>& inputs,
                   const Prepared& p, int threads, Checks* checks) {
  SearchWorkload rank = kOrders;
  rank.full = false;
  const inlt::SearchOptions sopts = search_options(rank, cfg.seed);
  double total = 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    inlt::TransformSession s = inlt::TransformSession::from_source(
        inputs[i].source, session_options(threads));
    const auto t0 = Clock::now();
    inlt::SearchResult r = s.search(rank.space, sopts);
    total += seconds_since(t0);
    std::vector<i64> legal;
    for (const inlt::SearchHit& h : r.hits) legal.push_back(h.index);
    const PreparedInput& in = p.inputs[i];
    checks->expect(legal == in.order_indices &&
                       outcome_of(r, rank).ranked == in.orders.ranked,
                   in.name + ": rank picked other orders than set-up");
  }
  return total;
}

/// Untimed checks after set-up: each kernel against the AST walker at
/// a small N, and the source's native result at kRunN as the expected
/// state of every run.
void check_prepared(const Config& cfg, Prepared& p, Checks* checks) {
  const inlt::InterpOptions native_opts = run_options();
  inlt::InterpOptions walker_opts = run_options();
  walker_opts.engine = inlt::ExecEngine::kAstWalker;
  for (const Kernel& k : p.kernels) {
    const PreparedInput& in = p.inputs[k.input];
    checks->expect(k.native != nullptr, k.name + ": native compile failed");
    if (!k.native) continue;
    inlt::Memory native = filled(in.source, kCheckN, cfg.seed);
    inlt::Memory walker = native;
    inlt::native_run(*k.native, params(kCheckN), native, native_opts);
    inlt::interpret(k.program, params(kCheckN), walker, walker_opts);
    checks->expect(same_bits(native, walker),
                   k.name + ": native result differs from the AST walker's");
  }
  for (PreparedInput& in : p.inputs) {
    checks->expect(in.orders.legal == 6 && in.order_indices.size() == 6,
                   in.name + ": expected 6 legal loop orders");
    in.run_expected = in.run_initial;
    for (const Kernel& k : p.kernels)
      if (k.name == in.name + "/source" && k.native)
        inlt::native_run(*k.native, params(kRunN), in.run_expected,
                         native_opts);
  }
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::map<std::string, double> medians(
    const std::map<std::string, std::vector<double>>& m) {
  std::map<std::string, double> out;
  for (const auto& [k, v] : m) out[k] = median(v);
  return out;
}

/// The program-set fields both modes report.
void describe(Json& j, const Prepared& p, const RunTimes& t) {
  Json rank1, sources, outcomes;
  for (const PreparedInput& in : p.inputs) {
    sources.str(in.name, in.name + "/source");
    rank1.str(in.name, in.orders.ranked.empty()
                           ? ""
                           : in.name + "/#" +
                                 std::to_string(in.orders.ranked.front()));
    outcomes.raw(in.name, outcome_json(in.orders));
  }
  j.raw("sources", sources.done())
      .raw("rank1", rank1.done())
      .num_map("native_ms", medians(t.native_ms))
      .num_map("serial_ms", medians(t.serial_ms))
      .num_map("partitioned_ms", medians(t.partitioned_ms))
      .raw("outcomes", outcomes.done());
}

i64 candidates_of(const Prepared& p) {
  i64 n = 0;
  for (const PreparedInput& in : p.inputs) n += in.orders.candidates;
  return n;
}

std::string measure(const Config& cfg, const std::vector<Input>& inputs,
                    Checks checks) {
  // Every iteration sets up afresh (the first one may also fill the
  // on-disk compile cache); set-up samples are spread over the run like
  // the pipeline samples.
  std::mt19937_64 rng(cfg.seed);
  RunTimes times;
  std::unique_ptr<Prepared> p;
  std::vector<inlt::Memory> expected;
  std::vector<double> setup_s, iter_s, search_s;
  const auto start = Clock::now();
  while (keep_measuring(start, cfg.seconds, iter_s.size())) {
    p.reset();  // release the kernels before the LRU is emptied
    settle_heap();
    {
      // Set-up runs on one CPU (PinToNextCpu), so its order search
      // runs with one session thread.
      PinToNextCpu pin;
      const auto t0 = Clock::now();
      p = prepare(cfg, inputs, 1);
      setup_s.push_back(seconds_since(t0));
    }
    if (expected.empty()) {
      check_prepared(cfg, *p, &checks);
      for (const PreparedInput& in : p->inputs)
        expected.push_back(in.run_expected);
    } else {
      for (size_t i = 0; i < expected.size(); ++i)
        p->inputs[i].run_expected = expected[i];
    }
    const double rank = rank_orders(cfg, inputs, *p, cfg.threads, &checks);
    search_s.push_back(rank);
    iter_s.push_back(rank + run_all(cfg, *p, rng, &times, &checks, nullptr));
  }
  Json j;
  j.str("workload", "run_generated")
      .integer("threads", cfg.threads)
      .nums("setup_s", setup_s)
      .nums("iter_s", iter_s)
      .nums("search_s", search_s)
      .integer("candidates_per_iter", candidates_of(*p));
  describe(j, *p, times);
  return finish(j, checks);
}

/// Trace mode: alternate an untraced set-up + run at threads=1 with
/// the traced re-drive of both. The correctness checks between set-up
/// and runs sit outside the spans.
std::string trace(const Config& cfg, const std::vector<Input>& inputs,
                  Checks checks) {
  SpanRecorder rec;
  std::mt19937_64 rng(cfg.seed), untraced_rng(cfg.seed);
  // Only the traced runs' times are reported.
  RunTimes times, untraced_times;
  std::vector<double> traced_s, untraced_s;
  std::vector<std::map<std::string, i64>> counts;
  // Warm-up, not recorded: the first iteration in a process pays
  // first-touch costs neither side should carry.
  std::unique_ptr<Prepared> p = prepare(cfg, inputs, 1);
  check_prepared(cfg, *p, &checks);
  run_all(cfg, *p, untraced_rng, &untraced_times, &checks, nullptr);
  const auto start = Clock::now();
  for (int it = 0; it < 2 || seconds_since(start) < cfg.seconds; ++it) {
    p.reset();
    settle_heap();
    auto t0 = Clock::now();
    std::unique_ptr<Prepared> u = prepare(cfg, inputs, 1);
    double wall = seconds_since(t0);
    check_prepared(cfg, *u, &checks);
    t0 = Clock::now();
    run_all(cfg, *u, untraced_rng, &untraced_times, &checks, nullptr);
    untraced_s.push_back(wall + seconds_since(t0));
    std::vector<Outcome> untraced;
    for (const PreparedInput& in : u->inputs) untraced.push_back(in.orders);
    u.reset();

    rec.set_iteration(it);
    std::map<std::string, i64> work;
    settle_heap();
    inlt::StatsSnapshot before = inlt::Stats::global().snapshot();
    {
      Scope root(&rec, "pipeline");
      p = prepare_traced(cfg, inputs, &rec, &work);
    }
    add_counts(&work, layer_counts(inlt::Stats::global().snapshot() - before));
    check_prepared(cfg, *p, &checks);
    before = inlt::Stats::global().snapshot();
    {
      Scope root(&rec, "pipeline");
      run_all(cfg, *p, rng, &times, &checks, &rec);
    }
    add_counts(&work, layer_counts(inlt::Stats::global().snapshot() - before));
    counts.push_back(std::move(work));
    traced_s.push_back(static_cast<double>(rec.root_ns(it)) * 1e-9);

    std::vector<Outcome> traced;
    for (const PreparedInput& in : p->inputs) traced.push_back(in.orders);
    checks.expect(traced == untraced,
                  "run_generated: traced outcome differs from untraced");
  }
  Json j;
  j.str("workload", "run_generated");
  trace_fields(j, cfg, rec, traced_s, untraced_s, counts, &checks);
  j.integer("candidates_per_iter", candidates_of(*p));
  describe(j, *p, times);
  return finish(j, checks);
}

}  // namespace

std::string run_generated_workload(const Config& cfg, Checks checks) {
  std::vector<Input> inputs;
  for (const std::string& name : kOrders.inputs)
    inputs.push_back(load_input(cfg, name));
  return cfg.trace ? trace(cfg, inputs, std::move(checks))
                   : measure(cfg, inputs, std::move(checks));
}

}  // namespace perfbench
