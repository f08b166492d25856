#include "exec/interp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include <iostream>
#include <mutex>
#include <set>

#include "exec/native.hpp"
#include "exec/parallel.hpp"
#include "exec/ufhash.hpp"
#include "exec/vm.hpp"
#include "support/check.hpp"
#include "support/stats.hpp"

namespace inlt {

namespace {

using Env = std::map<std::string, i64>;

// Local aliases for the shared hash primitives (exec/ufhash.hpp);
// the VM inlines the identical definitions.
constexpr auto hash_to_unit = uf_hash_to_unit;
constexpr auto mix = uf_mix;

double eval_scalar(const ScalarExpr& e, const Env& env, const Memory& mem) {
  switch (e.op) {
    case ScalarOp::kConst:
      return e.constant;
    case ScalarOp::kVar: {
      auto it = env.find(e.name);
      INLT_CHECK_MSG(it != env.end(), "unbound variable " + e.name);
      return static_cast<double>(it->second);
    }
    case ScalarOp::kAffine:
      return static_cast<double>(e.subscripts[0].eval(env));
    case ScalarOp::kArrayRef: {
      std::vector<i64> idx;
      idx.reserve(e.subscripts.size());
      for (const AffineExpr& s : e.subscripts) idx.push_back(s.eval(env));
      return mem.at(e.name).get(idx);
    }
    case ScalarOp::kAdd:
      return eval_scalar(*e.args[0], env, mem) +
             eval_scalar(*e.args[1], env, mem);
    case ScalarOp::kSub:
      return eval_scalar(*e.args[0], env, mem) -
             eval_scalar(*e.args[1], env, mem);
    case ScalarOp::kMul:
      return eval_scalar(*e.args[0], env, mem) *
             eval_scalar(*e.args[1], env, mem);
    case ScalarOp::kDiv:
      return eval_scalar(*e.args[0], env, mem) /
             eval_scalar(*e.args[1], env, mem);
    case ScalarOp::kNeg:
      return -eval_scalar(*e.args[0], env, mem);
    case ScalarOp::kSqrt:
      return std::sqrt(eval_scalar(*e.args[0], env, mem));
    case ScalarOp::kFunc: {
      // A pure function of its name and argument values only — NOT of
      // the enclosing loop environment, so transformed programs
      // evaluating the same dynamic instance get the same value.
      std::uint64_t h = std::hash<std::string>{}(e.name);
      for (const auto& a : e.args)
        h = mix(h, uf_double_bits(eval_scalar(*a, env, mem)));
      return hash_to_unit(h);
    }
  }
  throw Error("unreachable scalar op");
}

struct Runner {
  const InterpOptions& opts;
  Memory& mem;
  InterpStats stats;

  void run(const Node& n, Env& env) {
    for (const Guard& g : n.guards()) {
      if (!g.holds(env)) {
        ++stats.guard_failures;
        return;
      }
    }
    if (n.is_stmt()) {
      const Statement& s = n.stmt_data();
      double v = s.rhs ? eval_scalar(*s.rhs, env, mem) : 0.0;
      std::vector<i64> idx;
      idx.reserve(s.lhs_subscripts.size());
      for (const AffineExpr& e : s.lhs_subscripts) idx.push_back(e.eval(env));
      if (opts.observer) {
        std::vector<ArrayAccess> reads;
        if (s.rhs) collect_reads(*s.rhs, reads);
        for (const ArrayAccess& a : reads) {
          AccessEvent ev{s.label, a.array, {}, false};
          for (const AffineExpr& e : a.subscripts)
            ev.index.push_back(e.eval(env));
          opts.observer(ev);
        }
        opts.observer({s.label, s.lhs_array, idx, true});
      }
      mem.at(s.lhs_array).set(idx, v);
      ++stats.instances;
      if (stats.instances > opts.max_instances)
        throw Error("interpreter instance budget exceeded");
      return;
    }
    i64 lo = n.lower().eval_lower(env);
    i64 hi = n.upper().eval_upper(env);
    for (i64 v = lo; v <= hi; v += n.step()) {
      ++stats.loop_iterations;
      env[n.var()] = v;
      for (const NodePtr& c : n.children()) run(*c, env);
      env.erase(n.var());
    }
  }
};

// The distinct native fallback reasons seen by this process.
std::mutex fallback_mu;
std::set<std::string> fallback_seen;

// A native-engine fallback is worth a warning, but not once per
// verification run of a 10^4-candidate search: each distinct reason is
// reported to stderr exactly once per process.
void warn_native_fallback_once(const Diagnostic& d) {
  std::lock_guard<std::mutex> lock(fallback_mu);
  if (fallback_seen.insert(d.message).second)
    std::cerr << d.render() << "\n";
}

}  // namespace

std::vector<std::string> native_fallback_reasons() {
  std::lock_guard<std::mutex> lock(fallback_mu);
  return {fallback_seen.begin(), fallback_seen.end()};
}

InterpStats interpret(const Program& p, const std::map<std::string, i64>& params,
                      Memory& mem, const InterpOptions& opts) {
  // Only the walker materializes per-access events, and the cache
  // probe rides the VM's resolved flat offsets: any other engine is
  // rejected rather than silently replaced.
  if (opts.observer && opts.engine != ExecEngine::kAstWalker)
    throw Error("an access observer requires the AST walker engine");
  if (opts.cache_probe && opts.engine != ExecEngine::kVm)
    throw Error("cache_probe requires the VM engine");
  // The probe counts one serial access stream; a partitioned run has
  // none, and running it serially instead would be a silent rewrite.
  const bool partitioned = opts.num_threads > 1 && !opts.partition.empty();
  if (opts.cache_probe && partitioned)
    throw Error("cache_probe requires a serial run (no partition)");
  // The native engine covers the serial path; a parallel partition
  // rides the VM's worker pool, the one remaining substitution.
  // Preparation failures (no compiler, compile error) warn once and
  // fall back; runtime failures of a prepared kernel (bounds, budget)
  // throw like any other engine's.
  if (opts.engine == ExecEngine::kNative && !partitioned) {
    InterpStats st;
    Diagnostic why;
    if (native_try_run(p, params, mem, opts, &st, &why)) return st;
    warn_native_fallback_once(why);
  }
  if (opts.engine != ExecEngine::kAstWalker) {
    if (partitioned) {
      if (opts.engine == ExecEngine::kNative)
        Stats::global().add("exec.native.partition_substitutions");
      return run_partitioned(p, params, mem, opts.partition, opts.num_threads,
                             opts);
    }
    VmProgram vm(p, params, mem);
    return vm.run(opts);
  }
  Stats::global().add("exec.walker.runs");
  Runner r{opts, mem, {}};
  Env env = params;
  for (const NodePtr& root : p.roots()) r.run(*root, env);
  return r.stats;
}

void declare_arrays(const Program& p, const std::map<std::string, i64>& params,
                    Memory& mem) {
  // Probe subscript extremes with the VM (vm.hpp): overflow-checked
  // and with leaf loops collapsed to their endpoint iterations.
  for (auto& [name, r] : VmProgram::probe_ranges(p, params)) {
    if (mem.has(name)) continue;
    mem.declare(name, std::move(r.lo), std::move(r.hi));
  }
}

void randomize(Memory& mem, unsigned seed) {
  for (auto& [name, arr] : mem.arrays()) {
    std::uint64_t h0 = mix(seed, std::hash<std::string>{}(name));
    std::uint64_t counter = 0;
    std::vector<std::pair<std::vector<i64>, double>> writes;
    arr.for_each_index([&](const std::vector<i64>& idx) {
      writes.emplace_back(idx, hash_to_unit(mix(h0, ++counter)));
    });
    for (auto& [idx, v] : writes) arr.set(idx, v);
  }
}

void fill_spd(Memory& mem, unsigned seed) {
  for (auto& [name, arr] : mem.arrays()) {
    std::uint64_t h0 = mix(seed ^ 0xabcdef, std::hash<std::string>{}(name));
    if (arr.rank() == 2 && arr.lo(0) == arr.lo(1) && arr.hi(0) == arr.hi(1)) {
      // Symmetric, strongly diagonally dominant => positive definite.
      i64 n = arr.hi(0) - arr.lo(0) + 1;
      for (i64 i = arr.lo(0); i <= arr.hi(0); ++i)
        for (i64 j = arr.lo(1); j <= i; ++j) {
          double v = 0.5 * hash_to_unit(mix(h0, mix(static_cast<std::uint64_t>(
                                                        i + 1000),
                                                    static_cast<std::uint64_t>(
                                                        j + 1000))));
          if (i == j) v += static_cast<double>(n) + 1.0;
          arr.set({i, j}, v);
          arr.set({j, i}, v);
        }
    } else {
      std::uint64_t counter = 0;
      std::vector<std::pair<std::vector<i64>, double>> writes;
      arr.for_each_index([&](const std::vector<i64>& idx) {
        writes.emplace_back(idx, 1.0 + hash_to_unit(mix(h0, ++counter)));
      });
      for (auto& [idx, v] : writes) arr.set(idx, v);
    }
  }
}

}  // namespace inlt
