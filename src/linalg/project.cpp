#include "linalg/project.hpp"

#include <algorithm>
#include <cstdlib>

#include "support/check.hpp"
#include "support/stats.hpp"
#include "support/trace.hpp"

namespace inlt {

namespace {

// Thread-local so concurrent sessions (and search() workers) can
// install independent or shared caches without synchronizing here.
thread_local ProjectionCache* tl_projection_cache = nullptr;

// Hot-path counters: resolve the registry slot once, then relaxed
// atomic increments only.
std::atomic<i64>& stat_eliminations() {
  static std::atomic<i64>& c = Stats::global().counter("fm.eliminations");
  return c;
}
std::atomic<i64>& stat_tightened() {
  static std::atomic<i64>& c =
      Stats::global().counter("fm.constraints_tightened");
  return c;
}
std::atomic<i64>& stat_splinters() {
  static std::atomic<i64>& c =
      Stats::global().counter("fm.dark_shadow_splinters");
  return c;
}
std::atomic<i64>& stat_cache_hits() {
  static std::atomic<i64>& c = Stats::global().counter("fm.cache_hits");
  return c;
}
std::atomic<i64>& stat_cache_misses() {
  static std::atomic<i64>& c = Stats::global().counter("fm.cache_misses");
  return c;
}
std::atomic<i64>& stat_cache_collisions() {
  static std::atomic<i64>& c =
      Stats::global().counter("fm.cache_key_collisions");
  return c;
}
std::atomic<i64>& stat_pool_reuse() {
  static std::atomic<i64>& c = Stats::global().counter("fm.scratch_reuse");
  return c;
}
// Sizes (constraint counts) of the systems fed to the eliminator,
// log2-bucketed — the shape of the FM workload at a glance.
HistogramCell& hist_system_size() {
  static HistogramCell& h = Stats::global().histogram("fm.system_size");
  return h;
}

// Per-thread pool of ConstraintSystem shells: shadow() and the
// elimination chain create and discard one system per step, and the
// recycled objects keep their constraint-vector capacity, so steady-
// state elimination performs no outer-vector allocations.
class SystemPool {
 public:
  ConstraintSystem acquire(const std::vector<std::string>& var_names) {
    if (pool_.empty()) return ConstraintSystem(var_names);
    ConstraintSystem cs = std::move(pool_.back());
    pool_.pop_back();
    cs.reset(var_names);
    stat_pool_reuse().fetch_add(1, std::memory_order_relaxed);
    return cs;
  }
  void release(ConstraintSystem&& cs) {
    if (pool_.size() < kMaxPooled) pool_.push_back(std::move(cs));
  }

 private:
  static constexpr size_t kMaxPooled = 32;
  std::vector<ConstraintSystem> pool_;
};

SystemPool& tls_pool() {
  thread_local SystemPool pool;
  return pool;
}

// Recursion guard: dependence systems are tiny; anything deeper than
// this indicates a bug, not a hard problem.
constexpr int kMaxDepth = 128;

// Symmetric residue in (-b/2, b/2].
i64 mod_hat(i64 a, i64 b) {
  i64 r = floor_mod(a, b);
  if (2 * r > b) r -= b;
  return r;
}

// Substitute variable j using the unit-coefficient equality
//   s * x_j + rest(x) + c == 0   (s = ±1)
// i.e. x_j = -s * (rest(x) + c), into expression f; clears f.coef[j].
void substitute_unit(LinExpr& f, const LinExpr& eq, int j, i64 s) {
  i64 fj = f.coef[j];
  if (fj == 0) return;
  i64 scale = checked_mul(fj, s);
  for (size_t i = 0; i < f.coef.size(); ++i) {
    if (static_cast<int>(i) == j) continue;
    f.coef[i] = checked_sub(f.coef[i], checked_mul(scale, eq.coef[i]));
  }
  f.constant = checked_sub(f.constant, checked_mul(scale, eq.constant));
  f.coef[j] = 0;
}

// Eliminate all equalities from cs (Pugh's method). Returns false if
// the system is detected infeasible in the process.
bool eliminate_equalities(ConstraintSystem& cs) {
  int guard = 0;
  while (!cs.equalities().empty()) {
    if (++guard > 1000)
      throw Error("omega: equality elimination did not terminate");
    if (!normalize_system(cs)) return false;
    if (cs.equalities().empty()) break;

    // Prefer an equality with a unit coefficient.
    auto& eqs = cs.mutable_equalities();
    int pick = -1, unit_var = -1;
    for (size_t e = 0; e < eqs.size() && pick < 0; ++e)
      for (size_t i = 0; i < eqs[e].coef.size(); ++i)
        if (eqs[e].coef[i] == 1 || eqs[e].coef[i] == -1) {
          pick = static_cast<int>(e);
          unit_var = static_cast<int>(i);
          break;
        }

    if (pick >= 0) {
      LinExpr eq = eqs[pick];
      i64 s = eq.coef[unit_var];
      eqs.erase(eqs.begin() + pick);
      for (LinExpr& f : cs.mutable_equalities())
        substitute_unit(f, eq, unit_var, s);
      for (LinExpr& f : cs.mutable_inequalities())
        substitute_unit(f, eq, unit_var, s);
      continue;
    }

    // No unit coefficient anywhere: apply the mod-hat substitution to
    // the first equality to manufacture one.
    LinExpr eq = eqs.front();
    int k = -1;
    for (size_t i = 0; i < eq.coef.size(); ++i) {
      if (eq.coef[i] == 0) continue;
      if (k < 0 || std::llabs(eq.coef[i]) < std::llabs(eq.coef[k]))
        k = static_cast<int>(i);
    }
    INLT_CHECK(k >= 0);  // normalize_system removed constant equalities
    i64 m = std::llabs(eq.coef[k]) + 1;
    int sigma = cs.add_var("$sigma" + std::to_string(cs.num_vars()));
    // New equality: sum_i mod_hat(a_i, m) x_i - m*sigma + mod_hat(c, m) == 0.
    // Its x_k coefficient is -sign(a_k), a unit; the loop above will
    // pick it up on the next iteration and substitute.
    LinExpr ne = cs.zero_expr();
    // (cs.add_var resized existing constraints; re-read eq with padding)
    for (size_t i = 0; i < eq.coef.size(); ++i)
      ne.coef[i] = mod_hat(eq.coef[i], m);
    ne.coef[sigma] = -m;
    ne.constant = mod_hat(eq.constant, m);
    // The old equality must also be rewritten: a_i = m*floor(...)+mhat,
    // so substituting sigma's definition transforms it. Pugh keeps the
    // original equality and lets the unit substitution update it; we do
    // the same — just append the new one.
    cs.mutable_equalities().push_back(std::move(ne));
  }
  return normalize_system(cs);
}

// Index-based partition of the inequalities on variable j — no
// constraint copies; the caller indexes back into cs.inequalities().
struct PartitionIdx {
  std::vector<int> lower;  // coef[j] > 0
  std::vector<int> upper;  // coef[j] < 0
};

void partition_indices(const ConstraintSystem& cs, int j, PartitionIdx& p) {
  p.lower.clear();
  p.upper.clear();
  const auto& ineqs = cs.inequalities();
  for (size_t i = 0; i < ineqs.size(); ++i) {
    i64 c = ineqs[i].coef[j];
    if (c > 0)
      p.lower.push_back(static_cast<int>(i));
    else if (c < 0)
      p.upper.push_back(static_cast<int>(i));
  }
}

// Shadow of eliminating variable j. dark=false gives the real shadow,
// dark=true subtracts (a-1)(b-1) from each combined constant.
ConstraintSystem shadow(const ConstraintSystem& cs, int j, bool dark) {
  stat_eliminations().fetch_add(1, std::memory_order_relaxed);
  thread_local PartitionIdx part;
  partition_indices(cs, j, part);
  const auto& ineqs = cs.inequalities();
  ConstraintSystem out = tls_pool().acquire(cs.var_names());
  for (const LinExpr& e : cs.equalities()) {
    INLT_CHECK_MSG(e.coef[j] == 0,
                   "shadow: equalities must not mention the variable");
    out.add_eq(e);
  }
  for (const LinExpr& e : ineqs)
    if (e.coef[j] == 0) out.add_ge(e);
  for (int li : part.lower) {
    const LinExpr& l = ineqs[li];
    i64 a = l.coef[j];
    for (int ui : part.upper) {
      const LinExpr& u = ineqs[ui];
      i64 b = checked_neg(u.coef[j]);
      // a*beta + b*alpha >= (dark ? (a-1)(b-1) : 0), with alpha/beta the
      // j-free parts of l and u.
      LinExpr c = out.zero_expr();
      for (int i = 0; i < cs.num_vars(); ++i) {
        if (i == j) continue;
        c.coef[i] = checked_add(checked_mul(a, u.coef[i]),
                                checked_mul(b, l.coef[i]));
      }
      c.constant = checked_add(checked_mul(a, u.constant),
                               checked_mul(b, l.constant));
      if (dark)
        c.constant =
            checked_sub(c.constant, checked_mul(a - 1, b - 1));
      out.add_ge(std::move(c));
    }
  }
  return out;
}

// Per-variable elimination statistics, gathered for every variable in
// one pass over the inequalities (the old code re-partitioned — with
// full constraint copies — once per variable).
struct VarStat {
  long lower = 0;
  long upper = 0;
  bool lower_unit = true;
  bool upper_unit = true;

  // Is eliminating this variable exact (real shadow == integer
  // projection)? True when every lower-bound coefficient is 1 or every
  // upper-bound coefficient is 1, or one side is empty.
  bool exact() const {
    return lower == 0 || upper == 0 || lower_unit || upper_unit;
  }
  long cost() const { return lower * upper; }
};

bool feasible_rec(ConstraintSystem cs, int depth) {
  if (depth > kMaxDepth) throw Error("omega: recursion depth exceeded");
  if (!eliminate_equalities(cs)) {
    tls_pool().release(std::move(cs));
    return false;
  }

  for (;;) {
    if (!normalize_system(cs)) {
      tls_pool().release(std::move(cs));
      return false;
    }
    // Gather every variable's bound counts in a single pass.
    int nvars = cs.num_vars();
    std::vector<VarStat> stats(nvars);
    bool any = false;
    for (const LinExpr& e : cs.inequalities())
      for (int i = 0; i < nvars; ++i) {
        i64 c = e.coef[i];
        if (c == 0) continue;
        any = true;
        if (c > 0) {
          ++stats[i].lower;
          if (c != 1) stats[i].lower_unit = false;
        } else {
          ++stats[i].upper;
          if (c != -1) stats[i].upper_unit = false;
        }
      }
    if (!any) {
      tls_pool().release(std::move(cs));
      return true;  // only constant constraints, all satisfied
    }

    // Prefer a variable whose elimination is exact; otherwise minimize
    // the number of shadow constraints generated.
    int best = -1;
    long best_cost = 0;
    bool best_exact = false;
    for (int i = 0; i < nvars; ++i) {
      if (stats[i].lower + stats[i].upper == 0) continue;
      bool exact = stats[i].exact();
      long cost = stats[i].cost();
      if (best < 0 || (exact && !best_exact) ||
          (exact == best_exact && cost < best_cost)) {
        best = i;
        best_cost = cost;
        best_exact = exact;
      }
    }

    if (best_exact) {
      ConstraintSystem next = shadow(cs, best, /*dark=*/false);
      tls_pool().release(std::move(cs));
      cs = std::move(next);
      continue;
    }

    // Inexact elimination: Omega's dark shadow + splintering.
    ConstraintSystem dark = shadow(cs, best, /*dark=*/true);
    if (feasible_rec(std::move(dark), depth + 1)) return true;
    ConstraintSystem real = shadow(cs, best, /*dark=*/false);
    if (!feasible_rec(std::move(real), depth + 1)) {
      tls_pool().release(std::move(cs));
      return false;
    }

    // Real shadow feasible, dark infeasible: any integer solution is
    // pinned near a lower bound. For each lower bound a*x_j + alpha >= 0
    // try the equalities a*x_j + alpha == i, 0 <= i <= (a*bmax-a-bmax)/bmax.
    thread_local PartitionIdx part;
    partition_indices(cs, best, part);
    i64 bmax = 0;
    for (int ui : part.upper)
      bmax = std::max(bmax, checked_neg(cs.inequalities()[ui].coef[best]));
    INLT_CHECK(bmax >= 1);
    // The index lists must survive the recursive calls below, which
    // reuse the thread-local scratch: copy out the lower list.
    std::vector<int> lower = part.lower;
    for (int li : lower) {
      const LinExpr& l = cs.inequalities()[li];
      i64 a = l.coef[best];
      i64 hi = floor_div(checked_sub(checked_mul(a, bmax),
                                     checked_add(a, bmax)),
                         bmax);
      for (i64 i = 0; i <= hi; ++i) {
        stat_splinters().fetch_add(1, std::memory_order_relaxed);
        ConstraintSystem sp = tls_pool().acquire(cs.var_names());
        sp = cs;
        LinExpr eq = l;
        eq.constant = checked_sub(eq.constant, i);
        sp.add_eq(std::move(eq));
        if (feasible_rec(std::move(sp), depth + 1)) return true;
      }
    }
    tls_pool().release(std::move(cs));
    return false;
  }
}

}  // namespace

bool normalize_system(ConstraintSystem& cs) {
  // Equalities: GCD test + reduction, compacted in place.
  auto& eqs = cs.mutable_equalities();
  size_t w = 0;
  for (size_t r = 0; r < eqs.size(); ++r) {
    LinExpr& e = eqs[r];
    i64 g = vec_gcd(e.coef);
    if (g == 0) {
      if (e.constant != 0) return false;
      continue;  // 0 == 0
    }
    if (floor_mod(e.constant, g) != 0) return false;  // GCD test
    if (g != 1) {
      for (i64& c : e.coef) c /= g;
      e.constant /= g;
    }
    if (w != r) eqs[w] = std::move(e);
    ++w;
  }
  eqs.resize(w);

  // Inequalities: tighten constants in place, then sort by coefficient
  // vector and keep the strongest (minimum constant) per direction —
  // the same canonical order the old std::map produced, without the
  // per-constraint node allocations.
  auto& ineqs = cs.mutable_inequalities();
  w = 0;
  for (size_t r = 0; r < ineqs.size(); ++r) {
    LinExpr& e = ineqs[r];
    i64 g = vec_gcd(e.coef);
    if (g == 0) {
      if (e.constant < 0) return false;  // 0 >= positive
      continue;                          // tautology
    }
    i64 c0 = e.constant;
    if (g != 1) {
      for (i64& c : e.coef) c /= g;
      e.constant = floor_div(c0, g);
      // A non-divisible constant means the floor division strictly
      // tightened the constraint (the integer GCD cut).
      if (c0 != checked_mul(e.constant, g))
        stat_tightened().fetch_add(1, std::memory_order_relaxed);
    }
    if (w != r) ineqs[w] = std::move(e);
    ++w;
  }
  ineqs.resize(w);
  std::sort(ineqs.begin(), ineqs.end(), [](const LinExpr& a, const LinExpr& b) {
    if (a.coef < b.coef) return true;
    if (b.coef < a.coef) return false;
    return a.constant < b.constant;
  });
  w = 0;
  for (size_t r = 0; r < ineqs.size(); ++r) {
    if (w > 0 && ineqs[w - 1].coef == ineqs[r].coef) continue;  // weaker dup
    if (w != r) ineqs[w] = std::move(ineqs[r]);
    ++w;
  }
  ineqs.resize(w);

  // Contradicting pair coef·x + c1 >= 0 and -coef·x + c2 >= 0 with
  // c1 + c2 < 0 means the interval is empty.
  CoefVec neg;
  for (const LinExpr& e : ineqs) {
    neg.resize(e.coef.size());
    for (size_t i = 0; i < e.coef.size(); ++i) neg[i] = -e.coef[i];
    auto it = std::lower_bound(
        ineqs.begin(), ineqs.end(), neg,
        [](const LinExpr& a, const CoefVec& key) { return a.coef < key; });
    if (it != ineqs.end() && it->coef == neg &&
        checked_add(e.constant, it->constant) < 0)
      return false;
  }
  return true;
}

bool integer_feasible(const ConstraintSystem& cs) {
  ConstraintSystem work = tls_pool().acquire(cs.var_names());
  work = cs;
  return feasible_rec(std::move(work), 0);
}

namespace {

ConstraintSystem eliminate_var_real_uncached(const ConstraintSystem& cs,
                                             int var_idx) {
  INLT_CHECK(var_idx >= 0 && var_idx < cs.num_vars());
  // Equalities mentioning the variable: substitute if a unit
  // coefficient exists, otherwise demote to a pair of inequalities.
  ConstraintSystem work = tls_pool().acquire(cs.var_names());
  std::vector<LinExpr> pending_eqs;
  LinExpr subst;
  i64 subst_sign = 0;
  for (const LinExpr& e : cs.equalities()) {
    if (e.coef[var_idx] == 1 || e.coef[var_idx] == -1) {
      if (subst_sign == 0) {
        subst = e;
        subst_sign = e.coef[var_idx];
        continue;  // consumed as the definition of var_idx
      }
    }
    pending_eqs.push_back(e);
  }
  std::vector<LinExpr> pending_ineqs(cs.inequalities().begin(),
                                     cs.inequalities().end());
  if (subst_sign != 0) {
    for (LinExpr& f : pending_eqs) substitute_unit(f, subst, var_idx, subst_sign);
    for (LinExpr& f : pending_ineqs)
      substitute_unit(f, subst, var_idx, subst_sign);
    for (LinExpr& f : pending_eqs) work.add_eq(std::move(f));
    for (LinExpr& f : pending_ineqs) work.add_ge(std::move(f));
    return work;
  }
  // No unit equality: split equalities that mention the variable.
  for (LinExpr& e : pending_eqs) {
    if (e.coef[var_idx] == 0) {
      work.add_eq(std::move(e));
      continue;
    }
    LinExpr ge = e;
    LinExpr le = e;
    for (i64& c : le.coef) c = checked_neg(c);
    le.constant = checked_neg(le.constant);
    work.add_ge(std::move(ge));
    work.add_ge(std::move(le));
  }
  for (LinExpr& f : pending_ineqs) work.add_ge(std::move(f));
  ConstraintSystem out = shadow(work, var_idx, /*dark=*/false);
  tls_pool().release(std::move(work));
  normalize_system(out);  // infeasibility shows up as 0 >= k<0 constraints
  return out;
}

}  // namespace

ConstraintSystem eliminate_var_real(const ConstraintSystem& cs, int var_idx) {
  hist_system_size().record(
      static_cast<i64>(cs.equalities().size() + cs.inequalities().size()));
  ScopedSpan span("fm.eliminate", "fm");
  if (span.active()) {
    span.arg("vars", static_cast<i64>(cs.num_vars()));
    span.arg("eqs", static_cast<i64>(cs.equalities().size()));
    span.arg("ineqs", static_cast<i64>(cs.inequalities().size()));
  }
  ProjectionCache* cache = tl_projection_cache;
  if (!cache) {
    if (span.active()) span.arg("cache", "off");
    return eliminate_var_real_uncached(cs, var_idx);
  }
  if (std::optional<ConstraintSystem> hit = cache->find(cs, var_idx)) {
    stat_cache_hits().fetch_add(1, std::memory_order_relaxed);
    if (span.active()) span.arg("cache", "hit");
    return *std::move(hit);
  }
  stat_cache_misses().fetch_add(1, std::memory_order_relaxed);
  if (span.active()) span.arg("cache", "miss");
  ConstraintSystem out = eliminate_var_real_uncached(cs, var_idx);
  cache->insert(cs, var_idx, out);
  return out;
}

std::uint64_t ProjectionCache::hash_key(const ConstraintSystem& cs,
                                        int var_idx) {
  // FNV-1a, streamed over the normalized encoding of the key: the
  // eliminated index, the variable names, and every constraint's
  // coefficients and constant, with tags separating the sections.
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(var_idx));
  mix(cs.var_names().size());
  for (const std::string& v : cs.var_names()) {
    mix(v.size());
    for (char c : v) mix(static_cast<unsigned char>(c));
  }
  auto mix_exprs = [&](const std::vector<LinExpr>& es, std::uint64_t tag) {
    mix(tag);
    mix(es.size());
    for (const LinExpr& e : es) {
      for (i64 c : e.coef) mix(static_cast<std::uint64_t>(c));
      mix(static_cast<std::uint64_t>(e.constant));
    }
  };
  mix_exprs(cs.equalities(), 'e');
  mix_exprs(cs.inequalities(), 'i');
  return h;
}

std::optional<ConstraintSystem> ProjectionCache::find(
    const ConstraintSystem& cs, int var_idx) const {
  std::uint64_t h = hash_(cs, var_idx);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = buckets_.find(h);
  if (it == buckets_.end()) return std::nullopt;
  for (const Entry& e : it->second)
    if (e.var_idx == var_idx && e.key == cs) return e.value;
  stat_cache_collisions().fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void ProjectionCache::insert(const ConstraintSystem& cs, int var_idx,
                             const ConstraintSystem& value) {
  std::uint64_t h = hash_(cs, var_idx);
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry>& bucket = buckets_[h];
  for (const Entry& e : bucket)
    if (e.var_idx == var_idx && e.key == cs) return;  // lost a race
  bucket.push_back(Entry{cs, var_idx, value});
  ++size_;
}

size_t ProjectionCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return size_;
}

void ProjectionCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  buckets_.clear();
  size_ = 0;
}

ProjectionCache* set_projection_cache(ProjectionCache* cache) {
  ProjectionCache* prev = tl_projection_cache;
  tl_projection_cache = cache;
  return prev;
}

ConstraintSystem project_onto(const ConstraintSystem& cs,
                              const std::vector<int>& keep) {
  std::vector<bool> keep_mask(cs.num_vars(), false);
  for (int k : keep) {
    INLT_CHECK(k >= 0 && k < cs.num_vars());
    keep_mask[k] = true;
  }
  ConstraintSystem work = cs;
  for (int i = 0; i < cs.num_vars(); ++i) {
    if (keep_mask[i]) continue;
    ConstraintSystem next = eliminate_var_real(work, i);
    tls_pool().release(std::move(work));
    work = std::move(next);
  }

  // Re-index onto the kept variables in the requested order.
  std::vector<std::string> names;
  names.reserve(keep.size());
  for (int k : keep) names.push_back(cs.var_names()[k]);
  ConstraintSystem out(names);
  auto reindex = [&](const LinExpr& e) {
    LinExpr r = out.zero_expr();
    r.constant = e.constant;
    for (size_t i = 0; i < keep.size(); ++i) r.coef[i] = e.coef[keep[i]];
    // Eliminated variables must not appear anymore.
    for (int v = 0; v < work.num_vars(); ++v)
      if (v < cs.num_vars() && !keep_mask[v])
        INLT_CHECK_MSG(e.coef[v] == 0, "projection left a residue");
    return r;
  };
  for (const LinExpr& e : work.equalities()) out.add_eq(reindex(e));
  for (const LinExpr& e : work.inequalities()) out.add_ge(reindex(e));
  return out;
}

}  // namespace inlt
