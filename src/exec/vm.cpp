// VmProgram execution (see vm.hpp for the design; compile.cpp builds
// the tables).
//
// dispatch<Mode> is the one interpreter of the control stream; run(),
// run_worker() and run_probe() enter it in their mode. Its serial mode
// is the hot path of semantic verification: no recursion, no name
// lookups and no per-access subscript evaluation — fast accesses ride
// incrementally maintained flat offsets whose bounds were checked at
// loop entry.
// Everything still observable (InterpStats, guard semantics, iteration
// order, the uninterpreted-function hash) matches the AST walker bit
// for bit.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>

#include "exec/parallel.hpp"
#include "exec/ufhash.hpp"
#include "exec/vm.hpp"
#include "support/check.hpp"
#include "support/profile.hpp"
#include "support/stats.hpp"
#include "support/trace.hpp"

namespace inlt {

i64 VmProgram::eval(const LinExpr& e) const {
  i64 v = e.constant;
  for (const auto& [slot, coef] : e.terms)
    v = checked_add(v, checked_mul(coef, env_[slot]));
  return v;
}

i64 VmProgram::eval_lower(const CBound& b) const {
  bool first = true;
  i64 best = 0;
  for (const CBoundTerm& t : b.terms) {
    i64 v = ceil_div(eval(t.expr), t.den);
    best = first ? v : (b.tight ? std::max(best, v) : std::min(best, v));
    first = false;
  }
  return best;
}

i64 VmProgram::eval_upper(const CBound& b) const {
  bool first = true;
  i64 best = 0;
  for (const CBoundTerm& t : b.terms) {
    i64 v = floor_div(eval(t.expr), t.den);
    best = first ? v : (b.tight ? std::min(best, v) : std::max(best, v));
    first = false;
  }
  return best;
}

bool VmProgram::guards_hold(const GuardSet& g) const {
  for (int i = g.begin; i != g.end; ++i) {
    const CGuard& cg = guards_[i];
    i64 v = eval(cg.expr);
    switch (cg.kind) {
      case Guard::Kind::kEqZero:
        if (v != 0) return false;
        break;
      case Guard::Kind::kGeZero:
        if (v < 0) return false;
        break;
      case Guard::Kind::kDivisible:
        if (floor_mod(v, cg.modulus) != 0) return false;
        break;
    }
  }
  return true;
}

void VmProgram::bounds_fail(const Access& a, int dim, i64 idx) const {
  const ArrayInfo& arr = arrays_[a.array];
  throw Error("array index out of bounds: " + arr.name + " dim " +
              std::to_string(dim) + " index " + std::to_string(idx) +
              " not in [" + std::to_string(arr.lo[dim]) + ", " +
              std::to_string(arr.hi[dim]) + "]");
}

// Enter loop `id` at its first iteration lo, with hi its last bound:
// set the loop variable, initialize offset registers and run the
// hoisted endpoint bounds checks.
void VmProgram::enter_loop(const LoopInfo& loop, int id, i64 lo, i64 hi) {
  env_[loop.slot] = lo;
  hi_[id] = hi;
  for (int i = loop.init_begin; i != loop.init_end; ++i) {
    const Access& a = accesses_[inits_[i].access];
    offs_[a.reg] = eval(a.offset);
  }
  if (loop.check_begin == loop.check_end) return;
  // Value of the final executed iteration; every per-dim subscript is
  // affine (monotonic) in the loop variable, so in-range endpoints
  // imply in-range everywhere between.
  i64 last = checked_add(
      lo, checked_mul(floor_div(checked_sub(hi, lo), loop.step), loop.step));
  i64 span = checked_sub(last, lo);
  for (int i = loop.check_begin; i != loop.check_end; ++i) {
    const EntryCheck& ck = checks_[i];
    const Access& a = accesses_[ck.access];
    const ArrayInfo& arr = arrays_[a.array];
    i64 first = eval(dims_[a.first_dim + ck.dim].expr);
    i64 final = checked_add(first, checked_mul(ck.coef, span));
    i64 mn = std::min(first, final), mx = std::max(first, final);
    if (mn < arr.lo[ck.dim]) bounds_fail(a, ck.dim, mn);
    if (mx > arr.hi[ck.dim]) bounds_fail(a, ck.dim, mx);
  }
}

// Exact, fully checked offsets for one execution of a slow (guarded or
// loop-less) statement.
void VmProgram::slow_access_offsets(const StmtInfo& s) {
  for (int i = s.first_access; i != s.first_access + s.naccesses; ++i) {
    const Access& a = accesses_[i];
    const ArrayInfo& arr = arrays_[a.array];
    if (arr.data == nullptr) throw Error("undeclared array " + arr.name);
    i64 off = 0;
    for (int d = 0; d < a.ndims; ++d) {
      i64 idx = eval(dims_[a.first_dim + d].expr);
      if (idx < arr.lo[d] || idx > arr.hi[d]) bounds_fail(a, d, idx);
      off = checked_add(off, checked_mul(checked_sub(idx, arr.lo[d]),
                                         arr.strides[d]));
    }
    offs_[a.reg] = off;
  }
}

void VmProgram::exec_stmt(const StmtInfo& s, InterpStats& st,
                          i64 max_instances) {
  if (!s.fast) slow_access_offsets(s);
  double v = 0.0;
  if (s.result_reg >= 0) {
    for (int i = s.scalar_begin; i != s.scalar_end; ++i) {
      const SInst& si = scode_[i];
      switch (si.op) {
        case SOp::kConst:
          sregs_[si.dst] = si.imm;
          break;
        case SOp::kVar:
          sregs_[si.dst] = static_cast<double>(env_[si.payload]);
          break;
        case SOp::kAffine:
          sregs_[si.dst] = static_cast<double>(eval(lins_[si.payload]));
          break;
        case SOp::kLoad: {
          const Access& a = accesses_[si.payload];
          sregs_[si.dst] = arrays_[a.array].data[offs_[a.reg]];
          break;
        }
        case SOp::kAdd:
          sregs_[si.dst] = sregs_[si.a] + sregs_[si.b];
          break;
        case SOp::kSub:
          sregs_[si.dst] = sregs_[si.a] - sregs_[si.b];
          break;
        case SOp::kMul:
          sregs_[si.dst] = sregs_[si.a] * sregs_[si.b];
          break;
        case SOp::kDiv:
          sregs_[si.dst] = sregs_[si.a] / sregs_[si.b];
          break;
        case SOp::kNeg:
          sregs_[si.dst] = -sregs_[si.a];
          break;
        case SOp::kSqrt:
          sregs_[si.dst] = std::sqrt(sregs_[si.a]);
          break;
        case SOp::kFunc: {
          const FuncSite& f = func_sites_[si.payload];
          std::uint64_t h = f.name_hash;
          for (int j = f.args_begin; j != f.args_end; ++j)
            h = uf_mix(h, uf_double_bits(sregs_[func_args_[j]]));
          sregs_[si.dst] = uf_hash_to_unit(h);
          break;
        }
      }
    }
    v = sregs_[s.result_reg];
  }
  const Access& w = accesses_[s.first_access];
  arrays_[w.array].data[offs_[w.reg]] = v;
  ++st.instances;
  if (st.instances > max_instances)
    throw Error("interpreter instance budget exceeded");
  if (probe_) probe_lines(s);
}

// The leaf-loop executor (vm.hpp). Called right after kLoopEnter
// entered leaf loop L at lo (offsets initialized, hoisted checks
// passed, the first iteration counted). Runs the budget-covered
// prefix and returns where the dispatch loop continues: L's back-edge
// once every iteration ran, so the exit (and a partitioned loop's
// exit barrier) happens there, or the body start for the iteration
// that exhausts the budget, which then runs per instance.
size_t VmProgram::run_leaf(const LoopInfo& L, size_t enter_pc, i64 lo, i64 hi,
                           InterpStats& st, i64 max_instances) {
  ++leaf_entries_;
  const LeafPlan& P = leaf_plans_[static_cast<size_t>(L.leaf)];
  const size_t body_pc = enter_pc + 1;
  const i64 k = P.stmt_end - P.stmt_begin;
  i64 span;
  if (__builtin_sub_overflow(hi, lo, &span)) return body_pc;
  const i64 last = span / L.step;  // index of the final iteration
  const i64 fit = (max_instances - st.instances) / k;
  const i64 m = fit > last ? last + 1 : fit;  // iterations run here
  if (m <= 0) return body_pc;
  if (P.has_affine) {
    // kAffine values are affine in the loop variable, and so is every
    // partial sum eval() forms: if neither prefix endpoint overflows,
    // no iteration between does. Otherwise let the per-instance path
    // raise the error at its instance.
    const i64 v0 = env_[L.slot];
    try {
      for (i64 v : {lo, lo + (m - 1) * L.step}) {
        env_[L.slot] = v;
        for (int o = P.op_begin; o != P.op_end; ++o)
          if (leaf_ops_[o].op == SOp::kAffine)
            eval(lins_[static_cast<size_t>(leaf_ops_[o].payload)]);
      }
    } catch (const OverflowError&) {
      env_[L.slot] = v0;
      return body_pc;
    }
  }
  run_chunks(P, L, lo, m, leaf_batchable(P, m));
  st.instances += m * k;
  // Leave the state of the iteration the dispatch loop resumes at: the
  // final one (its back-edge exits) or the first unbudgeted one.
  const i64 at = m == last + 1 ? last : m;
  env_[L.slot] = lo + at * L.step;
  st.loop_iterations += at;
  for (int i = L.adv_begin; i != L.adv_end; ++i)
    offs_[advances_[i].reg] += at * advances_[i].delta;
  return m == last + 1 ? static_cast<size_t>(code_[enter_pc].jump) - 1
                       : body_pc;
}

namespace {

// Whether the offset progressions o_w + i*d_w and o_x + j*d_x share a
// cell at two different iterations i != j of [0, m). Offsets are flat
// and in bounds (enter_loop checked every iteration), so equal offsets
// are the same cell. Exact when a delta is zero or both are equal;
// otherwise the offset intervals must be disjoint.
bool meet_across(i64 ow, i64 dw, i64 ox, i64 dx, i64 m) {
  if (m < 2) return false;
  const i64 wl = std::min(ow, ow + (m - 1) * dw);
  const i64 wh = std::max(ow, ow + (m - 1) * dw);
  const i64 xl = std::min(ox, ox + (m - 1) * dx);
  const i64 xh = std::max(ox, ox + (m - 1) * dx);
  if (wh < xl || xh < wl) return false;
  if (dw == dx) {
    // Same stride: the cells meet at a fixed iteration shift i - j.
    if (dw == 0) return true;  // one cell, every iteration
    const i64 diff = ox - ow;
    return diff % dw == 0 && diff != 0 && std::abs(diff / dw) < m;
  }
  // A fixed cell meets the other progression at most once, at an
  // in-range step; any other iteration of the fixed side differs.
  if (dw == 0) return (ow - ox) % dx == 0;
  if (dx == 0) return (ox - ow) % dw == 0;
  return true;
}

}  // namespace

// The entry test over the first m iterations: no write shares a cell
// with another access of its array at two different iterations
// (sharing one within an iteration, as the same offset function does,
// keeps its order), except the write's own recurrent reads, which run
// element by element.
bool VmProgram::leaf_batchable(const LeafPlan& P, i64 m) const {
  for (int i = P.pair_begin; i != P.pair_end; ++i) {
    const LeafPair& pr = leaf_pairs_[i];
    const Access& w = accesses_[pr.w];
    const Access& x = accesses_[pr.x];
    if (meet_across(offs_[w.reg], w.step_delta, offs_[x.reg], x.step_delta,
                    m))
      return false;
  }
  return true;
}

// The carried path (vm.hpp). Called right after kLoopEnter entered P,
// the parent of a carried leaf, at lo (its first row counted). Walks
// P's rows itself. carry_segments decides, for the whole activation,
// which rows enter the leaf, that no hoisted check fails, that the
// budget covers it, and which rows must test the leaf pairs; each row
// then only sets the link values and entry offsets, each its carried
// value (plus the leaf variable's term), and runs the leaf's chunks.
// Returns P's back-edge, so the exit happens there, with the counts
// the per-entry path would have made. An activation for which that is
// not decided (a check or the budget would fail, or a value could
// overflow where the per-entry path's would not) returns P's body
// start at its first row, and runs per entry, faults and all.
size_t VmProgram::run_carried(const LoopInfo& P, size_t enter_pc, i64 lo,
                              i64 hi, InterpStats& st, i64 max_instances) {
  const CarryPlan& C = carry_plans_[static_cast<size_t>(P.carry)];
  const size_t body_pc = enter_pc + 1;
  i64 span;
  if (__builtin_sub_overflow(hi, lo, &span)) return body_pc;
  const i64 rows = span / P.step + 1;
  CarrySeg segs[kMaxSegs];
  i64 trips = 0;
  const int nsegs =
      carry_start(C, P, lo, rows)
          ? carry_segments(C, rows, max_instances - st.instances, segs, trips)
          : -1;
  if (nsegs < 0) return body_pc;
  const LoopInfo& L = loops_[static_cast<size_t>(C.leaf)];
  const LeafPlan& LP = leaf_plans_[static_cast<size_t>(L.leaf)];
  const i64 k = LP.stmt_end - LP.stmt_begin;
  const CarryVal* const cv = carry_vals_.data() + C.val_begin;
  const i64* const now = carry_now_.data() + C.val_begin;
  auto at = [&](int j, i64 r) { return now[j] + r * cv[j].delta; };
  i64 entries = 0;
  for (int s = 0; s < nsegs; ++s) {
    const CarrySeg& g = segs[s];
    entries += g.r1 - g.r0 + 1;
    for (i64 r = g.r0; r <= g.r1; ++r) {
      const i64 llo = at(g.lo, r);
      const i64 m = at(g.hi, r) - llo + 1;
      // P's and the links' values, which leaf operands may read.
      env_[P.slot] = lo + r * P.step;
      for (int l = 0; l < C.links; ++l)
        env_[loops_[static_cast<size_t>(C.leaf - C.links + l)].slot] = at(l, r);
      for (int j = C.inits; j < C.checks; ++j)
        offs_[cv[j].reg] = at(j, r) + cv[j].coef * llo;
      run_chunks(LP, L, llo, m, !g.test_pairs || leaf_batchable(LP, m));
    }
  }
  leaf_entries_ += entries;
  carried_entries_ += entries;
  st.instances += trips * k;
  st.loop_iterations += rows - 1 + C.links * rows + trips;
  env_[P.slot] = lo + (rows - 1) * P.step;
  return static_cast<size_t>(code_[enter_pc].jump) - 1;
}

// Row 0's values of an activation of P with `rows` rows starting at
// lo, into carry_now_; false when some value the activation reads
// could leave C.max_mag, the range in which no per-entry partial sum
// overflows. Slot values move monotonically over the rows, so their
// first and last rows bound them; a bound's value stays within its
// terms'.
bool VmProgram::carry_start(const CarryPlan& C, const LoopInfo& P, i64 lo,
                            i64 rows) {
  auto fits = [&](i64 v) { return v >= -C.max_mag && v <= C.max_mag; };
  const i64 r1 = rows - 1;
  i64 last;
  if (__builtin_mul_overflow(r1, P.step, &last) ||
      __builtin_add_overflow(lo, last, &last) || !fits(lo) || !fits(last))
    return false;
  for (int i = C.slot_begin; i != C.slot_end; ++i)
    if (!fits(env_[carry_slots_[i]])) return false;
  const CarryVal* cv = carry_vals_.data() + C.val_begin;
  i64* const now = carry_now_.data() + C.val_begin;
  auto start = [&](int j) {
    i64 v = cv[j].base.constant;
    for (const auto& [slot, coef] : cv[j].base.terms) {
      i64 t;
      if (__builtin_mul_overflow(coef, env_[slot], &t) ||
          __builtin_add_overflow(v, t, &v))
        return false;
    }
    i64 end;
    if (__builtin_mul_overflow(r1, cv[j].delta, &end) ||
        __builtin_add_overflow(v, end, &end) || !fits(v) || !fits(end))
      return false;
    now[j] = v;
    return true;
  };
  for (int j = 0; j < C.inits; ++j) {
    if (!start(j)) return false;
    if (j < C.links)  // a link's value, for later expressions
      env_[loops_[static_cast<size_t>(C.leaf - C.links + j)].slot] = now[j];
  }
  for (int j = C.inits; j < C.val_end; ++j) now[j] = eval(cv[j].base);
  return true;
}

// The rows of an activation (rows rows, row-0 values in carry_now_)
// cut into segments: the rows that enter the leaf, as runs over which
// each leaf bound is one term. The leaf's bound terms have
// denominator 1, so it runs at a row iff each lower term is at most
// each upper term, an affine condition on the row. Over a segment
// every entry value is affine in the row, so a check that holds at
// its two ends holds between, and the trips sum in closed form
// (`trips`). A pair apart at the ends of a segment in
// the sense below is apart at every row of it; the others make the
// segment test pairs per row. -1 when a check fails, the budget
// `room` does not cover the activation, or the segments do not fit.
int VmProgram::carry_segments(const CarryPlan& C, i64 rows, i64 room,
                              CarrySeg* segs, i64& trips) const {
  const CarryVal* const cv = carry_vals_.data() + C.val_begin;
  const i64* const now = carry_now_.data() + C.val_begin;
  auto at = [&](int j, i64 r) { return now[j] + r * cv[j].delta; };
  i64 ra = 0, rb = rows - 1;
  // Narrow [ra, rb] to the rows where term a is at most term b.
  auto narrow = [&](int a, int b) {
    i64 c;  // (b - a) grows by c per row from now[b] - now[a]
    if (__builtin_sub_overflow(cv[b].delta, cv[a].delta, &c)) return false;
    const i64 e = now[a] - now[b];
    if (c > 0)
      ra = std::max(ra, ceil_div(e, c));
    else if (c < 0)
      rb = std::min(rb, floor_div(e, c));
    else if (e > 0)
      rb = ra - 1;
    return true;
  };
  for (int a = C.links; a < C.leaf_upper; ++a)
    for (int b = C.leaf_upper; b < C.inits; ++b)
      if (!narrow(a, b)) return -1;

  const LoopInfo& L = loops_[static_cast<size_t>(C.leaf)];
  const LeafPlan& LP = leaf_plans_[static_cast<size_t>(L.leaf)];
  __int128 total = 0;
  int n = 0;
  for (i64 r = ra; r <= rb; ++n) {
    if (n == kMaxSegs) return -1;
    CarrySeg& g = segs[n];
    // The active terms at r; on a tie, the one that stays active.
    g.lo = C.links;
    for (int a = g.lo + 1; a < C.leaf_upper; ++a)
      if (at(a, r) > at(g.lo, r) ||
          (at(a, r) == at(g.lo, r) && cv[a].delta > cv[g.lo].delta))
        g.lo = a;
    g.hi = C.leaf_upper;
    for (int b = g.hi + 1; b < C.inits; ++b)
      if (at(b, r) < at(g.hi, r) ||
          (at(b, r) == at(g.hi, r) && cv[b].delta < cv[g.hi].delta))
        g.hi = b;
    // The segment ends before another term takes over.
    i64 end = rb;
    auto until = [&](int from, int to) {  // last row `to` stays ahead
      i64 d;
      if (__builtin_sub_overflow(cv[from].delta, cv[to].delta, &d)) return false;
      if (d > 0) end = std::min(end, floor_div(now[to] - now[from], d));
      return true;
    };
    for (int a = C.links; a < C.leaf_upper; ++a)
      if (!until(a, g.lo)) return -1;
    for (int b = C.leaf_upper; b < C.inits; ++b)
      if (!until(g.hi, b)) return -1;
    g.r0 = r;
    g.r1 = end;
    for (int j = C.checks; j < C.val_end; ++j)
      for (i64 e : {g.r0, g.r1}) {
        const i64 l = at(g.lo, e);
        const i64 first = at(j, e) + cv[j].coef * l;
        const i64 final = first + cv[j].coef * (at(g.hi, e) - l);
        if (std::min(first, final) < cv[j].lo ||
            std::max(first, final) > cv[j].hi)
          return -1;
      }
    auto trip = [&](i64 e) { return at(g.hi, e) - at(g.lo, e) + 1; };
    total += static_cast<__int128>(g.r1 - g.r0 + 1) * (trip(g.r0) + trip(g.r1)) / 2;
    // A pair is apart at every row if the hulls of its two offset
    // ranges over the segment are disjoint (each range end is affine
    // in the row), or if the two offsets keep one distance and do not
    // meet at the segment's largest trip count (meet_across only grows
    // with the count).
    g.test_pairs = false;
    for (int p = C.pair_begin; p != C.pair_end && !g.test_pairs; ++p) {
      const int w = carry_pairs_[p].first, x = carry_pairs_[p].second;
      auto off = [&](int a, i64 e) { return at(a, e) + cv[a].coef * at(g.lo, e); };
      i64 wl = 0, wh = 0, xl = 0, xh = 0;
      for (i64 e : {g.r0, g.r1}) {
        const i64 ow = off(w, e), ox = off(x, e);
        const i64 ew = ow + (trip(e) - 1) * cv[w].coef;
        const i64 ex = ox + (trip(e) - 1) * cv[x].coef;
        wl = e == g.r0 ? std::min(ow, ew) : std::min({wl, ow, ew});
        wh = e == g.r0 ? std::max(ow, ew) : std::max({wh, ow, ew});
        xl = e == g.r0 ? std::min(ox, ex) : std::min({xl, ox, ex});
        xh = e == g.r0 ? std::max(ox, ex) : std::max({xh, ox, ex});
      }
      if (wh < xl || xh < wl) continue;
      const i64 d0 = off(x, g.r0) - off(w, g.r0);
      g.test_pairs = d0 != off(x, g.r1) - off(w, g.r1) ||
                     meet_across(off(w, g.r0), cv[w].coef, off(x, g.r0),
                                 cv[x].coef, std::max(trip(g.r0), trip(g.r1)));
    }
    r = end + 1;
  }
  if (total * (LP.stmt_end - LP.stmt_begin) > room) return -1;
  trips = static_cast<i64>(total);
  return n;
}

// The first m iterations of leaf loop L from lo, in chunks of
// kLeafWidth iterations if `batched`, else of one.
void VmProgram::run_chunks(const LeafPlan& P, const LoopInfo& L, i64 lo, i64 m,
                           bool batched) {
  const int width = batched ? kLeafWidth : 1;
  for (i64 i0 = 0; i0 < m; i0 += width)
    leaf_chunk(P, L, lo, i0, static_cast<int>(std::min<i64>(width, m - i0)));
  (batched ? batched_instances_ : serial_leaf_instances_) +=
      m * (P.stmt_end - P.stmt_begin);
}

// Iterations [i0, i0 + c) of leaf loop L, statement by statement:
// non-carried ops over the whole chunk, then carried ops and the
// write element by element in iteration order.
void VmProgram::leaf_chunk(const LeafPlan& P, const LoopInfo& L, i64 lo,
                           i64 i0, int c) {
  constexpr int W = kLeafWidth;
  double* const R = leaf_regs_.data();
  const i64 v0 = lo + i0 * L.step;  // loop variable at element 0
  auto op_at = [&](const LeafOp& op, double* d, int e) {
    switch (op.op) {
      case SOp::kLoad: {
        const Access& a = accesses_[static_cast<size_t>(op.payload)];
        d[e] = arrays_[a.array].data[offs_[a.reg] + (i0 + e) * a.step_delta];
        break;
      }
      case SOp::kAdd:
        d[e] = R[op.a * W + e] + R[op.b * W + e];
        break;
      case SOp::kSub:
        d[e] = R[op.a * W + e] - R[op.b * W + e];
        break;
      case SOp::kMul:
        d[e] = R[op.a * W + e] * R[op.b * W + e];
        break;
      case SOp::kDiv:
        d[e] = R[op.a * W + e] / R[op.b * W + e];
        break;
      case SOp::kNeg:
        d[e] = -R[op.a * W + e];
        break;
      case SOp::kSqrt:
        d[e] = std::sqrt(R[op.a * W + e]);
        break;
      case SOp::kFunc: {
        std::uint64_t h =
            func_sites_[static_cast<size_t>(op.payload)].name_hash;
        for (int j = op.a; j != op.b; ++j)
          h = uf_mix(h, uf_double_bits(R[leaf_args_[j] * W + e]));
        d[e] = uf_hash_to_unit(h);
        break;
      }
      case SOp::kConst:
        d[e] = op.imm;
        break;
      case SOp::kVar:
        d[e] = static_cast<double>(op.payload == L.slot ? v0 + e * L.step
                                                         : env_[op.payload]);
        break;
      case SOp::kAffine:
        env_[L.slot] = v0 + e * L.step;
        d[e] = static_cast<double>(
            eval(lins_[static_cast<size_t>(op.payload)]));
        break;
    }
  };
  for (int s = P.stmt_begin; s != P.stmt_end; ++s) {
    const LeafStmt& ls = leaf_stmts_[s];
    for (int o = ls.op_begin; o != ls.op_end; ++o) {
      const LeafOp& op = leaf_ops_[o];
      if (op.carried) continue;
      double* __restrict d = R + (o - P.op_begin) * W;
      if (op.op == SOp::kSqrt || op.op == SOp::kFunc ||
          op.op == SOp::kVar || op.op == SOp::kAffine) {
        for (int e = 0; e < c; ++e) op_at(op, d, e);
        continue;
      }
      const double* A = R + op.a * W;
      const double* B = R + op.b * W;
      switch (op.op) {
        case SOp::kLoad: {
          const Access& a = accesses_[static_cast<size_t>(op.payload)];
          const double* src =
              arrays_[a.array].data + offs_[a.reg] + i0 * a.step_delta;
          const i64 dl = a.step_delta;
          if (dl == 1) {
            for (int e = 0; e < c; ++e) d[e] = src[e];
          } else {
            for (int e = 0; e < c; ++e) d[e] = src[e * dl];
          }
          break;
        }
        case SOp::kAdd:
          for (int e = 0; e < c; ++e) d[e] = A[e] + B[e];
          break;
        case SOp::kSub:
          for (int e = 0; e < c; ++e) d[e] = A[e] - B[e];
          break;
        case SOp::kMul:
          for (int e = 0; e < c; ++e) d[e] = A[e] * B[e];
          break;
        case SOp::kDiv:
          for (int e = 0; e < c; ++e) d[e] = A[e] / B[e];
          break;
        case SOp::kNeg:
          for (int e = 0; e < c; ++e) d[e] = -A[e];
          break;
        case SOp::kConst:
          for (int e = 0; e < c; ++e) d[e] = op.imm;
          break;
        default:  // per element above
          break;
      }
    }
    const Access& w = accesses_[ls.write];
    double* const wp = arrays_[w.array].data + offs_[w.reg] + i0 * w.step_delta;
    const i64 wd = w.step_delta;
    const double* res = ls.result >= 0 ? R + ls.result * W : nullptr;
    if (!ls.carried) {
      for (int e = 0; e < c; ++e) wp[e * wd] = res ? res[e] : 0.0;
      continue;
    }
    for (int e = 0; e < c; ++e) {
      for (int o = ls.op_begin; o != ls.op_end; ++o)
        if (leaf_ops_[o].carried)
          op_at(leaf_ops_[o], R + (o - P.op_begin) * W, e);
      wp[e * wd] = res[e];
    }
  }
}

// Feed every access of one executed statement instance to the cache
// probe: logical line = (array identity, element offset / line_elems),
// so counts are deterministic and machine-independent.
void VmProgram::probe_lines(const StmtInfo& s) {
  for (int i = s.first_access; i != s.first_access + s.naccesses; ++i) {
    const Access& a = accesses_[i];
    probe_->touch((static_cast<std::uint64_t>(a.array) << 44) |
                  (static_cast<std::uint64_t>(offs_[a.reg]) >> probe_shift_));
  }
}

namespace {

// Cached per-opcode / per-depth histogram cells for the profiled mode.
// HistogramCell references from the global registry are stable
// forever, so one lookup per name suffices.
struct OpHists {
  HistogramCell* op[4];  // by COp: guards, loop enter, loop next, stmt
  std::vector<HistogramCell*> depth;

  OpHists()
      : op{&Stats::global().histogram("vm.op.guards_ns"),
           &Stats::global().histogram("vm.op.loop_enter_ns"),
           &Stats::global().histogram("vm.op.loop_next_ns"),
           &Stats::global().histogram("vm.op.stmt_ns")} {}

  HistogramCell* depth_cell(int d) {
    if (static_cast<size_t>(d) >= depth.size())
      depth.resize(static_cast<size_t>(d) + 1, nullptr);
    if (!depth[d])
      depth[d] = &Stats::global().histogram("vm.stmt.depth" +
                                            std::to_string(d) + "_ns");
    return depth[d];
  }
};

}  // namespace

// The one dispatch loop (vm.hpp). Every mode runs the same control
// flow; the `if constexpr` blocks are where they differ, and the
// serial instantiation compiles to the plain loop.
template <VmProgram::Mode M>
InterpStats VmProgram::dispatch(i64 max_instances, const Team* team,
                                ProbeState* ps) {
  constexpr bool kProfiled = M == Mode::kProfiled;
  constexpr bool kWorker = M == Mode::kWorker;
  constexpr bool kProbe = M == Mode::kProbe;
  InterpStats st;
  // Per-run cell cache: name lookups happen once per profiled run, and
  // keeping it run-local (not static) makes concurrent profiled runs
  // race-free — the cells themselves are atomic.
  std::optional<OpHists> hist;
  if constexpr (kProfiled) hist.emplace();
  int depth = 0;  // loop nesting depth of the current pc (profiled only)
  (void)depth;
  // Worker mode: whether the pc is inside this worker's chunk of a
  // marked loop. Work there is this worker's; work elsewhere is worker
  // 0's, so only worker 0 counts and executes it.
  bool in_chunk = false;
  const bool main_worker = !kWorker || team->worker == 0;
  auto owned = [&] { return !kWorker || in_chunk || main_worker; };
  size_t pc = 0;
  for (;;) {
    const CInst& in = code_[pc];
    i64 t0 = 0;
    if constexpr (kProfiled) t0 = profile_now_ns();
    switch (in.op) {
      case COp::kGuards:
        if (guards_hold(guard_sets_[in.arg])) {
          ++pc;
        } else {
          if (owned()) ++st.guard_failures;
          pc = static_cast<size_t>(in.jump);
        }
        break;
      case COp::kLoopEnter: {
        const LoopInfo& L = loops_[in.arg];
        bool chunk = false;  // an activation split across the team
        if constexpr (kWorker) {
          chunk = !in_chunk && marked_[in.arg];
          if (chunk) {
            // Entry barrier first: serial writes preceding the loop
            // (worker 0's) must be visible before any chunk reads.
            team_wait(*team);
          } else if (!owned() && !reach_marked_[in.arg]) {
            pc = static_cast<size_t>(in.jump);  // no work below for us
            break;
          }
        }
        i64 lo = eval_lower(L.lower);
        i64 hi = eval_upper(L.upper);
        if (lo > hi) {
          // Zero trip. Bounds only read enclosing loop variables, so
          // every worker skips alike, without the exit barrier.
          pc = static_cast<size_t>(in.jump);
          break;
        }
        if constexpr (kProbe) {
          if (L.probe_collapse) {
            // A leaf of the lowering plan: affine subscripts are
            // monotonic in the loop variable, so its two endpoint
            // iterations bound the whole range.
            i64 last = checked_add(
                lo, checked_mul(floor_div(checked_sub(hi, lo), L.step),
                                L.step));
            for (i64 v : {lo, last}) {
              env_[L.slot] = v;
              for (int i = L.probe_begin; i != L.probe_end; ++i)
                probe_note(*ps, accesses_[i]);
            }
            pc = static_cast<size_t>(in.jump);
            break;
          }
        }
        if (chunk) {
          if (!enter_chunk(L, in.arg, *team, lo, hi)) {
            pc = static_cast<size_t>(in.jump);  // empty chunk
            break;
          }
          in_chunk = true;
        } else {
          enter_loop(L, in.arg, lo, hi);
        }
        if (!owned()) {
          ++pc;
          break;
        }
        ++st.loop_iterations;
        if constexpr (kProfiled) {
          ++depth;
        } else if (L.leaf >= 0 && !probe_) {
          // The loop's back-edge still runs, so a chunk's exit barrier
          // is reached as without the executor.
          pc = run_leaf(L, pc, lo, hi, st, max_instances);
          break;
        } else if (L.carry >= 0 && !probe_ &&
                   (!kWorker || !reach_marked_[in.arg + 1])) {
          // Likewise; a worker keeps the per-entry path where a loop
          // below is marked, whose chunks need their barriers.
          pc = run_carried(L, pc, lo, hi, st, max_instances);
          break;
        }
        ++pc;
        break;
      }
      case COp::kLoopNext: {
        const LoopInfo& L = loops_[in.arg];
        i64 v = checked_add(env_[L.slot], L.step);
        if (v > hi_[in.arg]) {
          if constexpr (kProfiled) --depth;
          if constexpr (kWorker) {
            if (in_chunk && marked_[in.arg]) {
              in_chunk = false;
              leave_chunk(L, in.arg, *team);
            }
          }
          ++pc;  // loop done; falls out past the back-edge
          break;
        }
        env_[L.slot] = v;
        if (owned()) ++st.loop_iterations;
        for (int i = L.adv_begin; i != L.adv_end; ++i)
          offs_[advances_[i].reg] += advances_[i].delta;
        pc = static_cast<size_t>(in.jump);
        break;
      }
      case COp::kStmt:
        if constexpr (kProbe) {
          const StmtInfo& s = stmts_[in.arg];
          for (int i = s.first_access; i != s.first_access + s.naccesses; ++i)
            probe_note(*ps, accesses_[i]);
        } else if (owned()) {
          exec_stmt(stmts_[in.arg], st, max_instances);
        }
        ++pc;
        break;
      case COp::kHalt:
        return st;
    }
    if constexpr (kProfiled) {
      const i64 dt = profile_now_ns() - t0;
      hist->op[static_cast<int>(in.op)]->record(dt);
      if (in.op == COp::kStmt) hist->depth_cell(depth)->record(dt);
    }
  }
}

InterpStats VmProgram::run(const InterpOptions& opts) {
  ScopedSpan span("vm.run", "exec");
  ScopedTimer timer("exec.vm.run_ns");
  probe_ = opts.cache_probe;
  if (probe_) {
    INLT_CHECK_MSG(probe_->line_elems > 0 &&
                       (probe_->line_elems & (probe_->line_elems - 1)) == 0,
                   "CacheProbe::line_elems must be a power of two");
    probe_shift_ = 0;
    while ((i64{1} << probe_shift_) < probe_->line_elems) ++probe_shift_;
  }
  batched_instances_ = serial_leaf_instances_ = 0;
  leaf_entries_ = carried_entries_ = 0;
  InterpStats st = opts.profile ? dispatch<Mode::kProfiled>(opts.max_instances)
                                : dispatch<Mode::kSerial>(opts.max_instances);
  Stats::global().add("exec.vm.runs");
  Stats::global().add("exec.vm.instances", st.instances);
  add_leaf_counters();
  return st;
}

int VmProgram::mark_partition(const std::vector<std::string>& vars) {
  marked_.assign(loops_.size(), 0);
  reach_marked_.assign(loops_.size(), 0);
  for (size_t i = 0; i < loops_.size(); ++i)
    for (const std::string& v : vars)
      if (loops_[i].var == v) marked_[i] = 1;
  // Only the outermost marked loop on any nest path splits; a mark
  // under another mark is dropped. reach_marked_ records, per loop,
  // whether its subtree contains a surviving mark (itself included) —
  // the "is there any work for workers != 0 below here" test.
  std::vector<int> stack;
  int count = 0;
  for (const CInst& in : code_) {
    if (in.op == COp::kLoopEnter) {
      bool under = false;
      for (int a : stack)
        if (marked_[a]) under = true;
      if (under) marked_[in.arg] = 0;
      if (marked_[in.arg]) {
        ++count;
        reach_marked_[in.arg] = 1;
        for (int a : stack) reach_marked_[a] = 1;
      }
      stack.push_back(in.arg);
    } else if (in.op == COp::kLoopNext) {
      stack.pop_back();
    }
  }
  return count;
}

std::vector<std::pair<int, std::string>> VmProgram::marked_loops() const {
  std::vector<std::pair<int, std::string>> out;
  for (const CInst& in : code_)
    if (in.op == COp::kLoopEnter && in.arg < static_cast<int>(marked_.size()) &&
        marked_[in.arg])
      out.emplace_back(in.arg, loops_[in.arg].var);
  return out;
}

// One arrival at the team barrier. With instrumentation off, its whole
// cost over the bare wait is one plain pointer test.
void VmProgram::team_wait(const Team& t) {
  WorkerProfile* prof = instr_.prof;
  const i64 t0 = prof ? profile_now_ns() : 0;
  t.barrier.arrive_and_wait();
  if (prof) {
    const i64 waited = profile_now_ns() - t0;
    prof->barrier_wait_ns += waited;
    if (instr_.wait_ns) instr_.wait_ns->record(waited);
  }
}

// Enter this worker's chunk of one nonempty activation [lo, hi] of
// marked loop `id`: the block [count*w/n, count*(w+1)/n) of its
// iterations, with lo and hi narrowed to it, and the chunk's profile
// and trace clocks started. A worker whose block is empty (more
// workers than iterations) arrives at the exit barrier at once and
// gets false.
bool VmProgram::enter_chunk(const LoopInfo& L, int id, const Team& t, i64& lo,
                            i64& hi) {
  WorkerProfile* prof = instr_.prof;
  const i64 count = floor_div(checked_sub(hi, lo), L.step) + 1;
  const i64 b = count * t.worker / t.nworkers;
  const i64 e = count * (t.worker + 1) / t.nworkers;
  if (prof) {
    if (prof->levels.size() < loops_.size())
      prof->levels.resize(loops_.size());
    ++prof->levels[id].activations;
  }
  if (b >= e) {
    if (prof) ++prof->empty_chunks;
    team_wait(t);
    return false;
  }
  hi = checked_add(lo, checked_mul(e - 1, L.step));
  lo = checked_add(lo, checked_mul(b, L.step));
  enter_loop(L, id, lo, hi);
  // One relaxed atomic load: the rest of a disabled tracer's cost.
  chunk_traced_ = Tracer::enabled();
  if (prof) chunk_t0_ = profile_now_ns();
  if (chunk_traced_) {
    chunk_trace_t0_ = Tracer::global().now_ns();
    if (instr_.active_workers) {
      int a = instr_.active_workers->fetch_add(1, std::memory_order_relaxed) +
              1;
      Tracer::global().counter("active workers", "exec.par", "workers", a);
    }
  }
  return true;
}

// Leave this worker's chunk of marked loop `id`: record it, then the
// exit barrier — code after the loop may read what other chunks wrote.
void VmProgram::leave_chunk(const LoopInfo& L, int id, const Team& t) {
  if (WorkerProfile* prof = instr_.prof) {
    const i64 dur = profile_now_ns() - chunk_t0_;
    prof->busy_ns += dur;
    ++prof->chunks;
    LevelTally& lt = prof->levels[id];
    ++lt.chunks;
    lt.busy_ns += dur;
    if (instr_.chunk_ns) instr_.chunk_ns->record(dur);
  }
  if (chunk_traced_) {
    Tracer& tr = Tracer::global();
    TraceEvent ev;
    ev.name = "chunk";
    ev.cat = "exec.worker";
    ev.start_ns = chunk_trace_t0_;
    ev.dur_ns = tr.now_ns() - chunk_trace_t0_;
    ev.args.push_back(TraceArg{"loop", L.var, true});
    ev.args.push_back(TraceArg{"worker", std::to_string(t.worker), false});
    tr.record(std::move(ev));
    if (instr_.active_workers) {
      int a = instr_.active_workers->fetch_sub(1, std::memory_order_relaxed) -
              1;
      tr.counter("active workers", "exec.par", "workers", a);
    }
    if (instr_.chunks_done) {
      i64 c = instr_.chunks_done->fetch_add(1, std::memory_order_relaxed) + 1;
      tr.counter("chunks done", "exec.par", "chunks", c);
    }
  }
  team_wait(t);
}

InterpStats VmProgram::run_worker(int worker, int nworkers,
                                  ExecBarrier& barrier,
                                  const InterpOptions& opts) {
  INLT_CHECK_MSG(marked_.size() == loops_.size(),
                 "run_worker requires mark_partition() first");
  probe_ = nullptr;  // the cache probe and observer paths are serial
  batched_instances_ = serial_leaf_instances_ = 0;
  leaf_entries_ = carried_entries_ = 0;
  const Team team{worker, nworkers, barrier};
  InterpStats st = dispatch<Mode::kWorker>(opts.max_instances, &team);
  add_leaf_counters();
  return st;
}

void VmProgram::add_leaf_counters() const {
  Stats::global().add("exec.vm.batched_instances", batched_instances_);
  Stats::global().add("exec.vm.serial_leaf_instances", serial_leaf_instances_);
  Stats::global().add("exec.vm.leaf_entries", leaf_entries_);
  Stats::global().add("exec.vm.carried_entries", carried_entries_);
}

void VmProgram::probe_note(ProbeState& ps, const Access& a) {
  ProbeState::ArrayRange& r = ps.ranges[a.array];
  if (!r.init) {
    r.lo.resize(a.ndims);
    r.hi.resize(a.ndims);
    for (int d = 0; d < a.ndims; ++d)
      r.lo[d] = r.hi[d] = eval(dims_[a.first_dim + d].expr);
    r.init = true;
    return;
  }
  for (int d = 0; d < a.ndims; ++d) {
    i64 idx = eval(dims_[a.first_dim + d].expr);
    r.lo[d] = std::min(r.lo[d], idx);
    r.hi[d] = std::max(r.hi[d], idx);
  }
}

void VmProgram::run_probe(ProbeState& ps) {
  dispatch<Mode::kProbe>(0, nullptr, &ps);
}

}  // namespace inlt
