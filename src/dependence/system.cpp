#include "dependence/system.hpp"

#include "dependence/analyzer.hpp"
#include "linalg/project.hpp"
#include "support/check.hpp"

namespace inlt {

namespace {

std::string src_var(const std::string& v) { return "s$" + v; }
std::string dst_var(const std::string& v) { return "d$" + v; }

LinExpr to_lin(const ConstraintSystem& cs, const AffineExpr& e,
               const Program& prog, bool src_side) {
  LinExpr r = cs.zero_expr();
  r.constant = e.constant();
  for (const auto& [name, coef] : e.terms()) {
    std::string v =
        prog.is_param(name) ? name : (src_side ? src_var(name) : dst_var(name));
    r.coef[cs.var(v)] = checked_add(r.coef[cs.var(v)], coef);
  }
  return r;
}

LinExpr lin_sub(const ConstraintSystem& cs, const LinExpr& a,
                const LinExpr& b) {
  LinExpr r = cs.zero_expr();
  for (int i = 0; i < cs.num_vars(); ++i)
    r.coef[i] = checked_sub(a.coef[i], b.coef[i]);
  r.constant = checked_sub(a.constant, b.constant);
  return r;
}

// Why the loops of `sc` cannot enter a dependence system, or "" — the
// first violation in loop order, as add_loop_bounds would meet it.
std::string loops_blocker(const StatementContext& sc) {
  for (const Node* l : sc.loops) {
    if (l->step() != 1) return "dependence analysis requires unit loop steps";
    if (!l->guards().empty() || !sc.stmt->guards().empty())
      return "dependence analysis requires guard-free source programs";
    for (const Bound* b : {&l->lower(), &l->upper()})
      for (const BoundTerm& t : b->terms)
        if (t.den != 1)
          return "dependence analysis requires denominator-1 bounds";
  }
  return {};
}

std::string rank_mismatch(const ArrayAccess& a) {
  return "array " + a.array + " used with inconsistent rank";
}

void add_loop_bounds(ConstraintSystem& cs, const Program& prog,
                     const StatementContext& sc, bool src_side) {
  if (std::string why = loops_blocker(sc); !why.empty())
    throw InvalidProgramError(why);
  for (const Node* l : sc.loops) {
    std::string v = src_side ? src_var(l->var()) : dst_var(l->var());
    int vi = cs.var(v);
    for (const BoundTerm& t : l->lower().terms) {
      LinExpr lo = to_lin(cs, t.expr, prog, src_side);
      LinExpr e = cs.zero_expr();
      e.coef[vi] = 1;
      cs.add_ge(lin_sub(cs, e, lo));
    }
    for (const BoundTerm& t : l->upper().terms) {
      LinExpr hi = to_lin(cs, t.expr, prog, src_side);
      LinExpr e = cs.zero_expr();
      e.coef[vi] = 1;
      cs.add_ge(lin_sub(cs, hi, e));
    }
  }
}

}  // namespace

LinExpr position_value_expr(const ConstraintSystem& cs,
                            const IvLayout& layout, const std::string& label,
                            int q, bool src_side, PadMode pad) {
  const IvLayout::StmtInfo& info = layout.stmt_info(label);
  const IvPosition& pos = layout.positions()[q];
  LinExpr r = cs.zero_expr();
  if (pos.kind == PositionKind::kEdge) {
    for (int e : info.path_edge_positions)
      if (e == q) {
        r.constant = 1;
        return r;
      }
    return r;  // 0
  }
  const auto& lps = info.loop_positions;
  for (size_t k = 0; k < lps.size(); ++k)
    if (lps[k] == q) {
      std::string v = layout.positions()[q].loop->var();
      r.coef[cs.var(src_side ? src_var(v) : dst_var(v))] = 1;
      return r;
    }
  if (pad == PadMode::kZero) return r;  // 0
  for (size_t k = 0; k < info.padded_positions.size(); ++k) {
    if (info.padded_positions[k] != q) continue;
    int srcidx = info.pad_source[k];
    if (srcidx < 0) {
      if (lps.empty()) return r;  // no loops: pad 0
      srcidx = 0;                 // fallback: outermost loop label
    }
    std::string v = layout.positions()[lps[srcidx]].loop->var();
    r.coef[cs.var(src_side ? src_var(v) : dst_var(v))] = 1;
    return r;
  }
  throw Error("position not classified for statement " + label);
}

std::vector<PairSystem> build_pair_systems(const IvLayout& layout) {
  const Program& prog = layout.program();
  std::vector<PairSystem> out;

  std::vector<StatementContext> stmts = prog.statements();
  for (const StatementContext& sa : stmts) {
    for (const StatementContext& sb : stmts) {
      size_t c = 0;
      while (c < sa.loops.size() && c < sb.loops.size() &&
             sa.loops[c] == sb.loops[c])
        ++c;
      int syn_a = layout.stmt_info(sa.label()).syntactic_index;
      int syn_b = layout.stmt_info(sb.label()).syntactic_index;

      std::vector<ArrayAccess> aaccs = sa.stmt->stmt_data().accesses();
      std::vector<ArrayAccess> baccs = sb.stmt->stmt_data().accesses();
      for (const ArrayAccess& a : aaccs) {
        for (const ArrayAccess& b : baccs) {
          if (a.array != b.array) continue;
          if (!a.is_write && !b.is_write) continue;
          if (a.subscripts.size() != b.subscripts.size())
            throw InvalidProgramError(rank_mismatch(a));

          std::vector<std::string> vars;
          for (const std::string& p : prog.params()) vars.push_back(p);
          for (const Node* l : sa.loops) vars.push_back(src_var(l->var()));
          for (const Node* l : sb.loops) vars.push_back(dst_var(l->var()));
          ConstraintSystem base(vars);
          add_loop_bounds(base, prog, sa, /*src_side=*/true);
          add_loop_bounds(base, prog, sb, /*src_side=*/false);
          for (size_t dim = 0; dim < a.subscripts.size(); ++dim) {
            LinExpr ea = to_lin(base, a.subscripts[dim], prog, true);
            LinExpr eb = to_lin(base, b.subscripts[dim], prog, false);
            base.add_eq(lin_sub(base, ea, eb));
          }

          for (size_t t = 0; t <= c; ++t) {
            if (t == c && syn_a >= syn_b) continue;
            ConstraintSystem cs = base;
            for (size_t k = 0; k < t; ++k) {
              const std::string& v = sa.loops[k]->var();
              cs.add_diff_eq(cs.var(dst_var(v)), cs.var(src_var(v)), 0);
            }
            if (t < c) {
              const std::string& v = sa.loops[t]->var();
              cs.add_diff_ge(cs.var(dst_var(v)), cs.var(src_var(v)), 1);
            }
            if (!integer_feasible(cs)) continue;

            PairSystem ps;
            ps.src = sa.label();
            ps.dst = sb.label();
            ps.kind = a.is_write ? (b.is_write ? DepKind::kOutput
                                               : DepKind::kFlow)
                                 : DepKind::kAnti;
            ps.array = a.array;
            ps.level = static_cast<int>(t);
            ps.base = std::move(cs);
            out.push_back(std::move(ps));
          }
        }
      }
    }
  }
  return out;
}

std::string analysis_blocker(const Program& prog) {
  // build_pair_systems' visiting order, without the systems: the first
  // conflicting access pair that fails decides the message.
  std::vector<StatementContext> stmts = prog.statements();
  for (const StatementContext& sa : stmts) {
    for (const StatementContext& sb : stmts) {
      std::vector<ArrayAccess> aaccs = sa.stmt->stmt_data().accesses();
      std::vector<ArrayAccess> baccs = sb.stmt->stmt_data().accesses();
      for (const ArrayAccess& a : aaccs) {
        for (const ArrayAccess& b : baccs) {
          if (a.array != b.array || (!a.is_write && !b.is_write)) continue;
          if (a.subscripts.size() != b.subscripts.size())
            return rank_mismatch(a);
          for (const StatementContext* sc : {&sa, &sb})
            if (std::string why = loops_blocker(*sc); !why.empty())
              return why;
        }
      }
    }
  }
  return {};
}

namespace {

bool feasible_with(const ConstraintSystem& base, LinExpr extra_ge) {
  ConstraintSystem cs = base;
  cs.add_ge(std::move(extra_ge));
  return integer_feasible(cs);
}

LinExpr shifted(const LinExpr& e, i64 k) {
  LinExpr r = e;
  r.constant = checked_sub(r.constant, k);
  return r;
}

LinExpr negated(const ConstraintSystem& cs, const LinExpr& e) {
  LinExpr r = cs.zero_expr();
  for (int i = 0; i < cs.num_vars(); ++i) r.coef[i] = checked_neg(e.coef[i]);
  r.constant = checked_neg(e.constant);
  return r;
}

}  // namespace

// Classify delta over the (feasible) system: the convex hull of its
// values, clipped to [-limit, limit] with unbounded ends detected.
DepEntry classify_delta(const ConstraintSystem& cs, const LinExpr& delta,
                        i64 limit) {
  if (delta.is_constant()) return DepEntry::exact(delta.constant);

  // feas_ge(k): can delta >= k?  (monotone decreasing in k)
  auto feas_ge = [&](i64 k) { return feasible_with(cs, shifted(delta, k)); };
  // feas_le(k): can delta <= k?  (monotone increasing in k)
  auto feas_le = [&](i64 k) {
    return feasible_with(cs, negated(cs, shifted(delta, k)));
  };

  bool hi_inf = feas_ge(limit + 1);
  bool lo_inf = feas_le(-limit - 1);

  i64 hi = 0, lo = 0;
  if (!hi_inf) {
    hi = -limit - 1;  // provisional: all values below the window
    for (i64 k = limit; k >= -limit; --k)
      if (feas_ge(k)) {
        hi = k;
        break;
      }
  }
  if (!lo_inf) {
    lo = limit + 1;
    for (i64 k = -limit; k <= limit; ++k)
      if (feas_le(k)) {
        lo = k;
        break;
      }
  }

  if (lo_inf && hi_inf) return DepEntry::star();
  if (lo_inf) return DepEntry::at_most(hi);
  if (hi_inf) return DepEntry::at_least(lo);
  if (lo > hi)
    throw Error("dependence classification found an empty interval");
  return DepEntry::range(lo, hi);
}

LinExpr lin_subtract(const ConstraintSystem& cs, const LinExpr& a,
                     const LinExpr& b) {
  return lin_sub(cs, a, b);
}

}  // namespace inlt

