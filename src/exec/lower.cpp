// The lowering plans (see lower.hpp).
#include "exec/lower.hpp"

#include <algorithm>
#include <cstdlib>

#include "support/checked_int.hpp"

namespace inlt {

LoopPlan plan_loop(const Node& loop) {
  LoopPlan plan;
  const std::vector<NodePtr>& kids = loop.children();
  std::vector<std::vector<ArrayAccess>> accs(kids.size());
  for (int c = 0; c < static_cast<int>(kids.size()); ++c) {
    if (!kids[c]->is_stmt() || !kids[c]->guards().empty()) continue;
    plan.fast.push_back(c);
    accs[c] = kids[c]->stmt_data().accesses();
    for (int a = 0; a < static_cast<int>(accs[c].size()); ++a) {
      const ArrayAccess& x = accs[c][a];
      for (int d = -1; d < static_cast<int>(x.subscripts.size()); ++d) {
        bool repeat = false;
        for (const LoopPlan::Check& k : plan.checks) {
          const ArrayAccess& y = accs[k.stmt][k.access];
          repeat = repeat || (k.dim == d && y.array == x.array &&
                              (d < 0 || y.subscripts[d] == x.subscripts[d]));
        }
        if (!repeat) plan.checks.push_back({c, a, d});
      }
    }
  }
  plan.leaf = !plan.fast.empty() && plan.fast.size() == kids.size();
  return plan;
}

LoopChain loop_chain(const Node& loop) {
  LoopChain ch;
  if (loop.children().size() != 1 || !loop.children()[0]->is_loop())
    return ch;
  const Node* n = loop.children()[0].get();
  while (n->guards().empty() && n->children().size() == 1 &&
         n->children()[0]->is_loop() && n->runs_once()) {
    ch.links.push_back(n);
    n = n->children()[0].get();
  }
  ch.inner = n;
  return ch;
}

namespace {

// (J, L) -> subscript vector is one-to-one: the J and L coefficient
// columns have rank 2.
bool injective(const std::vector<AffineExpr>& s, const std::string& j,
               const std::string& l) {
  for (const AffineExpr& a : s)
    for (const AffineExpr& b : s)
      if (checked_mul(a.coef(j), b.coef(l)) !=
          checked_mul(a.coef(l), b.coef(j)))
        return true;
  return false;
}

// The dimensions in which a group can prove the two apart. In any
// other, `other` is `write` moved by a constant c with
// |c| <= 7 |coef of J|, and the write's range over a group is at least
// 7 |coef of J| wide, so the two ranges always meet.
std::vector<int> apart_dims(const std::vector<AffineExpr>& write,
                            const std::vector<AffineExpr>& other,
                            const std::string& j) {
  std::vector<int> dims;
  for (size_t d = 0; d < write.size(); ++d) {
    const AffineExpr diff = other[d] - write[d];
    if (!diff.is_constant() ||
        std::abs(diff.constant()) >
            checked_mul(7, std::abs(write[d].coef(j))))
      dims.push_back(static_cast<int>(d));
  }
  return dims;
}

}  // namespace

JamPlan plan_jam(const Node& loop) {
  JamPlan none, jam;
  LoopChain ch = loop_chain(loop);
  if (loop.step() != 1 || loop.runs_once() || !ch.inner) return none;
  const Node* leaf = ch.inner;
  jam.chain = std::move(ch.links);
  if (!leaf->guards().empty() || leaf->step() != 1 ||
      !leaf->lower().single() || !leaf->upper().single() ||
      !plan_loop(*leaf).leaf)
    return none;
  const std::string& j = loop.var();
  const std::string& l = leaf->var();
  std::vector<std::string> names{j, l};
  for (const Node* c : jam.chain) names.push_back(c->var());
  std::sort(names.begin(), names.end());
  if (std::adjacent_find(names.begin(), names.end()) != names.end())
    return none;

  // The chain variables replaced innermost first (an inner value may
  // name an outer chain variable).
  auto unchain = [&](AffineExpr& e) {
    for (auto c = jam.chain.rbegin(); c != jam.chain.rend(); ++c)
      e = e.substitute((*c)->var(), (*c)->lower().terms[0].expr);
  };
  for (const NodePtr& s : leaf->children()) {
    jam.accesses.push_back(s->stmt_data().accesses());
    for (ArrayAccess& a : jam.accesses.back())
      for (AffineExpr& e : a.subscripts) unchain(e);
  }
  jam.lower = leaf->lower();
  jam.upper = leaf->upper();
  unchain(jam.lower.terms[0].expr);
  unchain(jam.upper.terms[0].expr);
  const auto& accs = jam.accesses;
  auto subs = [&](JamPlan::Ref r) -> const std::vector<AffineExpr>& {
    return accs[r.stmt][r.access].subscripts;
  };
  bool profitable = false;
  for (int s = 0; s < static_cast<int>(accs.size()); ++s) {
    const std::vector<AffineExpr>& w = accs[s][0].subscripts;
    profitable = profitable || (!w.empty() && w.back().coef(j) == 1 &&
                                w.back().coef(l) == 0);
    // The write against every access of its array: its own, every
    // read, and the writes of itself and of later statements.
    for (int t = 0; t < static_cast<int>(accs.size()); ++t) {
      for (int a = t < s ? 1 : 0; a < static_cast<int>(accs[t].size()); ++a) {
        const ArrayAccess& x = accs[t][a];
        if (x.array != accs[s][0].array) continue;
        if (x.subscripts == w && injective(w, j, l)) continue;
        std::vector<int> dims = apart_dims(w, x.subscripts, j);
        if (dims.empty()) return none;
        bool repeat = false;
        for (const JamPlan::Pair& p : jam.pairs)
          repeat = repeat ||
                   (subs(p.write) == w && subs(p.other) == x.subscripts);
        if (!repeat) jam.pairs.push_back({{s, 0}, {t, a}, std::move(dims)});
      }
    }
  }
  if (!profitable) return none;
  jam.leaf = leaf;
  return jam;
}

}  // namespace inlt
