#include "transform/target_deps.hpp"

#include <algorithm>
#include <map>
#include <optional>

#include "support/check.hpp"

namespace inlt {

namespace {

// A statement's label at one target position, as an affine function
// g·I + c of its source iteration vector I, plus a row w over the
// source layout (zero on edge positions) with w·A = g: the row that
// expresses the label through the source instance vector.
struct Label {
  IntVec g;
  i64 c = 0;
  IntVec w;
};

// The label `row`·E_x of a statement with embedding `e`.
Label row_label(const IntVec& row, const StatementEmbedding& e,
                const IvLayout& src) {
  Label l{IntVec(static_cast<size_t>(e.a.cols()), 0), 0, row};
  for (int p = 0; p < src.size(); ++p) {
    if (row[p] == 0) continue;
    for (int j = 0; j < e.a.cols(); ++j)
      l.g[j] = checked_add(l.g[j], checked_mul(row[p], e.a(p, j)));
    l.c = checked_add(l.c, checked_mul(row[p], e.b[p]));
    if (src.positions()[p].kind != PositionKind::kLoop) l.w[p] = 0;
  }
  return l;
}

// w·A == g: the row reproduces the label's linear part.
bool reproduces(const IntVec& w, const StatementEmbedding& e, const IntVec& g) {
  for (int j = 0; j < e.a.cols(); ++j) {
    i64 sum = 0;
    for (int p = 0; p < e.a.rows(); ++p)
      if (e.a(p, j) != 0) sum = checked_add(sum, w[p]);
    if (sum != g[j]) return false;
  }
  return true;
}

// The first of `rows` expressing both endpoints' labels, or null: then
// the component is w·d + (c_t − c_s) exactly, otherwise unknown.
const IntVec* expressing_row(std::initializer_list<const IntVec*> rows,
                             const StatementEmbedding& es, const Label& ls,
                             const StatementEmbedding& et, const Label& lt) {
  for (const IntVec* w : rows)
    if (reproduces(*w, es, ls.g) && reproduces(*w, et, lt.g)) return w;
  return nullptr;
}

DepEntry through(const DepVector& d, const IntVec* w, i64 c) {
  if (!w) return DepEntry::star();
  DepEntry acc = DepEntry::exact(c);
  for (size_t p = 0; p < w->size(); ++p)
    if ((*w)[p] != 0) acc = acc + d[p] * (*w)[p];
  return acc;
}

// Every statement's embedding and its labels at the target loop
// positions: M_p·E_x where loop p encloses x, the pad source's label
// M_u·E_x (or 0) where it does not. Indexed like src.stmt_labels().
struct Labels {
  const std::vector<std::string>* names = nullptr;
  std::vector<StatementEmbedding> emb;
  std::vector<std::vector<Label>> at;  // [statement][position]

  int index(const std::string& x) const {
    for (size_t i = 0; i < names->size(); ++i)
      if ((*names)[i] == x) return static_cast<int>(i);
    INLT_CHECK_MSG(false, "unknown statement " + x);
    return -1;
  }
};

Labels target_labels(const IvLayout& src, const IntMat& m,
                     const IvLayout& tgt) {
  Labels out;
  out.names = &src.stmt_labels();
  const int n = src.size();
  for (const std::string& x : src.stmt_labels()) {
    const StatementEmbedding& e =
        out.emb.emplace_back(statement_embedding(src, x));
    std::vector<Label>& at = out.at.emplace_back(static_cast<size_t>(n));
    const IvLayout::StmtInfo& info = tgt.stmt_info(x);
    const int k = static_cast<int>(info.loop_positions.size());
    for (int p : info.loop_positions) at[p] = row_label(m.row(p), e, src);
    for (size_t q = 0; q < info.padded_positions.size(); ++q) {
      int s = info.pad_source[q];
      if (s < 0) s = k > 0 ? 0 : -1;  // outermost loop, or the constant 0
      at[info.padded_positions[q]] =
          s >= 0 ? at[info.loop_positions[s]]
                 : Label{IntVec(static_cast<size_t>(k), 0), 0, IntVec(n, 0)};
    }
  }
  return out;
}

}  // namespace

DependenceSet target_dependences(const IvLayout& src,
                                 const DependenceSet& deps, const IntMat& m,
                                 const AstRecovery& rec) {
  const IvLayout& tgt = *rec.target_layout;
  const Labels labels = target_labels(src, m, tgt);
  std::vector<IntVec> rows;  // M's rows without their edge columns
  for (int p = 0; p < m.rows(); ++p) {
    IntVec r = m.row(p);
    for (int q = 0; q < src.size(); ++q)
      if (src.positions()[q].kind != PositionKind::kLoop) r[q] = 0;
    rows.push_back(std::move(r));
  }

  // Per endpoint pair (by statement index), the row expressing each
  // loop position that does not enclose both (null: '*') — M_p itself
  // first, then the rows the endpoints are padded from.
  using Repad = std::vector<std::pair<int, const IntVec*>>;
  const size_t nstmts = labels.emb.size();
  const std::vector<int> loops = tgt.all_loop_positions();
  std::vector<std::optional<Repad>> repadded(nstmts * nstmts);
  auto repad = [&](int s, int t) -> const Repad& {
    std::optional<Repad>& slot =
        repadded[static_cast<size_t>(s) * nstmts + static_cast<size_t>(t)];
    if (slot) return *slot;
    slot.emplace();
    const std::vector<int> common =
        tgt.common_loop_positions((*labels.names)[s], (*labels.names)[t]);
    for (int p : loops) {
      if (std::find(common.begin(), common.end(), p) != common.end())
        continue;
      const Label& ls = labels.at[s][p];
      const Label& lt = labels.at[t][p];
      slot->emplace_back(p, expressing_row({&rows[p], &ls.w, &lt.w},
                                           labels.emb[s], ls, labels.emb[t],
                                           lt));
    }
    return *slot;
  };

  DependenceSet out;
  out.deps.reserve(deps.deps.size());
  for (const Dependence& d : deps.deps) {
    const int s = labels.index(d.src), t = labels.index(d.dst);
    Dependence td{d.src, d.dst, d.kind, d.array, transform_dep(m, d.vector)};
    for (const auto& [p, w] : repad(s, t))
      td.vector[p] = through(d.vector, w,
                             checked_sub(labels.at[t][p].c, labels.at[s][p].c));
    out.deps.push_back(std::move(td));
  }
  return out;
}

std::optional<DependenceSet> generated_dependences(
    const IvLayout& src, const DependenceSet& deps, const IntMat& m,
    const AstRecovery& rec, const DependenceSet& target_deps,
    const std::vector<StatementPlan>& plans, const IvLayout& gen) {
  const IvLayout& skel = *rec.target_layout;
  if (gen.stmt_labels() != skel.stmt_labels()) return std::nullopt;

  // Generated position -> skeleton position, or the augmented row of
  // the one statement it wraps.
  std::map<std::string, int> by_name;
  for (int p = 0; p < skel.size(); ++p)
    by_name.emplace(skel.positions()[p].name, p);
  std::vector<int> to_skel(static_cast<size_t>(gen.size()), -1);
  std::vector<const StatementPlan*> aug_plan(static_cast<size_t>(gen.size()));
  std::vector<int> aug_row(static_cast<size_t>(gen.size()), -1);
  for (const StatementPlan& plan : plans) {
    const std::vector<int>& glp = gen.stmt_info(plan.label).loop_positions;
    const std::vector<int>& slp = skel.stmt_info(plan.label).loop_positions;
    // More generated loops than plan rows: reconstruction loops.
    if (static_cast<int>(glp.size()) != plan.t_full.rows() ||
        static_cast<int>(slp.size()) != plan.num_tree_rows)
      return std::nullopt;
    for (int r = 0; r < plan.num_tree_rows; ++r)
      if (gen.positions()[glp[r]].name != skel.positions()[slp[r]].name)
        return std::nullopt;
    for (int r = plan.num_tree_rows; r < plan.t_full.rows(); ++r) {
      const size_t q = static_cast<size_t>(glp[r]);
      if (aug_plan[q] || plan.offset_full[r] != 0) return std::nullopt;
      aug_plan[q] = &plan;
      aug_row[q] = r;
    }
  }
  int mapped = 0;
  for (int q = 0; q < gen.size(); ++q) {
    if (aug_plan[q]) continue;
    auto it = by_name.find(gen.positions()[q].name);
    if (it == by_name.end() ||
        skel.positions()[it->second].kind != gen.positions()[q].kind)
      return std::nullopt;
    to_skel[q] = it->second;
    ++mapped;
  }
  if (mapped != skel.size()) return std::nullopt;

  std::optional<Labels> labels;  // needed at augmented loops only
  // Label of statement `x` at augmented position q: the augmented row
  // on its own loops for the statement q wraps; for any other
  // statement, which q does not enclose, its label at its pad source —
  // one of the wrapped statement's tree loops.
  auto label_at = [&](const std::string& x, int q) {
    const StatementPlan& owner = *aug_plan[q];
    const std::vector<int>& lp = src.stmt_info(x).loop_positions;
    if (x == owner.label) {
      Label l{owner.t_full.row(aug_row[q]), 0, IntVec(src.size(), 0)};
      for (size_t j = 0; j < lp.size(); ++j) l.w[lp[j]] = l.g[j];
      return l;
    }
    const IvLayout::StmtInfo& gi = gen.stmt_info(x);
    const size_t at = static_cast<size_t>(
        std::find(gi.padded_positions.begin(), gi.padded_positions.end(), q) -
        gi.padded_positions.begin());
    int s = gi.pad_source[at];
    if (s < 0) s = lp.empty() ? -1 : 0;
    if (s < 0) return Label{IntVec(), 0, IntVec(src.size(), 0)};
    const int u = to_skel[static_cast<size_t>(gi.loop_positions[s])];
    INLT_CHECK(u >= 0);
    return labels->at[labels->index(x)][u];
  };

  DependenceSet out;
  out.deps.reserve(deps.deps.size());
  for (size_t i = 0; i < deps.deps.size(); ++i) {
    const Dependence& d = deps.deps[i];
    const DepVector& t = target_deps.deps[i].vector;
    Dependence g{d.src, d.dst, d.kind, d.array, DepVector(gen.size())};
    for (int q = 0; q < gen.size(); ++q) {
      if (to_skel[q] >= 0) {
        g.vector[q] = t[static_cast<size_t>(to_skel[q])];
        continue;
      }
      if (!labels) labels.emplace(target_labels(src, m, skel));
      const Label ls = label_at(d.src, q);
      const Label lt = label_at(d.dst, q);
      g.vector[q] = through(
          d.vector,
          expressing_row({&ls.w, &lt.w}, labels->emb[labels->index(d.src)],
                         ls, labels->emb[labels->index(d.dst)], lt),
          checked_sub(lt.c, ls.c));
    }
    out.deps.push_back(std::move(g));
  }
  return out;
}

}  // namespace inlt
