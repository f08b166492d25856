#include "transform/per_statement.hpp"

#include <algorithm>

#include "linalg/gauss.hpp"
#include "support/check.hpp"

namespace inlt {

StatementEmbedding statement_embedding(const IvLayout& src,
                                       const std::string& label, PadMode pad) {
  const IvLayout::StmtInfo& info = src.stmt_info(label);
  int n = src.size();
  int k = static_cast<int>(info.loop_positions.size());
  StatementEmbedding e{IntMat(n, k), IntVec(n, 0)};
  for (int j = 0; j < k; ++j) e.a(info.loop_positions[j], j) = 1;
  for (int p : info.path_edge_positions) e.b[p] = 1;
  if (pad == PadMode::kDiagonal) {
    for (size_t q = 0; q < info.padded_positions.size(); ++q) {
      int srcidx = info.pad_source[q];
      if (srcidx < 0) srcidx = k > 0 ? 0 : -1;
      if (srcidx >= 0) e.a(info.padded_positions[q], srcidx) = 1;
    }
  }
  return e;
}

PerStatement per_statement_transform(const IvLayout& src,
                                     const AstRecovery& rec, const IntMat& m,
                                     const std::string& label, PadMode pad) {
  const StatementEmbedding emb = statement_embedding(src, label, pad);
  const IntMat& a_s = emb.a;
  IntMat ma = mat_mul(m, a_s);
  IntVec mb = mat_vec(m, emb.b);
  const auto& tinfo = rec.target_layout->stmt_info(label);
  PerStatement out;
  out.matrix = IntMat(static_cast<int>(tinfo.loop_positions.size()),
                      a_s.cols());
  out.offset.resize(tinfo.loop_positions.size());
  for (size_t r = 0; r < tinfo.loop_positions.size(); ++r) {
    int p = tinfo.loop_positions[r];
    for (int c = 0; c < a_s.cols(); ++c)
      out.matrix(static_cast<int>(r), c) = ma(p, c);
    out.offset[r] = mb[p];
  }
  return out;
}

IntMat complete_rows(const IntMat& t_s, std::vector<DepVector> d_s) {
  int k = t_s.cols();
  IntMat t = t_s;
  int r = rank(t);

  // Step 1 (Fig 7 lines 3-12): unit rows at dependence heights.
  while (!d_s.empty() && r < k) {
    // Height of the whole set: the first position at which some vector
    // is non-zero; by Theorem 1 that entry is positive for dependence
    // projections.
    int h = -1;
    for (const DepVector& d : d_s) {
      int fh = -1;
      for (size_t q = 0; q < d.size(); ++q)
        if (!d[q].is_zero()) {
          fh = static_cast<int>(q);
          break;
        }
      INLT_CHECK_MSG(fh >= 0, "unsatisfied dependence projected to zero");
      if (h < 0 || fh < h) h = fh;
    }
    // Sanity: a dependence's leading entry must be definitely positive
    // for the appended unit row to satisfy it.
    for (const DepVector& d : d_s) {
      int fh = -1;
      for (size_t q = 0; q < d.size(); ++q)
        if (!d[q].is_zero()) {
          fh = static_cast<int>(q);
          break;
        }
      if (fh == h)
        INLT_CHECK_MSG(d[h].definitely_positive(),
                       "leading entry of an unsatisfied self-dependence is "
                       "not provably positive");
    }
    IntVec e(k, 0);
    e[h] = 1;
    t.append_row(e);
    int nr = rank(t);
    INLT_CHECK_MSG(nr > r, "height row did not increase rank");
    r = nr;
    // Delete all vectors of height h.
    std::vector<DepVector> rest;
    for (DepVector& d : d_s) {
      int fh = -1;
      for (size_t q = 0; q < d.size(); ++q)
        if (!d[q].is_zero()) {
          fh = static_cast<int>(q);
          break;
        }
      if (fh != h) rest.push_back(std::move(d));
    }
    d_s = std::move(rest);
  }
  INLT_CHECK_MSG(d_s.empty(),
                 "rank reached k with unsatisfied dependences remaining");

  // Step 2 (lines 14-16): nullspace rows to reach full rank.
  if (r < k) {
    for (const IntVec& v : integer_nullspace(t)) t.append_row(v);
    INLT_CHECK(rank(t) == k);
  }
  return t;
}

std::vector<StatementPlan> plan_statements_from_self(
    const IvLayout& src, const IntMat& m, const AstRecovery& rec,
    const std::map<std::string, std::vector<DepVector>>& unsatisfied_self,
    PadMode pad) {
  std::vector<StatementPlan> plans;
  for (const std::string& label : src.stmt_labels()) {
    const IvLayout::StmtInfo& info = src.stmt_info(label);
    int k = static_cast<int>(info.loop_positions.size());

    PerStatement ps = per_statement_transform(src, rec, m, label, pad);

    std::vector<DepVector> d_s;
    auto it = unsatisfied_self.find(label);
    if (it != unsatisfied_self.end()) d_s = it->second;

    StatementPlan plan;
    plan.label = label;
    plan.num_tree_rows = ps.matrix.rows();
    plan.t_full = complete_rows(ps.matrix, std::move(d_s));
    plan.offset_full = ps.offset;
    plan.offset_full.resize(plan.t_full.rows(), 0);
    plan.nonsingular_rows = independent_row_indices(plan.t_full);
    INLT_CHECK_MSG(static_cast<int>(plan.nonsingular_rows.size()) == k,
                   "N_S is not k x k for statement " + label);
    plans.push_back(std::move(plan));
  }
  return plans;
}

std::vector<StatementPlan> plan_statements(const IvLayout& src,
                                           const DependenceSet& deps,
                                           const IntMat& m,
                                           const AstRecovery& rec,
                                           const LegalityResult& legality,
                                           PadMode pad) {
  INLT_CHECK_MSG(legality.legal(), "cannot plan an illegal transformation");
  // Project the unsatisfied self-dependences onto each statement's own
  // loop entries.
  std::map<std::string, std::vector<DepVector>> self;
  for (int idx : legality.unsatisfied) {
    const Dependence& d = deps.deps[idx];
    const IvLayout::StmtInfo& info = src.stmt_info(d.src);
    self[d.src].push_back(project_dep(d.vector, info.loop_positions));
  }
  return plan_statements_from_self(src, m, rec, self, pad);
}

}  // namespace inlt
