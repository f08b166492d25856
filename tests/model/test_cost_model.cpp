// The per-search CostModel against one-shot estimates: every legal
// candidate of each gallery kernel and testdata program at skew bound
// 2, depth 1, scored by the model a search shares across its workers
// (with its (statement, N_S) memo warm and contended), must equal a
// fresh one-shot estimate field for field — and the memoized strides
// must equal the ones Definition 7's per_statement_transform gives.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <thread>

#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "linalg/gauss.hpp"
#include "linalg/hermite.hpp"
#include "model/cost.hpp"
#include "pipeline/search.hpp"
#include "support/stats.hpp"
#include "transform/per_statement.hpp"
#include "transform/target_deps.hpp"

namespace inlt {
namespace {

struct Kernel {
  std::string name;
  Program program;
};

Program load_testdata(const std::string& name) {
  std::ifstream in(std::string(INLT_TESTDATA_DIR) + "/" + name);
  std::stringstream ss;
  ss << in.rdbuf();
  return parse_program(ss.str());
}

std::vector<Kernel> kernels() {
  std::vector<Kernel> out;
  out.push_back({"simplified_cholesky", gallery::simplified_cholesky()});
  out.push_back({"fig3_perfect_nest", gallery::fig3_perfect_nest()});
  out.push_back({"augmentation_example", gallery::augmentation_example()});
  out.push_back({"cholesky", gallery::cholesky()});
  out.push_back({"simplified_cholesky_distributed",
                 gallery::simplified_cholesky_distributed()});
  out.push_back({"lu", gallery::lu()});
  for (const char* f : {"cholesky.loop", "skew_example.loop", "stencil.loop"})
    out.push_back({f, load_testdata(f)});
  // Two statements under the same loops share every N_S but not their
  // strides: the memo key must tell them apart.
  out.push_back({"twin_statements", parse_program(R"(param N
do I = 1, N
  do J = 1, N
    S1: A(I, J) = A(I, J) + B(J, I)
    S2: C(J, I) = C(J, I) + A(I, J)
  end
end
)")});
  return out;
}

void expect_same(const CostEstimate& a, const CostEstimate& b,
                 const std::string& at) {
  EXPECT_EQ(a.total_lines, b.total_lines) << at;
  EXPECT_EQ(a.effective_lines, b.effective_lines) << at;
  EXPECT_EQ(a.parallel_fraction, b.parallel_fraction) << at;
  EXPECT_EQ(a.exec_threads, b.exec_threads) << at;
  EXPECT_EQ(a.partition, b.partition) << at;
  ASSERT_EQ(a.refs.size(), b.refs.size()) << at;
  for (size_t i = 0; i < a.refs.size(); ++i) {
    const RefCost& x = a.refs[i];
    const RefCost& y = b.refs[i];
    EXPECT_EQ(x.stmt, y.stmt) << at;
    EXPECT_EQ(x.array, y.array) << at;
    EXPECT_EQ(x.is_write, y.is_write) << at;
    EXPECT_EQ(x.stride_dims, y.stride_dims) << at << " ref " << i;
    EXPECT_EQ(x.reuse, y.reuse) << at << " ref " << i;
    EXPECT_EQ(x.lines, y.lines) << at << " ref " << i;
  }
}

// The strides of every reference, derived as the model's documentation
// states it: N_S from per_statement_transform, its independent rows
// completed to T, dir = T^{-1}·(step·e_last).
std::vector<std::vector<Rational>> reference_strides(const IvLayout& src,
                                                     const IntMat& m,
                                                     const AstRecovery& rec,
                                                     PadMode pad) {
  std::vector<std::vector<Rational>> out;
  for (const std::string& label : src.stmt_labels()) {
    const StatementContext sc = src.program().find_statement(label);
    const std::vector<std::string> vars = sc.loop_vars();
    const int k = static_cast<int>(vars.size());
    std::vector<Rational> dir(static_cast<size_t>(k), Rational(0));
    if (k > 0) {
      PerStatement ps = per_statement_transform(src, rec, m, label, pad);
      IntMat kept;
      for (int r : independent_row_indices(ps.matrix))
        kept.append_row(ps.matrix.row(r));
      IntMat t = kept.rows() == 0 ? IntMat::identity(k)
                                  : complete_to_nonsingular(kept);
      RatMat t_inv = inverse(to_rational(t));
      Rational step = hermite_normal_form(t).h(k - 1, k - 1);
      for (int i = 0; i < k; ++i) dir[i] = t_inv(i, k - 1) * step;
    }
    for (const ArrayAccess& a : sc.stmt->stmt_data().accesses()) {
      std::vector<Rational>& s = out.emplace_back();
      for (const AffineExpr& sub : a.subscripts) {
        Rational v = 0;
        for (int j = 0; j < k; ++j) v += Rational(sub.coef(vars[j])) * dir[j];
        s.push_back(v);
      }
    }
  }
  return out;
}

class CostModelDifferential
    : public ::testing::TestWithParam<int /*exec_threads*/> {};

TEST_P(CostModelDifferential, SharedModelMatchesOneShotOnEveryLegalCandidate) {
  const int exec_threads = GetParam();
  for (const Kernel& k : kernels()) {
    SessionOptions so;
    so.threads = 4;
    TransformSession session(k.program, so);
    const IvLayout& layout = session.layout();
    const DependenceSet& deps = session.dependences();
    SearchOptions sopts;
    sopts.mode = SearchMode::kLegalityOnly;
    sopts.cost = true;
    sopts.exec_threads = exec_threads;
    SearchResult res = session.search(SearchSpace{2, 1}, sopts);
    ASSERT_GT(res.hits.size(), 0u) << k.name;

    ModelOptions mopts;
    mopts.exec_threads = exec_threads;
    for (const SearchHit& h : res.hits) {
      const std::string at = k.name + " #" + std::to_string(h.index);
      ASSERT_TRUE(h.cost.has_value()) << at;
      AstRecovery rec = recover_ast(layout, h.matrix);
      expect_same(*h.cost, estimate_cost(layout, deps, h.matrix, rec, mopts),
                  at);
      const std::vector<std::vector<Rational>> ref =
          reference_strides(layout, h.matrix, rec, mopts.pad);
      ASSERT_EQ(ref.size(), h.cost->refs.size()) << at;
      for (size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(h.cost->refs[i].stride_dims, ref[i]) << at << " ref " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ExecThreads, CostModelDifferential,
                         ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "exec_threads_" +
                                  std::to_string(info.param);
                         });

TEST(CostModel, ConcurrentEstimatesShareOneMemo) {
  // Four threads score the same candidates through one model: every
  // estimate equals a one-shot one, every statement lookup counts as
  // a memo hit or miss, and most of them hit.
  TransformSession session(gallery::cholesky());
  const IvLayout& layout = session.layout();
  const DependenceSet& deps = session.dependences();
  std::vector<IntMat> legal;
  SearchOptions sopts;
  sopts.mode = SearchMode::kLegalityOnly;
  sopts.sink = [&](const SearchHit& h) { legal.push_back(h.matrix); };
  session.search(SearchSpace{1, 1}, sopts);
  ASSERT_GT(legal.size(), 8u);
  std::vector<AstRecovery> recs;
  std::vector<DependenceSet> tdeps;
  for (const IntMat& m : legal) {
    recs.push_back(recover_ast(layout, m));
    tdeps.push_back(target_dependences(layout, deps, m, recs.back()));
  }

  const CostModel model(layout);
  const StatsSnapshot before = Stats::global().snapshot();
  std::vector<std::vector<CostEstimate>> got(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < legal.size(); ++i)
        got[t].push_back(model.estimate(legal[i], recs[i], tdeps[i]));
    });
  for (std::thread& t : threads) t.join();
  const StatsSnapshot delta = Stats::global().snapshot() - before;

  for (size_t i = 0; i < legal.size(); ++i) {
    const CostEstimate one = CostModel(layout, model.options())
                                 .estimate(legal[i], recs[i], tdeps[i]);
    for (int t = 0; t < 4; ++t)
      expect_same(got[t][i], one, "candidate " + std::to_string(i));
  }
  const i64 lookups = 4 * static_cast<i64>(legal.size()) *
                      static_cast<i64>(layout.stmt_labels().size());
  EXPECT_EQ(delta.counter("model.direction_memo_hits") +
                delta.counter("model.direction_memo_misses"),
            lookups);
  EXPECT_GT(delta.counter("model.direction_memo_hits"), lookups / 2);
}

}  // namespace
}  // namespace inlt
