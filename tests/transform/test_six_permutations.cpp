// C1 (§1/§5): "all six permutations of the loops in Cholesky
// factorization" — explored exhaustively through completion + code
// generation + semantic verification.
//
// Reproduction finding: under the paper's diagonal embedding, four of
// the six orderings of the update statement's (K, J, L) space are
// expressible and legal — the right-looking family (K outer) and the
// left-looking family (L outer, with the completion reordering S3
// first exactly as Fig 8 shows). The two J-outer (bordered /
// row-oriented) forms require S2's time coordinate to be its I value,
// but diagonal padding pins S2's J position to K — a different
// embedding, which §2 explicitly leaves unexplored. EXPERIMENTS.md
// records this as the one scoped-down claim.
#include <gtest/gtest.h>

#include <algorithm>

#include "codegen/generate.hpp"
#include "exec/verify.hpp"
#include "ir/gallery.hpp"
#include "transform/completion.hpp"

namespace inlt {
namespace {

struct PermCase {
  std::string order;  // e.g. "KJL": sources for the 3 outer loop rows
  bool expect_legal;
};

// Without this, gtest prints the raw object bytes — including the
// string's heap pointer — so the discovered test names change per run.
void PrintTo(const PermCase& pc, std::ostream* os) {
  *os << pc.order << (pc.expect_legal ? " legal" : " illegal");
}

class SixPermutations : public ::testing::TestWithParam<PermCase> {};

TEST_P(SixPermutations, CompleteGenerateVerify) {
  const PermCase& pc = GetParam();
  Program p = gallery::cholesky();
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);

  std::vector<IntVec> rows;
  for (char c : pc.order) {
    IntVec r(7, 0);
    r[layout.loop_position(std::string(1, c))] = 1;
    rows.push_back(r);
  }

  if (!pc.expect_legal) {
    EXPECT_THROW(complete_transformation(layout, deps, rows),
                 TransformError);
    return;
  }
  CompletionResult res = complete_transformation(layout, deps, rows);
  ASSERT_TRUE(res.legality.legal());
  CodegenResult cg = generate_code(layout, deps, res.matrix);
  for (i64 n : {1, 2, 4, 8}) {
    VerifyResult v = verify_equivalence(p, cg.program, {{"N", n}});
    EXPECT_TRUE(v.equivalent) << pc.order << " N=" << n << ": "
                              << v.to_string();
  }
  // The L-outer (left-looking) family must run the update nest first,
  // as in Fig 8.
  if (pc.order[0] == 'L') {
    auto stmts = cg.program.statements();
    EXPECT_EQ(stmts[0].label(), "S3");
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOrders, SixPermutations,
    ::testing::Values(PermCase{"KJL", true}, PermCase{"KLJ", true},
                      PermCase{"LJK", true}, PermCase{"LKJ", true},
                      PermCase{"JKL", false}, PermCase{"JLK", false}),
    [](const ::testing::TestParamInfo<PermCase>& info) {
      return info.param.order;
    });

TEST(SixPermutationsSummary, FourOfSixExpressible) {
  Program p = gallery::cholesky();
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);
  int legal = 0;
  std::vector<std::string> vars = {"J", "K", "L"};
  std::sort(vars.begin(), vars.end());
  do {
    std::vector<IntVec> rows;
    for (const std::string& v : vars) {
      IntVec r(7, 0);
      r[layout.loop_position(v)] = 1;
      rows.push_back(r);
    }
    try {
      complete_transformation(layout, deps, rows);
      ++legal;
    } catch (const TransformError&) {
    }
  } while (std::next_permutation(vars.begin(), vars.end()));
  EXPECT_EQ(legal, 4);
}

}  // namespace
}  // namespace inlt
