#include <gtest/gtest.h>

#include <map>

#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"

namespace inlt {
namespace {

TEST(Parser, SimplifiedCholeskyShape) {
  Program p = gallery::simplified_cholesky();
  EXPECT_EQ(p.params(), std::vector<std::string>{"N"});
  ASSERT_EQ(p.roots().size(), 1u);
  const Node& i = *p.roots()[0];
  ASSERT_TRUE(i.is_loop());
  EXPECT_EQ(i.var(), "I");
  ASSERT_EQ(i.num_children(), 2);
  EXPECT_TRUE(i.children()[0]->is_stmt());
  EXPECT_TRUE(i.children()[1]->is_loop());
  const Statement& s1 = i.children()[0]->stmt_data();
  EXPECT_EQ(s1.label, "S1");
  EXPECT_EQ(s1.lhs_array, "A");
  ASSERT_EQ(s1.lhs_subscripts.size(), 1u);
  EXPECT_EQ(s1.lhs_subscripts[0].to_string(), "I");
}

TEST(Node, RunsOnceWhenBothBoundsAreOneTerm) {
  Program p = parse_program(R"(param N
do K = 1, N
  do J = 2*K, 2*K
    do L = max(K, -J), min(K + 3, -J)
      do M = ceil(K, 2), floor(K, 2)
        do I = 3, 3
          S1: A(K, I) = A(J, M) + 1.0
        end
      end
    end
  end
end
)");
  std::map<std::string, bool> once;
  walk(p, [&](const Node& n, const std::vector<const Node*>&) {
    if (n.is_loop()) once[n.var()] = n.runs_once();
  });
  // L runs at most once, M at most once: neither exactly once.
  EXPECT_EQ(once, (std::map<std::string, bool>{
                      {"I", true}, {"J", true}, {"K", false}, {"L", false},
                      {"M", false}}));
}

TEST(Parser, AffineExpressions) {
  EXPECT_EQ(parse_affine("2*I - J + 1").to_string(), "2*I - J + 1");
  EXPECT_EQ(parse_affine("I*3").coef("I"), 3);
  EXPECT_EQ(parse_affine("-I").coef("I"), -1);
  EXPECT_EQ(parse_affine("-(I - J)").coef("J"), 1);
  EXPECT_EQ(parse_affine("5").constant(), 5);
  EXPECT_EQ(parse_affine("2*(I + 1)").constant(), 2);
}

TEST(Parser, SyntaxErrorsCarryLineNumbers) {
  try {
    parse_program("param N\ndo I = 1 N\n  S1: A(I) = 1.0\nend\n");
    FAIL() << "expected parse error";
  } catch (const InvalidProgramError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(Parser, RejectsDuplicateLabels) {
  EXPECT_THROW(parse_program(R"(
param N
do I = 1, N
  S1: A(I) = 1.0
  S1: B(I) = 2.0
end
)"),
               InvalidProgramError);
}

TEST(Parser, RejectsUnknownVariableInSubscript) {
  EXPECT_THROW(parse_program(R"(
param N
do I = 1, N
  S1: A(Q) = 1.0
end
)"),
               InvalidProgramError);
}

TEST(Parser, RejectsShadowedLoopVariable) {
  EXPECT_THROW(parse_program(R"(
param N
do I = 1, N
  do I = 1, N
    S1: A(I) = 1.0
  end
end
)"),
               InvalidProgramError);
}

TEST(Parser, FunctionCallVsArrayRef) {
  Program p = parse_program(R"(
param N
do I = 1, N
  S1: A(I) = f() + B(I - 1) + sqrt(A(I))
end
)");
  const Statement& s = p.statements()[0].stmt->stmt_data();
  auto reads = s.accesses();
  // write A(I), read B(I-1), read A(I); f() is a function, not an
  // array access.
  ASSERT_EQ(reads.size(), 3u);
  EXPECT_EQ(reads[0].array, "A");
  EXPECT_TRUE(reads[0].is_write);
}

TEST(Parser, GuardsAndCoverBounds) {
  Program p = parse_program(R"(
param N
do I = min(-N + 1, 0), 0
  if (I >= 0)
    S1: A(I) = 1.0
  endif
  if ((I) mod 2 == 0)
    S2: B(I) = 2.0
  endif
end
)");
  const Node& loop = *p.roots()[0];
  EXPECT_EQ(loop.lower().mode, Bound::Mode::kCover);
  EXPECT_EQ(loop.children()[0]->guards()[0].kind, Guard::Kind::kGeZero);
  EXPECT_EQ(loop.children()[1]->guards()[0].kind, Guard::Kind::kDivisible);
  EXPECT_EQ(loop.children()[1]->guards()[0].modulus, 2);
}

// Print -> parse -> print is a fixed point on every gallery program.
class RoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(RoundTripTest, PrintParsePrintFixedPoint) {
  Program p;
  switch (GetParam()) {
    case 0: p = gallery::fig1_running_example(); break;
    case 1: p = gallery::simplified_cholesky(); break;
    case 2: p = gallery::fig3_perfect_nest(); break;
    case 3: p = gallery::augmentation_example(); break;
    case 4: p = gallery::cholesky(); break;
    default: p = gallery::simplified_cholesky_distributed(); break;
  }
  std::string once = print_program(p);
  Program re = parse_program(once);
  EXPECT_EQ(print_program(re), once);
}

INSTANTIATE_TEST_SUITE_P(Gallery, RoundTripTest, ::testing::Range(0, 6));

TEST(Printer, StepAndGuardsRender) {
  Program p = parse_program(R"(
param N
do I = 1, N, 2
  S1: A(I) = 1.0
end
)");
  std::string text = print_program(p);
  EXPECT_NE(text.find("do I = 1, N, 2"), std::string::npos) << text;
}

TEST(Ast, CloneIsDeep) {
  Program p = gallery::simplified_cholesky();
  Program q = p;  // deep copy via operator=
  q.mutable_roots()[0]->set_var("Z");
  EXPECT_EQ(p.roots()[0]->var(), "I");
  EXPECT_EQ(q.roots()[0]->var(), "Z");
}

TEST(Ast, RenameLoopVar) {
  Program p = gallery::simplified_cholesky();
  rename_loop_var(*p.mutable_roots()[0], "I", "X");
  std::string text = print_program(p);
  EXPECT_EQ(text.find(" I "), std::string::npos) << text;
  EXPECT_NE(text.find("do X = 1, N"), std::string::npos) << text;
  EXPECT_NE(text.find("do J = X + 1, N"), std::string::npos) << text;
}

TEST(Ast, FindStatementThrowsOnMissing) {
  Program p = gallery::simplified_cholesky();
  EXPECT_THROW(p.find_statement("S99"), InvalidProgramError);
}

}  // namespace
}  // namespace inlt
