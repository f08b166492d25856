// §1's premise, on generated code: "All six permutations of these
// three loops compute the same result". Every loop order the framework
// derives from a factorization — the skew-bound-0 search's hits and
// the completions of each (K, J, L) ordering of the update statement —
// must leave memory bit-identical to its source on the VM. The two
// bordered Cholesky forms the framework cannot reach (C1) are
// hand-written programs (tools/testdata/cholesky_i*.loop) held to the
// same standard. bench_orders times exactly these programs.
//
// Orders carry the classical (outer, middle, inner) names with k the
// reduction index, i the row and j the column: in cholesky.loop and
// the gallery LU, K is k, J is the row and L the column.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <tuple>

#include "exec/verify.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "pipeline/search.hpp"
#include "transform/completion.hpp"
#include "transform/transforms.hpp"

namespace inlt {
namespace {

Program load_testdata(const std::string& name) {
  std::ifstream in(std::string(INLT_TESTDATA_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "cannot open " << name;
  std::ostringstream os;
  os << in.rdbuf();
  return parse_program(os.str());
}

// Classical name of a (K, J, L) ordering, outermost first.
std::string classical(const std::string& kjl) {
  std::string out;
  for (char c : kjl) out += c == 'K' ? 'k' : c == 'J' ? 'i' : 'j';
  return out;
}

// The (K, J, L) ordering a loop-permutation matrix gives the update
// statement: slot rows in order, each naming the source loop it
// places.
std::string kjl_order(const IvLayout& layout, const IntMat& m) {
  std::string out;
  for (int slot : layout.all_loop_positions())
    for (int p : layout.all_loop_positions())
      if (m(slot, p) != 0) {
        const std::string& var = layout.positions()[p].name;
        if (var == "K" || var == "J" || var == "L") out += var;
      }
  return out;
}

struct Order {
  std::string name;  // classical name
  Program program;
};

struct Family {
  Program source;
  std::vector<Order> orders;
  std::vector<std::string> search_orders;  // one per search hit
  std::vector<std::string> completed;      // orderings completion reaches
};

// `bordered`: classical names of hand-written cholesky_<name>.loop forms.
Family derive(Program source, const std::vector<std::string>& bordered) {
  Family f{source, {}, {}, {}};
  TransformSession session(std::move(source));
  for (SearchHit& h : session.search(SearchSpace{}).hits) {
    const std::string name = classical(kjl_order(session.layout(), h.matrix));
    f.search_orders.push_back(name);
    f.orders.push_back({name, std::move(*h.result.program)});
  }
  std::string kjl = "JKL";
  do {
    std::vector<IntVec> rows;
    for (char c : kjl) {
      IntVec r(session.layout().size(), 0);
      r[session.layout().loop_position(std::string(1, c))] = 1;
      rows.push_back(r);
    }
    IntMat m;
    try {
      m = complete_transformation(session.layout(), session.dependences(),
                                  rows)
              .matrix;
    } catch (const TransformError&) {
      continue;
    }
    CandidateResult r = session.evaluate(m);
    EXPECT_TRUE(r.legal) << kjl;
    if (!r.program) continue;
    f.completed.push_back(classical(kjl));
    f.orders.push_back({classical(kjl), std::move(*r.program)});
  } while (std::next_permutation(kjl.begin(), kjl.end()));
  for (const std::string& name : bordered)
    f.orders.push_back({name, load_testdata("cholesky_" + name + ".loop")});
  return f;
}

const Family& cholesky() {
  static const Family f =
      derive(load_testdata("cholesky.loop"), {"ijk", "ikj"});
  return f;
}

const Family& lu() {
  static const Family f = derive(gallery::lu(), {});
  return f;
}

// Every program of `family` named `order` is bit-identical to the
// source at N = n (verify_equivalence compares memory bit for bit).
void expect_order_matches_source(const Family& family,
                                 const std::string& order, i64 n) {
  int checked = 0;
  for (const Order& o : family.orders) {
    if (o.name != order) continue;
    VerifyResult v = verify_equivalence(family.source, o.program, {{"N", n}});
    EXPECT_TRUE(v.equivalent) << order << " N=" << n << ": " << v.to_string();
    ++checked;
  }
  EXPECT_GT(checked, 0) << "no program has order " << order;
}

const char* const kCholeskyOrders[] = {"kij", "kji", "jki",
                                       "jik", "ijk", "ikj"};
const char* const kLuOrders[] = {"kij", "kji", "jki"};

class CholeskyOrderTest
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(CholeskyOrderTest, FactorsCorrectly) {
  auto [order, n] = GetParam();
  expect_order_matches_source(cholesky(), kCholeskyOrders[order],
                              static_cast<i64>(n));
}

INSTANTIATE_TEST_SUITE_P(
    Variants, CholeskyOrderTest,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values<std::size_t>(1, 2, 5, 17, 64)),
    [](const auto& info) {
      return std::string(kCholeskyOrders[std::get<0>(info.param)]) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

class LuOrderTest
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(LuOrderTest, FactorsCorrectly) {
  auto [order, n] = GetParam();
  expect_order_matches_source(lu(), kLuOrders[order], static_cast<i64>(n));
}

INSTANTIATE_TEST_SUITE_P(
    Variants, LuOrderTest,
    ::testing::Combine(::testing::Range(0, 3),
                       ::testing::Values<std::size_t>(1, 2, 5, 17, 64)),
    [](const auto& info) {
      return std::string(kLuOrders[std::get<0>(info.param)]) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

TEST(CholeskyOrders, AllVariantsAgreeOnLowerTriangle) {
  for (const Order& o : cholesky().orders) {
    VerifyResult v =
        verify_equivalence(cholesky().source, o.program, {{"N", 33}});
    EXPECT_TRUE(v.equivalent) << o.name << ": " << v.to_string();
  }
}

// C1: completion reaches the right-looking (K outer) and left-looking
// (L outer) orderings, not the two bordered (J outer) ones; the
// skew-bound-0 search reaches only right-looking orders, since the
// left-looking ones also reorder the statements (Fig 8).
TEST(CholeskyOrders, FourOfSixOrderingsReachable) {
  const std::vector<std::string> want = {"jik", "jki", "kij", "kji"};
  std::vector<std::string> got = cholesky().completed;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);
  EXPECT_EQ(cholesky().search_orders.size(), 6u);
  for (const std::string& o : cholesky().search_orders)
    EXPECT_EQ(o[0], 'k') << o;
}

TEST(LuOrders, SearchAndCompletionReachTheKAndLOuterOrders) {
  EXPECT_EQ(lu().search_orders.size(), 6u);
  for (const std::string& o : lu().search_orders) EXPECT_EQ(o[0], 'k') << o;
  std::vector<std::string> got = lu().completed;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<std::string>{"jik", "jki", "kij", "kji"}));
}

// §5.5: the skewed augmentation example.
TEST(SkewKernels, SourceAndTransformedAgree) {
  TransformSession session(load_testdata("skew_example.loop"));
  CandidateResult r =
      session.evaluate(loop_skew(session.layout(), "I", "J", -1));
  ASSERT_TRUE(r.program.has_value());
  for (i64 n : {1, 2, 7, 40}) {
    VerifyResult v =
        verify_equivalence(session.program(), *r.program, {{"N", n}});
    EXPECT_TRUE(v.equivalent) << "n=" << n << ": " << v.to_string();
  }
}

// The Gauss-Seidel stencil and its wavefront order: skew I J 1 makes
// the outer loop the anti-diagonal I + J.
TEST(StencilKernels, WavefrontMatchesOriginal) {
  TransformSession session(load_testdata("stencil.loop"));
  CandidateResult r =
      session.evaluate(loop_skew(session.layout(), "I", "J", 1));
  ASSERT_TRUE(r.program.has_value());
  for (i64 n : {1, 2, 9, 33}) {
    VerifyResult v =
        verify_equivalence(session.program(), *r.program, {{"N", n}});
    EXPECT_TRUE(v.equivalent) << "n=" << n << ": " << v.to_string();
  }
}

}  // namespace
}  // namespace inlt
