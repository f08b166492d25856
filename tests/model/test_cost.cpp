// Unit tests for the static cache-locality cost model: per-reference
// innermost strides, reuse classification, line estimates, ordering
// and rendering.
#include "model/cost.hpp"

#include <gtest/gtest.h>

#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "transform/transforms.hpp"

namespace inlt {
namespace {

// A dependence-free two-deep nest with one reference per reuse class
// under the identity transformation: C(I,J) walks rows (spatial),
// A(J,I) walks columns (none), B(I) is inner-invariant (temporal).
constexpr const char* kRowColSrc = R"(param N
do I = 1, N
  do J = 1, N
    S1: C(I, J) = A(J, I) + B(I)
  end
end
)";

ModelOptions small_opts() {
  ModelOptions o;
  o.line_elems = 8;
  o.nominal_trip = 16;
  return o;
}

const RefCost& ref_of(const CostEstimate& est, const std::string& array) {
  for (const RefCost& r : est.refs)
    if (r.array == array) return r;
  ADD_FAILURE() << "no reference of array " << array;
  static RefCost dummy;
  return dummy;
}

TEST(CostModel, IdentityClassifiesRowColumnAndInvariant) {
  Program p = parse_program(kRowColSrc);
  IvLayout layout(p);
  CostEstimate est =
      estimate_cost(layout, IntMat::identity(layout.size()), small_opts());

  ASSERT_EQ(est.refs.size(), 3u);
  const RefCost& c = ref_of(est, "C");
  EXPECT_TRUE(c.is_write);
  EXPECT_EQ(c.reuse, ReuseClass::kSpatial);
  ASSERT_EQ(c.stride_dims.size(), 2u);
  EXPECT_TRUE(c.stride_dims[0].is_zero());
  EXPECT_EQ(c.stride_dims[1], Rational(1));
  // trip=16, line=8: 2 lines per inner run, 16 inner runs.
  EXPECT_DOUBLE_EQ(c.lines, 32.0);

  const RefCost& a = ref_of(est, "A");
  EXPECT_EQ(a.reuse, ReuseClass::kNone);  // outer subscript moves
  EXPECT_EQ(a.stride_dims[0], Rational(1));
  EXPECT_DOUBLE_EQ(a.lines, 256.0);  // a new line every iteration

  const RefCost& b = ref_of(est, "B");
  EXPECT_EQ(b.reuse, ReuseClass::kTemporal);
  EXPECT_DOUBLE_EQ(b.lines, 16.0);  // one line per inner run

  EXPECT_DOUBLE_EQ(est.total_lines, 32 + 256 + 16);
}

TEST(CostModel, InterchangeFlipsRowAndColumnRoles) {
  Program p = parse_program(kRowColSrc);
  IvLayout layout(p);
  IntMat swap = loop_interchange(layout, "I", "J");
  CostEstimate est = estimate_cost(layout, swap, small_opts());

  // With I innermost: C jumps rows, A becomes contiguous, B moves by
  // one element per iteration (spatial on its only dimension).
  EXPECT_EQ(ref_of(est, "C").reuse, ReuseClass::kNone);
  EXPECT_EQ(ref_of(est, "A").reuse, ReuseClass::kSpatial);
  EXPECT_EQ(ref_of(est, "B").reuse, ReuseClass::kSpatial);
  EXPECT_DOUBLE_EQ(est.total_lines, 256 + 32 + 32);

  // The model prefers the identity order for this body.
  CostEstimate ident =
      estimate_cost(layout, IntMat::identity(layout.size()), small_opts());
  EXPECT_LT(ident, est);
}

TEST(CostModel, ReversalPreservesLocalityClasses) {
  // Reversing the inner loop negates the stride but not its magnitude:
  // every reference keeps its class and line estimate.
  Program p = parse_program(kRowColSrc);
  IvLayout layout(p);
  CostEstimate fwd =
      estimate_cost(layout, IntMat::identity(layout.size()), small_opts());
  CostEstimate rev =
      estimate_cost(layout, loop_reversal(layout, "J"), small_opts());
  ASSERT_EQ(fwd.refs.size(), rev.refs.size());
  for (size_t i = 0; i < fwd.refs.size(); ++i) {
    EXPECT_EQ(fwd.refs[i].reuse, rev.refs[i].reuse) << fwd.refs[i].array;
    EXPECT_DOUBLE_EQ(fwd.refs[i].lines, rev.refs[i].lines);
  }
  EXPECT_DOUBLE_EQ(fwd.total_lines, rev.total_lines);
}

TEST(CostModel, SubLineStrideScalesSpatialCost) {
  Program p = parse_program(R"(param N
do I = 1, N
  S1: A(2 * I) = f()
end
)");
  IvLayout layout(p);
  CostEstimate est =
      estimate_cost(layout, IntMat::identity(layout.size()), small_opts());
  ASSERT_EQ(est.refs.size(), 1u);
  EXPECT_EQ(est.refs[0].reuse, ReuseClass::kSpatial);
  EXPECT_EQ(est.refs[0].stride_dims[0], Rational(2));
  // trip * |2| / line_elems = 16 * 2 / 8.
  EXPECT_DOUBLE_EQ(est.refs[0].lines, 4.0);
}

TEST(CostModel, WholeLineStrideIsNone) {
  Program p = parse_program(R"(param N
do I = 1, N
  S1: A(8 * I) = f()
end
)");
  IvLayout layout(p);
  CostEstimate est =
      estimate_cost(layout, IntMat::identity(layout.size()), small_opts());
  ASSERT_EQ(est.refs.size(), 1u);
  // Stride == line_elems: a fresh line every iteration.
  EXPECT_EQ(est.refs[0].reuse, ReuseClass::kNone);
  EXPECT_DOUBLE_EQ(est.refs[0].lines, 16.0);
}

TEST(CostModel, SingularLoopStatementIsCosted) {
  // §5.5's skewed example: S1's per-statement transformation is
  // rank-deficient (a guarded single-iteration loop plus the
  // augmentation loop); the model must cost it, not reject it.
  Program p = gallery::augmentation_example();
  IvLayout layout(p);
  CostEstimate est =
      estimate_cost(layout, loop_skew(layout, "I", "J", -1), small_opts());
  // S1: write B(I), read B(I-1), read A(I-1,I+1); S2: write A(I,J).
  ASSERT_EQ(est.refs.size(), 4u);
  EXPECT_GT(est.total_lines, 0.0);
  for (const RefCost& r : est.refs) EXPECT_GE(r.lines, 1.0) << r.array;
}

TEST(CostModel, ConvenienceOverloadMatchesExplicitRecovery) {
  Program p = gallery::cholesky();
  IvLayout layout(p);
  IntMat ident = IntMat::identity(layout.size());
  AstRecovery rec = recover_ast(layout, ident);
  CostEstimate a = CostModel(layout, small_opts()).estimate(ident, rec);
  CostEstimate b = estimate_cost(layout, ident, small_opts());
  EXPECT_DOUBLE_EQ(a.total_lines, b.total_lines);
  ASSERT_EQ(a.refs.size(), b.refs.size());
  for (size_t i = 0; i < a.refs.size(); ++i) {
    EXPECT_EQ(a.refs[i].array, b.refs[i].array);
    EXPECT_EQ(a.refs[i].reuse, b.refs[i].reuse);
    EXPECT_DOUBLE_EQ(a.refs[i].lines, b.refs[i].lines);
  }
}

TEST(CostModel, OrderingIsByTotalLines) {
  CostEstimate cheap, costly;
  cheap.total_lines = 10;
  costly.total_lines = 20;
  EXPECT_LT(cheap, costly);
  EXPECT_FALSE(costly < cheap);
  CostEstimate tie;
  tie.total_lines = 10;
  EXPECT_FALSE(cheap < tie);
  EXPECT_FALSE(tie < cheap);
}

TEST(CostModel, RendersTextAndJson) {
  Program p = parse_program(kRowColSrc);
  IvLayout layout(p);
  CostEstimate est =
      estimate_cost(layout, IntMat::identity(layout.size()), small_opts());
  std::string text = est.to_text();
  EXPECT_NE(text.find("estimated distinct cache lines:"), std::string::npos);
  EXPECT_NE(text.find("write C"), std::string::npos);
  EXPECT_NE(text.find("temporal"), std::string::npos);
  EXPECT_NE(text.find("spatial"), std::string::npos);

  std::string js = est.to_json();
  EXPECT_NE(js.find("\"total_lines\":"), std::string::npos);
  EXPECT_NE(js.find("\"reuse\":\"none\""), std::string::npos);
  EXPECT_NE(js.find("\"array\":\"B\""), std::string::npos);
}

TEST(CostModel, ReuseClassNames) {
  EXPECT_STREQ(reuse_class_name(ReuseClass::kTemporal), "temporal");
  EXPECT_STREQ(reuse_class_name(ReuseClass::kSpatial), "spatial");
  EXPECT_STREQ(reuse_class_name(ReuseClass::kNone), "none");
}

}  // namespace
}  // namespace inlt
