// transform_dep skips zero coefficients of M. That is exact — x·0 is
// exact(0) and adding exact(0) leaves any interval unchanged — so the
// sparse product must equal the dense interval sum entry for entry,
// including '*' and half-open entries.
#include <gtest/gtest.h>

#include <random>

#include "dependence/direction.hpp"

namespace inlt {
namespace {

DepVector dense_transform(const IntMat& m, const DepVector& d) {
  DepVector out;
  for (int i = 0; i < m.rows(); ++i) {
    DepEntry acc = DepEntry::exact(0);
    for (int j = 0; j < m.cols(); ++j) acc = acc + d[j] * m(i, j);
    out.push_back(acc);
  }
  return out;
}

DepEntry random_entry(std::mt19937& rng) {
  std::uniform_int_distribution<int> kind(0, 9);
  std::uniform_int_distribution<i64> v(-3, 3);
  switch (kind(rng)) {
    case 0: return DepEntry::star();
    case 1: return DepEntry::plus();
    case 2: return DepEntry::minus();
    case 3: return DepEntry::non_neg();
    case 4: return DepEntry::non_pos();
    case 5: return DepEntry::at_least(v(rng));
    case 6: return DepEntry::at_most(v(rng));
    case 7: {
      i64 a = v(rng), b = v(rng);
      return DepEntry::range(std::min(a, b), std::max(a, b));
    }
    default: return DepEntry::exact(v(rng));
  }
}

TEST(TransformDep, SparseMatchesDenseOnRandomIntervals) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> dim(1, 7);
  std::uniform_int_distribution<i64> coef(-3, 3);
  std::bernoulli_distribution zero(0.6);
  for (int trial = 0; trial < 2000; ++trial) {
    const int n = dim(rng);
    IntMat m(n, n);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) m(i, j) = zero(rng) ? 0 : coef(rng);
    DepVector d;
    for (int j = 0; j < n; ++j) d.push_back(random_entry(rng));
    EXPECT_EQ(transform_dep(m, d), dense_transform(m, d))
        << "trial " << trial << " d = " << dep_to_string(d);
  }
}

TEST(TransformDep, ZeroRowOfStarsIsExactZero) {
  // Every entry unbounded, every coefficient zero: the row is exact 0,
  // not '*' — the zero-skip must not change that.
  const IntMat m(2, 3);
  const DepVector d = {DepEntry::star(), DepEntry::plus(), DepEntry::minus()};
  const DepVector out = transform_dep(m, d);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0].is_zero());
  EXPECT_EQ(out, dense_transform(m, d));
}

TEST(TransformDep, HalfOpenEntriesCombine) {
  // [1,∞) − (−∞,−1] = [2,∞); 0·'*' contributes nothing.
  const IntMat m = {{1, -1, 0}};
  const DepVector d = {DepEntry::plus(), DepEntry::minus(), DepEntry::star()};
  const DepVector out = transform_dep(m, d);
  EXPECT_EQ(out[0], DepEntry::at_least(2));
  EXPECT_EQ(out, dense_transform(m, d));
}

}  // namespace
}  // namespace inlt
