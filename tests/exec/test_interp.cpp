// Interpreter and verification substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "exec/verify.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"

namespace inlt {
namespace {

TEST(DenseArray, BoundsCheckedAccess) {
  DenseArray a({0, 0}, {3, 3});
  a.set({2, 3}, 1.5);
  EXPECT_EQ(a.get({2, 3}), 1.5);
  EXPECT_EQ(a.get({0, 0}), 0.0);
  EXPECT_THROW(a.get({4, 0}), Error);
  EXPECT_THROW(a.get({0, -1}), Error);
  EXPECT_THROW(a.get({0}), Error);  // rank mismatch
}

TEST(DenseArray, NegativeOrigins) {
  DenseArray a({-2}, {5});
  a.set({-2}, 7.0);
  EXPECT_EQ(a.get({-2}), 7.0);
}

TEST(DenseArray, ForEachIndexCoversAll) {
  DenseArray a({1, -1}, {2, 1});
  int count = 0;
  a.for_each_index([&](const std::vector<i64>&) { ++count; });
  EXPECT_EQ(count, 2 * 3);
}

TEST(Interp, SimpleSumLoop) {
  Program p = parse_program(R"(
param N
do I = 1, N
  S1: A(I) = A(I - 1) + 1.0
end
)");
  Memory mem;
  declare_arrays(p, {{"N", 5}}, mem);
  InterpStats st = interpret(p, {{"N", 5}}, mem);
  EXPECT_EQ(st.instances, 5);
  EXPECT_EQ(mem.at("A").get({5}), 5.0);  // prefix sums of zeros + 1
}

TEST(Interp, GuardsSuppressExecution) {
  Program p = parse_program(R"(
param N
do I = 1, N
  if (I - 3 >= 0)
    S1: A(I) = 1.0
  endif
end
)");
  Memory mem;
  declare_arrays(p, {{"N", 5}}, mem);
  InterpStats st = interpret(p, {{"N", 5}}, mem);
  EXPECT_EQ(st.instances, 3);      // I = 3, 4, 5
  EXPECT_EQ(st.guard_failures, 2); // I = 1, 2
}

TEST(Interp, InstanceBudgetEnforced) {
  Program p = parse_program(R"(
param N
do I = 1, N
  S1: A(I) = 1.0
end
)");
  Memory mem;
  declare_arrays(p, {{"N", 100}}, mem);
  InterpOptions opts;
  opts.max_instances = 10;
  EXPECT_THROW(interpret(p, {{"N", 100}}, mem, opts), Error);
}

// Independent oracle: right-looking (kij) Cholesky in plain C++ on a
// row-major n x n matrix, factoring the lower triangle in place.
void cholesky_kij(std::vector<double>& a, size_t n) {
  for (size_t k = 0; k < n; ++k) {
    a[k * n + k] = std::sqrt(a[k * n + k]);
    for (size_t i = k + 1; i < n; ++i) a[i * n + k] /= a[k * n + k];
    for (size_t i = k + 1; i < n; ++i)
      for (size_t j = k + 1; j <= i; ++j)
        a[i * n + j] -= a[i * n + k] * a[j * n + k];
  }
}

TEST(Interp, CholeskyMatchesNativeKernel) {
  // The interpreter on the gallery Cholesky must agree with the native
  // kij kernel on the lower triangle.
  i64 n = 12;
  Program p = gallery::cholesky();
  Memory mem;
  declare_arrays(p, {{"N", n}}, mem);
  fill_spd(mem, 99);

  // Mirror memory into the kernel layout (1-based -> 0-based).
  std::vector<double> a(static_cast<size_t>(n) * n);
  for (i64 i = 1; i <= n; ++i)
    for (i64 j = 1; j <= n; ++j)
      a[static_cast<size_t>(i - 1) * n + (j - 1)] = mem.at("A").get({i, j});

  interpret(p, {{"N", n}}, mem);
  cholesky_kij(a, static_cast<size_t>(n));

  double worst = 0.0;
  for (i64 i = 1; i <= n; ++i)
    for (i64 j = 1; j <= i; ++j)
      worst = std::max(worst,
                       std::abs(mem.at("A").get({i, j}) -
                                a[static_cast<size_t>(i - 1) * n + (j - 1)]));
  EXPECT_LT(worst, 1e-9);
}

TEST(Interp, FuncIsPureAndEnvIndependent) {
  // f(I) in two different loop structures produces the same values.
  Program p1 = parse_program(R"(
param N
do I = 1, N
  S1: A(I) = f(I)
end
)");
  Program p2 = parse_program(R"(
param N
do Z = 1, N
  do I = Z, Z
    S1: A(I) = f(I)
  end
end
)");
  Memory m1, m2;
  declare_arrays(p1, {{"N", 6}}, m1);
  declare_arrays(p2, {{"N", 6}}, m2);
  interpret(p1, {{"N", 6}}, m1);
  interpret(p2, {{"N", 6}}, m2);
  EXPECT_EQ(m1.max_abs_diff(m2), 0.0);
}

TEST(Verify, DetectsInequivalence) {
  Program a = parse_program(R"(
param N
do I = 1, N
  S1: A(I) = A(I - 1) + 1.0
end
)");
  Program b = parse_program(R"(
param N
do I = 1, N
  S1: A(I) = A(I - 1) + 2.0
end
)");
  VerifyResult v = verify_equivalence(a, b, {{"N", 4}}, FillKind::kRandom);
  EXPECT_FALSE(v.equivalent);
}

TEST(Verify, DetectsReorderedRecurrence) {
  // Reversing a recurrence changes the result.
  Program a = parse_program(R"(
param N
do I = 1, N
  S1: A(I) = A(I - 1) * 0.5 + 1.0
end
)");
  Program b = parse_program(R"(
param N
do I = -N, -1
  S1: A(-I) = A(-I - 1) * 0.5 + 1.0
end
)");
  VerifyResult v = verify_equivalence(a, b, {{"N", 5}}, FillKind::kRandom);
  EXPECT_FALSE(v.equivalent);
}

TEST(Verify, EquivalentOnIdentity) {
  Program p = gallery::cholesky();
  VerifyResult v = verify_equivalence(p, p, {{"N", 6}});
  EXPECT_TRUE(v.equivalent);
  EXPECT_EQ(v.max_diff, 0.0);
}

}  // namespace
}  // namespace inlt
