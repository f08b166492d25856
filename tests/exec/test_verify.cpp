// Semantic verification (exec/verify.hpp): the exact comparison and the
// asynchronous source reference.
//
// verify_equivalence and VerifyReference compare final memory bit for
// bit — one ulp is a difference, identical NaN bit patterns are not.
// VerifyReference runs the source on its own thread; a source that
// cannot run must surface as an Error from check() (never as the
// candidate's failure), and from a verified search() exactly as when
// the reference ran before the first candidate. These tests are in the
// ThreadSanitizer job's target list.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "codegen/generate.hpp"
#include "dependence/analyzer.hpp"
#include "exec/native.hpp"
#include "exec/verify.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "pipeline/search.hpp"
#include "pipeline/session.hpp"
#include "transform/transforms.hpp"

namespace inlt {
namespace {

namespace fs = std::filesystem;

static_assert(!std::is_copy_constructible_v<VerifyReference>);
static_assert(!std::is_move_constructible_v<VerifyReference>);

Program constant_store(const std::string& value) {
  return parse_program("param N\ndo I = 1, N\n  S1: A(I) = " + value +
                       "\nend\n");
}

// 2·N² statement instances: at N = 5100 just over the default
// 50,000,000-instance budget, on a 5100-element array.
Program over_budget_source() {
  return parse_program(R"(
param N
do I = 1, N
  do J = 1, N
    S1: A(J) = A(J) + 1.0
    S2: B(J) = A(J) * 0.5
  end
end
)");
}
constexpr i64 kOverBudgetN = 5100;

TEST(VerifyExact, OneUlpIsNotEquivalent) {
  // 1.0000000000000002 is the double right after 1.0.
  VerifyResult v = verify_equivalence(constant_store("1.0"),
                                      constant_store("1.0000000000000002"),
                                      {{"N", 4}}, FillKind::kRandom);
  EXPECT_FALSE(v.equivalent) << v.to_string();
  EXPECT_EQ(v.src_instances, v.dst_instances);
  EXPECT_GT(v.max_diff, 0.0);
  EXPECT_LT(v.max_diff, 1e-15);

  VerifyReference ref(constant_store("1.0"), {{"N", 4}}, FillKind::kRandom);
  VerifyResult r = ref.check(constant_store("1.0000000000000002"));
  EXPECT_FALSE(r.equivalent) << r.to_string();
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(ref.check(constant_store("1.0")).equivalent);
}

TEST(VerifyExact, IdenticalNanBitsAreEquivalent) {
  // sqrt(-1) is the same NaN on both sides.
  Program p = constant_store("sqrt(0.0 - 1.0)");
  VerifyResult v = verify_equivalence(p, p, {{"N", 3}}, FillKind::kRandom);
  EXPECT_TRUE(v.equivalent) << v.to_string();
  VerifyReference ref(p, {{"N", 3}}, FillKind::kRandom);
  EXPECT_TRUE(ref.check(p).equivalent);
  // ... but a NaN is not equal to a number.
  EXPECT_FALSE(ref.check(constant_store("0.0")).equivalent);
}

TEST(VerifyReferenceAsync, ConcurrentChecksWhileTheSourceRuns) {
  Program p = gallery::cholesky();
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);
  Program interchanged =
      generate_code(layout, deps, loop_interchange(layout, "J", "L")).program;
  VerifyReference ref(p, {{"N", 12}});
  constexpr int kThreads = 4;
  std::vector<int> ok(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      ok[t] = ref.check(t % 2 ? interchanged : p).equivalent ? 1 : 0;
    });
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(ok[t], 1) << "thread " << t;
}

TEST(VerifyReferenceAsync, SourceFailureIsRethrownNotRecorded) {
  VerifyReference ref(over_budget_source(), {{"N", kOverBudgetN}});
  // The candidate itself runs fine; the source's failure is the
  // caller's error, from every check.
  Program fine = constant_store("1.0");
  for (int i = 0; i < 2; ++i) {
    try {
      ref.check(fine);
      FAIL() << "expected the source's Error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("instance budget"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(VerifyReferenceAsync, DestructorWaitsForAnUnqueriedSource) {
  // Never checked: destruction must join the source run cleanly.
  VerifyReference ref(gallery::lu(), {{"N", 40}});
}

/// A verified search over a source that cannot run at the verify
/// parameters throws the source's Error from search().
void expect_search_throws_source_error(ExecEngine engine) {
  SessionOptions opts;
  opts.threads = 2;
  TransformSession session(over_budget_source(), opts);
  PermutationSkewGenerator gen(session.layout(), SearchSpace{});
  SearchOptions sopts;
  sopts.verify_params = {{"N", kOverBudgetN}};
  sopts.verify_engine = engine;
  try {
    session.search(gen, sopts);
    FAIL() << "expected the source's Error from search()";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("instance budget"),
              std::string::npos)
        << e.what();
  }
}

TEST(VerifyReferenceAsync, SearchThrowsSourceErrorOnVm) {
  expect_search_throws_source_error(ExecEngine::kVm);
}

TEST(VerifyReferenceAsync, SearchThrowsSourceErrorOnNative) {
  std::string why;
  if (!native_available(&why)) GTEST_SKIP() << why;
  // A private compile cache, so the developer's is never touched.
  const fs::path dir = fs::temp_directory_path() /
                       ("inltc-verify-test-" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const char* old = std::getenv("INLTC_CACHE_DIR");
  const std::string saved = old ? old : "";
  ::setenv("INLTC_CACHE_DIR", dir.c_str(), 1);
  expect_search_throws_source_error(ExecEngine::kNative);
  if (old)
    ::setenv("INLTC_CACHE_DIR", saved.c_str(), 1);
  else
    ::unsetenv("INLTC_CACHE_DIR");
  native_lru_clear();
  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace inlt
