// TransformSession: projection-cache correctness (cached results are
// bit-identical to uncached) and structured diagnostics for illegal
// candidates. Concurrent evaluation is covered by search() in
// test_search_parallel.cpp.
#include "pipeline/session.hpp"

#include <gtest/gtest.h>

#include "codegen/generate.hpp"
#include "ir/gallery.hpp"
#include "ir/printer.hpp"
#include "linalg/project.hpp"
#include "transform/transforms.hpp"

namespace inlt {
namespace {

const char* kSimplifiedCholesky = R"(
param N
do I = 1, N
  S1: A(I) = sqrt(A(I))
  do J = I + 1, N
    S2: A(J) = A(J) / A(I)
  end
end
)";

// A constraint system with enough structure to exercise elimination:
// 1 <= i <= n, i <= j <= n, j - i >= 1.
ConstraintSystem sample_system() {
  ConstraintSystem cs({"i", "j", "n"});
  cs.add_var_ge(cs.var("i"), 1);
  cs.add_diff_ge(cs.var("n"), cs.var("i"), 0);
  cs.add_diff_ge(cs.var("j"), cs.var("i"), 1);
  cs.add_diff_ge(cs.var("n"), cs.var("j"), 0);
  return cs;
}

TEST(ProjectionCacheTest, HitIsBitIdenticalToUncached) {
  ConstraintSystem cs = sample_system();
  // No cache installed: the reference result.
  ConstraintSystem uncached = eliminate_var_real(cs, cs.var("j"));

  ProjectionCache cache;
  ScopedProjectionCache scope(&cache);
  i64 hits0 = Stats::global().value("fm.cache_hits");
  ConstraintSystem first = eliminate_var_real(cs, cs.var("j"));
  EXPECT_EQ(cache.size(), 1u);
  ConstraintSystem second = eliminate_var_real(cs, cs.var("j"));
  EXPECT_GE(Stats::global().value("fm.cache_hits"), hits0 + 1);

  EXPECT_EQ(first.to_string(), uncached.to_string());
  EXPECT_EQ(second.to_string(), uncached.to_string());
}

TEST(ProjectionCacheTest, HashDistinguishesVariableAndSystem) {
  ConstraintSystem cs = sample_system();
  std::uint64_t kj = ProjectionCache::hash_key(cs, cs.var("j"));
  std::uint64_t ki = ProjectionCache::hash_key(cs, cs.var("i"));
  EXPECT_NE(kj, ki);
  ConstraintSystem cs2 = sample_system();
  cs2.add_var_le(cs2.var("j"), 100);
  EXPECT_NE(ProjectionCache::hash_key(cs2, cs2.var("j")), kj);
  // Same system, same variable -> same hash (deterministic).
  EXPECT_EQ(ProjectionCache::hash_key(sample_system(), cs.var("j")), kj);
}

TEST(ProjectionCacheTest, ForcedCollisionsStillServeExactResults) {
  // Degenerate hash: every key lands in one bucket, so every lookup
  // exercises the full-key verification path. Results must stay
  // bit-identical to the uncached computation for *both* colliding
  // keys, and a find() for one key must never serve the other's value.
  ConstraintSystem cs = sample_system();
  ConstraintSystem ref_j = eliminate_var_real(cs, cs.var("j"));
  ConstraintSystem ref_i = eliminate_var_real(cs, cs.var("i"));

  ProjectionCache cache(
      +[](const ConstraintSystem&, int) -> std::uint64_t { return 42; });
  ScopedProjectionCache scope(&cache);

  ConstraintSystem first_j = eliminate_var_real(cs, cs.var("j"));
  ConstraintSystem first_i = eliminate_var_real(cs, cs.var("i"));
  EXPECT_EQ(cache.size(), 2u);  // both live in the same bucket

  i64 hits0 = Stats::global().value("fm.cache_hits");
  ConstraintSystem warm_j = eliminate_var_real(cs, cs.var("j"));
  ConstraintSystem warm_i = eliminate_var_real(cs, cs.var("i"));
  EXPECT_GE(Stats::global().value("fm.cache_hits"), hits0 + 2);

  EXPECT_EQ(first_j.to_string(), ref_j.to_string());
  EXPECT_EQ(warm_j.to_string(), ref_j.to_string());
  EXPECT_EQ(first_i.to_string(), ref_i.to_string());
  EXPECT_EQ(warm_i.to_string(), ref_i.to_string());
  EXPECT_NE(ref_j.to_string(), ref_i.to_string());  // the test has teeth
}

TEST(ProjectionCacheTest, InstallIsPerThreadAndRestored) {
  ProjectionCache cache;
  {
    ScopedProjectionCache scope(&cache);
    ConstraintSystem cs = sample_system();
    eliminate_var_real(cs, cs.var("i"));
    EXPECT_EQ(cache.size(), 1u);
  }
  // Scope gone: further eliminations must not touch the cache.
  ConstraintSystem cs = sample_system();
  eliminate_var_real(cs, cs.var("j"));
  EXPECT_EQ(cache.size(), 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SessionTest, CachedEvaluationMatchesFreeFunctions) {
  // The session's generated program must be byte-identical to the free
  // generate_code path (which runs uncached) — both on the first
  // (cache-filling) and second (cache-served) evaluation.
  SessionOptions opts;
  opts.simplify = false;
  TransformSession session(gallery::cholesky(), opts);
  IntMat m = loop_permutation(session.layout(), {"K", "J", "L", "I"});

  CodegenResult reference =
      generate_code(session.layout(), session.dependences(), m);
  std::string expected = print_program(reference.program);

  CandidateResult cold = session.evaluate(m);
  ASSERT_TRUE(cold.legal) << cold.error;
  EXPECT_EQ(print_program(*cold.program), expected);

  i64 hits0 = Stats::global().value("fm.cache_hits");
  CandidateResult warm = session.evaluate(m);
  ASSERT_TRUE(warm.legal);
  EXPECT_EQ(print_program(*warm.program), expected);
  EXPECT_GT(Stats::global().value("fm.cache_hits"), hits0);
}

TEST(SessionTest, IllegalCandidateNamesTheDependence) {
  TransformSession session = TransformSession::from_source(kSimplifiedCholesky);
  IntMat m = loop_interchange(session.layout(), "I", "J");
  CandidateResult r = session.evaluate(m);
  EXPECT_FALSE(r.legal);
  EXPECT_FALSE(r.program.has_value());
  EXPECT_FALSE(r.error.empty());
  ASSERT_FALSE(r.diagnostics.empty());

  // At least one diagnostic is a legality error naming the violated
  // dependence: statements, array, kind.
  bool found = false;
  for (const Diagnostic& d : r.diagnostics) {
    if (d.stage != Stage::kLegality) continue;
    EXPECT_EQ(d.severity, Severity::kError);
    EXPECT_FALSE(d.src_stmt.empty());
    EXPECT_FALSE(d.dst_stmt.empty());
    EXPECT_EQ(d.array, "A");
    EXPECT_TRUE(d.dep_kind == "flow" || d.dep_kind == "anti" ||
                d.dep_kind == "output")
        << d.dep_kind;
    EXPECT_GE(d.dep_index, 0);
    found = true;
  }
  EXPECT_TRUE(found);
  // The same diagnostics landed in the session engine.
  EXPECT_TRUE(session.diags().has_errors());
}

TEST(SessionTest, LegalityViolationsMirrorDiagnostics) {
  TransformSession session = TransformSession::from_source(kSimplifiedCholesky);
  CandidateResult r =
      session.evaluate(loop_interchange(session.layout(), "I", "J"));
  ASSERT_FALSE(r.legal);
  ASSERT_FALSE(r.legality.violations.empty());
  ASSERT_EQ(r.legality.violations.size(), r.legality.diagnostics.size());
  for (size_t i = 0; i < r.legality.violations.size(); ++i)
    EXPECT_EQ(r.legality.violations[i], r.legality.diagnostics[i].message);
}

TEST(SessionTest, FromSourceParsesAndAnalyzesOnce) {
  TransformSession session = TransformSession::from_source(kSimplifiedCholesky);
  EXPECT_EQ(session.program().statements().size(), 2u);
  EXPECT_FALSE(session.dependences().deps.empty());
  // Identity candidate is trivially legal.
  CandidateResult r = session.evaluate(IntMat::identity(session.layout().size()));
  EXPECT_TRUE(r.legal) << r.error;
}

}  // namespace
}  // namespace inlt
