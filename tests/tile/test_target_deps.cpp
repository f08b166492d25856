// Target-space dependences (transform/target_deps.hpp) against fresh
// re-analysis of the generated program. For every legal candidate of
// the gallery and testdata programs at skew bound 1 whose generated
// program is the recovered skeleton, possibly with augmented loops
// (generated_dependences follows it), the bands and tile plan
// derived from M·D must equal the ones re-analysis gives — or, where
// the interval hull of M·d is wider than the generated program's own
// hull (skews add intervals; a re-padded component becomes '*'), be a
// conservative subset: every derived band is a window of a re-analysed
// band, and the derived plan tiles a band re-analysis also accepts.
// Loop orders (permutation matrices) must match exactly.
//
// The search's tile stage itself must not re-analyse Cholesky or LU at
// all, and a PadMode::kZero session — where M·D does not describe the
// generated program — must still tile and verify through the fallback.
#include "transform/target_deps.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "dependence/system.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "pipeline/search.hpp"
#include "support/stats.hpp"
#include "support/trace.hpp"
#include "tile/plan.hpp"

namespace inlt {
namespace {

Program load_testdata(const std::string& name) {
  std::ifstream in(std::string(INLT_TESTDATA_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "cannot open " << name;
  std::ostringstream os;
  os << in.rdbuf();
  return parse_program(os.str());
}

bool is_permutation(const IntMat& m) {
  for (int r = 0; r < m.rows(); ++r) {
    int ones = 0;
    for (int c = 0; c < m.cols(); ++c) {
      if (m(r, c) != 0 && m(r, c) != 1) return false;
      ones += m(r, c) == 1;
    }
    if (ones != 1) return false;
  }
  return true;
}

// `inner` is a contiguous window of `outer`.
bool is_window(const std::vector<std::string>& inner,
               const std::vector<std::string>& outer) {
  return std::search(outer.begin(), outer.end(), inner.begin(),
                     inner.end()) != outer.end();
}

std::vector<std::vector<std::string>> band_vars(const BandReport& r) {
  std::vector<std::vector<std::string>> out;
  for (const LoopBand& b : r.bands) out.push_back(b.vars);
  return out;
}

struct Tally {
  int compared = 0;    // candidates whose bands were derived
  int equal = 0;       // ... and matched re-analysis exactly
  int augmented = 0;   // compared candidates with augmented loops
  int ineligible = 0;  // analyzer-rejected generated programs
  int unfollowed = 0;  // generated trees M·D cannot follow
};

// Compare M·D against re-analysis on every legal candidate of `p`.
Tally differential(const Program& p, const std::string& what) {
  SessionOptions sess;
  sess.threads = 1;
  TransformSession session(Program(p), sess);
  SearchResult res = session.search(SearchSpace{1, 1}, SearchOptions{});
  TileOptions topts;
  topts.auto_select = true;

  Tally t;
  for (const SearchHit& h : res.hits) {
    const std::string at = what + " candidate #" + std::to_string(h.index);
    const Program& generated = *h.result.program;
    if (!analysis_blocker(generated).empty()) {
      ++t.ineligible;
      continue;
    }
    const IvLayout layout(generated);
    AstRecovery rec = recover_ast(session.layout(), h.matrix);
    const std::optional<DependenceSet> followed = generated_dependences(
        session.layout(), session.dependences(), h.matrix, rec,
        target_dependences(session.layout(), session.dependences(), h.matrix,
                           rec),
        plan_statements(session.layout(), session.dependences(), h.matrix,
                        rec, h.result.legality),
        layout);
    if (!followed) {
      ++t.unfollowed;
      continue;
    }
    const DependenceSet& derived = *followed;
    const DependenceSet fresh = analyze_dependences(layout);
    ++t.compared;
    t.augmented += layout.size() != rec.target_layout->size();

    const BandReport db = detect_bands(layout, derived);
    const BandReport fb = detect_bands(layout, fresh);
    const TilePlan dp = plan_tile(layout, derived, topts);
    const TilePlan fp = plan_tile(layout, fresh, topts);
    if (band_vars(db) == band_vars(fb)) {
      ++t.equal;
      EXPECT_EQ(dp.spec.vars, fp.spec.vars) << at;
      EXPECT_EQ(dp.spec.sizes, fp.spec.sizes) << at;
      EXPECT_EQ(dp.applied, fp.applied) << at;
      continue;
    }
    // Only a conservative subset is allowed, and never on a loop order.
    EXPECT_FALSE(is_permutation(h.matrix))
        << at << ": a loop order must derive re-analysis's bands";
    for (const std::vector<std::string>& b : band_vars(db)) {
      bool inside = false;
      for (const std::vector<std::string>& f : band_vars(fb))
        inside = inside || is_window(b, f);
      EXPECT_TRUE(inside) << at << ": derived band from " << b.front()
                          << " is not a window of a re-analysed band";
    }
    if (!dp.spec.vars.empty()) {
      EXPECT_EQ(band_reject_reason(layout, fresh, dp.spec.vars), "")
          << at << ": the derived plan tiles a band re-analysis rejects";
    }
  }
  return t;
}

TEST(TargetDeps, IdentityIsTheSourceDependences) {
  Program p = gallery::cholesky();
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);
  IntMat id = IntMat::identity(layout.size());
  DependenceSet t =
      target_dependences(layout, deps, id, recover_ast(layout, id));
  ASSERT_EQ(t.deps.size(), deps.deps.size());
  for (size_t i = 0; i < deps.deps.size(); ++i) {
    EXPECT_EQ(t.deps[i].src, deps.deps[i].src);
    EXPECT_EQ(t.deps[i].dst, deps.deps[i].dst);
    EXPECT_EQ(t.deps[i].vector, deps.deps[i].vector) << "dependence " << i;
  }
}

TEST(TargetDeps, GalleryAndTestdataMatchReanalysis) {
  const std::vector<std::pair<std::string, Program>> programs = {
      {"simplified_cholesky", gallery::simplified_cholesky()},
      {"fig3", gallery::fig3_perfect_nest()},
      {"augmentation", gallery::augmentation_example()},
      {"cholesky", gallery::cholesky()},
      {"distributed", gallery::simplified_cholesky_distributed()},
      {"lu", gallery::lu()},
      {"cholesky.loop", load_testdata("cholesky.loop")},
      {"skew_example.loop", load_testdata("skew_example.loop")},
      {"stencil.loop", load_testdata("stencil.loop")},
  };
  Tally all;
  for (const auto& [name, p] : programs) {
    Tally t = differential(p, name);
    all.compared += t.compared;
    all.equal += t.equal;
    all.augmented += t.augmented;
    all.ineligible += t.ineligible;
    all.unfollowed += t.unfollowed;
  }
  EXPECT_GT(all.compared, 0);
  EXPECT_GT(all.augmented, 0);
  RecordProperty("compared", all.compared);
  RecordProperty("equal", all.equal);
  RecordProperty("augmented", all.augmented);
  RecordProperty("ineligible", all.ineligible);
  RecordProperty("unfollowed", all.unfollowed);
}

// One verified, tiled search; returns the fallbacks it counted.
i64 tiled_search(const Program& p, SessionOptions sess, i64 skew_bound,
                 SearchResult* out) {
  sess.threads = 2;
  TransformSession session(Program(p), sess);
  SearchOptions sopts;
  sopts.tile = true;
  sopts.tile_opts.auto_select = true;
  sopts.verify_params = {{"N", 12}};
  const i64 before = Stats::global().value("tile.reanalysis_fallbacks");
  *out = session.search(SearchSpace{skew_bound, 1}, sopts);
  return Stats::global().value("tile.reanalysis_fallbacks") - before;
}

int applied_plans(const SearchResult& res) {
  int n = 0;
  for (const SearchHit& h : res.hits) n += h.tile && h.tile->applied;
  return n;
}

TEST(TargetDeps, CholeskyAndLuTileWithoutReanalysis) {
  for (const Program& p : {load_testdata("cholesky.loop"), gallery::lu()}) {
    SearchResult res;
    EXPECT_EQ(tiled_search(p, {}, 1, &res), 0);
    EXPECT_EQ(res.stats.verified, res.stats.legal);
    EXPECT_EQ(res.stats.verify_failed, 0);
    EXPECT_GT(applied_plans(res), 0);
  }
}

TEST(TargetDeps, TiledSearchAnalysesOnlyTheSource) {
  // Every dep.pair span of a tiled search belongs to the session's own
  // source analysis: no generated program is analysed again.
  Program p = load_testdata("cholesky.loop");
  const size_t source_pairs = build_pair_systems(IvLayout(p)).size();
  Tracer::global().clear();
  Tracer::global().enable();
  SearchResult res;
  tiled_search(p, {}, 1, &res);
  Tracer::global().disable();
  size_t pairs = 0;
  for (const TraceEvent& e : Tracer::global().events())
    pairs += std::string(e.name) == "dep.pair";
  Tracer::global().clear();
  EXPECT_EQ(pairs, source_pairs);
}

TEST(TargetDeps, ZeroPadSessionTilesThroughTheFallback) {
  SessionOptions sess;
  sess.analyzer.pad = PadMode::kZero;
  sess.codegen.pad = PadMode::kZero;
  SearchResult res;
  EXPECT_GT(tiled_search(load_testdata("cholesky.loop"), sess, 0, &res), 0);
  ASSERT_GT(res.stats.legal, 0);
  EXPECT_EQ(res.stats.verified, res.stats.legal);
  EXPECT_EQ(res.stats.verify_failed, 0);
  EXPECT_GT(applied_plans(res), 0);
}

}  // namespace
}  // namespace inlt
