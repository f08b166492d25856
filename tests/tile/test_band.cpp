// Fully-permutable band detection: maximal windows, the
// enclosing-carry skip rule, imperfect nests, rejection reasons.
#include "tile/band.hpp"

#include <gtest/gtest.h>

#include "dependence/analyzer.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"

namespace inlt {
namespace {

constexpr const char* kStencilSrc = R"(param N
do I = 1, N
  do J = 1, N
    S1: U(I, J) = U(I - 1, J) + U(I, J - 1)
  end
end
)";

// Left-looking (jki) Cholesky — what `inltc complete cholesky.loop L`
// produces. The (K, J) band is the classical tileable band of the
// left-looking form; the update loop (J, L) is a second band.
constexpr const char* kJkiCholeskySrc = R"(param N
do K = 1, N
  do J = 1, K - 1
    do L = K, N
      S3: A(L, K) = A(L, K) - A(L, J) * A(K, J)
    end
  end
  S1: A(K, K) = sqrt(A(K, K))
  do I = K + 1, N
    S2: A(I, K) = A(I, K) / A(K, K)
  end
end
)";

struct Analyzed {
  Program p;
  IvLayout layout;
  DependenceSet deps;
  explicit Analyzed(const std::string& src)
      : p(parse_program(src)), layout(p), deps(analyze_dependences(layout)) {}
};

const LoopBand* band_with_vars(const BandReport& r,
                               const std::vector<std::string>& vars) {
  for (const LoopBand& b : r.bands)
    if (b.vars == vars) return &b;
  return nullptr;
}

TEST(BandDetect, StencilIsOneFullDepthBand) {
  Analyzed a(kStencilSrc);
  BandReport r = detect_bands(a.layout, a.deps);
  ASSERT_EQ(r.bands.size(), 1u);
  EXPECT_EQ(r.bands[0].vars, (std::vector<std::string>{"I", "J"}));
  EXPECT_EQ(r.bands[0].depth(), 2);
  // The path simply ends at J — nothing blocked the extension.
  EXPECT_TRUE(r.bands[0].boundary_note.empty());
}

TEST(BandDetect, JkiCholeskyFindsTheClassicBands) {
  Analyzed a(kJkiCholeskySrc);
  BandReport r = detect_bands(a.layout, a.deps);

  const LoopBand* kj = band_with_vars(r, {"K", "J"});
  ASSERT_NE(kj, nullptr) << "the left-looking (K, J) band must be detected";
  // Extension to (K, J, L) is blocked by a dependence with a negative
  // L component — the note names it.
  EXPECT_FALSE(kj->boundary_note.empty());
  EXPECT_NE(kj->boundary_note.find("at loop L"), std::string::npos)
      << kj->boundary_note;

  EXPECT_NE(band_with_vars(r, {"J", "L"}), nullptr)
      << "the update loops (J, L) form a band of their own";

  // Strict prefixes of reported bands are dropped.
  EXPECT_EQ(band_with_vars(r, {"K"}), nullptr);
  EXPECT_EQ(band_with_vars(r, {"J"}), nullptr);
}

TEST(BandDetect, RightLookingCholeskyKBandStaysDepthOne) {
  // Right-looking kij Cholesky: the K loop cannot join any deeper
  // band — every inner loop pairs with K through a dependence whose
  // padded component is negative.
  Program p = gallery::cholesky();
  IvLayout layout(p);
  DependenceSet deps = analyze_dependences(layout);
  BandReport r = detect_bands(layout, deps);
  for (const LoopBand& b : r.bands) {
    if (b.vars.front() == "K") {
      EXPECT_EQ(b.depth(), 1) << "K must not extend: " << b.vars[1];
      EXPECT_FALSE(b.boundary_note.empty());
    }
  }
  ASSERT_NE(band_with_vars(r, {"K"}), nullptr);
}

TEST(BandDetect, SingleLoopIsAlwaysABand) {
  // Strip-mining alone never reorders; even a loop carrying a negative
  // dependence against itself... cannot exist (lex-negative source
  // dependences are impossible), but a loop whose extension is blocked
  // still reports as a depth-1 band.
  Analyzed a(kJkiCholeskySrc);
  BandReport r = detect_bands(a.layout, a.deps);
  for (const LoopBand& b : r.bands) EXPECT_GE(b.depth(), 1);
  EXPECT_NE(band_with_vars(r, {"I"}), nullptr);
}

TEST(BandDetect, ExactlyOnceLoopsStayOutOfBands) {
  // J, L, M is a permutable chain, but L never iterates: no window
  // starts at it or extends across it.
  Analyzed a(R"(param N
do J = 1, N
  do L = -J, -J
    do M = 1, N
      S1: A(J, M) = A(J, M) + B(-L, M)
    end
  end
end
)");
  BandReport r = detect_bands(a.layout, a.deps);
  for (const LoopBand& b : r.bands)
    for (const std::string& v : b.vars) EXPECT_NE(v, "L");
  const LoopBand* j = band_with_vars(r, {"J"});
  ASSERT_NE(j, nullptr);
  EXPECT_EQ(j->boundary_note, "loop L runs exactly once");
  EXPECT_NE(band_with_vars(r, {"M"}), nullptr);
  // An explicit chain is a direct request and is still accepted.
  EXPECT_EQ(band_reject_reason(a.layout, a.deps, {"J", "L", "M"}), "");
}

TEST(BandRejectReason, AcceptsPermutableChains) {
  Analyzed s(kStencilSrc);
  EXPECT_TRUE(band_reject_reason(s.layout, s.deps, {"I", "J"}).empty());
  EXPECT_TRUE(band_reject_reason(s.layout, s.deps, {"I"}).empty());

  Analyzed c(kJkiCholeskySrc);
  EXPECT_TRUE(band_reject_reason(c.layout, c.deps, {"K", "J"}).empty());
  EXPECT_TRUE(band_reject_reason(c.layout, c.deps, {"J", "L"}).empty());
}

TEST(BandRejectReason, NamesTheViolatedDependence) {
  Analyzed c(kJkiCholeskySrc);
  std::string reason = band_reject_reason(c.layout, c.deps, {"K", "I"});
  EXPECT_FALSE(reason.empty());
  EXPECT_NE(reason.find("at loop I"), std::string::npos) << reason;
}

TEST(BandRejectReason, ThrowsOnNonChains) {
  Analyzed c(kJkiCholeskySrc);
  // Reversed nesting order is not a chain.
  EXPECT_THROW(band_reject_reason(c.layout, c.deps, {"J", "K"}),
               TransformError);
  // Unknown variable.
  EXPECT_THROW(band_reject_reason(c.layout, c.deps, {"Z"}), TransformError);
  // Empty chain.
  EXPECT_THROW(band_reject_reason(c.layout, c.deps, {}), TransformError);
}

TEST(BandReport, ToTextListsBandsAndBlockers) {
  Analyzed c(kJkiCholeskySrc);
  BandReport r = detect_bands(c.layout, c.deps);
  std::string text = r.to_text(c.layout, c.deps);
  EXPECT_NE(text.find("fully permutable"), std::string::npos);
  EXPECT_NE(text.find("covers statements"), std::string::npos);
  EXPECT_NE(text.find("extension blocked"), std::string::npos);
}

TEST(BandDetect, CandidateSpaceOverloadChecksWidths) {
  // Target-space dependences arrive from outside the analyzer; a vector
  // of the wrong width for the layout is a caller bug, not a band.
  Analyzed s(kStencilSrc);
  DependenceSet deps = s.deps;
  BandReport r = detect_bands(s.layout, deps);
  ASSERT_EQ(r.bands.size(), 1u);
  ASSERT_FALSE(deps.deps.empty());
  deps.deps.back().vector.pop_back();
  EXPECT_THROW(detect_bands(s.layout, deps), Error);
}

}  // namespace
}  // namespace inlt
