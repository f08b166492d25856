#include "tile/plan.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "model/tile_cost.hpp"
#include "support/check.hpp"

namespace inlt {

namespace {

constexpr i64 kDefaultTileSize = 32;
const i64 kSizeGrid[] = {8, 16, 32, 64};
constexpr size_t kFullGridMaxDepth = 3;  // 4^3 combos; uniform above

// Enumerate candidate size vectors for a band of depth k.
std::vector<std::vector<i64>> size_candidates(size_t k) {
  std::vector<std::vector<i64>> out;
  if (k <= kFullGridMaxDepth) {
    std::vector<i64> cur(k, kSizeGrid[0]);
    std::vector<size_t> idx(k, 0);
    for (;;) {
      for (size_t i = 0; i < k; ++i) cur[i] = kSizeGrid[idx[i]];
      out.push_back(cur);
      size_t i = k;
      while (i-- > 0) {
        if (++idx[i] < std::size(kSizeGrid)) break;
        idx[i] = 0;
        if (i == 0) return out;
      }
    }
  }
  for (i64 s : kSizeGrid) out.emplace_back(k, s);
  return out;
}

const LoopBand* pick_band(const BandReport& report, int requested) {
  if (report.bands.empty()) return nullptr;
  if (requested >= 0) {
    if (static_cast<size_t>(requested) >= report.bands.size())
      throw TileError("band index " + std::to_string(requested) +
                      " out of range: program has " +
                      std::to_string(report.bands.size()) +
                      " band(s); run with --report to list them");
    return &report.bands[static_cast<size_t>(requested)];
  }
  const LoopBand* best = &report.bands.front();
  for (const LoopBand& b : report.bands)
    if (b.depth() > best->depth()) best = &b;
  return best;
}

}  // namespace

TilePlan plan_tile(const IvLayout& layout, const DependenceSet& deps,
                   const TileOptions& opts, const ModelOptions& mopts) {
  TilePlan plan;
  plan.bands = detect_bands(layout, deps);

  // Resolve the band to tile.
  std::vector<const Node*> band_loops;
  if (!opts.loops.empty()) {
    const std::string reason = band_reject_reason(layout, deps, opts.loops);
    if (!reason.empty())
      throw TileError("loops are not a fully permutable band: " + reason);
    // Find the nodes by name.
    for (const std::string& v : opts.loops) {
      const Node* found = nullptr;
      walk(layout.program(),
           [&](const Node& n, const std::vector<const Node*>&) {
             if (n.is_loop() && n.var() == v) found = &n;
           });
      INLT_CHECK(found != nullptr);  // band_reject_reason resolved them
      band_loops.push_back(found);
    }
    plan.spec.vars = opts.loops;
  } else {
    const LoopBand* band = pick_band(plan.bands, opts.band);
    if (band == nullptr) {
      plan.note = "no loop bands detected";
      return plan;
    }
    band_loops = band->loops;
    plan.spec.vars = band->vars;
  }
  const size_t k = band_loops.size();

  if (!opts.sizes.empty() && opts.sizes.size() != k)
    throw TileError("tile spec needs one size per band loop (" +
                    std::to_string(k) + " loops, " +
                    std::to_string(opts.sizes.size()) + " sizes)");
  for (i64 s : opts.sizes)
    if (s < 1)
      throw TileError("tile sizes must be positive (got " +
                      std::to_string(s) + ")");

  const TileTraffic untiled =
      estimate_untiled_traffic(layout.program(), band_loops, mopts);
  plan.untiled_traffic = untiled.traffic_lines;

  if (!opts.sizes.empty()) {
    plan.spec.sizes = opts.sizes;
  } else if (opts.auto_select) {
    double best = -1;
    for (const std::vector<i64>& cand : size_candidates(k)) {
      const TileTraffic t =
          estimate_tile_traffic(layout.program(), band_loops, cand, mopts);
      // Strictly-better traffic wins; candidates arrive in
      // lexicographic order, so exact ties keep the earlier (smaller)
      // sizes.
      if (best < 0 || t.traffic_lines < best) {
        best = t.traffic_lines;
        plan.spec.sizes = cand;
      }
    }
  } else {
    plan.spec.sizes.assign(k, kDefaultTileSize);
  }

  const TileTraffic tiled = estimate_tile_traffic(
      layout.program(), band_loops, plan.spec.sizes, mopts);
  plan.tiled_traffic = tiled.traffic_lines;
  plan.footprint_lines = tiled.footprint_lines;
  plan.fits_cache = tiled.fits_cache;

  if (plan.tiled_traffic < plan.untiled_traffic || opts.force) {
    plan.applied = true;
    if (plan.tiled_traffic >= plan.untiled_traffic)
      plan.note = "model predicts no traffic reduction (forced)";
  } else {
    plan.note = "model predicts no traffic reduction";
  }
  return plan;
}

TiledProgram apply_tile(const Program& p, const TileOptions& opts,
                        const ModelOptions& mopts) {
  IvLayout layout(p);
  DependenceSet deps;
  if (analysis_blocker(p).empty()) deps = analyze_dependences(layout);
  return apply_tile(layout, deps, opts, mopts);
}

TiledProgram apply_tile(const IvLayout& layout, const DependenceSet& deps,
                        const TileOptions& opts, const ModelOptions& mopts) {
  TiledProgram out;
  if (std::string why = analysis_blocker(layout.program()); !why.empty()) {
    out.plan.note = "program is not analyzable for tiling: " + why;
    return out;
  }
  out.plan = plan_tile(layout, deps, opts, mopts);
  if (!out.plan.applied) return out;
  try {
    TileResult tr = tile_band(layout.program(), out.plan.spec);
    out.plan.tile_vars = tr.tile_vars;
    if (tr.identity) out.plan.note = "identity rewrite (all tile sizes 1)";
    out.program.emplace(std::move(tr.program));
  } catch (const TileError& e) {
    out.plan.applied = false;
    out.plan.note = e.what();
  }
  return out;
}

std::string TilePlan::to_text() const {
  std::ostringstream os;
  if (spec.vars.empty()) {
    os << "tile plan: none (" << (note.empty() ? "no band" : note) << ")\n";
    return os.str();
  }
  os << "tile plan: band";
  for (size_t i = 0; i < spec.vars.size(); ++i)
    os << (i ? ", " : " ") << spec.vars[i];
  os << " sizes";
  for (size_t i = 0; i < spec.sizes.size(); ++i)
    os << (i ? "x" : " ") << spec.sizes[i];
  os << (applied ? "" : " (not applied)") << "\n";
  auto fmt = [&os](const char* name, double v) {
    os << "  " << name << ": " << static_cast<long long>(std::llround(v))
       << " lines\n";
  };
  fmt("modeled untiled traffic", untiled_traffic);
  fmt("modeled tiled traffic", tiled_traffic);
  if (untiled_traffic > 0)
    os << "  traffic ratio: "
       << static_cast<long long>(
              std::llround(100.0 * tiled_traffic / untiled_traffic))
       << "% of untiled\n";
  fmt("per-tile footprint", footprint_lines);
  os << "  fits cache: " << (fits_cache ? "yes" : "no") << "\n";
  if (!note.empty()) os << "  note: " << note << "\n";
  return os.str();
}

}  // namespace inlt
