// Tile planning: pick a band, pick sizes, decide profitability.
//
// plan_tile glues the three tiling layers together: band detection
// (tile/band.hpp) for legality, the traffic model (model/tile_cost.hpp)
// for profitability, and the rewrite spec (tile/rewrite.hpp) as
// output. The search is deterministic: explicit sizes are taken as
// given; auto mode sweeps a small power-of-two grid per band dimension
// ({8, 16, 32, 64}, uniform sizes only above depth 3) and keeps the
// size vector with the lowest modeled traffic, breaking exact ties by
// lexicographically smaller sizes. A plan whose best tiled traffic is
// no better than the untiled point of the same model reports
// applied == false with the reason in `note` — callers then skip the
// rewrite rather than pay tile-loop overhead for nothing.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dependence/analyzer.hpp"
#include "instance/layout.hpp"
#include "model/cost.hpp"
#include "tile/band.hpp"
#include "tile/rewrite.hpp"

namespace inlt {

struct TileOptions {
  /// Explicit per-loop sizes (outermost first). Empty with
  /// auto_select == false: default size 32 per band loop.
  std::vector<i64> sizes;
  /// Which detected band to tile (index into BandReport::bands);
  /// -1 picks the deepest band (ties: first in report order).
  int band = -1;
  /// Explicit loop chain; overrides `band` when non-empty. Must be
  /// fully permutable (band_reject_reason empty).
  std::vector<std::string> loops;
  /// Sweep the size grid and keep the traffic argmin.
  bool auto_select = false;
  /// Apply the rewrite even when the model predicts no gain.
  bool force = false;
};

struct TilePlan {
  TileSpec spec;  ///< chosen band vars + sizes
  /// Generated tile-loop names; filled by apply_tile on
  /// materialization (empty for an unapplied plan or identity
  /// rewrite). What tiled_partition consumes.
  std::vector<std::string> tile_vars;
  /// Whether the plan recommends tiling (model predicts a gain, or
  /// force). When false, `note` says why.
  bool applied = false;
  std::string note;
  double untiled_traffic = 0;
  double tiled_traffic = 0;
  double footprint_lines = 0;
  bool fits_cache = true;
  /// Bands that were considered (the full report, for --report).
  BandReport bands;

  /// Human-readable plan: chosen band, sizes, modeled traffic ratio.
  std::string to_text() const;
};

/// Plan tiling for the layout's program under its dependences. Throws
/// TransformError when opts.loops names a non-chain, TileError when
/// opts.band is out of range or opts.loops is not permutable.
TilePlan plan_tile(const IvLayout& layout, const DependenceSet& deps,
                   const TileOptions& opts, const ModelOptions& mopts = {});

/// A plan together with its materialized program.
struct TiledProgram {
  TilePlan plan;
  /// The tiled program; set iff plan.applied (the identity rewrite —
  /// every size 1 — still sets it, to an unchanged clone).
  std::optional<Program> program;
};

/// One-call driver: analyze `p` fresh (layout + dependences), plan,
/// and materialize the rewrite when the plan applies. A program the
/// dependence analyzer rejects (guards, non-unit steps, divided
/// bounds) degrades to a not-applied plan with the reason in `note`;
/// so does a band whose bounds the rewrite's hull cannot handle.
/// Explicit option errors (bad sizes, band index out of range,
/// non-permutable opts.loops) still throw TileError / TransformError.
TiledProgram apply_tile(const Program& p, const TileOptions& opts,
                        const ModelOptions& mopts = {});

/// Same, with the dependences supplied instead of analyzed: `deps` in
/// the coordinates of `layout` (whose program is the one tiled) — for
/// a search candidate whose generated program has the recovered
/// skeleton's shape, its target_dependences
/// (transform/target_deps.hpp). Eligibility stays the analyzer's: a
/// program analyze_dependences would reject gets the same not-applied
/// plan and note, from a structural check (analysis_blocker).
TiledProgram apply_tile(const IvLayout& layout, const DependenceSet& deps,
                        const TileOptions& opts,
                        const ModelOptions& mopts = {});

}  // namespace inlt
