// Tile-aware working-set and traffic model — the profitability layer
// of the tiling subsystem.
//
// The base cost model (model/cost.hpp) ranks *orders* of one nest; it
// assumes the inner loop sweeps each reference once and cannot see the
// benefit of blocking. This model estimates, for a fully-permutable
// band and a candidate tile-size vector B, the number of cache-line
// transfers the whole nest performs:
//
//   traffic = sum over array references R of
//       distinct_lines(R) * product over band dims i that R does not
//                           depend on of (trip_i / B_i)
//
// i.e. every line of R is fetched once per tile pass along each band
// dimension that does not index it (the classic blocked-matmul
// argument: shrinking a non-indexing dimension's pass count by B_i
// cuts R's traffic by B_i). The estimate is charged a capacity
// penalty — multiplied by footprint/capacity — when the per-tile
// working set (distinct lines all references touch inside one tile,
// inner non-band loops at their full nominal trip) exceeds the shared
// cache geometry's capacity_lines, so ever-larger tiles stop looking
// free exactly when they stop fitting.
//
// Untiled execution is the point B = (1, .., 1, trip_k) of the same
// family — the innermost band loop swept in full, nothing blocked —
// which makes tiled-vs-untiled ratios apples-to-apples. All sizes are
// symbolic-nominal like the base model: constant loop bounds give
// exact trips, anything else falls back to ModelOptions::nominal_trip.
#pragma once

#include <string>
#include <vector>

#include "ir/ast.hpp"
#include "model/cost.hpp"

namespace inlt {

/// Traffic of one array reference under one tile-size choice.
struct RefTraffic {
  std::string stmt;
  std::string array;
  bool is_write = false;
  /// Distinct lines the reference touches over the whole band.
  double lines_total = 0;
  /// Tile passes that re-fetch those lines (product of trip_i/B_i over
  /// non-indexing band dims).
  double refetch = 1;
  /// Distinct lines inside one tile (footprint share).
  double tile_lines = 0;
};

struct TileTraffic {
  /// Capacity-penalized estimated line transfers for the whole nest.
  double traffic_lines = 0;
  /// Same before the capacity penalty.
  double raw_traffic = 0;
  /// Per-tile working set, distinct lines, all references.
  double footprint_lines = 0;
  bool fits_cache = true;
  std::vector<RefTraffic> refs;
};

/// Estimate traffic for tiling `band_loops` (a nested chain inside
/// `p`, outermost first — LoopBand::loops) with per-loop sizes
/// `sizes`. Statements outside the band subtree are ignored: tiling
/// does not change their traffic.
TileTraffic estimate_tile_traffic(const Program& p,
                                  const std::vector<const Node*>& band_loops,
                                  const std::vector<i64>& sizes,
                                  const ModelOptions& opts = {});

/// The untiled point of the same model: B = (1, .., 1, trip_k).
TileTraffic estimate_untiled_traffic(
    const Program& p, const std::vector<const Node*>& band_loops,
    const ModelOptions& opts = {});

/// Trip count of a loop: 1 when it runs exactly once (Node::runs_once),
/// exact when both bounds are single constant tight terms,
/// ModelOptions::nominal_trip otherwise (zero-trip floors at 0).
double loop_trip_estimate(const Node* loop, const ModelOptions& opts);

}  // namespace inlt
