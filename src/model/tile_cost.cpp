#include "model/tile_cost.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "support/check.hpp"

namespace inlt {

namespace {

// Per-variable extent class seen from inside one tile.
enum class VarScope {
  kBand,    // a band variable: extent = its tile size
  kInner,   // a non-band loop inside the band subtree: full trip
  kOuter,   // outside the band subtree (or a parameter): constant
};

bool subtree_contains(const Node* root, const Node* target) {
  if (root == target) return true;
  if (!root->is_loop()) return false;
  for (const NodePtr& c : root->children())
    if (subtree_contains(c.get(), target)) return true;
  return false;
}

double dim_lines(double extent, bool contiguous, const ModelOptions& opts) {
  if (!contiguous) return std::max(1.0, extent);
  return std::max(1.0, extent / static_cast<double>(opts.line_elems));
}

}  // namespace

double loop_trip_estimate(const Node* loop, const ModelOptions& opts) {
  if (loop->runs_once()) return 1;
  const Bound& lo = loop->lower();
  const Bound& hi = loop->upper();
  if (lo.single() && hi.single() && lo.terms.front().den == 1 &&
      hi.terms.front().den == 1 && lo.terms.front().expr.is_constant() &&
      hi.terms.front().expr.is_constant()) {
    const i64 l = lo.terms.front().expr.constant();
    const i64 h = hi.terms.front().expr.constant();
    if (h < l) return 0;
    return static_cast<double>((h - l) / loop->step() + 1);
  }
  return static_cast<double>(opts.nominal_trip);
}

TileTraffic estimate_tile_traffic(const Program& p,
                                  const std::vector<const Node*>& band_loops,
                                  const std::vector<i64>& sizes,
                                  const ModelOptions& opts) {
  const size_t k = band_loops.size();
  INLT_CHECK_MSG(k > 0 && sizes.size() == k,
                 "estimate_tile_traffic: one size per band loop");
  const Node* band_root = band_loops.front();

  // Band variable -> (dim index, clamped tile size, trip).
  std::map<std::string, size_t> band_dim;
  std::vector<double> trip(k), tile(k);
  for (size_t i = 0; i < k; ++i) {
    band_dim[band_loops[i]->var()] = i;
    trip[i] = loop_trip_estimate(band_loops[i], opts);
    tile[i] = std::min(static_cast<double>(std::max<i64>(sizes[i], 1)),
                       std::max(trip[i], 1.0));
  }

  TileTraffic out;
  for (const StatementContext& sc : p.statements()) {
    // Only statements under the band root are reordered by tiling.
    bool inside = false;
    for (const Node* l : sc.loops)
      if (l == band_root) inside = true;
    if (!inside) continue;

    // Scope of every variable a subscript of this statement may use.
    std::map<std::string, VarScope> scope;
    std::map<std::string, double> inner_trip;
    for (const Node* l : sc.loops) {
      if (band_dim.count(l->var())) {
        scope[l->var()] = VarScope::kBand;
      } else if (subtree_contains(band_root, l)) {
        scope[l->var()] = VarScope::kInner;
        inner_trip[l->var()] = loop_trip_estimate(l, opts);
      } else {
        scope[l->var()] = VarScope::kOuter;
      }
    }

    // Which band dims enclose this statement (imperfect statements sit
    // between band levels: dims below them never re-fetch their data).
    std::set<size_t> enclosing_dims;
    for (const Node* l : sc.loops) {
      auto it = band_dim.find(l->var());
      if (it != band_dim.end()) enclosing_dims.insert(it->second);
    }

    std::set<std::string> seen;  // dedup textually identical refs
    for (const ArrayAccess& a : sc.stmt->stmt_data().accesses()) {
      std::string key = a.array;
      for (const AffineExpr& s : a.subscripts) key += "[" + s.to_string() + "]";
      const bool dup = !seen.insert(key).second;

      RefTraffic rt;
      rt.stmt = sc.label();
      rt.array = a.array;
      rt.is_write = a.is_write;

      // Footprint: per-dimension extent 1 + sum |coef| * (ext(v) - 1).
      double tile_fp = 1, total_fp = 1;
      std::set<size_t> indexing_dims;
      for (size_t d = 0; d < a.subscripts.size(); ++d) {
        double tile_ext = 1, total_ext = 1;
        for (const auto& [v, c] : a.subscripts[d].terms()) {
          const double ac = std::abs(static_cast<double>(c));
          auto it = scope.find(v);
          if (it == scope.end()) continue;  // parameter: constant
          switch (it->second) {
            case VarScope::kBand: {
              const size_t dim = band_dim.at(v);
              indexing_dims.insert(dim);
              tile_ext += ac * (tile[dim] - 1);
              total_ext += ac * (std::max(trip[dim], 1.0) - 1);
              break;
            }
            case VarScope::kInner:
              tile_ext += ac * (std::max(inner_trip.at(v), 1.0) - 1);
              total_ext += ac * (std::max(inner_trip.at(v), 1.0) - 1);
              break;
            case VarScope::kOuter:
              break;
          }
        }
        const bool contiguous = d + 1 == a.subscripts.size();
        tile_fp *= dim_lines(tile_ext, contiguous, opts);
        total_fp *= dim_lines(total_ext, contiguous, opts);
      }

      rt.tile_lines = dup ? 0 : tile_fp;
      rt.lines_total = total_fp;
      rt.refetch = 1;
      for (size_t i = 0; i < k; ++i) {
        if (!enclosing_dims.count(i)) continue;
        if (indexing_dims.count(i)) continue;
        rt.refetch *= std::max(1.0, trip[i] / tile[i]);
      }

      out.footprint_lines += rt.tile_lines;
      if (!dup) out.raw_traffic += rt.lines_total * rt.refetch;
      out.refs.push_back(std::move(rt));
    }
  }

  const double cap = static_cast<double>(kCacheCapacityLines);
  out.fits_cache = out.footprint_lines <= cap;
  out.traffic_lines = out.raw_traffic;
  if (!out.fits_cache && cap > 0)
    out.traffic_lines = out.raw_traffic * (out.footprint_lines / cap);
  return out;
}

TileTraffic estimate_untiled_traffic(
    const Program& p, const std::vector<const Node*>& band_loops,
    const ModelOptions& opts) {
  std::vector<i64> sizes(band_loops.size(), 1);
  const double t = loop_trip_estimate(band_loops.back(), opts);
  sizes.back() = std::max<i64>(1, static_cast<i64>(t));
  return estimate_tile_traffic(p, band_loops, sizes, opts);
}

}  // namespace inlt
