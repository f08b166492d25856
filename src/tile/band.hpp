// Fully-permutable loop band detection — the legality layer of tiling.
//
// A band is a chain of nested loops L1 ⊃ L2 ⊃ ... ⊃ Lk along one path
// of the AST (intermediate non-band loops and imperfect pre/post
// statements between the levels are allowed — this is the imperfectly
// nested setting the paper's instance-vector machinery exists for).
// Tiled execution reorders instances within the band[0] subtree into
// lexicographic (tile-coordinate, original-order) order, where a
// statement's tile coordinate along a band dimension it is not
// enclosed by is its diagonally *padded* coordinate (Definition 4) —
// exactly the coordinate the dependence analyzer already assigns it.
//
// That gives the legality rule, per dependence with both endpoints in
// the band[0] subtree:
//
//  * if the dependence's projection onto the loops strictly enclosing
//    band[0] is definitely lexicographically positive, it is carried
//    outside the band and tiling cannot violate it — skip;
//  * otherwise every component at a band loop position must be
//    definitely non-negative (DepEntry::definitely_non_negative).
//    Non-negative padded components make tile coordinates monotone, so
//    the destination's tile never precedes the source's, and within a
//    tile the original order is preserved.
//
// A single loop is trivially a band: strip-mining alone never reorders
// anything. A loop that runs exactly once (Node::runs_once) is in no
// detected band: it never iterates, so tiling it gains nothing.
// band_reject_reason judges an explicitly named chain by the rule above
// alone.
#pragma once

#include <string>
#include <vector>

#include "dependence/analyzer.hpp"
#include "instance/layout.hpp"

namespace inlt {

/// One maximal fully-permutable band: a chain of nested loops,
/// outermost first. Node pointers point into the analyzed program.
struct LoopBand {
  std::vector<const Node*> loops;
  std::vector<std::string> vars;
  std::vector<int> positions;  ///< layout positions, parallel to loops
  /// Why the band could not be extended one path level deeper; empty
  /// when the path simply ends here. Detection provenance for
  /// `inltc tile --report`.
  std::string boundary_note;

  int depth() const { return static_cast<int>(loops.size()); }
};

struct BandReport {
  /// Maximal bands in path order (outer paths first); bands that are a
  /// strict prefix of a reported band are dropped.
  std::vector<LoopBand> bands;

  /// Human-readable report: per band, the loop chain, the statements
  /// it covers and the dependence blocking its extension (if any).
  std::string to_text(const IvLayout& layout,
                      const DependenceSet& deps) const;
};

/// Detect every maximal fully-permutable band of the layout's program
/// under the given dependences (vectors in the layout's coordinates):
/// the program's analyzed dependences, or — for a transformed nest —
/// its target_dependences (transform/target_deps.hpp), whose vectors
/// are in the target layout's coordinates.
BandReport detect_bands(const IvLayout& layout, const DependenceSet& deps);

/// Is the named loop chain a fully-permutable band? Returns the empty
/// string when it is, otherwise the reason it is not (the violated
/// dependence and component) — the message behind the CLI's
/// "tiling a non-permutable band" error. Throws TransformError when
/// the vars do not name a nested loop chain of the program.
std::string band_reject_reason(const IvLayout& layout,
                               const DependenceSet& deps,
                               const std::vector<std::string>& vars);

}  // namespace inlt
