#include "tile/band.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "dependence/direction.hpp"
#include "support/check.hpp"

namespace inlt {

namespace {

// Statement labels inside a subtree.
void collect_labels(const Node* n, std::vector<std::string>& out) {
  if (n->is_stmt()) {
    out.push_back(n->stmt_data().label);
    return;
  }
  for (const NodePtr& c : n->children()) collect_labels(c.get(), out);
}

struct PathCollector {
  // Every root-to-deepest loop chain of the program, plus the loop
  // positions strictly enclosing each chain member (ancestors above
  // the chain's own prefix are shared with the chain).
  std::vector<std::vector<const Node*>> paths;

  void walk(const Node* n, std::vector<const Node*>& chain) {
    if (!n->is_loop()) return;
    chain.push_back(n);
    bool has_loop_child = false;
    for (const NodePtr& c : n->children()) {
      if (c->is_loop()) {
        has_loop_child = true;
        walk(c.get(), chain);
      }
    }
    if (!has_loop_child) paths.push_back(chain);
    chain.pop_back();
  }
};

struct BandContext {
  const IvLayout* layout = nullptr;
  const DependenceSet* deps = nullptr;
  // Per subtree root: the labels it contains (memoized).
  mutable std::map<const Node*, std::set<std::string>> subtree_labels;

  const std::set<std::string>& labels_of(const Node* root) const {
    auto it = subtree_labels.find(root);
    if (it != subtree_labels.end()) return it->second;
    std::vector<std::string> v;
    collect_labels(root, v);
    return subtree_labels.emplace(root, std::set<std::string>(v.begin(), v.end()))
        .first->second;
  }
};

// Positions of the loops strictly enclosing `chain[first]`: the chain
// prefix plus nothing else (chains start at root loops).
std::vector<int> enclosing_positions(const IvLayout& layout,
                                     const std::vector<const Node*>& chain,
                                     size_t first) {
  std::vector<int> out;
  for (size_t a = 0; a < first; ++a)
    out.push_back(layout.loop_position(chain[a]->var()));
  return out;
}

// Can the window chain[first..last] absorb component checks for the
// dependence at index di? Returns true when the dependence is
// irrelevant to the window (endpoint outside the subtree, or carried
// by an enclosing loop).
bool skip_dependence(const BandContext& ctx, const Dependence& d,
                     const Node* band_root, const std::vector<int>& enclosing) {
  const std::set<std::string>& labels = ctx.labels_of(band_root);
  if (!labels.count(d.src) || !labels.count(d.dst)) return true;
  if (!enclosing.empty() &&
      lex_status(project_dep(d.vector, enclosing)) == LexStatus::kPositive)
    return true;
  return false;
}

// First violation of the full-permutability condition for the window
// chain[first..last], or empty when the window is a band. `reason`
// format matches band_reject_reason's contract.
std::string window_violation(const BandContext& ctx,
                             const std::vector<const Node*>& chain,
                             size_t first, size_t last) {
  const IvLayout& layout = *ctx.layout;
  const std::vector<int> enclosing = enclosing_positions(layout, chain, first);
  std::vector<int> band_pos;
  for (size_t i = first; i <= last; ++i)
    band_pos.push_back(layout.loop_position(chain[i]->var()));

  for (size_t di = 0; di < ctx.deps->deps.size(); ++di) {
    const Dependence& d = ctx.deps->deps[di];
    if (skip_dependence(ctx, d, chain[first], enclosing)) continue;
    for (size_t i = first; i <= last; ++i) {
      const DepEntry& e = d.vector[static_cast<size_t>(band_pos[i - first])];
      if (!e.definitely_non_negative()) {
        std::ostringstream os;
        os << "dependence #" << di << " (" << dep_kind_name(d.kind) << " "
           << d.src << " -> " << d.dst << " on " << d.array
           << ") has component " << e.to_string() << " at loop "
           << chain[i]->var();
        return os.str();
      }
    }
  }
  return {};
}

BandReport detect_impl(const BandContext& ctx) {
  const IvLayout& layout = *ctx.layout;
  PathCollector pc;
  std::vector<const Node*> chain;
  for (const NodePtr& r : layout.program().roots()) pc.walk(r.get(), chain);

  BandReport report;
  std::set<std::vector<const Node*>> seen;
  for (const std::vector<const Node*>& path : pc.paths) {
    // Maximal windows by two-pointer. Validity of [i..j] implies
    // validity of [i+1..j] (a deeper start has more enclosing loops,
    // so the skip rule only widens, and fewer components to check),
    // so the farthest legal end is monotone in the start: [i..maxj(i)]
    // is maximal exactly when maxj strictly advanced. A single loop is
    // always a band (strip-mining preserves order), so every window
    // has depth >= 1. A loop that runs exactly once never iterates, so
    // tiling it gains nothing: no window starts at one or extends
    // across one.
    size_t j = 0;
    bool have_prev = false;
    size_t prev_maxj = 0;
    for (size_t i = 0; i < path.size(); ++i) {
      if (path[i]->runs_once()) continue;
      if (j < i) j = i;
      std::string note;
      while (j + 1 < path.size()) {
        if (path[j + 1]->runs_once()) {
          note = "loop " + path[j + 1]->var() + " runs exactly once";
          break;
        }
        note = window_violation(ctx, path, i, j + 1);
        if (!note.empty()) break;
        ++j;
      }
      if (have_prev && prev_maxj >= j) continue;  // contained in previous
      have_prev = true;
      prev_maxj = j;
      LoopBand band;
      for (size_t k = i; k <= j; ++k) {
        band.loops.push_back(path[k]);
        band.vars.push_back(path[k]->var());
        band.positions.push_back(layout.loop_position(path[k]->var()));
      }
      band.boundary_note = note;
      if (seen.insert(band.loops).second)
        report.bands.push_back(std::move(band));
    }
  }

  // Drop bands that are a strict prefix of another reported band.
  // Decide first, move after: moving while comparing would leave
  // moved-from empty chains matching everything.
  std::vector<bool> drop(report.bands.size(), false);
  for (size_t i = 0; i < report.bands.size(); ++i) {
    const LoopBand& b = report.bands[i];
    for (const LoopBand& o : report.bands) {
      if (o.loops.size() > b.loops.size() &&
          std::equal(b.loops.begin(), b.loops.end(), o.loops.begin())) {
        drop[i] = true;
        break;
      }
    }
  }
  std::vector<LoopBand> kept;
  for (size_t i = 0; i < report.bands.size(); ++i)
    if (!drop[i]) kept.push_back(std::move(report.bands[i]));
  report.bands = std::move(kept);
  return report;
}

}  // namespace

BandReport detect_bands(const IvLayout& layout, const DependenceSet& deps) {
  for (const Dependence& d : deps.deps)
    INLT_CHECK_MSG(static_cast<int>(d.vector.size()) == layout.size(),
                   "detect_bands: vector width must match the layout");
  BandContext ctx;
  ctx.layout = &layout;
  ctx.deps = &deps;
  return detect_impl(ctx);
}

std::string band_reject_reason(const IvLayout& layout,
                               const DependenceSet& deps,
                               const std::vector<std::string>& vars) {
  if (vars.empty())
    throw TransformError("band_reject_reason: empty loop chain");
  // Resolve the chain: each var must name a loop nested (not
  // necessarily immediately) inside the previous one.
  PathCollector pc;
  std::vector<const Node*> walk_chain;
  for (const NodePtr& r : layout.program().roots()) pc.walk(r.get(), walk_chain);
  for (const std::vector<const Node*>& path : pc.paths) {
    // Match vars as a subsequence of this path starting anywhere.
    for (size_t start = 0; start < path.size(); ++start) {
      if (path[start]->var() != vars[0]) continue;
      std::vector<const Node*> chain;
      size_t pi = start;
      size_t vi = 0;
      while (pi < path.size() && vi < vars.size()) {
        if (path[pi]->var() == vars[vi]) {
          chain.push_back(path[pi]);
          ++vi;
        }
        ++pi;
      }
      if (vi != vars.size()) continue;
      // Found the chain on this path. Window = the contiguous path
      // segment from the first to the last chain member (intermediate
      // loops are part of the subtree, not of the band).
      BandContext ctx;
      ctx.layout = &layout;
      ctx.deps = &deps;
      // Check non-negativity at exactly the named loops.
      const std::vector<int> enclosing =
          enclosing_positions(layout, path, start);
      for (size_t di = 0; di < deps.deps.size(); ++di) {
        const Dependence& d = deps.deps[di];
        if (skip_dependence(ctx, d, chain[0], enclosing)) continue;
        for (const Node* loop : chain) {
          const DepEntry& e =
              d.vector[static_cast<size_t>(layout.loop_position(loop->var()))];
          if (!e.definitely_non_negative()) {
            std::ostringstream os;
            os << "dependence #" << di << " (" << dep_kind_name(d.kind)
               << " " << d.src << " -> " << d.dst << " on " << d.array
               << ") has component " << e.to_string() << " at loop "
               << loop->var();
            return os.str();
          }
        }
      }
      return {};
    }
  }
  throw TransformError("band loops do not form a nested chain: " +
                       [&] {
                         std::string s;
                         for (const std::string& v : vars)
                           s += (s.empty() ? "" : ", ") + v;
                         return s;
                       }());
}

std::string BandReport::to_text(const IvLayout& layout,
                                const DependenceSet& deps) const {
  (void)deps;
  std::ostringstream os;
  if (bands.empty()) {
    os << "no loop bands detected\n";
    return os.str();
  }
  for (size_t bi = 0; bi < bands.size(); ++bi) {
    const LoopBand& b = bands[bi];
    os << "band " << bi << ": loops";
    for (size_t i = 0; i < b.vars.size(); ++i)
      os << (i ? ", " : " ") << b.vars[i];
    os << " (depth " << b.depth() << ") — fully permutable\n";
    std::vector<std::string> labels;
    collect_labels(b.loops.front(), labels);
    os << "  covers statements:";
    for (size_t i = 0; i < labels.size(); ++i)
      os << (i ? ", " : " ") << labels[i];
    os << "\n";
    if (!b.boundary_note.empty())
      os << "  extension blocked: " << b.boundary_note << "\n";
  }
  (void)layout;
  return os.str();
}

}  // namespace inlt
