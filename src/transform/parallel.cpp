#include "transform/parallel.hpp"

#include <algorithm>
#include <sstream>

#include "linalg/gauss.hpp"

namespace inlt {

std::vector<IntVec> parallel_row_basis(const IvLayout& layout,
                                       const DependenceSet& deps) {
  // Positions a parallel row may use: loop positions where every
  // dependence entry is exact.
  std::vector<int> allowed;
  for (int q : layout.all_loop_positions()) {
    bool ok = true;
    for (const Dependence& d : deps.deps)
      if (!d.vector[q].is_exact()) ok = false;
    if (ok) allowed.push_back(q);
  }
  if (allowed.empty()) return {};

  // r · d == 0 for every dependence: r (restricted to `allowed`) lies
  // in the nullspace of the dependence matrix's transpose.
  IntMat constraints(static_cast<int>(deps.deps.size()),
                     static_cast<int>(allowed.size()));
  for (size_t i = 0; i < deps.deps.size(); ++i)
    for (size_t k = 0; k < allowed.size(); ++k)
      constraints(static_cast<int>(i), static_cast<int>(k)) =
          deps.deps[i].vector[allowed[k]].lo();

  std::vector<IntVec> out;
  for (const IntVec& v : integer_nullspace(constraints)) {
    IntVec full(layout.size(), 0);
    for (size_t k = 0; k < allowed.size(); ++k) full[allowed[k]] = v[k];
    out.push_back(std::move(full));
  }
  // No dependences at all: every loop direction is parallel.
  if (deps.deps.empty()) {
    out.clear();
    for (int q : layout.all_loop_positions()) {
      IntVec full(layout.size(), 0);
      full[q] = 1;
      out.push_back(std::move(full));
    }
  }
  return out;
}

namespace {

// Each dependence's common loop positions in `layout`, index-aligned
// with `deps.deps` — computed once per schedule, not per level.
std::vector<std::vector<int>> common_loops(const IvLayout& layout,
                                           const DependenceSet& deps) {
  std::vector<std::vector<int>> out;
  out.reserve(deps.deps.size());
  for (const Dependence& d : deps.deps)
    out.push_back(layout.common_loop_positions(d.src, d.dst));
  return out;
}

// A loop level is doall when no dependence is *carried at* it: for
// every dependence whose common loops include q, either an outer common
// entry is definitely positive (carried further out) or the entry at q
// is exactly zero with an all-zero resolvable prefix. `deps` are in the
// coordinates of the layout `commons` came from (the source nest, or a
// target nest with its target_dependences).
TargetLevel classify_level(const DependenceSet& deps,
                           const std::vector<std::vector<int>>& commons,
                           int q) {
  TargetLevel lvl;
  lvl.position = q;
  lvl.doall = true;
  for (size_t i = 0; i < deps.deps.size(); ++i) {
    const Dependence& d = deps.deps[i];
    const std::vector<int>& common = commons[i];
    if (std::find(common.begin(), common.end(), q) == common.end())
      continue;  // the dependence lives elsewhere
    bool carried_outside = false;
    bool ambiguous_prefix = false;
    for (int c : common) {
      if (c == q) break;
      const DepEntry& e = d.vector[c];
      if (e.definitely_positive()) {
        carried_outside = true;
        break;
      }
      if (!e.is_zero()) ambiguous_prefix = true;  // may or may not carry
    }
    if (carried_outside) continue;
    const DepEntry& here = d.vector[q];
    if (ambiguous_prefix || !here.is_zero()) {
      lvl.doall = false;
      if (lvl.carrier < 0) {
        lvl.carrier = static_cast<int>(i);
        lvl.ambiguous = ambiguous_prefix && here.is_zero();
      }
    }
  }
  return lvl;
}

struct ScheduleWalk {
  const IvLayout& tgt;
  const DependenceSet& deps;
  const std::vector<std::vector<int>> commons;  // per dependence
  ParallelSchedule& out;

  // `seq_enclosing` are the sequential target loops on the path to
  // `n`, outermost first; `under_partition` is true once an enclosing
  // level has been partitioned (inner doalls then stay unpartitioned —
  // the chunked driver only splits the outermost parallel level).
  void walk(const Node* n, int depth, bool under_partition,
            std::vector<std::string>& seq_enclosing) {
    if (!n->is_loop()) return;
    int q = tgt.segment(n).loop_pos;
    TargetLevel lvl = classify_level(deps, commons, q);
    lvl.var = n->var();
    lvl.depth = depth;
    bool child_under = under_partition;
    if (lvl.doall && !under_partition) {
      lvl.partitioned = true;
      out.partition.push_back(lvl.var);
      for (const std::string& t : seq_enclosing)
        if (std::find(out.time_loops.begin(), out.time_loops.end(), t) ==
            out.time_loops.end())
          out.time_loops.push_back(t);
      if (!seq_enclosing.empty()) out.wavefront = true;
      child_under = true;
    }
    out.levels.push_back(lvl);
    bool pushed = !lvl.doall;
    if (pushed) seq_enclosing.push_back(lvl.var);
    for (const NodePtr& c : n->children())
      walk(c.get(), depth + 1, child_under, seq_enclosing);
    if (pushed) seq_enclosing.pop_back();
  }
};

}  // namespace

std::vector<std::string> parallel_loops(const IvLayout& layout,
                                        const DependenceSet& deps) {
  const std::vector<std::vector<int>> commons = common_loops(layout, deps);
  std::vector<std::string> out;
  for (int q : layout.all_loop_positions())
    if (classify_level(deps, commons, q).doall)
      out.push_back(layout.positions()[q].loop->var());
  return out;
}

ParallelSchedule source_parallel_schedule(const IvLayout& layout,
                                          const DependenceSet& deps) {
  ParallelSchedule out;
  ScheduleWalk w{layout, deps, common_loops(layout, deps), out};
  std::vector<std::string> seq;
  for (const NodePtr& root : layout.program().roots())
    w.walk(root.get(), 0, false, seq);
  return out;
}

ParallelSchedule analyze_target_parallelism(const AstRecovery& rec,
                                            const DependenceSet& target_deps) {
  return source_parallel_schedule(*rec.target_layout, target_deps);
}

ParallelSchedule analyze_target_parallelism(const IvLayout& src,
                                            const DependenceSet& deps,
                                            const IntMat& m,
                                            const AstRecovery& rec) {
  return analyze_target_parallelism(rec,
                                    target_dependences(src, deps, m, rec));
}

std::string ParallelSchedule::to_text(const DependenceSet& deps) const {
  std::ostringstream os;
  os << "target levels:\n";
  for (const TargetLevel& lvl : levels) {
    os << "  ";
    for (int i = 0; i < lvl.depth; ++i) os << "  ";
    os << lvl.var << ": ";
    if (lvl.doall) {
      os << (lvl.partitioned ? "doall (partitioned)" : "doall");
    } else {
      os << "sequential";
      if (lvl.carrier >= 0 &&
          lvl.carrier < static_cast<int>(deps.deps.size())) {
        const Dependence& d = deps.deps[static_cast<size_t>(lvl.carrier)];
        os << " (" << (lvl.ambiguous ? "may carry " : "carries ")
           << dep_kind_name(d.kind) << " " << d.src << " -> " << d.dst
           << " on " << d.array << ")";
      }
    }
    os << "\n";
  }
  if (partition.empty()) {
    os << "schedule: serial (no doall level)\n";
    return os.str();
  }
  os << "partition:";
  for (const std::string& v : partition) os << " " << v;
  os << "\n";
  if (wavefront) {
    os << "schedule: wavefront (time";
    for (const std::string& t : time_loops) os << " " << t;
    os << " -> parallel";
    for (const std::string& v : partition) os << " " << v;
    os << ")\n";
  } else {
    os << "schedule: outer doall\n";
  }
  return os.str();
}

}  // namespace inlt
