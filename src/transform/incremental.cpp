#include "transform/incremental.hpp"

#include "instance/program_order.hpp"
#include "support/check.hpp"
#include "support/stats.hpp"

namespace inlt {

namespace {

std::atomic<i64>& stat_pushes() {
  static std::atomic<i64>& c = Stats::global().counter("incremental.pushes");
  return c;
}
std::atomic<i64>& stat_memo_hits() {
  static std::atomic<i64>& c =
      Stats::global().counter("incremental.memo_hits");
  return c;
}
std::atomic<i64>& stat_rows_evaluated() {
  static std::atomic<i64>& c =
      Stats::global().counter("incremental.rows_evaluated");
  return c;
}

}  // namespace

IncrementalLegality::IncrementalLegality(const IvLayout& layout,
                                         const DependenceSet& deps)
    : layout_(layout), deps_(deps), slots_(layout.all_loop_positions()) {
  size_t nd = deps_.deps.size();
  in_common_.resize(nd);
  zero_ok_.resize(nd);
  is_self_.resize(nd);
  for (size_t d = 0; d < nd; ++d) {
    const Dependence& dep = deps_.deps[d];
    // For structure-preserving candidates the target tree equals the
    // source tree, so the projection target and the syntactic order
    // are source-layout facts, computable once up front.
    std::vector<int> common = layout_.common_loop_positions(dep.src, dep.dst);
    std::vector<std::uint8_t>& mask = in_common_[d];
    mask.assign(slots_.size(), 0);
    size_t ci = 0;  // both lists ascend: merge walk
    for (size_t s = 0; s < slots_.size(); ++s) {
      while (ci < common.size() && common[ci] < slots_[s]) ++ci;
      if (ci < common.size() && common[ci] == slots_[s]) mask[s] = 1;
    }
    is_self_[d] = dep.src == dep.dst;
    zero_ok_[d] =
        is_self_[d] || syntactically_before(layout_, dep.src, dep.dst);
  }
  root_ = std::make_unique<Node>();
  root_->states.assign(nd, kRun);
  path_.push_back(root_.get());
}

bool IncrementalLegality::supports(const IntMat& m) const {
  if (m.rows() != layout_.size() || m.cols() != layout_.size()) return false;
  for (int p = 0; p < layout_.size(); ++p) {
    if (layout_.positions()[p].kind != PositionKind::kEdge) continue;
    for (int j = 0; j < m.cols(); ++j)
      if (m(p, j) != (j == p ? 1 : 0)) return false;
  }
  return true;
}

IncrementalLegality::State IncrementalLegality::step(State s,
                                                     const DepEntry& e) const {
  // One transition of the lex_status walk (direction.cpp): the final
  // states absorb, zero entries are skipped, a definitely-positive
  // entry accepts, a definitely-negative or mixed-sign entry rejects
  // (negative after a possibly-zero entry is kUnknown there — also a
  // rejection), and a non-negative entry marks "may still be zero".
  if (s == kAccept || s == kReject) return s;
  if (e.is_zero()) return s;
  if (e.definitely_positive()) return kAccept;
  if (e.definitely_negative()) return kReject;
  if (e.definitely_non_negative()) return kRunNonNeg;
  return kReject;  // undecidable interval
}

bool IncrementalLegality::push_row(const IntVec& row) {
  INLT_CHECK_MSG(depth() < num_slots(), "push_row past the last slot");
  INLT_CHECK(row.size() == static_cast<size_t>(layout_.size()));
  ++pushes_;
  Node* cur = path_.back();
  auto it = cur->children.find(row);
  if (it != cur->children.end()) {
    ++memo_hits_;
    path_.push_back(it->second.get());
    return it->second->viable;
  }

  auto child = std::make_unique<Node>();
  Node* node = child.get();
  if (!cur->viable) {
    // Extending a dead prefix: stay dead, no work.
    node->viable = false;
    node->killer = cur->killer;
    node->killer_row = cur->killer_row;
  } else {
    ++rows_evaluated_;
    node->states = cur->states;
    int slot = depth();
    for (size_t d = 0; d < deps_.deps.size(); ++d) {
      if (!in_common_[d][slot]) continue;
      State s = static_cast<State>(node->states[d]);
      if (s == kAccept || s == kReject) continue;
      // Entry of the transformed projection at this slot: row · d.
      const DepVector& v = deps_.deps[d].vector;
      DepEntry acc = DepEntry::exact(0);
      for (size_t j = 0; j < row.size(); ++j)
        if (row[j] != 0) acc = acc + v[j] * row[j];
      State ns = step(s, acc);
      node->states[d] = ns;
      if (ns == kReject) {
        node->viable = false;
        node->killer = static_cast<int>(d);
        node->killer_row = slot;
        node->states.clear();  // dead nodes carry no states
        break;
      }
    }
  }
  path_.push_back(node);
  ++node_count_;
  cur->children.emplace(row, std::move(child));
  return node->viable;
}

void IncrementalLegality::pop_row() {
  INLT_CHECK_MSG(path_.size() > 1, "pop_row on an empty stack");
  path_.pop_back();
  if (path_.size() > 1) return;
  // Back at the root: publish the counts gathered since the last time
  // (a shared counter bumped on every push would make engines walking
  // on different threads contend for its cache line).
  stat_pushes().fetch_add(pushes_, std::memory_order_relaxed);
  stat_memo_hits().fetch_add(memo_hits_, std::memory_order_relaxed);
  stat_rows_evaluated().fetch_add(rows_evaluated_, std::memory_order_relaxed);
  pushes_ = memo_hits_ = rows_evaluated_ = 0;
}

bool IncrementalLegality::prefix_viable() const {
  return path_.back()->viable;
}

int IncrementalLegality::killer() const { return path_.back()->killer; }

int IncrementalLegality::killer_row() const {
  return path_.back()->killer_row;
}

int IncrementalLegality::leaf_killer() const {
  return path_.back()->leaf_killer;
}

bool IncrementalLegality::current_legal() const {
  INLT_CHECK_MSG(depth() == num_slots(),
                 "current_legal needs a complete candidate");
  Node* leaf = path_.back();
  if (!leaf->viable) return false;
  if (leaf->leaf_legal < 0) {
    // Dependences still undecided after all rows project to zero (or
    // to a possibly-zero non-negative): legal iff the zero case is
    // acceptable for the pair.
    bool legal = true;
    for (size_t d = 0; d < deps_.deps.size(); ++d) {
      State s = static_cast<State>(leaf->states[d]);
      if ((s == kRun || s == kRunNonNeg) && !zero_ok_[d]) {
        legal = false;
        leaf->leaf_killer = static_cast<int>(d);
        break;
      }
    }
    leaf->leaf_legal = legal ? 1 : 0;
  }
  return leaf->leaf_legal == 1;
}

std::vector<int> IncrementalLegality::current_unsatisfied() const {
  INLT_CHECK_MSG(depth() == num_slots(),
                 "current_unsatisfied needs a complete candidate");
  const Node* leaf = path_.back();
  INLT_CHECK(leaf->viable);
  std::vector<int> out;
  for (size_t d = 0; d < deps_.deps.size(); ++d) {
    State s = static_cast<State>(leaf->states[d]);
    if ((s == kRun || s == kRunNonNeg) && is_self_[d])
      out.push_back(static_cast<int>(d));
  }
  return out;
}

bool IncrementalLegality::check(const IntMat& m) {
  INLT_CHECK_MSG(supports(m), "matrix outside the engine's supported class");
  INLT_CHECK_MSG(path_.size() == 1, "check() needs an empty row stack");
  int pushed = 0;
  bool viable = true;
  for (int s = 0; s < num_slots() && viable; ++s) {
    IntVec row(m.cols());
    for (int j = 0; j < m.cols(); ++j) row[j] = m(slots_[s], j);
    viable = push_row(row);
    ++pushed;
  }
  bool legal = viable && current_legal();
  for (int s = 0; s < pushed; ++s) pop_row();
  return legal;
}

void IncrementalLegality::clear() {
  INLT_CHECK_MSG(path_.size() == 1, "clear with rows still pushed");
  root_->children.clear();
  root_->leaf_legal = -1;
  root_->leaf_killer = -1;
  path_.back() = root_.get();
  node_count_ = 1;
}

}  // namespace inlt
