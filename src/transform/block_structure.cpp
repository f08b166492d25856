#include "transform/block_structure.hpp"

#include <sstream>

#include "support/check.hpp"
#include "support/diag.hpp"

namespace inlt {

namespace {

// Matrix-structure failures (Fig 6 recovery): kStructure-stage errors.
[[noreturn]] void throw_structure(const std::string& message) {
  Diagnostic d;
  d.stage = Stage::kStructure;
  d.message = message;
  throw_diag(std::move(d));
}

struct RecoverState {
  const IvLayout* src;
  const IntMat* m;
  int cursor = 0;
};

// Recover the permutation of `node`'s children from the edge rows at
// the cursor. Returns inv: inv[new_index] = old_index.
std::vector<int> recover_child_perm(RecoverState& st, const Node* node,
                                    int num_children) {
  const IvLayout::Segment& seg = st.src->segment(node);
  std::vector<int> inv(num_children, -1);
  if (num_children <= 1) {
    if (num_children == 1) inv[0] = 0;
    return inv;
  }
  std::vector<bool> used(num_children, false);
  for (int k = 0; k < num_children; ++k) {
    int row = st.cursor + k;
    int new_index = num_children - 1 - k;  // slot order is e_m .. e_1
    int src_edge = -1;
    for (int col = 0; col < st.m->cols(); ++col) {
      i64 v = (*st.m)(row, col);
      if (v == 0) continue;
      // The only allowed entry is a single 1 at one of this node's
      // edge columns.
      int old_child = -1;
      for (int c = 0; c < num_children; ++c)
        if (seg.child_edge_pos[c] == col) old_child = c;
      if (v != 1 || old_child < 0)
        throw_structure("edge row " + std::to_string(row) +
                        " is not a unit selection of a sibling edge column");
      if (src_edge >= 0)
        throw_structure("edge row " + std::to_string(row) +
                        " selects multiple columns");
      src_edge = old_child;
    }
    if (src_edge < 0)
      throw_structure("edge row " + std::to_string(row) +
                      " selects no edge column");
    if (used[src_edge])
      throw_structure("edge rows select old child " +
                      std::to_string(src_edge) + " twice");
    used[src_edge] = true;
    inv[new_index] = src_edge;
  }
  st.cursor += num_children;
  return inv;
}

NodePtr recover_rec(RecoverState& st, const Node* node);

// Recover the (possibly reordered) children of `node` and attach them
// to `out` (a loop node) or return them for the root.
std::vector<NodePtr> recover_children(RecoverState& st, const Node* node,
                                      const std::vector<NodePtr>& children) {
  int m = static_cast<int>(children.size());
  std::vector<int> inv = recover_child_perm(st, node, m);
  std::vector<NodePtr> out(m);
  // Subtrees are consumed right-to-left in new-index order.
  for (int newc = m - 1; newc >= 0; --newc) {
    const Node* old_child = children[inv[newc]].get();
    if (old_child->is_stmt())
      out[newc] = old_child->clone();
    else
      out[newc] = recover_rec(st, old_child);
  }
  return out;
}

NodePtr recover_rec(RecoverState& st, const Node* node) {
  // The node's label row: unconstrained, so not read.
  ++st.cursor;
  NodePtr fresh = Node::loop(node->var(), node->lower(), node->upper(),
                             node->step());
  for (NodePtr& c : recover_children(st, node, node->children()))
    fresh->add_child(std::move(c));
  return fresh;
}

}  // namespace

AstRecovery recover_ast(const IvLayout& src, const IntMat& m) {
  if (m.rows() != src.size() || m.cols() != src.size())
    throw_structure(
        "transformation matrix must be square over the instance-vector "
        "space (structural transforms use loop_distribution/loop_jamming)");
  RecoverState st{&src, &m, 0};

  auto target = std::make_unique<Program>();
  for (const std::string& p : src.program().params()) target->add_param(p);
  for (NodePtr& r :
       recover_children(st, nullptr, src.program().roots()))
    target->add_root(std::move(r));
  INLT_CHECK_MSG(st.cursor == src.size(),
                 "AST recovery did not consume every row");
  target->validate();

  AstRecovery out;
  out.target = std::move(target);
  out.target_layout = std::make_unique<IvLayout>(*out.target);
  return out;
}

std::string check_block_structure(const IvLayout& src, const IntMat& m) {
  try {
    recover_ast(src, m);
    return "";
  } catch (const TransformError& e) {
    return e.what();
  }
}

}  // namespace inlt
