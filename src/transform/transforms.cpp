#include "transform/transforms.hpp"

#include <algorithm>
#include <functional>
#include <map>

#include "support/check.hpp"
#include "support/diag.hpp"

namespace inlt {

namespace {

const Node* find_root_loop(const Program& p, const std::string& var,
                           int* index = nullptr) {
  for (size_t i = 0; i < p.roots().size(); ++i)
    if (p.roots()[i]->is_loop() && p.roots()[i]->var() == var) {
      if (index) *index = static_cast<int>(i);
      return p.roots()[i].get();
    }
  Diagnostic d;
  d.stage = Stage::kStructure;
  d.loop = var;
  d.message = "loop " + var + " is not a root loop";
  throw_diag(std::move(d));
}

const Node* find_loop(const Program& p, const std::string& var) {
  const Node* found = nullptr;
  walk(p, [&](const Node& n, const std::vector<const Node*>&) {
    if (n.is_loop() && n.var() == var) found = &n;
  });
  if (!found) {
    Diagnostic d;
    d.stage = Stage::kStructure;
    d.loop = var;
    d.message = "no loop named " + var;
    throw_diag(std::move(d));
  }
  return found;
}

// Size of the instance-vector block contributed by a child node:
// 0 for a statement leaf, the node's segment size for a loop.
int block_size(const IvLayout& layout, const Node* child) {
  if (child->is_stmt()) return 0;
  const IvLayout::Segment& s = layout.segment(child);
  return s.end - s.start;
}

}  // namespace

IntMat loop_interchange(const IvLayout& layout, const std::string& a,
                        const std::string& b) {
  int pa = layout.loop_position(a);
  int pb = layout.loop_position(b);
  IntMat m = IntMat::identity(layout.size());
  m(pa, pa) = 0;
  m(pb, pb) = 0;
  m(pa, pb) = 1;
  m(pb, pa) = 1;
  return m;
}

IntMat loop_permutation(const IvLayout& layout,
                        const std::vector<std::string>& order) {
  std::vector<int> loop_pos = layout.all_loop_positions();
  INLT_CHECK_MSG(order.size() == loop_pos.size(),
                 "loop_permutation needs one name per loop");
  IntMat m = IntMat::identity(layout.size());
  for (int p : loop_pos)
    for (int q : loop_pos) m(p, q) = 0;
  for (size_t i = 0; i < order.size(); ++i)
    m(loop_pos[i], layout.loop_position(order[i])) = 1;
  INLT_CHECK_MSG(is_permutation_matrix(m), "order is not a permutation");
  return m;
}

IntMat loop_reversal(const IvLayout& layout, const std::string& var) {
  IntMat m = IntMat::identity(layout.size());
  int p = layout.loop_position(var);
  m(p, p) = -1;
  return m;
}

IntMat loop_scaling(const IvLayout& layout, const std::string& var,
                    i64 factor) {
  if (factor < 1) throw Error("scale factor must be >= 1");
  IntMat m = IntMat::identity(layout.size());
  int p = layout.loop_position(var);
  m(p, p) = factor;
  return m;
}

IntMat loop_skew(const IvLayout& layout, const std::string& target,
                 const std::string& source, i64 factor) {
  INLT_CHECK_MSG(target != source, "cannot skew a loop by itself");
  IntMat m = IntMat::identity(layout.size());
  m(layout.loop_position(target), layout.loop_position(source)) = factor;
  return m;
}

IntMat statement_reorder(const IvLayout& layout,
                         const std::string& parent_var,
                         const std::vector<int>& perm) {
  const Program& p = layout.program();
  const Node* parent =
      parent_var.empty() ? nullptr : find_loop(p, parent_var);
  const IvLayout::Segment& seg = layout.segment(parent);
  const std::vector<NodePtr>& children =
      parent ? parent->children() : p.roots();
  int m = static_cast<int>(children.size());
  if (static_cast<int>(perm.size()) != m)
    throw Error("permutation arity mismatch");
  std::vector<int> inv(m, -1);  // inv[new] = old
  for (int o = 0; o < m; ++o) {
    if (perm[o] < 0 || perm[o] >= m || inv[perm[o]] >= 0)
      throw Error("perm is not a permutation");
    inv[perm[o]] = o;
  }

  IntMat mat(layout.size(), layout.size());
  // Identity outside the affected ranges.
  std::vector<bool> handled(layout.size(), false);

  // Edge rows: the k-th edge slot (position order) holds the edge to
  // new child (m-1-k); it reads the source edge of old child
  // inv[m-1-k].
  if (m > 1) {
    for (int newc = 0; newc < m; ++newc) {
      int slot_pos = seg.child_edge_pos[newc];  // same slot layout
      int src_pos = seg.child_edge_pos[inv[newc]];
      mat(slot_pos, src_pos) = 1;
      handled[slot_pos] = true;
    }
  }

  // Subtree blocks: target lists new children right-to-left; each block
  // is the identity over the old child's source block.
  int cursor = (m > 1) ? seg.child_edge_pos[0] + 1
                       : (seg.loop_pos >= 0 ? seg.loop_pos + 1 : seg.start);
  for (int newc = m - 1; newc >= 0; --newc) {
    const Node* old_child = children[inv[newc]].get();
    int size = block_size(layout, old_child);
    if (size == 0) continue;
    int src_start = layout.segment(old_child).start;
    for (int k = 0; k < size; ++k) {
      mat(cursor + k, src_start + k) = 1;
      handled[cursor + k] = true;
    }
    cursor += size;
  }

  // Positions outside this node's child area keep identity.
  for (int i = 0; i < layout.size(); ++i) {
    if (handled[i]) continue;
    bool already = false;
    for (int j = 0; j < layout.size(); ++j)
      if (mat(i, j) != 0) already = true;
    if (!already) mat(i, i) = 1;
  }
  return mat;
}

IntMat statement_alignment(const IvLayout& layout, const std::string& label,
                           const std::string& var, i64 offset) {
  const IvLayout::StmtInfo& info = layout.stmt_info(label);
  INLT_CHECK_MSG(!info.path_edge_positions.empty(),
                 "statement " + label +
                     " has no path edge; alignment is not a linear map "
                     "on this layout");
  int edge = info.path_edge_positions.back();  // deepest edge
  IntMat m = IntMat::identity(layout.size());
  m(layout.loop_position(var), edge) = offset;
  return m;
}

StructuralTransform loop_distribution(const IvLayout& layout,
                                      const std::string& var, int split) {
  const Program& src = layout.program();
  int root_idx = -1;
  const Node* loop = find_root_loop(src, var, &root_idx);
  int m = loop->num_children();
  INLT_CHECK_MSG(split > 0 && split < m, "split must cut the child list");
  INLT_CHECK_MSG(src.roots().size() == 1,
                 "distribution implemented for single-root programs");

  // Build the target program: two copies of the loop.
  Program target;
  for (const std::string& p : src.params()) target.add_param(p);
  NodePtr a = Node::loop(loop->var(), loop->lower(), loop->upper(),
                         loop->step());
  std::string var_b = loop->var() + "_2";
  NodePtr b = Node::loop(var_b, loop->lower(), loop->upper(), loop->step());
  for (int c = 0; c < m; ++c) {
    NodePtr copy = loop->children()[c]->clone();
    if (c >= split) {
      rename_loop_var(*copy, loop->var(), var_b);
      b->add_child(std::move(copy));
    } else {
      a->add_child(std::move(copy));
    }
  }
  // Keep pointers to the copied children before moving the loops in.
  std::vector<const Node*> copy_of(m);
  for (int c = 0; c < split; ++c) copy_of[c] = a->children()[c].get();
  for (int c = split; c < m; ++c)
    copy_of[c] = b->children()[c - split].get();
  const Node* loop_a = target.add_root(std::move(a));
  const Node* loop_b = target.add_root(std::move(b));
  target.validate();

  IvLayout tl(target);
  IntMat mat(tl.size(), layout.size());
  const IvLayout::Segment& src_seg = layout.segment(loop);
  const IvLayout::Segment& root_seg = tl.segment(nullptr);

  // Virtual-root edge rows: the edge to each copy is the sum of the
  // source edge labels of the children it received.
  auto fill_root_edge = [&](int target_row, int lo, int hi) {
    for (int c = lo; c < hi; ++c)
      mat(target_row, src_seg.child_edge_pos[c]) = 1;
  };
  fill_root_edge(root_seg.child_edge_pos[0], 0, split);
  fill_root_edge(root_seg.child_edge_pos[1], split, m);

  // Per-copy recursive mapping: loop labels come from the original
  // loop, inner edges from the matching source edges, inner loop
  // positions from the matching source loops.
  //
  // Because each copied subtree has the same internal shape as its
  // source, segments align position-by-position.
  auto map_copy = [&](const Node* copy_loop, int child_lo, int child_hi) {
    const IvLayout::Segment& tseg = tl.segment(copy_loop);
    mat(tseg.loop_pos, src_seg.loop_pos) = 1;
    // Edges inside the copy (if it has several children).
    int tm = copy_loop->num_children();
    if (tm > 1)
      for (int c = 0; c < tm; ++c)
        mat(tl.segment(copy_loop).child_edge_pos[c],
            src_seg.child_edge_pos[child_lo + c]) = 1;
    // Child subtree blocks.
    for (int c = child_lo; c < child_hi; ++c) {
      const Node* src_child = loop->children()[c].get();
      const Node* dst_child = copy_of[c];
      int size = block_size(layout, src_child);
      if (size == 0) continue;
      int s0 = layout.segment(src_child).start;
      int t0 = tl.segment(dst_child).start;
      for (int k = 0; k < size; ++k) mat(t0 + k, s0 + k) = 1;
    }
  };
  map_copy(loop_a, 0, split);
  map_copy(loop_b, split, m);
  (void)root_idx;
  return {std::move(mat), std::move(target)};
}

std::string check_distribution_legality(const IvLayout& layout,
                                        const DependenceSet& deps,
                                        const std::string& var, int split) {
  const Program& p = layout.program();
  const Node* loop = find_root_loop(p, var);
  // Child index under `loop` for each statement beneath it.
  std::map<std::string, int> group;
  for (int c = 0; c < loop->num_children(); ++c) {
    const Node* child = loop->children()[c].get();
    if (child->is_stmt()) {
      group[child->stmt_data().label] = c;
    } else {
      std::function<void(const Node&)> collect = [&](const Node& n) {
        if (n.is_stmt()) {
          group[n.stmt_data().label] = c;
          return;
        }
        for (const NodePtr& ch : n.children()) collect(*ch);
      };
      collect(*child);
    }
  }
  for (const Dependence& d : deps.deps) {
    auto si = group.find(d.src);
    auto di = group.find(d.dst);
    if (si == group.end() || di == group.end()) continue;
    bool src_second = si->second >= split;
    bool dst_first = di->second < split;
    if (src_second && dst_first) {
      return dep_kind_name(d.kind) + " dependence " + d.src + " -> " +
             d.dst + " on " + d.array +
             " runs from the second group to the first: distribution at " +
             "this split reverses it";
    }
  }
  return "";
}

StructuralTransform loop_jamming(const IvLayout& layout,
                                 const std::string& first,
                                 const std::string& second) {
  const Program& src = layout.program();
  INLT_CHECK_MSG(src.roots().size() == 2,
                 "jamming implemented for two-root programs");
  int ia = -1, ib = -1;
  const Node* la = find_root_loop(src, first, &ia);
  const Node* lb = find_root_loop(src, second, &ib);
  INLT_CHECK_MSG(ia == 0 && ib == 1, "loops must be the two roots in order");

  Program target;
  for (const std::string& p : src.params()) target.add_param(p);
  NodePtr fused =
      Node::loop(la->var(), la->lower(), la->upper(), la->step());
  int ma = la->num_children(), mb = lb->num_children();
  std::vector<const Node*> copy_of_a(ma), copy_of_b(mb);
  for (int c = 0; c < ma; ++c) {
    NodePtr copy = la->children()[c]->clone();
    copy_of_a[c] = fused->add_child(std::move(copy));
  }
  for (int c = 0; c < mb; ++c) {
    NodePtr copy = lb->children()[c]->clone();
    rename_loop_var(*copy, lb->var(), la->var());
    copy_of_b[c] = fused->add_child(std::move(copy));
  }
  const Node* fused_ptr = target.add_root(std::move(fused));
  target.validate();

  IvLayout tl(target);
  IntMat mat(tl.size(), layout.size());
  const IvLayout::Segment& tseg = tl.segment(fused_ptr);
  const IvLayout::Segment& sa = layout.segment(la);
  const IvLayout::Segment& sb = layout.segment(lb);
  const IvLayout::Segment& sroot = layout.segment(nullptr);

  // Fused loop label: the first copy's loop (diagonal padding makes
  // either choice agree on every instance).
  mat(tseg.loop_pos, sa.loop_pos) = 1;

  // Fused edges: a child coming from copy X keeps its inner edge if X
  // had several children, otherwise it is identified by X's root edge.
  auto edge_source = [&](const IvLayout::Segment& sseg, int root_edge,
                         int inner_children, int inner_index) {
    return inner_children > 1 ? sseg.child_edge_pos[inner_index] : root_edge;
  };
  for (int c = 0; c < ma + mb; ++c) {
    int row = tseg.child_edge_pos[c];
    if (row < 0) continue;  // fused loop has a single child: no edges
    int col = c < ma ? edge_source(sa, sroot.child_edge_pos[0], ma, c)
                     : edge_source(sb, sroot.child_edge_pos[1], mb, c - ma);
    mat(row, col) = 1;
  }

  // Subtree blocks.
  auto map_children = [&](const Node* src_loop,
                          const std::vector<const Node*>& copies) {
    for (int c = 0; c < static_cast<int>(copies.size()); ++c) {
      const Node* src_child = src_loop->children()[c].get();
      int size = block_size(layout, src_child);
      if (size == 0) continue;
      int s0 = layout.segment(src_child).start;
      int t0 = tl.segment(copies[c]).start;
      for (int k = 0; k < size; ++k) mat(t0 + k, s0 + k) = 1;
    }
  };
  map_children(la, copy_of_a);
  map_children(lb, copy_of_b);
  return {std::move(mat), std::move(target)};
}

}  // namespace inlt
