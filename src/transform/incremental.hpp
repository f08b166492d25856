// Incremental legality for candidate search.
//
// The Definition 6 hull test is a per-dependence walk of the projected
// vector P = (M·d) | common-loops. Each entry of P is one transformed
// row dotted with d, and the lex-status walk consumes entries outermost
// first — so legality can be decided *row by row* as a candidate matrix
// is built up, and two candidates sharing leading rows share all of the
// per-dependence work on that prefix. IncrementalLegality memoizes that
// shared work in a trie keyed by row content, with two properties the
// search driver exploits:
//
//  * Early rejection is final: once a dependence's walk hits a
//    definitely-negative (or undecidable) entry, no extension of the
//    prefix can recover — the whole subtree of candidates below the
//    prefix is illegal and can be pruned.
//  * Dependences are tested in index order, so the dependence a dead
//    prefix is attributed to (killer()) is the lowest-index one that
//    rejects it: a fact of the prefix, not of the walk that reached
//    it. Engines that walk different parts of one space (search()'s
//    subtree workers) therefore attribute every rejection the same
//    way one sequential engine would.
//
// Scope: the engine models candidates that preserve the AST shape —
// square matrices whose edge rows are identity rows. For those,
// NewAST recovers the source tree with children in source order, so
// the target program's common-loop positions and syntactic order equal
// the source's, and the engine's verdict coincides exactly with
// check_legality. (`supports()` tests the precondition.) For matrices
// the engine accepts but recover_ast rejects as non-block-structured,
// rejection is still sound: such candidates fail evaluation anyway.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "dependence/analyzer.hpp"
#include "instance/layout.hpp"

namespace inlt {

class IncrementalLegality {
 public:
  /// Both references must outlive the engine.
  IncrementalLegality(const IvLayout& layout, const DependenceSet& deps);

  /// Number of loop rows a candidate supplies, in push order: slot s
  /// is the loop position all_loop_positions()[s], outermost first.
  int num_slots() const { return static_cast<int>(slots_.size()); }
  /// Layout position of slot s.
  int slot_position(int s) const { return slots_[s]; }

  /// Can this engine decide the matrix? True for square matrices of
  /// layout width whose edge rows are identity rows (loop rows are
  /// unconstrained — permutations, skews, alignments all qualify).
  bool supports(const IntMat& m) const;

  // --- Stack API (used by the pruning search driver) ---

  /// Push the full-width row for the next slot. Returns the viability
  /// of the new prefix: false means every completion is illegal.
  bool push_row(const IntVec& row);
  /// Popping the last row publishes the `incremental.pushes`,
  /// `incremental.memo_hits` and `incremental.rows_evaluated` Stats
  /// counts of the pushes since the stack was last empty.
  void pop_row();
  /// Rows currently pushed.
  int depth() const { return static_cast<int>(path_.size()) - 1; }
  bool prefix_viable() const;
  /// Index of the dependence that killed the prefix (-1 if viable).
  int killer() const;
  /// Slot (row) at which the prefix died (-1 if viable). Slots number
  /// pushed rows 0..num_slots()-1, outermost first; convert to a
  /// layout position with slot_position().
  int killer_row() const;

  /// After a full-depth push with current_legal() == false on a
  /// *viable* leaf: the first dependence whose zero projection is not
  /// acceptable (the provenance of a completion-time rejection).
  /// -1 when the leaf is legal or died earlier.
  int leaf_killer() const;

  /// Verdict for the complete candidate; requires depth()==num_slots().
  /// Equals check_legality(...).legal() for supported matrices.
  bool current_legal() const;

  /// Indices (into deps.deps, ascending) of self-dependences the
  /// current complete candidate leaves unsatisfied — matches
  /// LegalityResult::unsatisfied. Requires current_legal().
  std::vector<int> current_unsatisfied() const;

  // --- Batch API ---

  /// Check a complete matrix (must satisfy supports()), reusing the
  /// memo trie. The stack is left where it was.
  bool check(const IntMat& m);

  /// Drop the memo trie (the stack must be empty).
  void clear();

  /// Nodes in the memo trie (root included).
  size_t memo_size() const { return node_count_; }

 private:
  // Automaton state of one dependence after consuming a row prefix;
  // mirrors the lex_status walk in direction.cpp.
  enum State : std::uint8_t {
    kRun = 0,     // all entries so far exactly zero
    kRunNonNeg,   // saw a non-negative (possibly-zero) entry
    kAccept,      // definitely positive: satisfied, final
    kReject,      // definitely negative or undecidable: final
  };

  struct Node {
    // Per-dependence states, in dependence-set order. Only populated
    // while the node is viable; a dead node stores just the killer.
    std::vector<std::uint8_t> states;
    bool viable = true;
    int killer = -1;
    // Slot index of the row that killed the node (-1 while viable);
    // inherited by extensions of a dead prefix.
    int killer_row = -1;
    // Memoized leaf verdict: -1 unknown, else 0/1.
    int leaf_legal = -1;
    // Dependence whose unacceptable zero projection rejected a viable
    // leaf (-1 otherwise); memoized with leaf_legal.
    int leaf_killer = -1;
    std::map<IntVec, std::unique_ptr<Node>> children;
  };

  State step(State s, const DepEntry& e) const;

  const IvLayout& layout_;
  const DependenceSet& deps_;
  std::vector<int> slots_;  // loop positions, ascending (outermost first)
  // Per dependence d, per slot s: does slot s's position belong to the
  // common loops of d's statement pair?
  std::vector<std::vector<std::uint8_t>> in_common_;
  // Zero/non-negative final projection acceptable? (self-dependence —
  // left unsatisfied — or source syntactically before destination.)
  std::vector<std::uint8_t> zero_ok_;
  // Self-dependence flag, for current_unsatisfied().
  std::vector<std::uint8_t> is_self_;

  std::unique_ptr<Node> root_;
  std::vector<Node*> path_;  // path_[0] == root_; back() == current
  size_t node_count_ = 1;
  // The incremental.* Stats counts since the stack last returned to
  // the root, where pop_row() publishes them.
  i64 pushes_ = 0;
  i64 memo_hits_ = 0;
  i64 rows_evaluated_ = 0;
};

}  // namespace inlt
