// The loop-nest abstract syntax tree of §2.1.
//
// Internal nodes are loops, leaves are atomic statements; subtree
// structure is syntactic nesting and left-to-right child order is
// execution order. A Program owns a forest of top-level nodes (one
// loop for the paper's examples; several after loop distribution).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/affine.hpp"
#include "ir/scalar.hpp"

namespace inlt {

/// A guard attached to a node by code generation: the subtree executes
/// only when the condition holds (§5.5's singular-loop conditions).
struct Guard {
  enum class Kind {
    kEqZero,     ///< expr == 0
    kGeZero,     ///< expr >= 0
    kDivisible,  ///< expr ≡ 0 (mod modulus)
  };
  Kind kind = Kind::kEqZero;
  AffineExpr expr;
  i64 modulus = 1;  ///< used by kDivisible

  bool holds(const std::map<std::string, i64>& env) const;
  std::string to_string() const;
};

class Node;
using NodePtr = std::unique_ptr<Node>;

/// An atomic assignment statement: lhs_array(lhs_subscripts) = rhs.
struct Statement {
  std::string label;  ///< e.g. "S1"; unique within a Program
  std::string lhs_array;
  std::vector<AffineExpr> lhs_subscripts;
  ScalarExprPtr rhs;

  Statement clone() const;

  /// The write access plus every read access in the body, write first.
  std::vector<ArrayAccess> accesses() const;
};

class Node {
 public:
  enum class Kind { kLoop, kStmt };

  /// Make a loop node `do var = lower, upper, step`.
  static NodePtr loop(std::string var, Bound lower, Bound upper,
                      i64 step = 1);
  /// Make a statement leaf.
  static NodePtr stmt(Statement s);

  Kind kind() const { return kind_; }
  bool is_loop() const { return kind_ == Kind::kLoop; }
  bool is_stmt() const { return kind_ == Kind::kStmt; }

  // -- loop accessors --
  const std::string& var() const;
  const Bound& lower() const;
  const Bound& upper() const;
  i64 step() const;
  /// Both bounds are one and the same term with denominator 1, so the
  /// loop runs exactly once (codegen's `do J = 2*K, 2*K`).
  bool runs_once() const;
  void set_var(std::string v);
  void set_bounds(Bound lower, Bound upper, i64 step = 1);

  const std::vector<NodePtr>& children() const { return children_; }
  std::vector<NodePtr>& mutable_children() { return children_; }
  Node* add_child(NodePtr c);
  int num_children() const { return static_cast<int>(children_.size()); }

  // -- statement accessors --
  const Statement& stmt_data() const;
  Statement& mutable_stmt_data();

  // -- guards (any node) --
  const std::vector<Guard>& guards() const { return guards_; }
  std::vector<Guard>& mutable_guards() { return guards_; }
  void add_guard(Guard g) { guards_.push_back(std::move(g)); }

  NodePtr clone() const;

 private:
  Node() = default;

  Kind kind_ = Kind::kStmt;
  // loop fields
  std::string var_;
  Bound lower_, upper_;
  i64 step_ = 1;
  std::vector<NodePtr> children_;
  // statement field
  Statement stmt_;
  // guards
  std::vector<Guard> guards_;
};

/// A statement together with its enclosing loops, outermost first.
struct StatementContext {
  const Node* stmt = nullptr;
  std::vector<const Node*> loops;

  const std::string& label() const { return stmt->stmt_data().label; }
  int depth() const { return static_cast<int>(loops.size()); }
  /// Names of the enclosing loop variables, outermost first.
  std::vector<std::string> loop_vars() const;
};

/// A whole program: parameters plus a forest of top-level nodes.
class Program {
 public:
  Program() = default;

  Program(const Program& o) { *this = o; }
  Program& operator=(const Program& o);
  Program(Program&&) = default;
  Program& operator=(Program&&) = default;

  void add_param(std::string p) { params_.push_back(std::move(p)); }
  const std::vector<std::string>& params() const { return params_; }
  bool is_param(const std::string& name) const;

  Node* add_root(NodePtr n);
  const std::vector<NodePtr>& roots() const { return roots_; }
  std::vector<NodePtr>& mutable_roots() { return roots_; }

  /// All statements in syntactic (depth-first, left-to-right) order —
  /// the ⪯ₛ order of Definition 1.
  std::vector<StatementContext> statements() const;

  /// Statement context by label; throws if absent.
  StatementContext find_statement(const std::string& label) const;

  /// Structural sanity checks: unique loop variables on any root-to-
  /// leaf path, unique statement labels, subscripts only over enclosing
  /// loop variables and parameters. Throws InvalidProgramError.
  void validate() const;

 private:
  std::vector<std::string> params_;
  std::vector<NodePtr> roots_;
};

/// Visit every node; `pre` runs before children (loops only have
/// children). The loop stack holds enclosing loops, outermost first.
void walk(const Program& p,
          const std::function<void(const Node&,
                                   const std::vector<const Node*>&)>& pre);

/// Rename a loop variable throughout a subtree: bounds, guards, array
/// subscripts and statement bodies.
void rename_loop_var(Node& n, const std::string& from, const std::string& to);

}  // namespace inlt
