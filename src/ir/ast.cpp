#include "ir/ast.hpp"

#include <set>
#include <sstream>

#include "support/check.hpp"

namespace inlt {

bool Guard::holds(const std::map<std::string, i64>& env) const {
  i64 v = expr.eval(env);
  switch (kind) {
    case Kind::kEqZero:
      return v == 0;
    case Kind::kGeZero:
      return v >= 0;
    case Kind::kDivisible:
      return floor_mod(v, modulus) == 0;
  }
  return false;
}

std::string Guard::to_string() const {
  std::ostringstream os;
  switch (kind) {
    case Kind::kEqZero:
      os << expr.to_string() << " == 0";
      break;
    case Kind::kGeZero:
      os << expr.to_string() << " >= 0";
      break;
    case Kind::kDivisible:
      os << "(" << expr.to_string() << ") mod " << modulus << " == 0";
      break;
  }
  return os.str();
}

Statement Statement::clone() const {
  Statement s;
  s.label = label;
  s.lhs_array = lhs_array;
  s.lhs_subscripts = lhs_subscripts;
  s.rhs = rhs ? rhs->clone() : nullptr;
  return s;
}

std::vector<ArrayAccess> Statement::accesses() const {
  std::vector<ArrayAccess> out;
  out.push_back({lhs_array, lhs_subscripts, /*is_write=*/true});
  if (rhs) collect_reads(*rhs, out);
  return out;
}

NodePtr Node::loop(std::string var, Bound lower, Bound upper, i64 step) {
  INLT_CHECK_MSG(step >= 1, "loop step must be >= 1");
  auto n = NodePtr(new Node());
  n->kind_ = Kind::kLoop;
  n->var_ = std::move(var);
  n->lower_ = std::move(lower);
  n->upper_ = std::move(upper);
  n->step_ = step;
  return n;
}

NodePtr Node::stmt(Statement s) {
  auto n = NodePtr(new Node());
  n->kind_ = Kind::kStmt;
  n->stmt_ = std::move(s);
  return n;
}

const std::string& Node::var() const {
  INLT_CHECK(is_loop());
  return var_;
}
const Bound& Node::lower() const {
  INLT_CHECK(is_loop());
  return lower_;
}
const Bound& Node::upper() const {
  INLT_CHECK(is_loop());
  return upper_;
}
i64 Node::step() const {
  INLT_CHECK(is_loop());
  return step_;
}
bool Node::runs_once() const {
  INLT_CHECK(is_loop());
  return lower_.single() && lower_.terms[0].den == 1 &&
         lower_.terms == upper_.terms;
}
void Node::set_var(std::string v) {
  INLT_CHECK(is_loop());
  var_ = std::move(v);
}
void Node::set_bounds(Bound lower, Bound upper, i64 step) {
  INLT_CHECK(is_loop());
  INLT_CHECK(step >= 1);
  lower_ = std::move(lower);
  upper_ = std::move(upper);
  step_ = step;
}

Node* Node::add_child(NodePtr c) {
  INLT_CHECK_MSG(is_loop(), "only loops have children");
  children_.push_back(std::move(c));
  return children_.back().get();
}

const Statement& Node::stmt_data() const {
  INLT_CHECK(is_stmt());
  return stmt_;
}
Statement& Node::mutable_stmt_data() {
  INLT_CHECK(is_stmt());
  return stmt_;
}

NodePtr Node::clone() const {
  auto n = NodePtr(new Node());
  n->kind_ = kind_;
  n->var_ = var_;
  n->lower_ = lower_;
  n->upper_ = upper_;
  n->step_ = step_;
  n->stmt_ = stmt_.clone();
  n->guards_ = guards_;
  n->children_.reserve(children_.size());
  for (const NodePtr& c : children_) n->children_.push_back(c->clone());
  return n;
}

std::vector<std::string> StatementContext::loop_vars() const {
  std::vector<std::string> vs;
  vs.reserve(loops.size());
  for (const Node* l : loops) vs.push_back(l->var());
  return vs;
}

Program& Program::operator=(const Program& o) {
  if (this == &o) return *this;
  params_ = o.params_;
  roots_.clear();
  roots_.reserve(o.roots_.size());
  for (const NodePtr& r : o.roots_) roots_.push_back(r->clone());
  return *this;
}

bool Program::is_param(const std::string& name) const {
  for (const std::string& p : params_)
    if (p == name) return true;
  return false;
}

Node* Program::add_root(NodePtr n) {
  roots_.push_back(std::move(n));
  return roots_.back().get();
}

namespace {
void collect_statements(const Node& n, std::vector<const Node*>& loops,
                        std::vector<StatementContext>& out) {
  if (n.is_stmt()) {
    out.push_back({&n, loops});
    return;
  }
  loops.push_back(&n);
  for (const NodePtr& c : n.children()) collect_statements(*c, loops, out);
  loops.pop_back();
}
}  // namespace

std::vector<StatementContext> Program::statements() const {
  std::vector<StatementContext> out;
  std::vector<const Node*> loops;
  for (const NodePtr& r : roots_) collect_statements(*r, loops, out);
  return out;
}

StatementContext Program::find_statement(const std::string& label) const {
  for (const StatementContext& sc : statements())
    if (sc.label() == label) return sc;
  throw InvalidProgramError("no statement labeled " + label);
}

namespace {
void check_affine_vars(const AffineExpr& e, const std::set<std::string>& ok,
                       const std::string& where) {
  for (const auto& [name, coef] : e.terms()) {
    (void)coef;
    if (!ok.count(name))
      throw InvalidProgramError("variable '" + name + "' used in " + where +
                                " is not an enclosing loop variable or "
                                "parameter");
  }
}

void check_scalar_vars(const ScalarExpr& e, const std::set<std::string>& ok,
                       const std::string& where) {
  for (const AffineExpr& s : e.subscripts) check_affine_vars(s, ok, where);
  for (const auto& a : e.args) check_scalar_vars(*a, ok, where);
}

void validate_node(const Node& n, std::set<std::string>& scope,
                   std::set<std::string>& labels) {
  if (n.is_stmt()) {
    const Statement& s = n.stmt_data();
    if (s.label.empty())
      throw InvalidProgramError("statement with empty label");
    if (!labels.insert(s.label).second)
      throw InvalidProgramError("duplicate statement label " + s.label);
    std::string where = "statement " + s.label;
    for (const AffineExpr& e : s.lhs_subscripts)
      check_affine_vars(e, scope, where);
    if (s.rhs) check_scalar_vars(*s.rhs, scope, where);
    for (const Guard& g : n.guards()) check_affine_vars(g.expr, scope, where);
    return;
  }
  if (scope.count(n.var()))
    throw InvalidProgramError("loop variable '" + n.var() +
                              "' shadows an enclosing variable");
  std::string where = "bounds of loop " + n.var();
  for (const BoundTerm& t : n.lower().terms)
    check_affine_vars(t.expr, scope, where);
  for (const BoundTerm& t : n.upper().terms)
    check_affine_vars(t.expr, scope, where);
  for (const Guard& g : n.guards()) check_affine_vars(g.expr, scope, where);
  if (n.num_children() == 0)
    throw InvalidProgramError("empty loop " + n.var());
  scope.insert(n.var());
  for (const NodePtr& c : n.children()) validate_node(*c, scope, labels);
  scope.erase(n.var());
}
}  // namespace

void Program::validate() const {
  std::set<std::string> scope(params_.begin(), params_.end());
  std::set<std::string> labels;
  for (const NodePtr& r : roots_) validate_node(*r, scope, labels);
}

namespace {
void walk_node(const Node& n, std::vector<const Node*>& loops,
               const std::function<void(const Node&,
                                        const std::vector<const Node*>&)>& f) {
  f(n, loops);
  if (!n.is_loop()) return;
  loops.push_back(&n);
  for (const NodePtr& c : n.children()) walk_node(*c, loops, f);
  loops.pop_back();
}
}  // namespace

void walk(const Program& p,
          const std::function<void(const Node&,
                                   const std::vector<const Node*>&)>& pre) {
  std::vector<const Node*> loops;
  for (const NodePtr& r : p.roots()) walk_node(*r, loops, pre);
}

void rename_loop_var(Node& n, const std::string& from, const std::string& to) {
  for (Guard& g : n.mutable_guards()) g.expr = g.expr.renamed(from, to);
  if (n.is_stmt()) {
    Statement& s = n.mutable_stmt_data();
    for (AffineExpr& e : s.lhs_subscripts) e = e.renamed(from, to);
    if (s.rhs) s.rhs->rename_var(from, to);
    return;
  }
  if (n.var() == from) n.set_var(to);
  Bound lo = n.lower(), hi = n.upper();
  for (BoundTerm& t : lo.terms) t.expr = t.expr.renamed(from, to);
  for (BoundTerm& t : hi.terms) t.expr = t.expr.renamed(from, to);
  n.set_bounds(std::move(lo), std::move(hi), n.step());
  for (NodePtr& c : n.mutable_children()) rename_loop_var(*c, from, to);
}

}  // namespace inlt
