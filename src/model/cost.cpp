#include "model/cost.hpp"

#include <cmath>
#include <set>
#include <sstream>

#include "linalg/gauss.hpp"
#include "linalg/hermite.hpp"
#include "support/json.hpp"
#include "support/stats.hpp"
#include "support/trace.hpp"
#include "transform/parallel.hpp"
#include "transform/per_statement.hpp"

namespace inlt {

const char* reuse_class_name(ReuseClass c) {
  switch (c) {
    case ReuseClass::kTemporal: return "temporal";
    case ReuseClass::kSpatial: return "spatial";
    case ReuseClass::kNone: return "none";
  }
  return "?";
}

namespace {

Rational rat_abs(const Rational& r) { return r.sign() < 0 ? -r : r; }

double rat_double(const Rational& r) {
  return static_cast<double>(r.num()) / static_cast<double>(r.den());
}

// Stride of each subscript dimension of `a` for one step of the
// statement's innermost transformed loop, where `dir` is that step
// expressed in source iteration variables (`vars` order).
std::vector<Rational> subscript_strides(const ArrayAccess& a,
                                        const std::vector<std::string>& vars,
                                        const std::vector<Rational>& dir) {
  std::vector<Rational> out;
  out.reserve(a.subscripts.size());
  for (const AffineExpr& sub : a.subscripts) {
    Rational s = 0;
    for (size_t j = 0; j < vars.size(); ++j) {
      i64 c = sub.coef(vars[j]);
      if (c != 0) s += Rational(c) * dir[j];
    }
    out.push_back(s);
  }
  return out;
}

}  // namespace

CostEstimate estimate_cost(const IvLayout& src, const IntMat& m,
                           const AstRecovery& rec, const ModelOptions& opts) {
  ScopedTimer timer("model.estimate_ns");
  ScopedSpan span("model.estimate", "model");
  Stats::global().add("model.estimates");
  CostEstimate est;
  const Rational line(opts.line_elems);
  const double trip = static_cast<double>(opts.nominal_trip);

  for (const std::string& label : src.stmt_labels()) {
    const StatementContext sc = src.program().find_statement(label);
    const std::vector<std::string> vars = sc.loop_vars();
    const int k = static_cast<int>(vars.size());
    const std::vector<ArrayAccess> accesses = sc.stmt->stmt_data().accesses();

    // Source iteration delta for one step of the statement's innermost
    // transformed loop: complete the independent rows of M_S to a
    // nonsingular basis T (dropped singular rows are guarded
    // single-iteration loops; appended nullspace rows are the loops
    // augmentation would add, innermost), then the innermost target
    // label steps by the last HNF diagonal of T on its lattice and the
    // source vars move by T^{-1} · (step · e_last).
    std::vector<Rational> dir(static_cast<size_t>(k), Rational(0));
    if (k > 0) {
      PerStatement ps = per_statement_transform(src, rec, m, label, opts.pad);
      IntMat kept;
      for (int r : independent_row_indices(ps.matrix))
        kept.append_row(ps.matrix.row(r));
      IntMat t_full =
          kept.rows() == 0 ? IntMat::identity(k) : complete_to_nonsingular(kept);
      RatMat t_inv = inverse(to_rational(t_full));
      HermiteResult h = hermite_normal_form(t_full);
      Rational step = h.h(k - 1, k - 1);
      for (int i = 0; i < k; ++i) dir[i] = t_inv(i, k - 1) * step;
    }

    // Executions of the statement's innermost loop over the whole nest.
    const double inner_runs = k > 1 ? std::pow(trip, k - 1) : 1.0;

    for (const ArrayAccess& a : accesses) {
      RefCost rc;
      rc.stmt = label;
      rc.array = a.array;
      rc.is_write = a.is_write;
      rc.stride_dims = subscript_strides(a, vars, dir);

      bool outer_moves = false;
      for (size_t d = 0; d + 1 < rc.stride_dims.size(); ++d)
        if (!rc.stride_dims[d].is_zero()) outer_moves = true;
      const Rational contiguous =
          rc.stride_dims.empty() ? Rational(0) : rat_abs(rc.stride_dims.back());

      double lines_per_inner_run;
      if (k == 0 || (!outer_moves && contiguous.is_zero())) {
        rc.reuse = ReuseClass::kTemporal;
        lines_per_inner_run = 1.0;
      } else if (!outer_moves && contiguous < line) {
        rc.reuse = ReuseClass::kSpatial;
        lines_per_inner_run =
            std::max(1.0, trip * rat_double(contiguous) /
                              static_cast<double>(opts.line_elems));
      } else {
        rc.reuse = ReuseClass::kNone;
        lines_per_inner_run = trip;
      }
      rc.lines = (k == 0 ? 1.0 : inner_runs) * lines_per_inner_run;
      est.total_lines += rc.lines;
      est.refs.push_back(std::move(rc));
    }
  }
  est.exec_threads = opts.exec_threads;
  est.effective_lines = est.total_lines;
  if (span.active()) {
    span.arg("refs", static_cast<i64>(est.refs.size()));
    span.arg("lines", static_cast<i64>(est.total_lines));
  }
  return est;
}

CostEstimate estimate_cost(const IvLayout& src, const IntMat& m,
                           const ModelOptions& opts) {
  AstRecovery rec = recover_ast(src, m);
  return estimate_cost(src, m, rec, opts);
}

namespace {

// Labels of the statements under some partitioned doall level of the
// target AST — the statements whose work the exec pool chunks.
void collect_partitioned_stmts(const Node* n,
                               const std::set<std::string>& partition,
                               bool under, std::set<std::string>& out) {
  if (n->is_stmt()) {
    if (under) out.insert(n->stmt_data().label);
    return;
  }
  if (n->is_loop() && partition.count(n->var())) under = true;
  for (const NodePtr& c : n->children())
    collect_partitioned_stmts(c.get(), partition, under, out);
}

}  // namespace

CostEstimate estimate_cost(const IvLayout& src, const DependenceSet& deps,
                           const IntMat& m, const AstRecovery& rec,
                           const ModelOptions& opts) {
  return estimate_cost(src, m, rec, target_dependences(src, deps, m, rec),
                       opts);
}

CostEstimate estimate_cost(const IvLayout& src, const IntMat& m,
                           const AstRecovery& rec,
                           const DependenceSet& target_deps,
                           const ModelOptions& opts) {
  CostEstimate est = estimate_cost(src, m, rec, opts);
  ParallelSchedule sched = analyze_target_parallelism(rec, target_deps);
  est.partition = sched.partition;
  if (sched.partition.empty() || est.total_lines <= 0) return est;

  const std::set<std::string> part(sched.partition.begin(),
                                   sched.partition.end());
  std::set<std::string> par_stmts;
  for (const NodePtr& root : rec.target->roots())
    collect_partitioned_stmts(root.get(), part, false, par_stmts);

  double par_lines = 0;
  for (const RefCost& r : est.refs)
    if (par_stmts.count(r.stmt)) par_lines += r.lines;
  est.parallel_fraction = par_lines / est.total_lines;
  const double t = static_cast<double>(opts.exec_threads > 0
                                           ? opts.exec_threads
                                           : 1);
  est.effective_lines =
      est.total_lines * ((1.0 - est.parallel_fraction) +
                         est.parallel_fraction / t);
  return est;
}

std::string CostEstimate::to_text() const {
  std::ostringstream os;
  os << "estimated distinct cache lines: " << total_lines << "\n";
  std::string current;
  for (const RefCost& r : refs) {
    if (r.stmt != current) {
      current = r.stmt;
      os << "  " << r.stmt << ":\n";
    }
    os << "    " << (r.is_write ? "write " : "read  ") << r.array << "(";
    for (size_t d = 0; d < r.stride_dims.size(); ++d)
      os << (d ? "," : "") << r.stride_dims[d].to_string();
    os << ")  " << reuse_class_name(r.reuse) << "  lines=" << r.lines << "\n";
  }
  if (exec_threads > 1) {
    os << "parallel work: threads=" << exec_threads
       << "  fraction=" << parallel_fraction
       << "  effective lines=" << effective_lines << "\n";
    if (!partition.empty()) {
      os << "  partition:";
      for (const std::string& v : partition) os << " " << v;
      os << "\n";
    }
  }
  return os.str();
}

std::string CostEstimate::to_json() const {
  std::ostringstream os;
  os << "{\"total_lines\":" << total_lines
     << ",\"effective_lines\":" << effective_lines
     << ",\"parallel_fraction\":" << parallel_fraction
     << ",\"exec_threads\":" << exec_threads << ",\"partition\":[";
  for (size_t i = 0; i < partition.size(); ++i)
    os << (i ? "," : "") << "\"" << json_escape(partition[i]) << "\"";
  os << "],\"refs\":[";
  for (size_t i = 0; i < refs.size(); ++i) {
    const RefCost& r = refs[i];
    os << (i ? "," : "") << "{\"stmt\":\"" << json_escape(r.stmt)
       << "\",\"array\":\"" << json_escape(r.array)
       << "\",\"write\":" << (r.is_write ? "true" : "false")
       << ",\"stride\":[";
    for (size_t d = 0; d < r.stride_dims.size(); ++d)
      os << (d ? "," : "") << "\"" << r.stride_dims[d].to_string() << "\"";
    os << "],\"reuse\":\"" << reuse_class_name(r.reuse)
       << "\",\"lines\":" << r.lines << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace inlt
