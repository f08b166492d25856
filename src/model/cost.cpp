#include "model/cost.hpp"

#include <array>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <set>
#include <sstream>
#include <unordered_map>

#include "linalg/gauss.hpp"
#include "linalg/hermite.hpp"
#include "support/json.hpp"
#include "support/small_vec.hpp"
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

constexpr size_t kMemoStripes = 16;

// Memo key: statement index, N_S's row count, then N_S row-major —
// inline up to a depth-3 statement's 3x3 N_S, so forming a key to
// look up allocates nothing.
using StepKey = SmallVec<i64, 12>;

struct StepKeyHash {
  size_t operator()(const StepKey& key) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (i64 v : key)
      h = (h ^ static_cast<std::uint64_t>(v)) * 0x100000001b3ull;
    return static_cast<size_t>(h ^ (h >> 29));
  }
};

// Source iteration delta `dir` for one step of a statement's innermost
// transformed loop, the per-subscript stride it gives each access, and
// each access's reuse class and estimated lines (functions of the
// strides, the loop depth and the model's options alone).
struct Step {
  std::vector<Rational> dir;
  std::vector<std::vector<Rational>> strides;  // [access][subscript]
  std::vector<ReuseClass> reuse;               // [access]
  std::vector<double> lines;                   // [access]
};

// One statement's source-side facts, tabulated once per model.
struct StmtTable {
  std::string label;
  int k = 0;  // enclosing loops
  StatementEmbedding emb;
  struct Access {
    std::string array;
    bool is_write = false;
    std::vector<IntVec> coefs;  // per subscript: coefficient per loop var
  };
  std::vector<Access> accesses;
  Step loopless;  // the Step when k == 0: nothing moves
  /// Target loop positions in the model's skeleton (CostModel's
  /// constructor), resolved once.
  std::vector<int> skeleton_rows;
};

}  // namespace

struct CostModelTables {
  std::vector<StmtTable> stmts;
  const AstRecovery* skeleton = nullptr;
  /// Never reused by another model: what a thread's MemoFront is keyed
  /// by.
  std::uint64_t id = 0;
  struct alignas(64) Stripe {
    std::mutex mu;
    // Node-based: a Step's address is stable for the model's lifetime.
    std::unordered_map<StepKey, Step, StepKeyHash> steps;
  };
  std::array<Stripe, kMemoStripes> memo;
};

namespace {

// Classify each access of a statement at depth `k` by `step`'s strides
// and charge its estimated lines over the whole nest.
void charge(Step& step, int k, const ModelOptions& opts) {
  const Rational line(opts.line_elems);
  const double trip = static_cast<double>(opts.nominal_trip);
  // Executions of the statement's innermost loop over the whole nest.
  const double inner_runs = k > 1 ? std::pow(trip, k - 1) : 1.0;
  for (const std::vector<Rational>& stride : step.strides) {
    bool outer_moves = false;
    for (size_t d = 0; d + 1 < stride.size(); ++d)
      if (!stride[d].is_zero()) outer_moves = true;
    const Rational contiguous =
        stride.empty() ? Rational(0) : rat_abs(stride.back());

    ReuseClass reuse;
    double lines_per_inner_run;
    if (k == 0 || (!outer_moves && contiguous.is_zero())) {
      reuse = ReuseClass::kTemporal;
      lines_per_inner_run = 1.0;
    } else if (!outer_moves && contiguous < line) {
      reuse = ReuseClass::kSpatial;
      lines_per_inner_run =
          std::max(1.0, trip * rat_double(contiguous) /
                            static_cast<double>(opts.line_elems));
    } else {
      reuse = ReuseClass::kNone;
      lines_per_inner_run = trip;
    }
    step.reuse.push_back(reuse);
    step.lines.push_back((k == 0 ? 1.0 : inner_runs) * lines_per_inner_run);
  }
}

Step make_step(const StmtTable& st, const IntMat& ns,
               const ModelOptions& opts) {
  // Complete the independent rows of N_S to a nonsingular basis T
  // (dropped singular rows are guarded single-iteration loops;
  // appended nullspace rows are the loops augmentation would add,
  // innermost); the innermost target label steps by the last HNF
  // diagonal of T on its lattice, and the source vars move by
  // T^{-1} · (step · e_last).
  const int k = st.k;
  IntMat kept;
  for (int r : independent_row_indices(ns)) kept.append_row(ns.row(r));
  IntMat t_full =
      kept.rows() == 0 ? IntMat::identity(k) : complete_to_nonsingular(kept);
  RatMat t_inv = inverse(to_rational(t_full));
  HermiteResult h = hermite_normal_form(t_full);
  Rational step = h.h(k - 1, k - 1);
  Step out;
  out.dir.resize(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) out.dir[i] = t_inv(i, k - 1) * step;
  out.strides.reserve(st.accesses.size());
  for (const StmtTable::Access& a : st.accesses) {
    std::vector<Rational>& s = out.strides.emplace_back();
    s.reserve(a.coefs.size());
    for (const IntVec& c : a.coefs) {
      Rational sum = 0;
      for (int j = 0; j < k; ++j)
        if (c[j] != 0) sum += Rational(c[j]) * out.dir[j];
      s.push_back(sum);
    }
  }
  charge(out, k, opts);
  return out;
}

// N_S of statement `st` under `m` (Def 7: the target tree-loop rows of
// M·A_S), as the memo key: statement index, row count, rows.
StepKey step_key(size_t stmt, const StmtTable& st, const IntMat& m,
                 const AstRecovery& rec, const AstRecovery* skeleton) {
  const std::vector<int>& rows =
      &rec == skeleton ? st.skeleton_rows
                       : rec.target_layout->stmt_info(st.label).loop_positions;
  StepKey key;
  key.reserve(2 + rows.size() * static_cast<size_t>(st.k));
  key.push_back(static_cast<i64>(stmt));
  key.push_back(static_cast<i64>(rows.size()));
  for (int p : rows)
    for (int c = 0; c < st.k; ++c) {
      i64 sum = 0;
      for (int q = 0; q < m.cols(); ++q) {
        const i64 a = st.emb.a(q, c);
        if (a != 0) sum = checked_add(sum, checked_mul(m(p, q), a));
      }
      key.push_back(sum);
    }
  return key;
}

std::atomic<std::uint64_t> next_model_id{1};

// A thread's lock-free front to one model's striped memo: the Steps
// this thread has looked up before, by key. Without it every lookup
// takes a stripe's mutex, and threads scoring the same few thousand
// N_S contend on them. A Step never moves and lives as long as its
// model, and a front serves one model id (ids are never reused), so
// it never hands out a pointer into a destroyed model.
//
// The front also holds the memo-hit and lines() Stats counts, which
// it adds to the shared counters when it moves to another model, when
// its model is destroyed on this thread, or when the thread exits —
// the search workers that score exit before search() returns —
// instead of on every lookup.
struct MemoFront {
  std::uint64_t model = 0;
  std::unordered_map<StepKey, const Step*, StepKeyHash> steps;
  i64 scores = 0;
  i64 hits = 0;

  ~MemoFront() { flush(); }
  void flush() {
    if (scores > 0) Stats::global().add("model.scores", scores);
    if (hits > 0) Stats::global().add("model.direction_memo_hits", hits);
    scores = hits = 0;
  }
  void bind(std::uint64_t id) {
    if (model == id) return;
    flush();
    steps.clear();
    model = id;
  }
};
thread_local MemoFront memo_front;

// The memoized Step of statement `stmt` under `m`.
const Step& lookup_step(CostModelTables& t, size_t stmt, const IntMat& m,
                        const AstRecovery& rec, const ModelOptions& opts,
                        std::atomic<i64>& misses) {
  const StmtTable& st = t.stmts[stmt];
  if (st.k == 0) return st.loopless;
  StepKey key = step_key(stmt, st, m, rec, t.skeleton);
  MemoFront& front = memo_front;
  front.bind(t.id);
  if (auto f = front.steps.find(key); f != front.steps.end()) {
    ++front.hits;
    return *f->second;
  }
  CostModelTables::Stripe& stripe = t.memo[StepKeyHash{}(key) % kMemoStripes];
  const Step* found = nullptr;
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto it = stripe.steps.find(key);
    if (it != stripe.steps.end()) found = &it->second;
  }
  if (found) {
    ++front.hits;
  } else {
    // Miss: compute unlocked. A racing thread's equal Step may win the
    // insert; then this lookup counts as the hit it turned out to be,
    // so misses count distinct N_S whatever the thread count.
    const int rows = static_cast<int>(key[1]);
    IntMat ns(rows, st.k);
    for (int r = 0; r < rows; ++r)
      for (int c = 0; c < st.k; ++c)
        ns(r, c) = key[2 + static_cast<size_t>(r) * st.k + c];
    Step step = make_step(st, ns, opts);
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto [it, inserted] = stripe.steps.try_emplace(key, std::move(step));
    found = &it->second;
    if (inserted)
      misses.fetch_add(1, std::memory_order_relaxed);
    else
      ++front.hits;
  }
  front.steps.emplace(std::move(key), found);
  return *found;
}

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

CostModel::CostModel(const IvLayout& src, const ModelOptions& opts,
                     const AstRecovery* skeleton)
    : opts_(opts),
      tables_(std::make_unique<CostModelTables>()),
      estimates_(Stats::global().counter("model.estimates")),
      misses_(Stats::global().counter("model.direction_memo_misses")) {
  for (const std::string& label : src.stmt_labels()) {
    const StatementContext sc = src.program().find_statement(label);
    const std::vector<std::string> vars = sc.loop_vars();
    StmtTable& st = tables_->stmts.emplace_back();
    st.label = label;
    st.k = static_cast<int>(vars.size());
    st.emb = statement_embedding(src, label, opts_.pad);
    for (const ArrayAccess& a : sc.stmt->stmt_data().accesses()) {
      StmtTable::Access& acc = st.accesses.emplace_back();
      acc.array = a.array;
      acc.is_write = a.is_write;
      for (const AffineExpr& sub : a.subscripts) {
        IntVec& c = acc.coefs.emplace_back();
        for (const std::string& v : vars) c.push_back(sub.coef(v));
      }
      st.loopless.strides.emplace_back(a.subscripts.size(), Rational(0));
    }
    charge(st.loopless, 0, opts_);
    if (skeleton)
      st.skeleton_rows =
          skeleton->target_layout->stmt_info(label).loop_positions;
  }
  tables_->skeleton = skeleton;
  tables_->id = next_model_id.fetch_add(1, std::memory_order_relaxed);
}

CostModel::~CostModel() {
  // Flush and empty this thread's front now; other threads' fronts do
  // so when they next use a model, or when they exit.
  if (memo_front.model == tables_->id) memo_front.bind(0);
}

double CostModel::lines(const IntMat& m, const AstRecovery& skeleton) const {
  // estimate()'s total_lines: the same per-reference lines, summed in
  // the same order.
  double total = 0;
  for (size_t s = 0; s < tables_->stmts.size(); ++s)
    for (double l :
         lookup_step(*tables_, s, m, skeleton, opts_, misses_).lines)
      total += l;
  MemoFront& front = memo_front;
  front.bind(tables_->id);
  ++front.scores;
  return total;
}

CostEstimate CostModel::estimate(const IntMat& m,
                                 const AstRecovery& rec) const {
  ScopedSpan span("model.estimate", "model");
  estimates_.fetch_add(1, std::memory_order_relaxed);
  CostEstimate est;
  for (size_t s = 0; s < tables_->stmts.size(); ++s) {
    const StmtTable& st = tables_->stmts[s];
    const Step& step = lookup_step(*tables_, s, m, rec, opts_, misses_);
    for (size_t i = 0; i < st.accesses.size(); ++i) {
      const StmtTable::Access& a = st.accesses[i];
      RefCost rc;
      rc.stmt = st.label;
      rc.array = a.array;
      rc.is_write = a.is_write;
      rc.stride_dims = step.strides[i];
      rc.reuse = step.reuse[i];
      rc.lines = step.lines[i];
      est.total_lines += rc.lines;
      est.refs.push_back(std::move(rc));
    }
  }
  est.exec_threads = opts_.exec_threads;
  est.effective_lines = est.total_lines;
  if (span.active()) {
    span.arg("refs", static_cast<i64>(est.refs.size()));
    span.arg("lines", static_cast<i64>(est.total_lines));
  }
  return est;
}

CostEstimate CostModel::estimate(const IntMat& m, const AstRecovery& rec,
                                 const DependenceSet& target_deps) const {
  CostEstimate est = estimate(m, rec);
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
  const double t = static_cast<double>(opts_.exec_threads > 0
                                           ? opts_.exec_threads
                                           : 1);
  est.effective_lines =
      est.total_lines * ((1.0 - est.parallel_fraction) +
                         est.parallel_fraction / t);
  return est;
}

CostEstimate estimate_cost(const IvLayout& src, const IntMat& m,
                           const ModelOptions& opts) {
  return CostModel(src, opts).estimate(m, recover_ast(src, m));
}

CostEstimate estimate_cost(const IvLayout& src, const DependenceSet& deps,
                           const IntMat& m, const AstRecovery& rec,
                           const ModelOptions& opts) {
  return CostModel(src, opts).estimate(m, rec,
                                       target_dependences(src, deps, m, rec));
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
