// Program -> C lowering for the native engine (see cgen.hpp).
//
// The emitted text is deterministic for a given Program — arrays and
// params are bound in sorted order, loop variables are numbered in
// visit order — because the text IS the cache identity: exec/native
// keys compiled objects by sha256(source, compiler, flags).
#include "exec/cgen.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <set>

#include "exec/lower.hpp"
#include "support/check.hpp"
#include "support/stats.hpp"

namespace inlt {

namespace {

// C-identifier-safe rendering of a source-level name (loop variable,
// array, parameter). Uniqueness comes from the numeric prefix the
// caller adds, so collapsing odd characters to '_' is harmless.
std::string san(const std::string& name) {
  std::string out;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out.empty() ? std::string("_") : out;
}

std::string i64lit(i64 v) {
  if (v == INT64_MIN) return "(-9223372036854775807LL - 1)";
  return std::to_string(v) + "LL";
}

// Exact double literal: hex-float for finite values (round-trips bit
// for bit per C99 6.4.4.2), raw bit pattern otherwise.
std::string dlit(double v) {
  char buf[64];
  if (!std::isfinite(v)) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    std::snprintf(buf, sizeof(buf), "inltc_from_bits(0x%016" PRIx64 "ULL)",
                  bits);
    return buf;
  }
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

class Emitter {
 public:
  explicit Emitter(const Program& p) : prog_(&p) {}

  NativeKernelSource run() {
    std::vector<std::string> loops;
    for (const NodePtr& root : prog_->roots()) collect_node(*root, loops);

    NativeKernelSource out;
    int shape_off = 0;
    for (const auto& [name, rank] : arrays_) {
      ArrayBinding b;
      b.cname = "a" + std::to_string(out.arrays.size()) + "_" + san(name);
      b.rank = rank;
      b.index = static_cast<int>(out.arrays.size());
      b.shape_off = shape_off;
      shape_off += 3 * rank;
      binding_[name] = b;
      out.arrays.push_back(name);
      out.ranks.push_back(rank);
    }
    for (const std::string& name : free_) {
      pname_[name] = "p" + std::to_string(out.params.size()) + "_" + san(name);
      out.params.push_back(name);
    }

    emit_preamble();
    emit_kernel_open();
    for (const NodePtr& root : prog_->roots()) emit_node(*root);
    line("stats[0] = st_inst;");
    line("stats[1] = st_iter;");
    line("stats[2] = st_guard;");
    line("return 0;");
    indent_ = 0;
    line("}");
    out.code = std::move(code_);
    return out;
  }

 private:
  struct ArrayBinding {
    std::string cname;
    int rank = 0;
    int index = 0;
    int shape_off = 0;  // first shapes[] slot of this array's lo/hi/st triples
  };

  // ---- collection: array uses and free (parameter) variables ----

  void note_array(const std::string& name, int rank) {
    auto it = arrays_.find(name);
    if (it == arrays_.end()) {
      arrays_[name] = rank;
    } else if (it->second != rank) {
      throw Error("native emitter: array " + name + " used with rank " +
                  std::to_string(rank) + " and rank " +
                  std::to_string(it->second));
    }
  }

  void note_affine(const AffineExpr& e, const std::vector<std::string>& loops) {
    for (const auto& [name, coef] : e.terms()) {
      (void)coef;
      bool is_loop = false;
      for (const std::string& v : loops)
        if (v == name) is_loop = true;
      if (!is_loop) free_.insert(name);
    }
  }

  void note_var(const std::string& name, const std::vector<std::string>& loops) {
    for (const std::string& v : loops)
      if (v == name) return;
    free_.insert(name);
  }

  void note_scalar(const ScalarExpr& e, const std::vector<std::string>& loops) {
    switch (e.op) {
      case ScalarOp::kVar:
        note_var(e.name, loops);
        break;
      case ScalarOp::kAffine:
        note_affine(e.subscripts[0], loops);
        break;
      case ScalarOp::kArrayRef:
        note_array(e.name, static_cast<int>(e.subscripts.size()));
        for (const AffineExpr& s : e.subscripts) note_affine(s, loops);
        break;
      default:
        break;
    }
    for (const ScalarExprPtr& a : e.args) note_scalar(*a, loops);
  }

  void collect_node(const Node& n, std::vector<std::string>& loops) {
    for (const Guard& g : n.guards()) note_affine(g.expr, loops);
    if (n.is_stmt()) {
      const Statement& s = n.stmt_data();
      note_array(s.lhs_array, static_cast<int>(s.lhs_subscripts.size()));
      for (const AffineExpr& e : s.lhs_subscripts) note_affine(e, loops);
      if (s.rhs) note_scalar(*s.rhs, loops);
      return;
    }
    for (const BoundTerm& t : n.lower().terms) note_affine(t.expr, loops);
    for (const BoundTerm& t : n.upper().terms) note_affine(t.expr, loops);
    loops.push_back(n.var());
    for (const NodePtr& c : n.children()) collect_node(*c, loops);
    loops.pop_back();
  }

  // ---- emission ----

  void raw(const std::string& s) { code_ += s; }

  void line(const std::string& s) {
    code_.append(static_cast<size_t>(indent_) * 2, ' ');
    code_ += s;
    code_ += '\n';
  }

  void emit_preamble() {
    raw(
        "/* inltc native kernel, emitter v3 — generated; do not edit.\n"
        " * A run that returns 0 mirrors exec/interp.cpp + exec/vm.cpp bit\n"
        " * for bit; one that returns 1 (bail) met a fault or the instance\n"
        " * budget and is replayed on the VM. Self-contained: compile with\n"
        " * -O1 -ffp-contract=off -fwrapv -fno-math-errno -nostdlib\n"
        " * (exec/native.cpp). */\n"
        "typedef long long i64;\n"
        "typedef unsigned long long u64;\n"
        "double sqrt(double); /* one instruction under -fno-math-errno */\n"
        "\n"
        "static i64 inltc_fdiv(i64 a, i64 b) { /* floor division */\n"
        "  i64 q = a / b;\n"
        "  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;\n"
        "  return q;\n"
        "}\n"
        "static i64 inltc_cdiv(i64 a, i64 b) { /* ceiling division */\n"
        "  i64 q = a / b;\n"
        "  if ((a % b != 0) && ((a < 0) == (b < 0))) ++q;\n"
        "  return q;\n"
        "}\n"
        "static i64 inltc_fmod(i64 a, i64 b) { return a - inltc_fdiv(a, b) * b; }\n"
        "static i64 inltc_imin(i64 a, i64 b) { return a < b ? a : b; }\n"
        "static i64 inltc_imax(i64 a, i64 b) { return a > b ? a : b; }\n"
        "\n"
        "/* Shared uninterpreted-function hash (src/exec/ufhash.hpp). */\n"
        "static double inltc_uf_unit(u64 h) {\n"
        "  h ^= h >> 33;\n"
        "  h *= 0xff51afd7ed558ccdULL;\n"
        "  h ^= h >> 33;\n"
        "  h *= 0xc4ceb9fe1a85ec53ULL;\n"
        "  h ^= h >> 33;\n"
        "  return (double)(h >> 11) * (1.0 / 9007199254740992.0);\n"
        "}\n"
        "static u64 inltc_uf_mix(u64 a, u64 b) {\n"
        "  return a * 0x9e3779b97f4a7c15ULL + b + (a << 6) + (a >> 2);\n"
        "}\n"
        "static u64 inltc_uf_bits(double v) {\n"
        "  union { double d; u64 u; } x;\n"
        "  x.d = v;\n"
        "  return x.u;\n"
        "}\n"
        "static double inltc_from_bits(u64 bits) {\n"
        "  union { double d; u64 u; } x;\n"
        "  x.u = bits;\n"
        "  return x.d;\n"
        "}\n"
        "\n");
  }

  void emit_kernel_open() {
    raw(
        "i64 inltc_kernel(double** arrays, const i64* shapes, const i64* params,\n"
        "                 i64 max_instances, i64* stats) {\n");
    indent_ = 1;
    line("i64 st_inst = 0, st_iter = 0, st_guard = 0;");
    line("(void)arrays; (void)shapes; (void)params; (void)max_instances;");
    for (const auto& [name, b] : binding_) {
      line("double* restrict " + b.cname + " = arrays[" +
           std::to_string(b.index) + "];  /* " + san(name) + " */");
      for (int d = 0; d < b.rank; ++d) {
        int off = b.shape_off + 3 * d;
        line("const i64 " + b.cname + "_lo" + std::to_string(d) + " = shapes[" +
             std::to_string(off) + "], " + b.cname + "_hi" + std::to_string(d) +
             " = shapes[" + std::to_string(off + 1) + "], " + b.cname + "_st" +
             std::to_string(d) + " = shapes[" + std::to_string(off + 2) + "];");
      }
    }
    for (const auto& [name, cname] : pname_)
      line("const i64 " + cname + " = params[" +
           std::to_string(param_index(name)) + "];  /* " + san(name) + " */");
  }

  int param_index(const std::string& name) const {
    int i = 0;
    for (const std::string& p : free_) {
      if (p == name) return i;
      ++i;
    }
    throw Error("native emitter: unknown parameter " + name);
  }

  // Integer rendering of a name at an expression site: enclosing loop
  // variable or bound parameter; anything else is the walker's
  // "unbound variable" error, surfaced at emission time.
  std::string name_c(const std::string& name) const {
    for (auto it = scope_.rbegin(); it != scope_.rend(); ++it)
      if (it->first == name) return it->second;
    auto it = pname_.find(name);
    if (it != pname_.end()) return it->second;
    throw Error("native emitter: unbound variable " + name);
  }

  std::string affine_c(const AffineExpr& e) const {
    std::string out = "(" + i64lit(e.constant());
    for (const auto& [name, coef] : e.terms()) {
      if (coef == 1) {
        out += " + " + name_c(name);
      } else if (coef == -1) {
        out += " - " + name_c(name);
      } else {
        out += " + " + i64lit(coef) + " * " + name_c(name);
      }
    }
    out += ")";
    return out;
  }

  // max (tight) / min (cover) over ceil(expr/den) — Bound::eval_lower.
  std::string lower_c(const Bound& b) const {
    return fold_terms(b, /*lower=*/true);
  }
  // min (tight) / max (cover) over floor(expr/den) — Bound::eval_upper.
  std::string upper_c(const Bound& b) const {
    return fold_terms(b, /*lower=*/false);
  }

  std::string fold_terms(const Bound& b, bool lower) const {
    INLT_CHECK_MSG(!b.terms.empty(), "native emitter: empty bound");
    bool tight = b.mode == Bound::Mode::kTight;
    // tight lower = max, cover lower = min; flipped for uppers.
    const char* comb = (lower == tight) ? "inltc_imax" : "inltc_imin";
    std::string out;
    for (const BoundTerm& t : b.terms) {
      std::string term =
          t.den == 1 ? affine_c(t.expr)
                     : std::string(lower ? "inltc_cdiv" : "inltc_fdiv") + "(" +
                           affine_c(t.expr) + ", " + i64lit(t.den) + ")";
      out = out.empty() ? term
                        : std::string(comb) + "(" + out + ", " + term + ")";
    }
    return out;
  }

  std::string guard_c(const Guard& g) const {
    switch (g.kind) {
      case Guard::Kind::kEqZero:
        return "(" + affine_c(g.expr) + " == 0)";
      case Guard::Kind::kGeZero:
        return "(" + affine_c(g.expr) + " >= 0)";
      case Guard::Kind::kDivisible:
        return "(inltc_fmod(" + affine_c(g.expr) + ", " + i64lit(g.modulus) +
               ") == 0)";
    }
    throw Error("native emitter: unreachable guard kind");
  }

  // A new temporary's C name.
  std::string fresh(const char* prefix) {
    std::string out = prefix;
    out += std::to_string(temp_++);
    return out;
  }

  // Emit the flat-offset temp for one access; returns its name. A
  // checked access first bails unless the array is declared and every
  // subscript is inside its dimension — the VM's per-access slow path.
  // An unchecked access (its checks ran at the owning loop's entry)
  // computes the offset with no branches.
  std::string emit_access(const std::string& array,
                          const std::vector<AffineExpr>& subs, bool checked) {
    const ArrayBinding& b = binding_.at(array);
    std::string outside, sum;
    for (int d = 0; d < static_cast<int>(subs.size()); ++d) {
      const std::string ds = std::to_string(d);
      const std::string lo = b.cname + "_lo" + ds;
      const std::string idx = affine_c(subs[d]);
      outside += " || " + idx + " < " + lo + " || " + idx + " > " + b.cname +
                 "_hi" + ds;
      std::string delta = "(" + idx + " - " + lo + ") * " + b.cname + "_st" + ds;
      sum = sum.empty() ? delta : sum + " + " + delta;
    }
    // Arrays only touched inside zero-trip or guarded-off subtrees are
    // never declared in Memory; the host then passes NULL.
    if (checked) line("if (!" + b.cname + outside + ") return 1;");
    if (sum.empty()) sum = "0";
    const std::string off = fresh("o");
    line("const i64 " + off + " = " + sum + ";");
    return off;
  }

  void collect_refs(const ScalarExpr& e, std::vector<const ScalarExpr*>& out) {
    if (e.op == ScalarOp::kArrayRef) out.push_back(&e);
    for (const ScalarExprPtr& a : e.args) collect_refs(*a, out);
  }

  std::string scalar_c(const ScalarExpr& e,
                       const std::map<const ScalarExpr*, std::string>& offs) {
    switch (e.op) {
      case ScalarOp::kConst:
        return dlit(e.constant);
      case ScalarOp::kVar:
        return "(double)" + name_c(e.name);
      case ScalarOp::kAffine:
        return "(double)" + affine_c(e.subscripts[0]);
      case ScalarOp::kArrayRef:
        return binding_.at(e.name).cname + "[" + offs.at(&e) + "]";
      case ScalarOp::kAdd:
        return "(" + scalar_c(*e.args[0], offs) + " + " +
               scalar_c(*e.args[1], offs) + ")";
      case ScalarOp::kSub:
        return "(" + scalar_c(*e.args[0], offs) + " - " +
               scalar_c(*e.args[1], offs) + ")";
      case ScalarOp::kMul:
        return "(" + scalar_c(*e.args[0], offs) + " * " +
               scalar_c(*e.args[1], offs) + ")";
      case ScalarOp::kDiv:
        return "(" + scalar_c(*e.args[0], offs) + " / " +
               scalar_c(*e.args[1], offs) + ")";
      case ScalarOp::kNeg:
        return "(-" + scalar_c(*e.args[0], offs) + ")";
      case ScalarOp::kSqrt:
        return "sqrt(" + scalar_c(*e.args[0], offs) + ")";
      case ScalarOp::kFunc: {
        // h = mix(hash(name), bits(arg0)); h = mix(h, bits(arg1)); ...
        // rendered as a nested call chain so evaluation order is fixed.
        char buf[32];
        std::snprintf(buf, sizeof(buf), "0x%016" PRIx64 "ULL",
                      static_cast<std::uint64_t>(
                          std::hash<std::string>{}(e.name)));
        std::string h = buf;
        for (const ScalarExprPtr& a : e.args)
          h = "inltc_uf_mix(" + h + ", inltc_uf_bits(" +
              scalar_c(*a, offs) + "))";
        return "inltc_uf_unit(" + h + ")";
      }
    }
    throw Error("native emitter: unreachable scalar op");
  }

  enum class StmtMode {
    kChecked,     // guarded or loop-less: per-access checks, budget test
    kHoisted,     // checks ran at loop entry; budget test per instance
    kUnbudgeted,  // hoisted, in a leaf loop the budget covers
  };

  void emit_stmt(const Statement& s, StmtMode mode) {
    line("{ /* " + san(s.label) + " */");
    ++indent_;
    // Offsets (and checks) first, in access order, then the value.
    const bool checked = mode == StmtMode::kChecked;
    std::string woff = emit_access(s.lhs_array, s.lhs_subscripts, checked);
    std::vector<const ScalarExpr*> refs;
    if (s.rhs) collect_refs(*s.rhs, refs);
    std::map<const ScalarExpr*, std::string> offs;
    for (const ScalarExpr* r : refs)
      offs[r] = emit_access(r->name, r->subscripts, checked);
    line(binding_.at(s.lhs_array).cname + "[" + woff + "] = " +
         (s.rhs ? scalar_c(*s.rhs, offs) : std::string("0.0")) + ";");
    if (mode != StmtMode::kUnbudgeted) {
      line("++st_inst;");
      line("if (st_inst > max_instances) return 1;");
    }
    --indent_;
    line("}");
  }

  // The plan's hoisted checks, run once per non-empty entry of loop
  // `n` as one branch-free test that bails: the NULL tests, then per
  // access and dimension the subscript's extremes over [first, last] —
  // exact, since an affine subscript is monotonic in the loop variable.
  void emit_entry_checks(const Node& n, const std::string& first,
                         const std::string& last, const LoopPlan& plan) {
    std::vector<std::vector<ArrayAccess>> accs(n.children().size());
    for (int c : plan.fast) accs[c] = n.children()[c]->stmt_data().accesses();
    auto at = [&](const AffineExpr& e, const std::string& value) {
      scope_.emplace_back(n.var(), value);
      std::string out = affine_c(e);
      scope_.pop_back();
      return out;
    };
    line("if (0");
    indent_ += 2;
    for (const LoopPlan::Check& k : plan.checks) {
      const ArrayAccess& a = accs[k.stmt][k.access];
      const std::string& cname = binding_.at(a.array).cname;
      if (k.dim < 0) {
        line("| !" + cname);
        continue;
      }
      const AffineExpr& e = a.subscripts[k.dim];
      const i64 coef = e.coef(n.var());
      const std::string ds = std::to_string(k.dim);
      line("| (" + at(e, coef >= 0 ? first : last) + " < " + cname + "_lo" +
           ds + ") | (" + at(e, coef >= 0 ? last : first) + " > " + cname +
           "_hi" + ds + ")");
    }
    indent_ -= 2;
    line(") return 1;");
  }

  // A leaf loop's k statements run n iterations, with no budget test
  // inside: the loop bails at entry unless the budget left covers all
  // k·n instances.
  void emit_leaf_loop(const std::string& cv, const std::string& last, i64 step,
                      const std::vector<NodePtr>& body) {
    const std::string k = std::to_string(body.size());
    const std::string lo = cv + "_lo";
    line("const i64 " + cv + "_n = " +
         (step == 1 ? last + " - " + lo + " + 1"
                    : "(" + last + " - " + lo + ") / " + i64lit(step) + " + 1") +
         ";");
    line("if (" + cv + "_n > " +
         (k == "1" ? "max_instances - st_inst"
                   : "(max_instances - st_inst) / " + k) +
         ") return 1;");
    line("const i64 " + cv + "_end = " + lo + " + " + cv + "_n" +
         (step == 1 ? "" : " * " + i64lit(step)) + ";");
    line("for (i64 " + cv + " = " + lo + "; " + cv + " < " + cv + "_end; " +
         cv + " += " + i64lit(step) + ") {");
    ++indent_;
    for (const NodePtr& s : body)
      emit_stmt(s->stmt_data(), StmtMode::kUnbudgeted);
    --indent_;
    line("}");
    line("st_iter += " + cv + "_n;");
    line("st_inst += " + (k == "1" ? "" : k + " * ") + cv + "_n;");
  }

  // The jam loop `n`'s groups of 8 consecutive columns (J values). A
  // group runs jammed — L outer over the group's leaf range, and per L
  // the columns whose leaf range holds it — only when, over the group's
  // (J, L) box, every access is in bounds, every listed pair is apart
  // and the instance budget covers 8 full columns. The first group that
  // fails leaves `cv` at its first column for the plain loop that
  // follows, which bails if a column faults or outruns the budget.
  void emit_jam_groups(const Node& n, const std::string& cv,
                       const JamPlan& jam) {
    Stats::global().add("exec.native.jammed_nests");
    const Node& leaf = *jam.leaf;
    const std::string k = std::to_string(leaf.children().size());
    const std::string c = cv + "_c", j = cv + "_j", trips = cv + "_n",
                      box_lo = cv + "_bl", box_hi = cv + "_bh",
                      all_lo = cv + "_al", all_hi = cv + "_ah",
                      first = cv + "_c0", end = cv + "_c1";
    std::vector<std::string> chain;
    for (const Node* o : jam.chain)
      chain.push_back("v" + std::to_string(loop_count_++) + "_" +
                      san(o->var()));
    const std::string lv =
        "v" + std::to_string(loop_count_++) + "_" + san(leaf.var());
    // `f` rendered with J at `jv` and L at `lval`.
    auto at = [&](const std::function<std::string()>& f,
                  const std::string& jv, const std::string& lval) {
      scope_.emplace_back(n.var(), jv);
      scope_.emplace_back(leaf.var(), lval);
      std::string out = f();
      scope_.resize(scope_.size() - 2);
      return out;
    };
    const std::string last_col = "(" + cv + " + 7LL)";
    auto lower = [&] { return lower_c(jam.lower); };
    auto upper = [&] { return upper_c(jam.upper); };

    line("for (; " + cv + "_hi - " + cv + " >= 7; " + cv +
         " += 8) { /* 8 adjacent columns */");
    ++indent_;
    // The leaf bounds are monotonic in J: the group's leaf range (the
    // box) and the range all 8 columns share come from its ends.
    line("const i64 " + cv + "_l0 = " + at(lower, cv, lv) + ", " + cv +
         "_l7 = " + at(lower, last_col, lv) + ";");
    line("const i64 " + cv + "_h0 = " + at(upper, cv, lv) + ", " + cv +
         "_h7 = " + at(upper, last_col, lv) + ";");
    line("const i64 " + box_lo + " = inltc_imin(" + cv + "_l0, " + cv +
         "_l7), " + box_hi + " = inltc_imax(" + cv + "_h0, " + cv + "_h7);");
    line("const i64 " + all_lo + " = inltc_imax(" + cv + "_l0, " + cv +
         "_l7), " + all_hi + " = inltc_imin(" + cv + "_h0, " + cv + "_h7);");
    // Subscript `d` of access `r` at its minimum or maximum over the
    // box, which an affine function takes at a corner.
    auto corner = [&](JamPlan::Ref r, int d, bool high) {
      const AffineExpr& e = jam.accesses[r.stmt][r.access].subscripts[d];
      const bool up_j = (e.coef(n.var()) > 0) == high;
      const bool up_l = (e.coef(leaf.var()) > 0) == high;
      return at([&] { return affine_c(e); }, up_j ? last_col : cv,
                up_l ? box_hi : box_lo);
    };
    // The checks, as one branch-free conjunction: the leaf's hoisted
    // checks over the box (which covers every column's entry), the
    // pairs, and the budget.
    line("if (!(1");
    indent_ += 2;
    for (const LoopPlan::Check& ck : plan_loop(leaf).checks) {
      const JamPlan::Ref r{ck.stmt, ck.access};
      const std::string a =
          binding_.at(jam.accesses[ck.stmt][ck.access].array).cname;
      const std::string ds = std::to_string(ck.dim);
      line(ck.dim < 0 ? "& (" + a + " != 0)"
                      : "& (" + corner(r, ck.dim, false) + " >= " + a +
                            "_lo" + ds + ") & (" + corner(r, ck.dim, true) +
                            " <= " + a + "_hi" + ds + ")");
    }
    for (const JamPlan::Pair& p : jam.pairs) {
      std::string apart;
      for (int d : p.dims)
        apart += std::string(apart.empty() ? "" : " | ") + "(" +
                 corner(p.write, d, true) + " < " +
                 corner(p.other, d, false) + ") | (" +
                 corner(p.other, d, true) + " < " +
                 corner(p.write, d, false) + ")";
      line("& (" + apart + ")");
    }
    line("& (8 * (" + box_hi + " - " + box_lo + " + 1) <= " +
         (k == "1" ? "max_instances - st_inst"
                   : "(max_instances - st_inst) / " + k) +
         ")))");
    indent_ -= 2;
    line("  break;");
    line("i64 " + trips + " = 0;");
    scope_.emplace_back(leaf.var(), lv);
    line("for (i64 " + lv + " = " + box_lo + "; " + lv + " <= " + box_hi +
         "; ++" + lv + ") {");
    ++indent_;
    // The columns whose leaf range holds `lv` are consecutive.
    line("int " + first + " = 0, " + end + " = 8;");
    line("if (" + lv + " < " + all_lo + " || " + lv + " > " + all_hi +
         ") { /* not every column */");
    ++indent_;
    line(first + " = 8;");
    line(end + " = 0;");
    line("for (int " + c + " = 0; " + c + " < 8; ++" + c + ")");
    const std::string jc = "(" + cv + " + " + c + ")";
    line("  if (" + at(lower, jc, lv) + " <= " + lv + " && " + lv +
         " <= " + at(upper, jc, lv) + ") {");
    line("    if (" + first + " == 8) " + first + " = " + c + ";");
    line("    " + end + " = " + c + " + 1;");
    line("  }");
    --indent_;
    line("}");
    line("if (" + first + " < " + end + ") " + trips + " += " + end + " - " +
         first + ";");
    line("for (int " + c + " = " + first + "; " + c + " < " + end + "; ++" +
         c + ") {");
    ++indent_;
    line("const i64 " + j + " = " + cv + " + " + c + ";");
    scope_.emplace_back(n.var(), j);
    for (size_t i = 0; i < chain.size(); ++i) {
      line("const i64 " + chain[i] + " = " + lower_c(jam.chain[i]->lower()) +
           ";");
      scope_.emplace_back(jam.chain[i]->var(), chain[i]);
    }
    for (const NodePtr& s : leaf.children())
      emit_stmt(s->stmt_data(), StmtMode::kUnbudgeted);
    scope_.resize(scope_.size() - 1 - chain.size());
    --indent_;
    line("}");
    --indent_;
    line("}");
    scope_.pop_back();
    line("st_iter += " + std::to_string(8 * (1 + chain.size())) + " + " +
         trips + ";");
    line("st_inst += " + (k == "1" ? "" : k + " * ") + trips + ";");
    --indent_;
    line("}");
  }

  void emit_loop(const Node& n) {
    std::string cv = "v" + std::to_string(loop_count_++) + "_" + san(n.var());
    const i64 step = n.step();
    const LoopPlan plan = plan_loop(n);
    line("{");
    ++indent_;
    line("const i64 " + cv + "_lo = " + lower_c(n.lower()) + ";");
    line("const i64 " + cv + "_hi = " + upper_c(n.upper()) + ";");
    std::string last = cv + "_hi";
    if (!plan.fast.empty()) {
      line("if (" + cv + "_lo <= " + cv + "_hi) {");
      ++indent_;
      if (step != 1) {
        last = cv + "_last";
        line("const i64 " + last + " = " + cv + "_lo + inltc_fdiv(" + cv +
             "_hi - " + cv + "_lo, " + i64lit(step) + ") * " + i64lit(step) +
             ";");
      }
      emit_entry_checks(n, cv + "_lo", last, plan);
    }
    scope_.emplace_back(n.var(), cv);
    if (plan.leaf) {
      emit_leaf_loop(cv, last, step, n.children());
    } else {
      const JamPlan jam = plan_jam(n);
      std::string init = "i64 " + cv + " = " + cv + "_lo";
      if (jam.leaf) {
        line(init + ";");
        init.clear();
        emit_jam_groups(n, cv, jam);
      }
      line("for (" + init + "; " + cv + " <= " + cv + "_hi; " + cv +
           " += " + i64lit(step) + ") {");
      ++indent_;
      line("++st_iter;");
      for (int c = 0; c < static_cast<int>(n.children().size()); ++c) {
        const Node& child = *n.children()[c];
        if (std::find(plan.fast.begin(), plan.fast.end(), c) != plan.fast.end())
          emit_stmt(child.stmt_data(), StmtMode::kHoisted);
        else
          emit_node(child);
      }
      --indent_;
      line("}");
    }
    scope_.pop_back();
    if (!plan.fast.empty()) {
      --indent_;
      line("}");
    }
    --indent_;
    line("}");
  }

  void emit_node(const Node& n) {
    if (!n.guards().empty()) {
      // One guard_failures increment per suppressed node, however many
      // guards it carries — the && chain preserves evaluation order.
      std::string cond;
      for (const Guard& g : n.guards())
        cond = cond.empty() ? guard_c(g) : cond + " && " + guard_c(g);
      line("if (" + cond + ") {");
      ++indent_;
      emit_body(n);
      --indent_;
      line("} else {");
      line("  ++st_guard;");
      line("}");
      return;
    }
    emit_body(n);
  }

  // Fast statements are emitted by their loop; every statement that
  // reaches here is guarded or loop-less.
  void emit_body(const Node& n) {
    if (n.is_stmt())
      emit_stmt(n.stmt_data(), StmtMode::kChecked);
    else
      emit_loop(n);
  }

  const Program* prog_;
  // name -> rank, sorted — binding order of the arrays argument.
  std::map<std::string, int> arrays_;
  // free (non-loop) names, sorted — binding order of params.
  std::set<std::string> free_;
  std::map<std::string, ArrayBinding> binding_;
  std::map<std::string, std::string> pname_;
  std::vector<std::pair<std::string, std::string>> scope_;  // loop var -> C name
  std::string code_;
  int indent_ = 0;
  int temp_ = 0;
  int loop_count_ = 0;
};

}  // namespace

NativeKernelSource emit_native_c(const Program& p) {
  Emitter e(p);
  return e.run();
}

}  // namespace inlt
