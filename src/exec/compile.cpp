// Program -> VmProgram compiler (see vm.hpp for the design).
//
// All arithmetic that folds parameters, array strides or loop steps
// into compiled constants is overflow-checked: a parameter binding
// large enough to wrap i64 offsets must throw OverflowError at compile
// time, never address memory through a wrapped offset.
#include <algorithm>
#include <utility>

#include "exec/lower.hpp"
#include "exec/vm.hpp"
#include "support/check.hpp"
#include "support/stats.hpp"
#include "support/trace.hpp"

namespace inlt {

class VmCompiler {
 public:
  // `mem == nullptr` selects probe mode: no array binding, no scalar
  // code — just loops, guards and subscript expressions.
  VmCompiler(const Program& p, const std::map<std::string, i64>& params,
             Memory* mem, VmProgram& vm)
      : p_(p), params_(params), mem_(mem), vm_(vm) {}

  void compile() {
    for (const NodePtr& root : p_.roots()) compile_node(*root);
    vm_.code_.push_back({VmProgram::COp::kHalt, 0, 0});
    if (mem_)
      for (const VmProgram::StmtInfo& s : vm_.stmts_)
        (s.fast ? vm_.hoisted_accesses_ : vm_.checked_accesses_) += s.naccesses;
    vm_.num_slots_ = next_slot_;
    vm_.env_.assign(static_cast<size_t>(std::max(next_slot_, 1)), 0);
    vm_.hi_.assign(std::max<size_t>(vm_.loops_.size(), 1), 0);
    vm_.offs_.assign(std::max<size_t>(vm_.accesses_.size(), 1), 0);
    vm_.sregs_.assign(static_cast<size_t>(std::max(vm_.max_sregs_, 1)), 0.0);
    size_t leaf_regs = 0;
    for (const VmProgram::LeafPlan& lp : vm_.leaf_plans_)
      leaf_regs =
          std::max(leaf_regs, static_cast<size_t>(lp.op_end - lp.op_begin));
    vm_.leaf_regs_.assign(leaf_regs * VmProgram::kLeafWidth, 0.0);
    vm_.carry_now_.assign(vm_.carry_vals_.size(), 0);
  }

 private:
  using LinExpr = VmProgram::LinExpr;
  using COp = VmProgram::COp;
  using SOp = VmProgram::SOp;

  // -- expression lowering --

  // Merge a term into a LinExpr (slots stay unique).
  static void add_term(LinExpr& e, int slot, i64 coef) {
    if (coef == 0) return;
    for (auto& [s, c] : e.terms) {
      if (s == slot) {
        c = checked_add(c, coef);
        return;
      }
    }
    e.terms.emplace_back(slot, coef);
  }

  int find_slot(const std::string& name) const {
    for (auto it = scope_.rbegin(); it != scope_.rend(); ++it)
      if (it->first == name) return it->second;
    return -1;
  }

  LinExpr lin(const AffineExpr& e) const {
    LinExpr r;
    r.constant = e.constant();
    for (const auto& [name, coef] : e.terms()) {
      auto it = params_.find(name);
      if (it != params_.end()) {
        r.constant = checked_add(r.constant, checked_mul(coef, it->second));
        continue;
      }
      int slot = find_slot(name);
      INLT_CHECK_MSG(slot >= 0, "unbound variable in eval: " + name);
      r.terms.emplace_back(slot, coef);
    }
    return r;
  }

  VmProgram::CBound cbound(const Bound& b, bool lower) const {
    INLT_CHECK_MSG(!b.terms.empty(),
                   lower ? "lower bound with no terms" : "upper bound with no terms");
    VmProgram::CBound r;
    r.tight = (b.mode == Bound::Mode::kTight);
    for (const BoundTerm& t : b.terms) r.terms.push_back({lin(t.expr), t.den});
    return r;
  }

  // -- arrays and accesses --

  int array_index(const std::string& name, int rank) {
    auto it = array_ids_.find(name);
    if (it != array_ids_.end()) {
      const VmProgram::ArrayInfo& a = vm_.arrays_[it->second];
      INLT_CHECK_MSG(a.rank == rank,
                     mem_ ? "array rank mismatch"
                          : "array " + name + " used with inconsistent rank");
      return it->second;
    }
    VmProgram::ArrayInfo a;
    a.name = name;
    a.rank = rank;
    // An array missing from `mem` stays unbound (data == nullptr): the
    // walker only resolves arrays at access time, so a program whose
    // accesses all sit in zero-trip loops runs fine — executing an
    // unbound access throws, matching Memory::at.
    if (mem_ && mem_->has(name)) {
      DenseArray& arr = mem_->at(name);
      INLT_CHECK_MSG(arr.rank() == rank, "array rank mismatch");
      a.data = arr.raw_data();
      for (int d = 0; d < rank; ++d) {
        a.lo.push_back(arr.lo(d));
        a.hi.push_back(arr.hi(d));
        a.strides.push_back(arr.stride(d));
      }
    }
    int id = static_cast<int>(vm_.arrays_.size());
    vm_.arrays_.push_back(std::move(a));
    array_ids_.emplace(name, id);
    return id;
  }

  int add_access(const std::string& name, const std::vector<AffineExpr>& subs) {
    int ai = array_index(name, static_cast<int>(subs.size()));
    VmProgram::Access acc;
    acc.array = ai;
    acc.first_dim = static_cast<int>(vm_.dims_.size());
    acc.ndims = static_cast<int>(subs.size());
    const VmProgram::ArrayInfo& arr = vm_.arrays_[ai];
    for (size_t d = 0; d < subs.size(); ++d) {
      LinExpr le = lin(subs[d]);
      if (arr.data != nullptr) {
        // offset += stride_d * (subscript_d - lo_d), folded per term.
        acc.offset.constant = checked_add(
            acc.offset.constant,
            checked_mul(arr.strides[d], checked_sub(le.constant, arr.lo[d])));
        for (const auto& [slot, coef] : le.terms)
          add_term(acc.offset, slot, checked_mul(coef, arr.strides[d]));
      }
      vm_.dims_.push_back({std::move(le)});
    }
    int id = static_cast<int>(vm_.accesses_.size());
    acc.reg = id;
    vm_.accesses_.push_back(std::move(acc));
    return id;
  }

  // -- scalar bytecode --

  void emit_s(SOp op, int dst, int a = 0, int b = 0, double imm = 0.0,
              i64 payload = 0) {
    vm_.scode_.push_back({op, dst, a, b, imm, payload});
  }

  // Compiles `e` into register `base`; scratch registers are base+1...
  int compile_scalar(const ScalarExpr& e, int base) {
    vm_.max_sregs_ = std::max(vm_.max_sregs_, base + 1);
    switch (e.op) {
      case ScalarOp::kConst:
        emit_s(SOp::kConst, base, 0, 0, e.constant);
        break;
      case ScalarOp::kVar: {
        auto it = params_.find(e.name);
        if (it != params_.end()) {
          emit_s(SOp::kConst, base, 0, 0, static_cast<double>(it->second));
          break;
        }
        int slot = find_slot(e.name);
        INLT_CHECK_MSG(slot >= 0, "unbound variable " + e.name);
        emit_s(SOp::kVar, base, 0, 0, 0.0, slot);
        break;
      }
      case ScalarOp::kAffine: {
        vm_.lins_.push_back(lin(e.subscripts[0]));
        emit_s(SOp::kAffine, base, 0, 0, 0.0,
               static_cast<i64>(vm_.lins_.size()) - 1);
        break;
      }
      case ScalarOp::kArrayRef:
        emit_s(SOp::kLoad, base, 0, 0, 0.0, add_access(e.name, e.subscripts));
        break;
      case ScalarOp::kAdd:
      case ScalarOp::kSub:
      case ScalarOp::kMul:
      case ScalarOp::kDiv: {
        compile_scalar(*e.args[0], base);
        compile_scalar(*e.args[1], base + 1);
        SOp op = e.op == ScalarOp::kAdd   ? SOp::kAdd
                 : e.op == ScalarOp::kSub ? SOp::kSub
                 : e.op == ScalarOp::kMul ? SOp::kMul
                                          : SOp::kDiv;
        emit_s(op, base, base, base + 1);
        break;
      }
      case ScalarOp::kNeg:
      case ScalarOp::kSqrt:
        compile_scalar(*e.args[0], base);
        emit_s(e.op == ScalarOp::kNeg ? SOp::kNeg : SOp::kSqrt, base, base);
        break;
      case ScalarOp::kFunc: {
        // Arg i lands in base+i; its scratch (base+i+1...) never
        // clobbers earlier results.
        VmProgram::FuncSite site;
        site.name_hash = std::hash<std::string>{}(e.name);
        site.args_begin = static_cast<int>(vm_.func_args_.size());
        for (size_t i = 0; i < e.args.size(); ++i) {
          compile_scalar(*e.args[i], base + static_cast<int>(i));
          vm_.func_args_.push_back(base + static_cast<int>(i));
        }
        site.args_end = static_cast<int>(vm_.func_args_.size());
        vm_.func_sites_.push_back(site);
        emit_s(SOp::kFunc, base, 0, 0, 0.0,
               static_cast<i64>(vm_.func_sites_.size()) - 1);
        break;
      }
    }
    return base;
  }

  // -- statements and loops --

  void compile_stmt(const Node& n) {
    const Statement& s = n.stmt_data();
    VmProgram::StmtInfo st;
    st.first_access = static_cast<int>(vm_.accesses_.size());
    if (!mem_) {
      // Probe mode: accesses only (write first, matching the walker).
      for (const ArrayAccess& a : s.accesses()) add_access(a.array, a.subscripts);
    } else {
      add_access(s.lhs_array, s.lhs_subscripts);
      st.scalar_begin = static_cast<int>(vm_.scode_.size());
      if (s.rhs) st.result_reg = compile_scalar(*s.rhs, 0);
      st.scalar_end = static_cast<int>(vm_.scode_.size());
    }
    st.naccesses = static_cast<int>(vm_.accesses_.size()) - st.first_access;
    vm_.stmts_.push_back(std::move(st));
    emit_c(COp::kStmt, static_cast<int>(vm_.stmts_.size()) - 1);
  }

  static i64 coef_of(const LinExpr& e, int slot) {
    for (const auto& [s, c] : e.terms)
      if (s == slot) return c;
    return 0;
  }

  void compile_loop(const Node& n) {
    int idx = static_cast<int>(vm_.loops_.size());
    vm_.loops_.emplace_back();
    {
      VmProgram::LoopInfo& L = vm_.loops_[idx];
      L.slot = next_slot_++;
      L.var = n.var();
      L.step = n.step();
      INLT_CHECK_MSG(L.step != 0, "loop step must be nonzero");
      L.lower = cbound(n.lower(), /*lower=*/true);
      L.upper = cbound(n.upper(), /*lower=*/false);
    }
    int enter_pc = emit_c(COp::kLoopEnter, idx);
    scope_.emplace_back(n.var(), vm_.loops_[idx].slot);
    int body_pc = static_cast<int>(vm_.code_.size());
    int acc_before = static_cast<int>(vm_.accesses_.size());
    std::vector<int> stmt_of;  // stmts_ index per statement child
    for (const NodePtr& c : n.children()) {
      stmt_of.push_back(static_cast<int>(vm_.stmts_.size()));
      compile_node(*c);
    }
    emit_c(COp::kLoopNext, idx, body_pc);
    vm_.code_[enter_pc].jump = static_cast<int>(vm_.code_.size());
    scope_.pop_back();

    // The loop's entry actions, appended now that its children are
    // compiled, so each loop's ranges are contiguous.
    const LoopPlan plan = plan_loop(n);
    VmProgram::LoopInfo& L = vm_.loops_[idx];
    L.probe_collapse = plan.leaf;
    L.probe_begin = acc_before;
    L.probe_end = static_cast<int>(vm_.accesses_.size());
    L.init_begin = static_cast<int>(vm_.inits_.size());
    L.adv_begin = static_cast<int>(vm_.advances_.size());
    bool leaf = plan.leaf;
    for (int c : plan.fast) {
      // A statement on an array missing from Memory (or any statement
      // in probe mode) stays slow: it faults where the walker does.
      VmProgram::StmtInfo& st = vm_.stmts_[stmt_of[c]];
      const int end = st.first_access + st.naccesses;
      st.fast = true;
      for (int i = st.first_access; i < end; ++i)
        st.fast = st.fast && vm_.arrays_[vm_.accesses_[i].array].data;
      leaf = leaf && st.fast;
      for (int i = st.first_access; st.fast && i < end; ++i) {
        VmProgram::Access& a = vm_.accesses_[i];
        vm_.inits_.push_back({i});
        a.step_delta = checked_mul(coef_of(a.offset, L.slot), L.step);
        if (a.step_delta != 0) vm_.advances_.push_back({a.reg, a.step_delta});
      }
    }
    L.init_end = static_cast<int>(vm_.inits_.size());
    L.adv_end = static_cast<int>(vm_.advances_.size());
    L.check_begin = static_cast<int>(vm_.checks_.size());
    for (const LoopPlan::Check& k : plan.checks) {
      // A slow statement's checks stay per access. A repeat hidden by
      // one is never needed: that statement faults before a later one.
      const VmProgram::StmtInfo& st = vm_.stmts_[stmt_of[k.stmt]];
      if (k.dim < 0 || !st.fast) continue;
      const int i = st.first_access + k.access;
      const LinExpr& e = vm_.dims_[vm_.accesses_[i].first_dim + k.dim].expr;
      vm_.checks_.push_back({i, k.dim, coef_of(e, L.slot)});
    }
    L.check_end = static_cast<int>(vm_.checks_.size());
    // A leaf's statements are its children, compiled consecutively.
    if (leaf) L.leaf = build_leaf_plan(stmt_of.front(), stmt_of.back() + 1);
    vm_.loops_[idx].carry = build_carry_plan(n, idx);
  }

  static i64 magnitude(i64 v) { return v < 0 ? checked_sub(0, v) : v; }

  // The carried-entry plan of loop `idx` (node `n`, the parent P): the
  // leaf it reaches through its chain of links, and every value a leaf
  // entry evaluates, split into the leaf variable's term and the rest,
  // with the change of that rest per row of P. A link runs once at
  // every row, at its one bound term, so its value moves with the rows
  // like any other. -1 when there is no such leaf, or the leaf is of a
  // form the carried path leaves to the per-entry path: a non-unit
  // step, a cover-mode bound, a bound term with a denominator, a
  // kAffine operand, or a compiled constant that overflows.
  int build_carry_plan(const Node& n, int idx) {
    const LoopChain ch = loop_chain(n);
    if (!ch.inner || !ch.inner->guards().empty() || n.runs_once()) return -1;
    VmProgram::CarryPlan C;
    C.links = static_cast<int>(ch.links.size());
    C.leaf = idx + C.links + 1;
    const VmProgram::LoopInfo& P = vm_.loops_[idx];
    const VmProgram::LoopInfo& L = vm_.loops_[C.leaf];
    auto max_min = [](const VmProgram::CBound& b) {
      return b.tight || b.terms.size() == 1;
    };
    if (L.leaf < 0 || P.step <= 0 || L.step != 1 || !max_min(L.lower) ||
        !max_min(L.upper) || vm_.leaf_plans_[L.leaf].has_affine)
      return -1;
    for (const VmProgram::CBound* b : {&L.lower, &L.upper})
      for (const VmProgram::CBoundTerm& t : b->terms)
        if (t.den != 1) return -1;
    // (slot, change per row) of P's variable and each link's.
    std::vector<std::pair<int, i64>> moving{{P.slot, P.step}};
    std::vector<int> fixed;  // the other slots the expressions read
    std::vector<VmProgram::CarryVal> vals;
    i64 size = P.step;  // |constant| + sum |coef|, and the steps
    auto add = [&](const LinExpr& e) {
      VmProgram::CarryVal v;
      v.base.constant = e.constant;
      i64 sz = magnitude(e.constant);
      for (const auto& [slot, coef] : e.terms) {
        sz = checked_add(sz, magnitude(coef));
        if (slot == L.slot) {
          v.coef = coef;
          continue;
        }
        v.base.terms.emplace_back(slot, coef);
        bool moves = false;
        for (const auto& [ms, md] : moving) {
          if (ms != slot) continue;
          v.delta = checked_add(v.delta, checked_mul(coef, md));
          moves = true;
        }
        if (!moves && std::find(fixed.begin(), fixed.end(), slot) == fixed.end())
          fixed.push_back(slot);
      }
      size = std::max(size, sz);
      vals.push_back(std::move(v));
    };
    std::vector<int> init_of(vm_.accesses_.size(), -1);  // access -> value
    try {
      for (int j = 0; j < C.links; ++j) {
        const VmProgram::LoopInfo& K = vm_.loops_[idx + 1 + j];
        if (K.step <= 0) return -1;
        size = std::max(size, K.step);
        add(K.lower.terms[0].expr);
        moving.emplace_back(K.slot, vals.back().delta);
      }
      for (const VmProgram::CBoundTerm& t : L.lower.terms) add(t.expr);
      C.leaf_upper = static_cast<int>(vals.size());
      for (const VmProgram::CBoundTerm& t : L.upper.terms) add(t.expr);
      C.inits = static_cast<int>(vals.size());
      for (int i = L.init_begin; i != L.init_end; ++i) {
        const VmProgram::Access& a = vm_.accesses_[vm_.inits_[i].access];
        init_of[vm_.inits_[i].access] = static_cast<int>(vals.size());
        add(a.offset);
        vals.back().reg = a.reg;
      }
      C.checks = static_cast<int>(vals.size());
      for (int i = L.check_begin; i != L.check_end; ++i) {
        const VmProgram::EntryCheck& k = vm_.checks_[i];
        const VmProgram::Access& a = vm_.accesses_[k.access];
        add(vm_.dims_[a.first_dim + k.dim].expr);
        vals.back().lo = vm_.arrays_[a.array].lo[k.dim];
        vals.back().hi = vm_.arrays_[a.array].hi[k.dim];
      }
    } catch (const OverflowError&) {
      return -1;
    }
    // Every partial sum then stays within 2^58, and a coefficient times
    // a span within 2^59.
    C.max_mag = (i64{1} << 60) / size / 4;
    C.val_begin = static_cast<int>(vm_.carry_vals_.size());
    for (VmProgram::CarryVal& v : vals) vm_.carry_vals_.push_back(std::move(v));
    C.val_end = static_cast<int>(vals.size());
    C.pair_begin = static_cast<int>(vm_.carry_pairs_.size());
    const VmProgram::LeafPlan& lp = vm_.leaf_plans_[L.leaf];
    for (int i = lp.pair_begin; i != lp.pair_end; ++i)
      vm_.carry_pairs_.emplace_back(init_of[vm_.leaf_pairs_[i].w],
                                    init_of[vm_.leaf_pairs_[i].x]);
    C.pair_end = static_cast<int>(vm_.carry_pairs_.size());
    C.slot_begin = static_cast<int>(vm_.carry_slots_.size());
    vm_.carry_slots_.insert(vm_.carry_slots_.end(), fixed.begin(), fixed.end());
    C.slot_end = static_cast<int>(vm_.carry_slots_.size());
    vm_.carry_plans_.push_back(C);
    return static_cast<int>(vm_.carry_plans_.size()) - 1;
  }

  // Same flat offset function: equal constants and equal nonzero
  // terms in any order.
  static bool same_offset(const VmProgram::Access& a,
                          const VmProgram::Access& b) {
    if (a.array != b.array || a.offset.constant != b.offset.constant)
      return false;
    auto terms = [](const LinExpr& e) {
      std::vector<std::pair<int, i64>> t;
      for (const auto& st : e.terms)
        if (st.second != 0) t.push_back(st);
      std::sort(t.begin(), t.end());
      return t;
    };
    return terms(a.offset) == terms(b.offset);
  }

  // The leaf executor's plan for the fast statements [sbegin, send) of
  // one loop body (vm.hpp): SSA-renamed ops with the carried taint,
  // and the write/access pairs the entry test checks.
  int build_leaf_plan(int sbegin, int send) {
    VmProgram::LeafPlan plan;
    plan.op_begin = static_cast<int>(vm_.leaf_ops_.size());
    plan.stmt_begin = static_cast<int>(vm_.leaf_stmts_.size());
    std::vector<int> recurrent;  // access ids of recurrent loads
    for (int s = sbegin; s < send; ++s) {
      const VmProgram::StmtInfo& si = vm_.stmts_[s];
      const VmProgram::Access& w = vm_.accesses_[si.first_access];
      VmProgram::LeafStmt ls;
      ls.write = si.first_access;
      ls.op_begin = static_cast<int>(vm_.leaf_ops_.size());
      // Original scalar register -> plan register (op index).
      std::vector<int> ssa(static_cast<size_t>(std::max(vm_.max_sregs_, 1)), 0);
      for (int i = si.scalar_begin; i != si.scalar_end; ++i) {
        const VmProgram::SInst& in = vm_.scode_[i];
        VmProgram::LeafOp op;
        op.op = in.op;
        op.imm = in.imm;
        op.payload = in.payload;
        auto reg = [&](int r) { return ssa[static_cast<size_t>(r)]; };
        auto carried = [&](int r) {
          return vm_.leaf_ops_[static_cast<size_t>(plan.op_begin + r)].carried;
        };
        switch (in.op) {
          case SOp::kConst:
          case SOp::kVar:
            break;
          case SOp::kAffine:
            plan.has_affine = true;
            break;
          case SOp::kLoad: {
            const VmProgram::Access& a =
                vm_.accesses_[static_cast<size_t>(in.payload)];
            op.carried = w.step_delta == 0 && same_offset(a, w);
            if (op.carried) recurrent.push_back(static_cast<int>(in.payload));
            break;
          }
          case SOp::kAdd:
          case SOp::kSub:
          case SOp::kMul:
          case SOp::kDiv:
            op.a = reg(in.a);
            op.b = reg(in.b);
            op.carried = carried(op.a) || carried(op.b);
            break;
          case SOp::kNeg:
          case SOp::kSqrt:
            op.a = reg(in.a);
            op.carried = carried(op.a);
            break;
          case SOp::kFunc: {
            const VmProgram::FuncSite& f =
                vm_.func_sites_[static_cast<size_t>(in.payload)];
            op.a = static_cast<int>(vm_.leaf_args_.size());
            for (int j = f.args_begin; j != f.args_end; ++j) {
              int r = reg(vm_.func_args_[j]);
              vm_.leaf_args_.push_back(r);
              op.carried = op.carried || carried(r);
            }
            op.b = static_cast<int>(vm_.leaf_args_.size());
            break;
          }
        }
        ls.carried = ls.carried || op.carried;
        ssa[static_cast<size_t>(in.dst)] =
            static_cast<int>(vm_.leaf_ops_.size()) - plan.op_begin;
        vm_.leaf_ops_.push_back(op);
      }
      ls.op_end = static_cast<int>(vm_.leaf_ops_.size());
      if (si.result_reg >= 0)
        ls.result = ssa[static_cast<size_t>(si.result_reg)];
      vm_.leaf_stmts_.push_back(ls);
    }
    plan.op_end = static_cast<int>(vm_.leaf_ops_.size());
    plan.stmt_end = static_cast<int>(vm_.leaf_stmts_.size());

    // Every write against every other access of its array.
    plan.pair_begin = static_cast<int>(vm_.leaf_pairs_.size());
    const int abegin = vm_.stmts_[sbegin].first_access;
    const int aend = vm_.stmts_[send - 1].first_access +
                     vm_.stmts_[send - 1].naccesses;
    for (int s = sbegin; s < send; ++s) {
      const VmProgram::StmtInfo& si = vm_.stmts_[s];
      const int w = si.first_access;
      for (int x = abegin; x < aend; ++x) {
        if (x == w || vm_.accesses_[x].array != vm_.accesses_[w].array)
          continue;
        bool own = x > w && x < w + si.naccesses;
        bool rec = own && std::find(recurrent.begin(), recurrent.end(), x) !=
                              recurrent.end();
        // The write's own offset function with a nonzero delta meets
        // it only within one iteration: nothing to test at entry.
        const VmProgram::Access& wa = vm_.accesses_[w];
        if (rec || (wa.step_delta != 0 && same_offset(wa, vm_.accesses_[x])))
          continue;
        vm_.leaf_pairs_.push_back({w, x});
      }
    }
    plan.pair_end = static_cast<int>(vm_.leaf_pairs_.size());
    vm_.leaf_plans_.push_back(plan);
    return static_cast<int>(vm_.leaf_plans_.size()) - 1;
  }

  void compile_node(const Node& n) {
    int guard_pc = -1;
    if (!n.guards().empty()) {
      VmProgram::GuardSet gs{static_cast<int>(vm_.guards_.size()), 0};
      for (const Guard& g : n.guards())
        vm_.guards_.push_back({g.kind, lin(g.expr), g.modulus});
      gs.end = static_cast<int>(vm_.guards_.size());
      vm_.guard_sets_.push_back(gs);
      guard_pc = emit_c(COp::kGuards,
                        static_cast<int>(vm_.guard_sets_.size()) - 1);
    }
    if (n.is_stmt())
      compile_stmt(n);
    else
      compile_loop(n);
    if (guard_pc >= 0)
      vm_.code_[guard_pc].jump = static_cast<int>(vm_.code_.size());
  }

  int emit_c(COp op, int arg, int jump = 0) {
    vm_.code_.push_back({op, arg, jump});
    return static_cast<int>(vm_.code_.size()) - 1;
  }

  const Program& p_;
  const std::map<std::string, i64>& params_;
  Memory* mem_;
  VmProgram& vm_;
  std::vector<std::pair<std::string, int>> scope_;  // (var, slot), inner last
  std::map<std::string, int> array_ids_;
  int next_slot_ = 0;
};

VmProgram::VmProgram(const Program& p, const std::map<std::string, i64>& params,
                     Memory& mem) {
  ScopedSpan span("vm.compile", "exec");
  ScopedTimer timer("exec.vm.compile_ns");
  VmCompiler c(p, params, &mem, *this);
  c.compile();
  Stats::global().add("exec.vm.compiles");
  Stats::global().add_sample("exec.vm.code_len",
                             static_cast<i64>(code_.size() + scode_.size()));
}

void VmProgram::rebind(Memory& mem) {
  for (ArrayInfo& a : arrays_) {
    if (a.data == nullptr) continue;  // unbound at compile time stays so
    DenseArray& arr = mem.at(a.name);
    INLT_CHECK_MSG(arr.rank() == a.rank, "rebind: array rank mismatch");
    for (int d = 0; d < a.rank; ++d)
      INLT_CHECK_MSG(arr.lo(d) == a.lo[d] && arr.hi(d) == a.hi[d],
                     "rebind: array shape mismatch for " + a.name);
    a.data = arr.raw_data();
  }
}

std::map<std::string, VmProgram::Range> VmProgram::probe_ranges(
    const Program& p, const std::map<std::string, i64>& params) {
  ScopedSpan span("vm.probe", "exec");
  ScopedTimer timer("exec.vm.probe_ns");
  VmProgram vm;
  VmCompiler c(p, params, nullptr, vm);
  c.compile();
  ProbeState ps;
  ps.ranges.resize(vm.arrays_.size());
  vm.run_probe(ps);
  std::map<std::string, Range> out;
  for (size_t i = 0; i < vm.arrays_.size(); ++i) {
    if (!ps.ranges[i].init) continue;  // never executed
    out.emplace(vm.arrays_[i].name,
                Range{std::move(ps.ranges[i].lo), std::move(ps.ranges[i].hi)});
  }
  return out;
}

}  // namespace inlt
