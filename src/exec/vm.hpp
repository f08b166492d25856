// Bytecode execution engine for inlt programs.
//
// The AST walker in interp.cpp re-walks every ScalarExpr, re-evaluates
// every affine subscript through std::map environments and resolves
// every array by name on every access — fine for unit tests, dominant
// for full-mode search once legality itself is fast. VmProgram compiles
// a (Program, parameter binding, Memory) triple once:
//
//  * affine subscripts are lowered to a flat base offset plus one
//    stride per enclosing loop; the running offset of each access is a
//    register that is initialized when its owning loop is entered and
//    *incremented* on every loop advance — no per-access subscript
//    evaluation at all on the hot path;
//  * arrays are resolved once to raw double* with row-major strides;
//    for the lowering plan's fast statements the per-dimension bounds
//    checks are hoisted to the owning loop's entry (both range
//    endpoints of each distinct affine subscript are checked once per
//    entry — exact, because an affine function of the loop variable is
//    monotonic); the others keep exact per-access checks, so wrong
//    transformations still fail loudly;
//  * statement bodies become linear register bytecode; the
//    uninterpreted-function hash (exec/ufhash.hpp) is inlined;
//  * control flow is a flat instruction array driven by a program
//    counter — no recursion, loop state lives in per-loop slots.
//
// One dispatch loop interprets that control stream for every kind of
// run: a template over four modes, which differ only where they must.
//
//  * serial (run()): the hot path, with the leaf-loop executor below;
//  * profiled (run() with InterpOptions::profile): clock reads around
//    every op, bucketed into the vm.op.* / vm.stmt.depth* histograms,
//    and the leaf executor off so each instance is timed;
//  * worker (run_worker()): chunking of partition-marked loops, with
//    stats and statements owned by the chunk's worker or worker 0;
//  * probe (probe_ranges()): subscript extremes instead of execution.
//
// Loop entry, advance, guards and statement dispatch are thus written
// once for all of them.
//
// Results are bit-identical to the AST walker (the differential suite
// in tests/exec/test_vm.cpp enforces this), including InterpStats.
// All compile-time constant folding (parameter substitution, stride
// multiplication, advance deltas) uses checked_int arithmetic, so
// absurd parameter values fail with OverflowError instead of wrapping.
//
// Leaf loops of the lowering plan (exec/lower.hpp) whose arrays are
// all bound run in a leaf-loop executor instead of the per-instance
// dispatch loop. At compile time each leaf gets a plan:
// the body's bytecode SSA-renamed so every op owns a chunk register of
// kLeafWidth doubles, a "carried" taint on each op that depends on a
// recurrent load (a read of the statement's own loop-invariant write
// cell, as in the K-innermost A(I,J) = A(I,J) - A(I,K)*A(K,J)), and
// the (write, other access on the same array) pairs to test at entry.
// After enter_loop's hoisted checks, an interval test over the
// budget-covered prefix m = min(n, room/k) (n trips, k statements,
// room instances left in the budget) accepts every pair whose offsets
// never meet at two different iterations: disjoint offset intervals,
// or (overlapping) offset progressions that miss each other's cells.
// The plan leaves out the pairs that never need the test: a recurrent
// read by the write's own statement, and the write's own offset
// function with a nonzero delta. Then each non-carried op
// runs over chunks of up to kLeafWidth iterations, while carried ops
// and the write run element by element in order; if the test fails,
// the same executor runs at chunk width 1. Either way every cell sees
// the same reads and writes in the same order and every element gets
// the same IEEE op, so Memory stays bit-identical.
// The executor leaves InterpStats, loop variables and offset
// registers as the per-instance path would, and hands the iteration
// where the budget runs out back to that path, so faults and their
// text do not change. Per-instance execution remains for non-leaf
// statements, CacheProbe runs, profiled runs and that last iteration.
//
// Carried leaf entries: most leaf activations come one per row of the
// leaf's parent P, the nearest enclosing loop that is not a link of
// the one-trip chains codegen emits (`do J = 2*K, 2*K`: loops that run
// exactly once, Node::runs_once). When every leaf bound term has
// denominator 1, the leaf's bounds take the max/min of their terms,
// and the leaf steps by 1 and has no kAffine operand, compile.cpp
// gives P a carry plan: each value a leaf entry evaluates (link
// values, leaf bound terms, entry offsets, hoisted-check subscripts)
// split into the leaf variable's term and a rest that changes by a
// constant per row of P. P's kLoopEnter then runs the whole
// activation (run_carried): every link runs at every row, and from
// row 0's values the leaf runs at a row iff each lower term is at
// most each upper term, an affine condition, so the rows that enter
// the leaf are one interval, cut into segments over which each leaf
// bound is one term and every entry value is affine in the row. Per
// segment, the hoisted checks hold at every row iff they hold at its
// two ends, the trips sum in closed form, and a leaf pair is proved
// apart for every row or tested per row. Each row then only sets the
// link values and entry offsets and runs the leaf's chunks; counts
// are added in bulk. An activation where a check or the budget would
// fail, or a value could overflow where the per-entry path's would
// not, runs per entry from its first row, so faults, their text, the
// failing Memory and InterpStats are unchanged. The carried path
// runs in serial and worker runs (a partition-marked P is walked over
// its chunk; a marked loop below P keeps the per-entry path), never
// in profiled or cache-probe runs.
//
// The probe mode sizes arrays for declare_arrays without touching
// memory, and collapses the plan's leaf loops into two endpoint
// evaluations per entry — declare_arrays drops from the full iteration
// count to the iteration count of the outer nest.
#pragma once

#include <atomic>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exec/interp.hpp"

namespace inlt {

class ExecBarrier;    // exec/parallel.hpp
class HistogramCell;  // support/stats.hpp
struct WorkerProfile;  // support/profile.hpp

class VmProgram {
 public:
  /// Compile `p` for the given parameter binding and bind array
  /// references to the (pre-declared) arrays of `mem`. Throws on
  /// unbound variables, undeclared arrays, inconsistent array ranks,
  /// or compile-time arithmetic overflow.
  VmProgram(const Program& p, const std::map<std::string, i64>& params,
            Memory& mem);

  /// Execute in the dispatch loop's serial mode, or its profiled mode
  /// when `opts.profile` is set. Only `max_instances`, `cache_probe`
  /// and `profile` are consulted from `opts` — callers with an
  /// observer must use the AST walker (interpret() rejects one with
  /// any other engine).
  InterpStats run(const InterpOptions& opts = {});

  /// Re-point array references at another Memory with identical
  /// shapes (e.g. a fresh copy of the same prototype); everything
  /// compiled stays valid.
  void rebind(Memory& mem);

  /// Mark the loops whose variables appear in `vars` for chunked
  /// partitioning by run_worker. A mark nested inside another mark is
  /// dropped — only the outermost parallel level on any path splits.
  /// Returns the number of loops left marked. Marks survive copying,
  /// so per-worker clones of a marked prototype agree on the schedule.
  int mark_partition(const std::vector<std::string>& vars);

  /// SPMD worker body for partitioned execution: the dispatch loop's
  /// worker mode (driven by run_partitioned in exec/parallel.hpp;
  /// `this` must be worker `w`'s private clone of a marked prototype,
  /// all clones bound to the same Memory). Only `max_instances` is
  /// consulted from `opts`. Every worker executes the full control
  /// flow so loop environments stay consistent, but:
  ///
  ///  * a marked loop's iteration range is block-split: worker w runs
  ///    the contiguous chunk [count*w/n, count*(w+1)/n) of each
  ///    activation, with a barrier on entry (preceding serial writes
  ///    must be visible) and on exit (following reads must wait);
  ///    zero-trip activations are skipped by every worker without
  ///    barriers (bounds only involve enclosing-loop variables, so all
  ///    workers agree);
  ///  * outside any chunk, statements execute on worker 0 only, and
  ///    workers != 0 skip whole subtrees that contain no marked loop;
  ///  * stats are counted iff the executing worker owns the work
  ///    (inside its chunk, or worker 0 elsewhere), so the sum over
  ///    workers equals the serial run's InterpStats exactly.
  ///
  /// A marked loop must be doall: chunks write disjoint locations, so
  /// the final Memory is bit-identical to the serial run at any worker
  /// count. The caller must abort the barrier if any worker throws.
  InterpStats run_worker(int worker, int nworkers, ExecBarrier& barrier,
                         const InterpOptions& opts);

  /// Instrumentation sinks for run_worker, installed per clone by the
  /// parallel driver (exec/parallel.cpp) when the execution profiler
  /// or tracer is active. All pointers null by default; a null `prof`
  /// plus a disabled tracer keeps the worker's per-chunk cost at one
  /// plain pointer test and one relaxed atomic load — no clock reads.
  struct WorkerInstr {
    WorkerProfile* prof = nullptr;    ///< this worker's profile sink
    HistogramCell* chunk_ns = nullptr;  ///< exec.par.chunk_ns
    HistogramCell* wait_ns = nullptr;   ///< exec.par.barrier_wait_ns
    /// Shared live counters for Chrome-trace counter tracks; workers
    /// emit a 'C' sample on every transition when tracing is enabled.
    std::atomic<int>* active_workers = nullptr;
    std::atomic<i64>* chunks_done = nullptr;
  };
  void set_instrumentation(const WorkerInstr& wi) { instr_ = wi; }

  /// The loops mark_partition() left marked, in nest (code) order:
  /// (internal loop id, loop variable). The driver uses this to map
  /// per-worker level tallies onto named report levels.
  std::vector<std::pair<int, std::string>> marked_loops() const;

  // -- introspection (tests, benchmarks) --
  /// Statement instances of the last run() / run_worker() that the
  /// leaf executor ran chunked (batched) or at chunk width 1 (serial).
  i64 batched_instances() const { return batched_instances_; }
  i64 serial_leaf_instances() const { return serial_leaf_instances_; }
  /// Leaf activations the executor ran in the last run, and how many
  /// of them the carried path entered from the parent's row values.
  i64 leaf_entries() const { return leaf_entries_; }
  i64 carried_entries() const { return carried_entries_; }
  /// Accesses whose bounds checks were hoisted to loop entry.
  i64 hoisted_accesses() const { return hoisted_accesses_; }
  /// Accesses that kept exact per-execution checks.
  i64 checked_accesses() const { return checked_accesses_; }

  /// Per-array subscript extremes over the program's execution, the
  /// sizing information declare_arrays needs: the dispatch loop's
  /// probe mode over a program compiled without Memory. Pure.
  struct Range {
    std::vector<i64> lo, hi;
  };
  static std::map<std::string, Range> probe_ranges(
      const Program& p, const std::map<std::string, i64>& params);

 private:
  friend class VmCompiler;  // compile.cpp builds the tables below

  // Compiled affine expression over loop slots; parameter terms are
  // folded into the constant at compile time.
  struct LinExpr {
    i64 constant = 0;
    std::vector<std::pair<int, i64>> terms;  // (env slot, coefficient)
  };

  struct CBoundTerm {
    LinExpr expr;
    i64 den = 1;
  };
  struct CBound {
    std::vector<CBoundTerm> terms;
    bool tight = true;
  };

  struct CGuard {
    Guard::Kind kind = Guard::Kind::kEqZero;
    LinExpr expr;
    i64 modulus = 1;
  };
  struct GuardSet {
    int begin = 0, end = 0;  // into guards_
  };

  struct ArrayInfo {
    std::string name;
    int rank = 0;
    // Bound at resolve time (exec mode only):
    double* data = nullptr;
    std::vector<i64> lo, hi, strides;
  };

  // One subscript dimension of one access, kept for bounds checks and
  // probe mode.
  struct AccessDim {
    LinExpr expr;
  };

  struct Access {
    int array = -1;
    int first_dim = 0, ndims = 0;  // into dims_
    // Exec mode: flat offset expression (array strides and origins
    // folded in); the access's running offset lives in offs_[reg].
    LinExpr offset;
    int reg = -1;
    // Fast accesses: offs_[reg] += step_delta on owner-loop advance.
    i64 step_delta = 0;
  };

  struct StmtInfo {
    int first_access = 0, naccesses = 0;  // accesses_; [0] is the write
    int scalar_begin = 0, scalar_end = 0;  // into scode_
    int result_reg = -1;                   // -1: statement has no rhs
    // Fast statements (the lowering plan's, with every array bound)
    // rely on loop-entry offset initialization, advance deltas and
    // hoisted checks; slow statements recompute and check every access.
    bool fast = false;
  };

  struct EntryInit {
    int access = 0;  // offs_[access.reg] = eval(access.offset)
  };
  struct EntryCheck {
    int access = 0;
    int dim = 0;     // which dimension of the access
    i64 coef = 0;    // subscript coefficient of the owning loop's var
  };
  struct Advance {
    int reg = 0;
    i64 delta = 0;
  };

  struct LoopInfo {
    int slot = 0;
    std::string var;  ///< loop variable (partition marks match on it)
    i64 step = 1;
    CBound lower, upper;
    int init_begin = 0, init_end = 0;    // into inits_
    int check_begin = 0, check_end = 0;  // into checks_
    int adv_begin = 0, adv_end = 0;      // into advances_
    // Probe mode: a leaf of the lowering plan, so one endpoint
    // evaluation per entry covers the whole iteration range.
    bool probe_collapse = false;
    int probe_begin = 0, probe_end = 0;  // collapsed accesses (accesses_)
    int leaf = -1;  // leaf_plans_ index; -1: not a leaf loop
    int carry = -1;  // carry_plans_ index; -1: no carried leaf below
  };

  enum class COp : unsigned char {
    kGuards,     // arg: guard set; jump: target on failure
    kLoopEnter,  // arg: loop; jump: loop exit (past kLoopNext)
    kLoopNext,   // arg: loop; jump: body start
    kStmt,       // arg: statement
    kHalt,
  };
  struct CInst {
    COp op = COp::kHalt;
    int arg = 0;
    int jump = 0;
  };

  enum class SOp : unsigned char {
    kConst,   // dst <- imm
    kVar,     // dst <- double(env[payload])
    kAffine,  // dst <- double(eval(lins_[payload]))
    kLoad,    // dst <- array data at accesses_[payload]'s offset
    kAdd, kSub, kMul, kDiv,  // dst <- a op b
    kNeg, kSqrt,             // dst <- op a
    kFunc,    // dst <- uf hash of func_sites_[payload] over arg regs
  };
  struct SInst {
    SOp op = SOp::kConst;
    int dst = 0, a = 0, b = 0;
    double imm = 0.0;
    i64 payload = 0;
  };
  struct FuncSite {
    std::uint64_t name_hash = 0;
    int args_begin = 0, args_end = 0;  // into func_args_ (register ids)
  };

  // -- leaf-loop executor (see the header comment) --
  static constexpr int kLeafWidth = 64;  // iterations per chunk

  // One SSA op of a leaf plan; its chunk register is its index within
  // the plan's ops.
  struct LeafOp {
    SOp op = SOp::kConst;
    bool carried = false;  // depends on a recurrent load: element-wise
    int a = 0, b = 0;      // operand registers; kFunc: leaf_args_ range
    double imm = 0.0;
    i64 payload = 0;       // as SInst::payload
  };
  struct LeafStmt {
    int op_begin = 0, op_end = 0;  // into leaf_ops_
    int result = -1;               // rhs register; -1: writes 0.0
    int write = 0;                 // access id of the write
    bool carried = false;          // has carried ops
  };
  // A write and another access of the same array in one leaf body
  // that could meet it at another iteration (compile.cpp leaves out
  // the write's recurrent reads and its own offset function).
  struct LeafPair {
    int w = 0, x = 0;  // access ids
  };
  struct LeafPlan {
    int op_begin = 0, op_end = 0;      // into leaf_ops_
    int stmt_begin = 0, stmt_end = 0;  // into leaf_stmts_
    int pair_begin = 0, pair_end = 0;  // into leaf_pairs_
    bool has_affine = false;           // some op is kAffine
  };

  // -- carried leaf entries (see the header comment) --
  // One value a leaf entry needs, as the parent's rows change it: an
  // entry expression with the leaf variable's term taken out (`base`),
  // that term's coefficient, and the change per parent row.
  struct CarryVal {
    LinExpr base;
    i64 delta = 0;       // per parent row
    i64 coef = 0;        // of the leaf variable (inits and checks)
    int reg = 0;         // inits: the offset register
    i64 lo = 0, hi = 0;  // checks: the dimension's array bounds
  };
  struct CarryPlan {
    int links = 0;  // loops that run exactly once: ids parent+1 ..
    int leaf = 0;   // loop id of the leaf, parent+links+1
    // Into carry_vals_ from val_begin: each link's one bound term
    // (values 0 .. links-1), the leaf's lower bound terms (from links),
    // its upper bound terms, its inits, then its checks.
    int val_begin = 0, leaf_upper = 0, inits = 0, checks = 0, val_end = 0;
    // The leaf's pairs (LeafPair) as pairs of init indices, into
    // carry_pairs_.
    int pair_begin = 0, pair_end = 0;
    // Slots the entry expressions read that the parent's rows leave
    // unchanged (into carry_slots_).
    int slot_begin = 0, slot_end = 0;
    // An activation runs carried only if every value its entry
    // expressions read stays within this magnitude: then no partial
    // sum the per-entry path forms can overflow.
    i64 max_mag = 0;
  };
  // Rows r0..r1 of an activation over which the leaf runs and its
  // bounds are the terms lo and hi, so every entry value is affine in
  // the row; whether its rows still test the leaf pairs one by one.
  struct CarrySeg {
    i64 r0 = 0, r1 = 0;
    int lo = 0, hi = 0;
    bool test_pairs = false;
  };
  static constexpr int kMaxSegs = 8;

  VmProgram() = default;

  // Probe-mode accumulator, parallel to arrays_.
  struct ProbeState {
    struct ArrayRange {
      std::vector<i64> lo, hi;
      bool init = false;
    };
    std::vector<ArrayRange> ranges;
  };

  // The one interpreter over code_ (see the header comment): run()
  // enters it as kSerial or kProfiled, run_worker() as kWorker,
  // run_probe() as kProbe.
  enum class Mode { kSerial, kProfiled, kWorker, kProbe };
  // A worker's place in a partitioned run (kWorker only).
  struct Team {
    int worker, nworkers;
    ExecBarrier& barrier;
  };
  template <Mode M>
  InterpStats dispatch(i64 max_instances, const Team* team = nullptr,
                       ProbeState* ps = nullptr);
  // kWorker's chunk entry and exit around a marked loop's activation,
  // and their timed barrier arrival.
  bool enter_chunk(const LoopInfo& L, int id, const Team& t, i64& lo,
                   i64& hi);
  void leave_chunk(const LoopInfo& L, int id, const Team& t);
  void team_wait(const Team& t);
  // The kProbe entry behind probe_ranges().
  void run_probe(ProbeState& ps);
  void probe_note(ProbeState& ps, const Access& a);

  i64 eval(const LinExpr& e) const;  // checked
  i64 eval_lower(const CBound& b) const;
  i64 eval_upper(const CBound& b) const;
  bool guards_hold(const GuardSet& g) const;
  void enter_loop(const LoopInfo& loop, int id, i64 lo, i64 hi);
  void exec_stmt(const StmtInfo& s, InterpStats& st, i64 max_instances);
  void probe_lines(const StmtInfo& s);
  void slow_access_offsets(const StmtInfo& s);
  [[noreturn]] void bounds_fail(const Access& a, int dim, i64 idx) const;
  size_t run_leaf(const LoopInfo& L, size_t enter_pc, i64 lo, i64 hi,
                  InterpStats& st, i64 max_instances);
  size_t run_carried(const LoopInfo& P, size_t enter_pc, i64 lo, i64 hi,
                     InterpStats& st, i64 max_instances);
  bool carry_start(const CarryPlan& C, const LoopInfo& P, i64 lo, i64 rows);
  int carry_segments(const CarryPlan& C, i64 rows, i64 room, CarrySeg* segs,
                     i64& trips) const;
  bool leaf_batchable(const LeafPlan& P, i64 m) const;
  void run_chunks(const LeafPlan& P, const LoopInfo& L, i64 lo, i64 m,
                  bool batched);
  void leaf_chunk(const LeafPlan& P, const LoopInfo& L, i64 lo, i64 i0,
                  int c);
  void add_leaf_counters() const;

  // -- compiled tables --
  std::vector<CInst> code_;
  std::vector<LoopInfo> loops_;
  std::vector<StmtInfo> stmts_;
  std::vector<GuardSet> guard_sets_;
  std::vector<CGuard> guards_;
  std::vector<ArrayInfo> arrays_;
  std::vector<Access> accesses_;
  std::vector<AccessDim> dims_;
  std::vector<EntryInit> inits_;
  std::vector<EntryCheck> checks_;
  std::vector<Advance> advances_;
  std::vector<SInst> scode_;
  std::vector<LinExpr> lins_;      // kAffine payloads
  std::vector<FuncSite> func_sites_;
  std::vector<int> func_args_;
  std::vector<LeafPlan> leaf_plans_;
  std::vector<LeafOp> leaf_ops_;
  std::vector<LeafStmt> leaf_stmts_;
  std::vector<LeafPair> leaf_pairs_;
  std::vector<int> leaf_args_;  // kFunc operand registers
  std::vector<CarryPlan> carry_plans_;
  std::vector<CarryVal> carry_vals_;
  std::vector<int> carry_slots_;
  std::vector<std::pair<int, int>> carry_pairs_;
  int num_slots_ = 0;
  int max_sregs_ = 0;
  i64 hoisted_accesses_ = 0;
  i64 checked_accesses_ = 0;

  // Partition marks (mark_partition): per loop, whether it is chunked
  // by run_worker, and whether its subtree contains a marked loop
  // (marked loops count as containing themselves).
  std::vector<std::uint8_t> marked_;
  std::vector<std::uint8_t> reach_marked_;

  // -- runtime state --
  // Cache-line probe for the current run (null = disabled); shift is
  // log2(line_elems), precomputed when the probe is installed.
  CacheProbe* probe_ = nullptr;
  int probe_shift_ = 0;
  // Worker instrumentation (run_worker only; per-clone, so unshared).
  WorkerInstr instr_;
  i64 chunk_t0_ = 0;        // profile clock at current chunk start
  i64 chunk_trace_t0_ = 0;  // tracer clock at current chunk start
  bool chunk_traced_ = false;
  std::vector<i64> env_;    // loop variable values, by slot
  std::vector<i64> hi_;     // per active loop: current upper bound
  std::vector<i64> offs_;   // per access: running flat offset
  std::vector<double> sregs_;
  // Leaf chunk registers, kLeafWidth doubles per op of the largest
  // plan. A member, so every per-worker clone has its own.
  std::vector<double> leaf_regs_;
  std::vector<i64> carry_now_;  // carry_vals_' values at the current row
  i64 batched_instances_ = 0;
  i64 serial_leaf_instances_ = 0;
  i64 leaf_entries_ = 0;
  i64 carried_entries_ = 0;
};

}  // namespace inlt
