// End-to-end semantic verification of transformations.
//
// A transformed program is equivalent to its source when, run against
// identical initial memory, it executes the same number of statement
// instances and leaves every array bit-identical to the source's final
// state (identical NaN bit patterns count as equal). The comparison is
// exact because a legal transformation only reorders statement
// instances: each instance computes the same floating-point operations
// on the same operand values, and every engine evaluates them with
// the operand pairing of the expression tree and no contraction.
#pragma once

#include <future>

#include "exec/interp.hpp"

namespace inlt {

enum class FillKind {
  kRandom,  ///< independent uniform values
  kSpd,     ///< symmetric diagonally-dominant square matrices
};

/// Parallel-execution plan for verification runs (exec/parallel.hpp).
/// With threads > 1, each side executes with its doall partition
/// chunked over the shared worker pool — bit-identical to serial, so
/// verification verdicts are unchanged, just faster. A side with an
/// empty partition runs serially.
struct ExecPlan {
  int threads = 1;
  std::vector<std::string> source_partition;
  std::vector<std::string> target_partition;
  /// Forwarded to InterpOptions::profile: per-opcode VM profiling of
  /// the serial executions (the partitioned driver profiles per worker
  /// instead — support/profile.hpp). Results unchanged.
  bool vm_profile = false;
};

struct VerifyResult {
  bool equivalent = false;
  /// Largest elementwise |difference| — reported, not the verdict.
  double max_diff = 0.0;
  i64 src_instances = 0;
  i64 dst_instances = 0;
  /// Non-empty when the candidate failed to execute at all (out of
  /// bounds, instance budget, overflow) — only VerifyReference::check
  /// captures errors; verify_equivalence propagates them.
  std::string error;

  std::string to_string() const;
};

/// Run source and transformed programs on identical inputs and compare
/// final memory bit for bit. Arrays are sized from the source
/// program's accesses.
VerifyResult verify_equivalence(const Program& source,
                                const Program& transformed,
                                const std::map<std::string, i64>& params,
                                FillKind fill = FillKind::kSpd,
                                unsigned seed = 1,
                                ExecEngine engine = ExecEngine::kVm,
                                const ExecPlan& plan = {});

/// The source side of verify_equivalence, computed once: declared and
/// filled initial memory plus the source program's final state. Checks
/// of candidate programs against it are independent and thread-safe
/// (each check runs on its own copy of the initial memory), which is
/// what lets full-mode search verify candidates on worker threads.
///
/// The constructor declares and fills the initial memory, then runs
/// the source on its own thread: with the native engine, the source's
/// compile overlaps the first candidates' compiles instead of
/// preceding them. check() runs its candidate first and waits for the
/// source only to compare. The source thread refers to the object, so
/// a VerifyReference is neither copyable nor movable; its destructor
/// waits for the source run.
class VerifyReference {
 public:
  VerifyReference(const Program& source,
                  const std::map<std::string, i64>& params,
                  FillKind fill = FillKind::kSpd, unsigned seed = 1,
                  ExecEngine engine = ExecEngine::kVm,
                  ExecPlan plan = {});
  /// Source-compatible form of the constructor above for callers that
  /// still pass a tolerance (perfbench/traced.cpp). The comparison is
  /// exact; `tolerance` is ignored.
  VerifyReference(const Program& source,
                  const std::map<std::string, i64>& params, FillKind fill,
                  unsigned seed, double tolerance,
                  ExecEngine engine = ExecEngine::kVm, ExecPlan plan = {});
  ~VerifyReference();
  VerifyReference(const VerifyReference&) = delete;
  VerifyReference& operator=(const VerifyReference&) = delete;

  /// Verify one candidate. Execution failures (bounds, budget,
  /// overflow) are captured in VerifyResult::error, not thrown — a
  /// wrong candidate must not abort a search over many. A failure of
  /// the *source* run is not the candidate's: check() rethrows it.
  /// The candidate executes with the plan's target partition.
  VerifyResult check(const Program& transformed) const;

  /// Same, with a per-candidate doall partition overriding the plan's
  /// target partition (search computes one per legal hit).
  VerifyResult check(const Program& transformed,
                     const std::vector<std::string>& partition) const;

  const std::map<std::string, i64>& params() const { return params_; }

 private:
  struct SourceRun {
    Memory final;  ///< source-final state
    i64 instances = 0;
  };

  /// Execution options of one side under the plan.
  InterpOptions options(const std::vector<std::string>& partition) const;

  std::map<std::string, i64> params_;
  ExecEngine engine_;
  ExecPlan plan_;
  Memory initial_;  ///< declared from the source, filled
  /// The source run; declared last so it is destroyed (and waited
  /// for) before the members the source thread reads.
  std::shared_future<SourceRun> source_;
};

}  // namespace inlt
