#include "exec/verify.hpp"

#include <sstream>
#include <utility>

#include "support/check.hpp"
#include "support/stats.hpp"
#include "support/trace.hpp"

namespace inlt {

std::string VerifyResult::to_string() const {
  std::ostringstream os;
  os << (equivalent ? "equivalent" : "NOT equivalent");
  if (!error.empty()) {
    os << " (execution failed: " << error << ")";
    return os.str();
  }
  os << " (max diff " << max_diff << ", instances " << src_instances << " vs "
     << dst_instances << ")";
  return os.str();
}

namespace {

void fill(Memory& mem, FillKind kind, unsigned seed) {
  if (kind == FillKind::kSpd)
    fill_spd(mem, seed);
  else
    randomize(mem, seed);
}

}  // namespace

VerifyResult verify_equivalence(const Program& source,
                                const Program& transformed,
                                const std::map<std::string, i64>& params,
                                FillKind fill_kind, unsigned seed,
                                ExecEngine engine, const ExecPlan& plan) {
  ScopedSpan span("exec.verify", "exec");
  Memory mem;
  declare_arrays(source, params, mem);
  // The transformed program may touch cells the source sizing missed
  // only through a bug; declare_arrays skips already-declared arrays,
  // so running it for the transformed program just catches new arrays.
  declare_arrays(transformed, params, mem);
  fill(mem, fill_kind, seed);
  Memory mem2 = mem;

  InterpOptions opts;
  opts.engine = engine;
  opts.num_threads = plan.threads;
  opts.profile = plan.vm_profile;
  VerifyResult r;
  opts.partition = plan.source_partition;
  r.src_instances = interpret(source, params, mem, opts).instances;
  opts.partition = plan.target_partition;
  r.dst_instances = interpret(transformed, params, mem2, opts).instances;
  r.max_diff = mem.max_abs_diff(mem2);
  r.equivalent = mem.bit_equal(mem2) && r.src_instances == r.dst_instances;
  if (span.active()) {
    span.arg("equivalent", r.equivalent);
    span.arg("instances", r.src_instances);
  }
  return r;
}

VerifyReference::VerifyReference(const Program& source,
                                 const std::map<std::string, i64>& params,
                                 FillKind fill_kind, unsigned seed,
                                 ExecEngine engine, ExecPlan plan)
    : params_(params), engine_(engine), plan_(std::move(plan)) {
  ScopedSpan span("exec.verify_reference", "exec");
  declare_arrays(source, params_, initial_);
  fill(initial_, fill_kind, seed);
  // The thread owns its copy of the program; it reads params_, plan_
  // and initial_, which nothing writes after this point.
  source_ = std::async(std::launch::async, [this, program = source] {
              ScopedSpan run_span("exec.verify_source", "exec");
              SourceRun run{initial_, 0};
              run.instances =
                  interpret(program, params_, run.final,
                            options(plan_.source_partition))
                      .instances;
              return run;
            }).share();
}

VerifyReference::VerifyReference(const Program& source,
                                 const std::map<std::string, i64>& params,
                                 FillKind fill_kind, unsigned seed,
                                 double /*tolerance*/, ExecEngine engine,
                                 ExecPlan plan)
    : VerifyReference(source, params, fill_kind, seed, engine,
                      std::move(plan)) {}

InterpOptions VerifyReference::options(
    const std::vector<std::string>& partition) const {
  InterpOptions opts;
  opts.engine = engine_;
  opts.num_threads = plan_.threads;
  opts.profile = plan_.vm_profile;
  opts.partition = partition;
  return opts;
}

VerifyReference::~VerifyReference() {
  if (source_.valid()) source_.wait();
}

VerifyResult VerifyReference::check(const Program& transformed) const {
  return check(transformed, plan_.target_partition);
}

VerifyResult VerifyReference::check(
    const Program& transformed,
    const std::vector<std::string>& partition) const {
  ScopedTimer timer("exec.verify.check_ns");
  VerifyResult r;
  // A candidate that touches arrays or cells the source never sized
  // would need fresh declarations; any such access makes it
  // non-equivalent anyway, and shows up as an execution error.
  Memory mem = initial_;
  try {
    r.dst_instances =
        interpret(transformed, params_, mem, options(partition)).instances;
  } catch (const Error& e) {
    r.error = e.what();
    Stats::global().add("exec.verify.errors");
  }
  // Outside the try: a source failure propagates to the caller.
  const SourceRun& src = source_.get();
  r.src_instances = src.instances;
  if (r.error.empty()) {
    r.max_diff = mem.max_abs_diff(src.final);
    r.equivalent =
        mem.bit_equal(src.final) && r.src_instances == r.dst_instances;
  }
  return r;
}

}  // namespace inlt
