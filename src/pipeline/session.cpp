#include "pipeline/session.hpp"

#include "codegen/simplify.hpp"
#include "ir/parser.hpp"
#include "support/trace.hpp"
#include "transform/incremental.hpp"

namespace inlt {

TransformSession TransformSession::from_source(const std::string& source_text,
                                               SessionOptions opts) {
  Program program = [&] {
    ScopedSpan span("session.parse", "session");
    return parse_program(source_text);
  }();
  return TransformSession(std::move(program), std::move(opts));
}

TransformSession::TransformSession(Program program, SessionOptions opts)
    : opts_(std::move(opts)),
      program_(std::make_unique<Program>(std::move(program))) {
  {
    ScopedSpan span("session.layout", "session");
    layout_ = std::make_unique<IvLayout>(*program_);
  }
  ScopedTimer t("session.analyze");
  ScopedSpan span("session.analyze", "session");
  deps_ = analyze_dependences(*layout_, opts_.analyzer);
  if (span.active())
    span.arg("deps", static_cast<i64>(deps_.deps.size()));
}

// Out of line: IncrementalLegality is incomplete in the header.
TransformSession::~TransformSession() = default;

CandidateResult TransformSession::evaluate_impl(
    const IntMat& m, std::vector<StatementPlan>* plans) {
  Stats::global().add("session.evaluations");
  ScopedSpan span("session.evaluate", "session");
  ScopedProjectionCache install(&cache_);
  CandidateResult r;
  try {
    if (opts_.exact) {
      ExactCodegenResult res = generate_code_exact(*layout_, m, opts_.codegen);
      if (plans) *plans = std::move(res.plans);
      r.legal = true;
      r.program = opts_.simplify ? simplify_program(res.program)
                                 : std::move(res.program);
    } else {
      CodegenResult res = generate_code(*layout_, deps_, m, opts_.codegen);
      if (plans) *plans = std::move(res.plans);
      r.legal = true;
      r.legality = std::move(res.legality);
      r.program = opts_.simplify ? simplify_program(res.program)
                                 : std::move(res.program);
    }
  } catch (const DiagnosedTransformError& e) {
    r.error = e.what();
    r.diagnostics = e.diagnostics();
    // An illegal matrix is the common failure: surface it on the
    // legality member too so callers can treat both paths uniformly.
    for (const Diagnostic& d : r.diagnostics)
      if (d.stage == Stage::kLegality) r.legality.violations.push_back(d.message);
    r.legality.diagnostics = r.diagnostics;
  } catch (const Error& e) {
    r.error = e.what();
    Diagnostic d;
    d.stage = Stage::kCodegen;
    d.message = e.what();
    r.diagnostics.push_back(std::move(d));
  }
  if (!r.diagnostics.empty()) {
    std::lock_guard<std::mutex> lock(diag_mu_);
    for (const Diagnostic& d : r.diagnostics) diags_.report(d);
  }
  if (span.active()) span.arg("legal", r.legal);
  return r;
}

CandidateResult TransformSession::evaluate(const IntMat& m) {
  return evaluate_impl(m);
}

}  // namespace inlt
