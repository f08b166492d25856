// inltc — command-line driver for the inlt loop-transformation
// framework.
//
//   inltc analyze   <file>                     dependence matrix, layout,
//                                              parallel loops
//   inltc transform <file> <op> [...ops]       apply transformations,
//                                              check legality, generate
//   inltc complete  <file> [loop names...]     §6 completion from partial
//                                              unit rows (outermost first)
//   inltc parallel  <file> [...ops]            §7 parallel directions and
//                                              the doall/wavefront schedule;
//                                              with ops, also the schedule
//                                              of the transformed nest
//   inltc search    <file>                     sweep permutations × skews
//                                              through the pruning search
//                                              driver, list legal candidates
//   inltc rank      <file>                     rank the search space by the
//                                              static cache-locality model,
//                                              print the best candidates
//   inltc explain   <file> <op> [...ops]       per-dependence legality
//                                              provenance: the Definition 6
//                                              walk in Δ-vector terms
//   inltc profile   <file> [...ops]            run the (transformed) nest
//                                              partitioned over --exec-threads
//                                              workers and report per-worker
//                                              utilization, barrier waits and
//                                              measured vs. model-predicted
//                                              parallel fraction
//   inltc tile      <file> [...ops]            tile a fully-permutable band
//                                              of the (transformed) nest:
//                                              --report lists the detected
//                                              bands; otherwise the tile plan
//                                              prints to stderr and the tiled
//                                              program to stdout
//
// Transformation ops (composed left to right):
//   interchange A B | skew T S k | reverse V | scale V k
//   reorder PARENT i0 i1 ... | align STMT LOOP k
//
// Flags: --verify N   run source and result on N-sized inputs and compare
//        --engine E   execution engine for --verify runs: vm (default,
//                     compiled bytecode), ast (reference tree walker) or
//                     native (C-compiled kernel; falls back to the VM
//                     with a warning when no compiler is available)
//        --raw        skip the simplification pass
//        --exact      use the exact ILP legality pipeline
//        --pad-zero   zero padding instead of diagonal (ablation)
//        --stats      dump pipeline counters and timers to stderr
//        --report-json F  write the run report to F: one JSON object,
//                     one member per line — command, exit code, engine
//                     (requested, runs, fallbacks), Stats, spans, the
//                     execution profile, the profile result, diagnostics
//        --profile    enable the runtime execution profiler
//                     (support/profile.hpp) for every partitioned run
//                     of the command; the merged report prints to
//                     stderr at exit
//        --vm-profile per-opcode VM profiling for serial --verify runs
//                     (vm.op.* / vm.stmt.depth* histograms; see --stats);
//                     rejected with --exec-threads > 1 and on
//                     search/rank
//        profile: --n N (problem size, default 64) | --repeat R
//        --threads N  search/evaluate worker threads (positive; default
//                     is the hardware count)
//        --exec-threads N  execution-engine worker threads (positive;
//                     default 1 = serial): --verify runs and search
//                     verification chunk each doall level over a shared
//                     worker pool (exec/parallel.hpp), bit-identical to
//                     serial; rank/search scoring discounts the parallel
//                     share of each candidate by this thread count
//        --trace-out F  write a Chrome trace-event JSON of the run to F
//                       (load in Perfetto / chrome://tracing); the run
//                       report then also carries the span summary
//        --progress   periodic search progress on stderr
//        --search     alias for the search command
//        search/rank: --skew-bound B | --skew-depth D | --full
//                     --cost (score each hit with the cost model)
//                     --top K (keep the K best hits by cost; rank
//                     defaults to 5)
//        (--full generates and prints each legal candidate's program;
//         the default stops at legality verdicts)
//        tile: --tile-sizes B1,B2,..  explicit per-loop tile sizes
//              --tile-auto            sweep the size grid, keep the
//                                     modeled-traffic argmin
//              --tile-band K          tile detected band K (default:
//                                     the deepest band)
//              --tile-loops A,B,..    tile this loop chain instead
//              --report               print the band report and stop
//        search --full --tile / rank --tile: tile every hit's
//              generated program (search) or annotate each ranked hit
//              with its tile plan (rank); the tile flags above select
//              band and sizes
//
// All commands run through a TransformSession: the program is parsed
// and analyzed once, candidate matrices are evaluated against the
// cached analysis, and failures are reported as structured
// diagnostics (see src/support/diag.hpp). Driver-level failures —
// unknown commands or flags, malformed ops, unreadable files — are
// Stage::kCli diagnostics on stderr: exit 2 for bad invocations,
// exit 1 for runtime failures.
//
// <file> may be '-' for stdin.
#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>

#include "exec/trace.hpp"
#include "exec/verify.hpp"
#include "ir/printer.hpp"
#include "model/cost.hpp"
#include "pipeline/search.hpp"
#include "pipeline/session.hpp"
#include "support/json.hpp"
#include "support/profile.hpp"
#include "support/stats.hpp"
#include "support/trace.hpp"
#include "tile/band.hpp"
#include "tile/plan.hpp"
#include "transform/completion.hpp"
#include "transform/legality.hpp"
#include "transform/parallel.hpp"
#include "transform/transforms.hpp"

namespace {

using namespace inlt;

[[noreturn]] void usage() {
  std::cerr <<
      R"(usage: inltc <command> <file|-> [args] [flags]
commands:
  analyze   <file>                 dependence matrix, layout, doall loops
  transform <file> <ops...>        apply ops, check legality, generate code
  complete  <file> [loops...]      complete a partial transformation (§6)
  parallel  <file> [ops...]        parallel directions and doall/wavefront
                                   schedule (§7), before and after ops
  search    <file>                 sweep permutations x skews, list legal ones
  rank      <file>                 rank the space by the static cost model
  explain   <file> <ops...>        per-dependence legality provenance
  profile   <file> [ops...]        run partitioned over --exec-threads workers,
                                   report per-worker utilization, barrier waits
                                   and measured vs. predicted parallel fraction
  tile      <file> [ops...]        tile a fully-permutable band of the
                                   (transformed) nest; --report lists bands
ops: interchange A B | skew T S k | reverse V | scale V k
     reorder PARENT i0 i1 ... | align STMT LOOP k
flags: --verify N | --engine {vm,ast,native} | --raw | --exact | --pad-zero
       --stats | --report-json F | --threads N | --exec-threads N
       --search | --trace-out F | --progress | --profile | --vm-profile
search/rank flags: --skew-bound B | --skew-depth D | --full | --cost | --top K
  (--full --verify N also semantically verifies every legal candidate)
tile flags: --tile-sizes B1,B2,.. | --tile-auto | --tile-band K
            --tile-loops A,B,.. | --report
  (--tile on search --full / rank tiles or annotates every hit)
profile flags: --n N | --repeat R | --engine E
  (--engine {vm,ast,native} profiles that serial engine instead of the
   partitioned run; native reports compile and run time separately)
)";
  std::exit(2);
}

// Driver-level failure: a structured Stage::kCli diagnostic on
// stderr, with a consistent exit code — 2 for bad invocations
// (unknown command/flag/op, malformed arguments), 1 for runtime
// failures (unreadable files). Once the flags are parsed it also lands
// in the run report, and the report and trace are written (dump_stats).
[[noreturn]] void cli_error(const std::string& message, int rc);

std::string read_source(const std::string& path) {
  if (path == "-") {
    std::ostringstream os;
    os << std::cin.rdbuf();
    return os.str();
  }
  std::ifstream in(path);
  if (!in) cli_error("cannot open " + path, 1);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

struct Options {
  i64 verify_n = 0;
  ExecEngine engine = ExecEngine::kVm;  // --engine: verify execution engine
  bool raw = false;
  bool exact = false;
  bool stats = false;
  std::string report_json;  // --report-json: run report destination
  PadMode pad = PadMode::kDiagonal;
  int threads = 0;        // SessionOptions::threads (0 = hardware)
  int exec_threads = 1;   // execution-engine workers (1 = serial)
  bool search_flag = false;  // --search: alias for the search command
  i64 skew_bound = 0;     // search space: skew coefficient bound
  int skew_depth = 1;     // search space: skewable window depth
  bool full = false;      // search: generate code for every hit
  bool cost = false;      // search: score each hit with the cost model
  i64 top_k = 0;          // search/rank: keep the K best hits by cost
  std::string trace_out;  // Chrome trace-event JSON destination
  bool progress = false;  // search: periodic progress on stderr
  bool profile = false;      // runtime profiler on partitioned runs
  bool vm_profile = false;   // per-opcode VM profiling (serial runs)
  bool engine_set = false;   // --engine given (profile: serial engine mode)
  i64 n = 64;                // profile command: problem size (binds N)
  i64 repeat = 1;            // profile command: profiled run count
  bool tile = false;              // search/rank: tile/annotate every hit
  std::vector<i64> tile_sizes;    // --tile-sizes: explicit per-loop sizes
  bool tile_auto = false;         // --tile-auto: sweep the size grid
  i64 tile_band = -1;             // --tile-band: detected band index
  std::vector<std::string> tile_loops;  // --tile-loops: explicit chain
  bool tile_report = false;       // tile --report: band report only
  std::vector<std::string> args;  // non-flag arguments
};

ExecEngine parse_engine(const std::string& name) {
  if (name == "vm") return ExecEngine::kVm;
  if (name == "ast") return ExecEngine::kAstWalker;
  if (name == "native") return ExecEngine::kNative;
  cli_error("unknown engine '" + name + "' (expected vm, ast or native)", 2);
}

const char* engine_name(ExecEngine e) {
  return e == ExecEngine::kVm          ? "vm"
         : e == ExecEngine::kAstWalker ? "ast"
                                       : "native";
}

// The one validated thread knob: every thread count in the driver —
// search workers (--threads) and the exec pool (--exec-threads) —
// parses through here, and zero or negative counts are rejected with a
// Stage::kCli diagnostic instead of silently meaning something.
int flag_threads(const std::string& flag, const std::string& value);

// `value` parsed as a (possibly negative) 64-bit integer; anything
// else, out-of-range values included, is a Stage::kCli error saying
// that `what` (a flag or an op) expects an integer.
i64 parse_int(const std::string& what, const std::string& value) {
  size_t pos = 0;
  i64 v = 0;
  try {
    v = std::stoll(value, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != value.size() || value.empty())
    cli_error(what + " expects an integer, got '" + value + "'", 2);
  return v;
}

// The value of flag `flag`, parsed as a (possibly negative) integer.
i64 flag_int(const std::string& flag, const std::string& value) {
  return parse_int("flag " + flag, value);
}

int flag_threads(const std::string& flag, const std::string& value) {
  i64 v = flag_int(flag, value);
  if (v <= 0)
    cli_error("flag " + flag + " expects a positive thread count, got '" +
                  value + "'",
              2);
  return static_cast<int>(v);
}

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

std::vector<i64> parse_tile_sizes(const std::string& flag,
                                  const std::string& value) {
  std::vector<i64> sizes;
  for (const std::string& part : split_commas(value)) {
    i64 v = flag_int(flag, part);
    if (v <= 0)
      cli_error("flag " + flag + " expects positive tile sizes, got '" +
                    part + "'",
                2);
    sizes.push_back(v);
  }
  return sizes;
}

Options parse_flags(int argc, char** argv, int first) {
  Options o;
  auto value = [&](int& i, const std::string& flag) -> std::string {
    if (++i >= argc) cli_error("flag " + flag + " requires a value", 2);
    return argv[i];
  };
  for (int i = first; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--verify") {
      o.verify_n = flag_int(a, value(i, a));
    } else if (a == "--engine") {
      o.engine = parse_engine(value(i, a));
      o.engine_set = true;
    } else if (a.rfind("--engine=", 0) == 0) {
      o.engine = parse_engine(a.substr(9));
      o.engine_set = true;
    } else if (a == "--raw") {
      o.raw = true;
    } else if (a == "--exact") {
      o.exact = true;
    } else if (a == "--pad-zero") {
      o.pad = PadMode::kZero;
    } else if (a == "--stats") {
      o.stats = true;
    } else if (a == "--report-json") {
      o.report_json = value(i, a);
    } else if (a == "--threads") {
      o.threads = flag_threads(a, value(i, a));
    } else if (a == "--exec-threads") {
      o.exec_threads = flag_threads(a, value(i, a));
    } else if (a == "--search") {
      o.search_flag = true;
    } else if (a == "--skew-bound") {
      o.skew_bound = flag_int(a, value(i, a));
      if (o.skew_bound < 0)
        cli_error("flag --skew-bound expects a non-negative bound", 2);
    } else if (a == "--skew-depth") {
      const i64 depth = flag_int(a, value(i, a));
      if (depth < 0 || depth > std::numeric_limits<int>::max())
        cli_error("flag --skew-depth expects a non-negative depth", 2);
      o.skew_depth = static_cast<int>(depth);
    } else if (a == "--full") {
      o.full = true;
    } else if (a == "--cost") {
      o.cost = true;
    } else if (a == "--top") {
      o.top_k = flag_int(a, value(i, a));
      if (o.top_k <= 0) cli_error("flag --top expects a positive count", 2);
    } else if (a == "--trace-out") {
      o.trace_out = value(i, a);
    } else if (a == "--progress") {
      o.progress = true;
    } else if (a == "--profile") {
      o.profile = true;
    } else if (a == "--vm-profile") {
      o.vm_profile = true;
    } else if (a == "--n") {
      o.n = flag_int(a, value(i, a));
      if (o.n <= 0) cli_error("flag --n expects a positive size", 2);
    } else if (a == "--repeat") {
      o.repeat = flag_int(a, value(i, a));
      if (o.repeat <= 0) cli_error("flag --repeat expects a positive count", 2);
    } else if (a == "--tile") {
      o.tile = true;
    } else if (a == "--tile-sizes") {
      o.tile_sizes = parse_tile_sizes(a, value(i, a));
    } else if (a == "--tile-auto") {
      o.tile_auto = true;
    } else if (a == "--tile-band") {
      o.tile_band = flag_int(a, value(i, a));
      if (o.tile_band < 0)
        cli_error("flag --tile-band expects a non-negative band index", 2);
    } else if (a == "--tile-loops") {
      o.tile_loops = split_commas(value(i, a));
      for (const std::string& v : o.tile_loops)
        if (v.empty())
          cli_error("flag --tile-loops expects comma-separated loop names", 2);
    } else if (a == "--report") {
      o.tile_report = true;
    } else if (a.rfind("--", 0) == 0) {
      // Unknown flags used to fall through as positional arguments and
      // be silently ignored; fail loudly instead.
      cli_error("unknown flag '" + a + "'", 2);
    } else {
      o.args.push_back(a);
    }
  }
  // Partitioned runs have their own per-worker profiler (--profile);
  // the opcode profiler would silently skip them.
  if (o.vm_profile && o.exec_threads > 1)
    cli_error("--vm-profile profiles serial runs; drop --exec-threads", 2);
  return o;
}

IntMat parse_ops(const IvLayout& layout, const std::vector<std::string>& ops,
                 size_t from) {
  IntMat m = IntMat::identity(layout.size());
  size_t i = from;
  auto need = [&](size_t more) {
    if (i + more > ops.size())
      cli_error("malformed op near '" + ops[i - 1] + "'", 2);
  };
  std::string op;
  auto num = [&](size_t at) { return parse_int("op " + op, ops[at]); };
  while (i < ops.size()) {
    op = ops[i++];
    if (op == "interchange") {
      need(2);
      m = mat_mul(loop_interchange(layout, ops[i], ops[i + 1]), m);
      i += 2;
    } else if (op == "skew") {
      need(3);
      m = mat_mul(
          loop_skew(layout, ops[i], ops[i + 1], num(i + 2)), m);
      i += 3;
    } else if (op == "reverse") {
      need(1);
      m = mat_mul(loop_reversal(layout, ops[i]), m);
      i += 1;
    } else if (op == "scale") {
      need(2);
      m = mat_mul(loop_scaling(layout, ops[i], num(i + 1)), m);
      i += 2;
    } else if (op == "align") {
      need(3);
      m = mat_mul(statement_alignment(layout, ops[i], ops[i + 1], num(i + 2)),
                  m);
      i += 3;
    } else if (op == "reorder") {
      need(1);
      std::string parent = ops[i++];
      std::vector<int> perm;
      // Indices past int range cannot name a child: clamp them so
      // statement_reorder rejects them instead of wrapping around.
      while (i < ops.size() && !ops[i].empty() &&
             (std::isdigit(static_cast<unsigned char>(ops[i][0]))))
        perm.push_back(static_cast<int>(
            std::min<i64>(num(i++), std::numeric_limits<int>::max())));
      m = mat_mul(statement_reorder(layout, parent, perm), m);
    } else {
      cli_error("unknown op '" + op + "'", 2);
    }
  }
  return m;
}

// What the run report needs beyond the process-wide registries (Stats,
// Tracer, ExecProfiler and the native fallback reasons).
struct RunRecord {
  std::string command;
  std::string result;  // profile command: its JSON result object
  DiagnosticEngine diagnostics;
};

RunRecord g_run;

// The --report-json document: one JSON object with one top-level
// member per line, in a fixed order, so line-oriented tools can pick
// members out without a JSON parser. `diagnostics` comes last.
std::string report_json(const Options& opts, int rc) {
  const Stats& stats = Stats::global();
  std::ostringstream os;
  os << "{\n  \"command\":" << json_quote(g_run.command) << ",\n"
     << "  \"exit_code\":" << rc << ",\n"
     << "  \"engine\":{\"requested\":" << json_quote(engine_name(opts.engine))
     << ",\"runs\":{\"vm\":" << stats.value("exec.vm.runs")
     << ",\"partitioned\":" << stats.value("exec.par.runs")
     << ",\"native\":" << stats.value("exec.native.runs")
     << ",\"walker\":" << stats.value("exec.walker.runs")
     << "},\"fallbacks\":[";
  const std::vector<std::string> reasons = native_fallback_reasons();
  for (size_t i = 0; i < reasons.size(); ++i)
    os << (i ? "," : "") << json_quote(reasons[i]);
  os << "],\"partition_substitutions\":"
     << stats.value("exec.native.partition_substitutions") << "},\n"
     << "  \"stats\":" << stats.to_json() << ",\n";
  if (!opts.trace_out.empty())
    os << "  \"spans\":" << Tracer::global().summary_json() << ",\n";
  if (ExecProfiler::global().report_count() > 0)
    os << "  \"profile\":" << ExecProfiler::global().merged().to_json()
       << ",\n";
  if (!g_run.result.empty()) os << "  \"result\":" << g_run.result << ",\n";
  os << "  \"diagnostics\":" << g_run.diagnostics.to_json() << "\n}\n";
  return os.str();
}

// End-of-run telemetry: --stats counters, the profiler report, the
// Chrome trace file and the run report. Every exit path (success,
// diagnostics, errors) funnels through here so a partial run still
// leaves a usable trace and report. Returns `rc`.
int dump_stats(const Options& opts, int rc) {
  if (opts.stats) std::cerr << Stats::global().to_text();
  if (opts.profile && ExecProfiler::global().report_count() > 0)
    std::cerr << ExecProfiler::global().merged().to_text();
  if (!opts.trace_out.empty()) {
    std::ofstream out(opts.trace_out);
    if (!out) {
      std::cerr << "inltc: cannot write trace to " << opts.trace_out << "\n";
    } else {
      out << Tracer::global().chrome_trace_json() << "\n";
      std::cerr << "trace: " << Tracer::global().event_count()
                << " events -> " << opts.trace_out << "\n";
    }
  }
  if (!opts.report_json.empty()) {
    std::ofstream out(opts.report_json);
    if (!out)
      std::cerr << "inltc: cannot write report to " << opts.report_json
                << "\n";
    else
      out << report_json(opts, rc);
  }
  return rc;
}

// The parsed flags, once parse_flags has returned: from then on
// cli_error writes the run report and trace like every other exit.
const Options* g_opts = nullptr;

Diagnostic cli_diagnostic(const std::string& message) {
  Diagnostic d;
  d.stage = Stage::kCli;
  d.message = message;
  return d;
}

void cli_error(const std::string& message, int rc) {
  const Diagnostic d = cli_diagnostic(message);
  std::cerr << "inltc: " << d.render() << "\n";
  if (g_opts) {
    g_run.diagnostics.report(d);
    dump_stats(*g_opts, rc);
  }
  std::exit(rc);
}

// A failed run or refused candidate: the prose on stderr, the
// structured diagnostics (if any) into the run report; exit 1.
int fail(const Options& opts, const std::string& prose,
         const std::vector<Diagnostic>& diagnostics = {}) {
  std::cerr << "inltc: " << prose << "\n";
  for (const Diagnostic& d : diagnostics) g_run.diagnostics.report(d);
  return dump_stats(opts, 1);
}

// Progress line for long searches, rendered in place on stderr.
void render_progress(const SearchProgress& p) {
  std::ostringstream os;
  os << "search: " << p.done << "/" << p.total << " ("
     << static_cast<i64>(p.rate) << " cand/s, "
     << static_cast<i64>(p.prune_rate * 100) << "% pruned, " << p.legal
     << " legal, eta " << static_cast<i64>(p.eta_s) << "s)";
  std::cerr << "\r" << os.str() << (p.done >= p.total ? "\n" : "")
            << std::flush;
}

int emit_and_verify(const Program& source, const Program& result,
                    const Options& opts, const ExecPlan& plan) {
  std::cout << print_program(result);
  if (opts.verify_n > 0) {
    VerifyResult v =
        verify_equivalence(source, result, {{"N", opts.verify_n}},
                           FillKind::kSpd, 1, opts.engine, plan);
    TraceCheckResult t =
        check_dependence_order(source, result, {{"N", opts.verify_n}});
    std::cerr << "verify(N=" << opts.verify_n << "): " << v.to_string()
              << (t.ok ? "; dependence orders preserved"
                       : "; TRACE MISMATCH: " + t.diagnosis)
              << "\n";
    if (!v.equivalent || !t.ok) return 1;
  }
  return 0;
}

// Doall partitions for both sides of a --verify run at --exec-threads
// N: the source schedule as written and the candidate's target-space
// schedule. Analysis failures just mean serial verification.
ExecPlan exec_plan(TransformSession& session, const IntMat& m,
                   const Options& opts) {
  ExecPlan plan;
  plan.threads = opts.exec_threads;
  plan.vm_profile = opts.vm_profile;
  if (opts.exec_threads <= 1) return plan;
  const IvLayout& layout = session.layout();
  const DependenceSet& deps = session.dependences();
  try {
    plan.source_partition = source_parallel_schedule(layout, deps).partition;
    AstRecovery rec = recover_ast(layout, m);
    plan.target_partition =
        analyze_target_parallelism(layout, deps, m, rec).partition;
  } catch (const Error&) {
    plan.source_partition.clear();
    plan.target_partition.clear();
  }
  return plan;
}

// Evaluate `m` through the session; emit the program on success and
// the diagnostics on failure.
int run_candidate(TransformSession& session, const IntMat& m,
                  const Options& opts) {
  CandidateResult r = session.evaluate(m);
  if (!r.legal) return fail(opts, r.error, r.diagnostics);
  return dump_stats(opts, emit_and_verify(session.program(), *r.program, opts,
                                          exec_plan(session, m, opts)));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) usage();
  std::string cmd = argv[1];
  int first = 2;
  if (cmd.rfind("--", 0) == 0) {
    // Flags before any command: `inltc --search <file>` style.
    cmd.clear();
    first = 1;
  }
  Options opts = parse_flags(argc, argv, first);
  if (opts.search_flag) cmd = "search";
  if (cmd.empty() || opts.args.empty()) usage();
  // Search verification builds its own execution plans, which carry no
  // profiling: the flag would be dropped without a word.
  if (opts.vm_profile && (cmd == "search" || cmd == "rank"))
    cli_error("--vm-profile profiles transform/complete --verify runs; "
              "search and rank do not take it",
              2);
  g_opts = &opts;
  g_run.command = cmd;
  // Reject unknown commands before any file is read or analyzed.
  if (cmd != "analyze" && cmd != "transform" && cmd != "explain" &&
      cmd != "complete" && cmd != "search" && cmd != "rank" &&
      cmd != "parallel" && cmd != "profile" && cmd != "tile")
    cli_error("unknown command '" + cmd + "'", 2);
  std::string path = opts.args[0];
  if (!opts.trace_out.empty()) Tracer::global().enable();
  if (opts.stats || !opts.report_json.empty()) Stats::enable_timing();
  if (opts.profile || cmd == "profile") ExecProfiler::global().enable();

  try {
    SessionOptions sopts;
    sopts.analyzer = {opts.pad, 8};
    sopts.codegen = {opts.pad};
    sopts.exact = opts.exact;
    sopts.simplify = !opts.raw;
    sopts.threads = opts.threads;
    TransformSession session =
        TransformSession::from_source(read_source(path), sopts);
    const IvLayout& layout = session.layout();
    const DependenceSet& deps = session.dependences();

    if (cmd == "analyze") {
      std::cout << "instance-vector layout: " << layout.to_string() << "\n\n"
                << "dependences:\n";
      std::cout << deps.to_string();
      std::cout << "\ndoall loops:";
      for (const std::string& v : parallel_loops(layout, deps))
        std::cout << " " << v;
      std::cout << "\n";
      return dump_stats(opts, 0);
    }

    if (cmd == "transform") {
      IntMat m = parse_ops(layout, opts.args, 1);
      std::cerr << "matrix:\n" << mat_to_string(m) << "\n";
      return run_candidate(session, m, opts);
    }

    if (cmd == "explain") {
      IntMat m = parse_ops(layout, opts.args, 1);
      std::cerr << "matrix:\n" << mat_to_string(m) << "\n";
      AstRecovery rec = recover_ast(layout, m);
      LegalityTrace t = explain_legality(layout, deps, m, rec);
      std::cout << t.to_text(deps, *rec.target_layout);
      return dump_stats(opts, t.legal() ? 0 : 1);
    }

    if (cmd == "complete") {
      std::vector<IntVec> rows;
      for (size_t i = 1; i < opts.args.size(); ++i) {
        IntVec r(layout.size(), 0);
        r[layout.loop_position(opts.args[i])] = 1;
        rows.push_back(std::move(r));
      }
      CompletionResult res = complete_transformation(layout, deps, rows);
      std::cerr << "completed matrix:\n" << mat_to_string(res.matrix)
                << "\n";
      return run_candidate(session, res.matrix, opts);
    }

    if (cmd == "search" || cmd == "rank") {
      // `rank` is search configured as the rank pipeline: legality
      // filter + Cost stage, keeping the best K hits by estimated
      // cache lines (default 5).
      const bool rank = cmd == "rank";
      SearchSpace space{opts.skew_bound, opts.skew_depth};
      SearchOptions search_opts;
      search_opts.mode = opts.full && !rank ? SearchMode::kFull
                                            : SearchMode::kLegalityOnly;
      search_opts.cost = opts.cost || rank;
      search_opts.top_k = rank && opts.top_k == 0 ? 5 : opts.top_k;
      if (opts.progress) search_opts.progress = render_progress;
      search_opts.exec_threads = opts.exec_threads;
      if (opts.full && opts.verify_n > 0) {
        search_opts.verify_params = {{"N", opts.verify_n}};
        search_opts.verify_engine = opts.engine;
      }
      TileOptions tile_opts;
      tile_opts.sizes = opts.tile_sizes;
      tile_opts.band = static_cast<int>(opts.tile_band);
      tile_opts.loops = opts.tile_loops;
      tile_opts.auto_select = opts.tile_auto;
      if (opts.tile) {
        if (rank) {
          // Rank never generates code; hits are annotated with a tile
          // plan after the search instead (below).
        } else if (!opts.full) {
          cli_error("--tile on search requires --full (tiling rewrites "
                    "generated code)",
                    2);
        } else {
          search_opts.tile = true;
          search_opts.tile_opts = tile_opts;
        }
      }
      SearchResult res = session.search(space, search_opts);
      std::cout << "search space: " << res.stats.candidates_total
                << " candidates (skew bound " << opts.skew_bound << ", depth "
                << opts.skew_depth << ")\n"
                << "legal: " << res.stats.legal
                << "  evaluated: " << res.stats.evaluated
                << "  pruned: " << res.stats.pruned_candidates << " ("
                << res.stats.pruned_subtrees << " subtrees)\n";
      if (res.stats.verified > 0)
        std::cout << "verified: " << res.stats.verified << " (N="
                  << opts.verify_n << "), mismatches: "
                  << res.stats.verify_failed << "\n";
      if (res.rejections.rejected > 0)
        std::cout << res.rejections.to_text(deps);
      const bool ranked = search_opts.top_k > 0;
      if (ranked)
        std::cout << "ranking: best " << res.hits.size() << " of "
                  << res.stats.legal
                  << " legal candidates by estimated cache lines\n";
      i64 position = 0;
      for (const SearchHit& h : res.hits) {
        ++position;
        if (ranked)
          std::cout << "\nrank " << position << ": candidate #" << h.index
                    << "\n" << mat_to_string(h.matrix);
        else
          std::cout << "\nlegal candidate #" << h.index << ":\n"
                    << mat_to_string(h.matrix);
        if (h.cost) std::cout << h.cost->to_text();
        if (h.tile) std::cout << h.tile->to_text();
        if (rank && opts.tile) {
          // Annotate the ranked hit with a tile plan for its generated
          // program; plan failures report inline rather than aborting
          // the ranking.
          try {
            CandidateResult r = session.evaluate(h.matrix);
            if (r.legal && r.program)
              std::cout << apply_tile(*r.program, tile_opts).plan.to_text();
          } catch (const Error& e) {
            std::cout << "tile plan: error: " << e.what() << "\n";
          }
        }
        if (!h.result.legality.unsatisfied.empty()) {
          std::cout << "unsatisfied self-dependences:";
          for (int d : h.result.legality.unsatisfied) std::cout << " " << d;
          std::cout << "\n";
        }
        if (h.result.verify)
          std::cout << "verify: " << h.result.verify->to_string() << "\n";
        if (opts.full && !rank && h.result.program)
          std::cout << print_program(*h.result.program);
      }
      return dump_stats(opts, 0);
    }

    if (cmd == "profile") {
      // Two profiling modes. Default: measure the nest's partitioned
      // execution — serial reference run first, then --repeat profiled
      // runs at --exec-threads with the schedule's doall levels chunked
      // — the measured counterpart of `rank`'s static cost estimate.
      // With --engine E: time --repeat serial runs on that engine; the
      // native engine additionally splits its wall time into the
      // out-of-process C compile vs. kernel execution.
      IntMat m = opts.args.size() > 1 ? parse_ops(layout, opts.args, 1)
                                      : IntMat::identity(layout.size());
      Program prog = session.program();
      if (opts.args.size() > 1) {
        CandidateResult r = session.evaluate(m);
        if (!r.legal) return fail(opts, r.error, r.diagnostics);
        prog = *r.program;
      }

      if (opts.engine_set) {
        if (opts.exec_threads > 1)
          cli_error("profile --engine is serial; drop --exec-threads", 2);
        std::map<std::string, i64> params{{"N", opts.n}};
        InterpOptions eng;
        eng.engine = opts.engine;
        StatsSnapshot s0 = Stats::global().snapshot();
        i64 wall = 0;
        InterpStats last{};
        for (i64 r = 0; r < opts.repeat; ++r) {
          Memory emem;
          declare_arrays(prog, params, emem);
          fill_spd(emem, 1);
          i64 t0 = profile_now_ns();
          last = interpret(prog, params, emem, eng);
          wall += profile_now_ns() - t0;
        }
        StatsSnapshot d = Stats::global().snapshot() - s0;
        auto timer_ns = [&](const char* key) {
          auto it = d.timers.find(key);
          return it == d.timers.end() ? i64{0} : it->second.ns;
        };
        const i64 compile_ns = timer_ns("exec.native.compile_ns");
        const i64 run_ns = timer_ns("exec.native.run_ns");
        const char* ename = engine_name(opts.engine);
        std::ostringstream result;
        result << "{\"engine\":" << json_quote(ename) << ",\"n\":" << opts.n
               << ",\"repeat\":" << opts.repeat << ",\"wall_ns\":" << wall
               << ",\"instances\":" << last.instances
               << ",\"native\":{\"compile_ns\":" << compile_ns
               << ",\"run_ns\":" << run_ns
               << ",\"compiles\":" << d.counter("exec.native.compiles")
               << ",\"disk_hits\":" << d.counter("exec.native.disk_hits")
               << ",\"lru_hits\":" << d.counter("exec.native.lru_hits")
               << ",\"fallbacks\":" << d.counter("exec.native.fallbacks")
               << "}}";
        g_run.result = result.str();
        std::cout << "engine: " << ename << "  N=" << opts.n << "  "
                  << opts.repeat << " run" << (opts.repeat == 1 ? "" : "s")
                  << "\nwall: " << std::fixed << std::setprecision(3)
                  << static_cast<double>(wall) / 1e6 << " ms  ("
                  << last.instances << " instances/run)\n";
        if (opts.engine == ExecEngine::kNative) {
          const i64 compiles = d.counter("exec.native.compiles");
          std::cout << "native compile: "
                    << static_cast<double>(compile_ns) / 1e6 << " ms ("
                    << compiles << " compile" << (compiles == 1 ? "" : "s")
                    << ", " << d.counter("exec.native.disk_hits")
                    << " disk + " << d.counter("exec.native.lru_hits")
                    << " lru hits)  kernel run: "
                    << static_cast<double>(run_ns) / 1e6 << " ms\n";
          if (d.counter("exec.native.fallbacks") > 0)
            std::cout << "native fallbacks: "
                      << d.counter("exec.native.fallbacks")
                      << " (the VM executed instead)\n";
        }
        return dump_stats(opts, 0);
      }

      if (opts.exec_threads <= 1)
        cli_error("profile requires --exec-threads >= 2 (or --engine E)", 2);
      AstRecovery rec = recover_ast(layout, m);
      ParallelSchedule sched =
          analyze_target_parallelism(layout, deps, m, rec);
      if (sched.partition.empty())
        cli_error(
            "the schedule has no doall level to partition "
            "(see `inltc parallel`)",
            1);
      std::map<std::string, i64> params{{"N", opts.n}};

      Memory smem;
      declare_arrays(prog, params, smem);
      fill_spd(smem, 1);
      i64 t0 = profile_now_ns();
      interpret(prog, params, smem, {});
      i64 serial_wall = profile_now_ns() - t0;

      ExecProfiler::global().clear();
      InterpOptions par;
      par.num_threads = opts.exec_threads;
      par.partition = sched.partition;
      i64 par_wall = 0;
      for (i64 r = 0; r < opts.repeat; ++r) {
        Memory pmem;
        declare_arrays(prog, params, pmem);
        fill_spd(pmem, 1);
        i64 p0 = profile_now_ns();
        interpret(prog, params, pmem, par);
        par_wall += profile_now_ns() - p0;
      }

      ProfileReport rep = ExecProfiler::global().merged();
      ModelOptions mo;
      mo.exec_threads = opts.exec_threads;
      CostEstimate est = estimate_cost(layout, deps, m, rec, mo);
      rep.predicted_parallel_fraction = est.parallel_fraction;
      double f = est.parallel_fraction;
      rep.predicted_speedup =
          1.0 / ((1.0 - f) + f / static_cast<double>(opts.exec_threads));
      double measured_speedup =
          par_wall > 0 ? static_cast<double>(serial_wall) *
                             static_cast<double>(opts.repeat) /
                             static_cast<double>(par_wall)
                       : 0.0;

      // The report's `profile` member is the measured ProfileReport;
      // the model's prediction rides in the result beside it.
      std::ostringstream result;
      result << "{\"n\":" << opts.n << ",\"threads\":" << opts.exec_threads
             << ",\"repeat\":" << opts.repeat << ",\"wavefront\":"
             << (sched.wavefront ? "true" : "false") << ",\"partition\":[";
      for (size_t i = 0; i < sched.partition.size(); ++i)
        result << (i ? "," : "") << json_quote(sched.partition[i]);
      result << "],\"serial_wall_ns\":" << serial_wall
             << ",\"parallel_wall_ns\":" << par_wall
             << ",\"measured_speedup\":" << measured_speedup
             << ",\"predicted_parallel_fraction\":"
             << rep.predicted_parallel_fraction
             << ",\"predicted_speedup\":" << rep.predicted_speedup << "}";
      g_run.result = result.str();
      std::cout << "schedule:";
      for (const std::string& v : sched.partition) std::cout << " " << v;
      std::cout << (sched.wavefront ? " (wavefront)" : " (doall)")
                << "  N=" << opts.n << "\n"
                << "serial wall: " << std::fixed << std::setprecision(3)
                << static_cast<double>(serial_wall) / 1e6
                << " ms  parallel wall: "
                << static_cast<double>(par_wall) / 1e6 << " ms ("
                << opts.repeat << " run" << (opts.repeat == 1 ? "" : "s")
                << ")  measured speedup: " << std::setprecision(2)
                << measured_speedup << "x\n"
                << rep.to_text();
      return dump_stats(opts, 0);
    }

    if (cmd == "tile") {
      // Transform first (ops compose exactly like `transform`), then
      // tile the resulting nest: detect fully-permutable bands on the
      // generated program, plan band + sizes, materialize the rewrite.
      IntMat m = opts.args.size() > 1 ? parse_ops(layout, opts.args, 1)
                                      : IntMat::identity(layout.size());
      Program prog = session.program();
      if (opts.args.size() > 1) {
        std::cerr << "matrix:\n" << mat_to_string(m) << "\n";
        CandidateResult r = session.evaluate(m);
        if (!r.legal) return fail(opts, r.error, r.diagnostics);
        prog = *r.program;
      }

      if (opts.tile_report) {
        IvLayout tlayout(prog);
        DependenceSet tdeps;
        try {
          tdeps = analyze_dependences(tlayout, sopts.analyzer);
        } catch (const InvalidProgramError& e) {
          cli_error(
              std::string("cannot analyze the program for tiling: ") +
                  e.what(),
              1);
        }
        std::cout << detect_bands(tlayout, tdeps).to_text(tlayout, tdeps);
        return dump_stats(opts, 0);
      }

      TileOptions topts;
      topts.sizes = opts.tile_sizes;
      topts.band = static_cast<int>(opts.tile_band);
      topts.loops = opts.tile_loops;
      topts.auto_select = opts.tile_auto;
      // An explicit band or sizes is a direct request: apply it even
      // when the model predicts no gain. Auto mode lets the model
      // decide.
      topts.force = !opts.tile_sizes.empty() || !opts.tile_loops.empty() ||
                    opts.tile_band >= 0;
      ModelOptions tile_model;
      tile_model.exec_threads = opts.exec_threads;
      TiledProgram tp;
      try {
        tp = apply_tile(prog, topts, tile_model);
      } catch (const TileError& e) {
        const std::string what = e.what();
        // Out-of-range band indices are invocation errors (exit 2);
        // everything else (non-permutable chains, unsupported bound
        // shapes) is a legality/runtime failure (exit 1).
        cli_error(what, what.find("out of range") != std::string::npos ? 2
                                                                       : 1);
      }
      std::cerr << tp.plan.to_text();
      const Program& out = tp.program ? *tp.program : prog;
      ExecPlan eplan = exec_plan(session, m, opts);
      if (tp.plan.applied)
        eplan.target_partition = tiled_partition(
            eplan.target_partition, tp.plan.spec, tp.plan.tile_vars);
      return dump_stats(opts,
                        emit_and_verify(session.program(), out, opts, eplan));
    }

    if (cmd == "parallel") {
      std::cout << "doall loops:";
      for (const std::string& v : parallel_loops(layout, deps))
        std::cout << " " << v;
      std::cout << "\nparallel direction basis:\n";
      for (const IntVec& r : parallel_row_basis(layout, deps))
        std::cout << "  " << vec_to_string(r) << "\n";
      std::cout << "\nsource schedule:\n"
                << source_parallel_schedule(layout, deps).to_text(deps);
      if (opts.args.size() > 1) {
        IntMat m = parse_ops(layout, opts.args, 1);
        std::cerr << "matrix:\n" << mat_to_string(m) << "\n";
        AstRecovery rec = recover_ast(layout, m);
        std::cout << "\ntransformed schedule:\n"
                  << analyze_target_parallelism(layout, deps, m, rec)
                         .to_text(deps);
      }
      return dump_stats(opts, 0);
    }

    cli_error("unknown command '" + cmd + "'", 2);
  } catch (const DiagnosedTransformError& e) {
    return fail(opts, e.what(), e.diagnostics());
  } catch (const Error& e) {
    return fail(opts, e.what(), {cli_diagnostic(e.what())});
  }
}
