// Shared pieces of the perfbench binary.
//
// The binary runs one workload and prints one JSON line of raw
// measurements (samples, counts, outcomes, check results); run.py
// turns it into the named metrics and checks the outcomes against
// perfbench/ledger.json.
#pragma once

#include <sched.h>

#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "pipeline/search.hpp"
#include "support/stats.hpp"

namespace perfbench {

using inlt::i64;

struct Config {
  std::string workload;
  unsigned seed = 1;  ///< verify fill, array fill and run order
  double seconds = 10;
  bool trace = false;
  std::string root;     ///< checkout root: inputs are read from here
  std::string out_dir;  ///< spans and other run output
  int threads = 1;      ///< session workers and exec threads
};

/// One kernel fed to the pipelines: name plus .loop source text.
struct Input {
  std::string name;
  std::string source;
};

/// "cholesky" reads tools/testdata/cholesky.loop; "lu" reads the
/// benchmark's own perfbench/inputs/lu.loop.
Input load_input(const Config& cfg, const std::string& name);

/// The search workloads' parameters (the CLI flags they mirror).
struct SearchWorkload {
  std::string name;
  std::vector<std::string> inputs;
  inlt::SearchSpace space;
  bool full = false;  ///< search --full (codegen) vs rank (no code)
  bool tile = false;  ///< --tile
  i64 verify_n = 0;   ///< --verify N (0: none)
  inlt::ExecEngine engine = inlt::ExecEngine::kVm;
  i64 top_k = 0;             ///< rank --top K
  bool cold_native = false;  ///< empty compile caches per pipeline call
};

/// nullptr for run_generated or an unknown name.
const SearchWorkload* find_search_workload(const std::string& name);

/// SessionOptions and SearchOptions for a workload, as the CLI builds
/// them, with an explicit worker-thread count.
inlt::SessionOptions session_options(int threads);
inlt::SearchOptions search_options(const SearchWorkload& w, unsigned seed);

/// Machine-independent outcome of one pipeline call: what traced and
/// untraced runs, and repeated iterations, must agree on.
struct Outcome {
  i64 candidates = 0;
  i64 legal = 0;
  i64 verified = 0;
  i64 verify_failed = 0;
  /// Candidate indices in rank order: the top-K for rank, the rank-1
  /// hit for a full search with cost.
  std::vector<i64> ranked;

  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const inlt::SearchResult& r, const SearchWorkload& w);

/// Pass/fail bookkeeping: every check is one attempted operation.
struct Checks {
  i64 attempted = 0;
  i64 failed = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) { tally(1, ok ? 0 : 1, what); }

  /// `n` operations of which `bad` failed.
  void tally(i64 n, i64 bad, const std::string& what) {
    attempted += n;
    failed += bad;
    if (bad > 0 && failures.size() < 20) failures.push_back(what);
  }
};

/// Check that perfbench/inputs/lu.loop prints as gallery::lu().
void check_inputs(const Config& cfg, Checks* checks);

// ---- timing ----------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Whether a timed loop that started at `start` and has `n` samples
/// continues: until `seconds` have passed and the tail percentile has
/// ten samples beyond it (n > 10), but never past three times
/// `seconds` once it has a sample.
inline bool keep_measuring(Clock::time_point start, double seconds, size_t n) {
  const double t = seconds_since(start);
  if (n == 0) return true;
  if (t >= 3 * seconds) return false;
  return t < seconds || n < 11;
}

/// Finish the allocator work that the previous iteration's frees left
/// behind: freeing a large search result defers consolidation to the
/// next large allocation, which would otherwise land in the set-up
/// timing or in whichever layer span allocates first.
void settle_heap();

/// Pins the calling thread, while alive, to one of the CPUs the process
/// may use — the next one on each construction — and restores the mask
/// on destruction. Set-up is mostly single-threaded, so unpinned it
/// measures whichever CPU the scheduler keeps it on for the whole run;
/// on a shared host one slow CPU then decides a run's set-up median.
class PinToNextCpu {
 public:
  PinToNextCpu();
  ~PinToNextCpu();
  PinToNextCpu(const PinToNextCpu&) = delete;
  PinToNextCpu& operator=(const PinToNextCpu&) = delete;

 private:
  cpu_set_t saved_;
};

/// Empty the in-process handle LRU and the on-disk compile cache, so
/// the next native_prepare compiles from scratch.
void reset_native_caches();

// ---- tracing ---------------------------------------------------------

/// Spans of the traced run, kept in memory and written out at the end.
/// A span is one call into a layer's public function, made by the
/// benchmark's own code; spans nest by the order they open.
class SpanRecorder {
 public:
  void open(const std::string& name);
  void close();
  /// Iteration id stamped on spans opened from now on.
  void set_iteration(int it) { iteration_ = it; }

  /// Self time (duration minus the part covered by child spans), summed
  /// per span name over all iterations.
  std::map<std::string, i64> self_ns() const;
  /// Number of spans per name in one iteration.
  std::map<std::string, i64> counts(int iteration) const;
  /// Wall time of the root spans of one iteration.
  i64 root_ns(int iteration) const;

  /// One span per line: iteration, name, parent, start, end (ns).
  void write_tsv(const std::string& path) const;

 private:
  struct Span {
    int name = 0;
    int parent = -1;
    int iteration = 0;
    i64 start_ns = 0;
    i64 end_ns = 0;
  };

  std::vector<std::string> names_;
  std::map<std::string, int> ids_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int iteration_ = 0;
};

/// RAII span; records nothing when the recorder is null.
class Scope {
 public:
  Scope(SpanRecorder* rec, const std::string& name) : rec_(rec) {
    if (rec_) rec_->open(name);
  }
  ~Scope() {
    if (rec_) rec_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* rec_;
};

/// Return `f()`, called inside a span named `name`.
template <class F>
auto in_span(SpanRecorder* rec, const char* name, F&& f) {
  Scope s(rec, name);
  return f();
}

/// The Stats counters the layer metrics read, as deltas.
std::map<std::string, i64> layer_counts(const inlt::StatsSnapshot& delta);

/// (*into)[k] += more[k] for every key.
void add_counts(std::map<std::string, i64>* into,
                const std::map<std::string, i64>& more);

/// AST nodes (loops and statements) of a program.
i64 count_nodes(const inlt::Program& p);

/// A parsed, laid-out and analyzed source program. Heap-held: the
/// layout points into the program.
struct Analyzed {
  inlt::Program program;
  std::optional<inlt::IvLayout> layout;
  inlt::DependenceSet deps;
};

/// parse_program, IvLayout, analyze_dependences — one span each.
std::unique_ptr<Analyzed> analyze_traced(const Input& in, SpanRecorder* rec);

/// TransformSession::search for one analyzed input, rebuilt from the
/// layers' public functions at one thread with a span per call; returns
/// what search() returns. Work counts no Stats counter holds are added
/// to `work` (codegen.output_nodes, tile.applied, tile.attempted,
/// transform.evaluated, dependence.deps).
inlt::SearchResult search_traced(const Config& cfg, const SearchWorkload& w,
                                 const Analyzed& a, SpanRecorder* rec,
                                 std::map<std::string, i64>* work);

// ---- results ---------------------------------------------------------

/// Minimal JSON object writer: keys in insertion order.
class Json {
 public:
  Json& num(const std::string& key, double v);
  Json& integer(const std::string& key, i64 v);
  Json& str(const std::string& key, const std::string& v);
  Json& raw(const std::string& key, const std::string& json);
  Json& nums(const std::string& key, const std::vector<double>& v);
  Json& ints(const std::string& key, const std::vector<i64>& v);
  Json& strs(const std::string& key, const std::vector<std::string>& v);
  Json& int_map(const std::string& key, const std::map<std::string, i64>& m);
  Json& num_map(const std::string& key,
                const std::map<std::string, double>& m);
  std::string done() const;

 private:
  std::ostringstream& key(const std::string& k);
  std::ostringstream body_;
  bool first_ = true;
};

std::string outcome_json(const Outcome& o);

/// Close a result line with the check counts and the peak resident set
/// of the process.
std::string finish(Json& j, const Checks& checks);

/// The trace-mode fields: per-layer self times (ms per traced
/// iteration), span counts, walls of traced and untraced iterations,
/// and the first iteration's work counts, checked to repeat exactly in
/// every later iteration. Writes the spans to <out_dir>/spans-*.tsv.
void trace_fields(Json& j, const Config& cfg, const SpanRecorder& rec,
                  const std::vector<double>& traced_s,
                  const std::vector<double>& untraced_s,
                  const std::vector<std::map<std::string, i64>>& counts,
                  Checks* checks);

/// Entry points: each runs one workload, starting from the checks
/// main() already made, and returns its result line.
std::string run_search_workload(const Config& cfg, Checks checks);
std::string run_generated_workload(const Config& cfg, Checks checks);

}  // namespace perfbench
