// Inputs, spans, counters and the JSON result line shared by the
// workloads.
#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
#include <stdexcept>

#include "bench.hpp"
#include "ir/gallery.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "support/json.hpp"

namespace perfbench {

// ---- inputs -------------------------------------------------------

Input load_input(const Config& cfg, const std::string& name) {
  std::string path;
  if (name == "cholesky")
    path = cfg.root + "/tools/testdata/cholesky.loop";
  else if (name == "lu")
    path = cfg.root + "/perfbench/inputs/lu.loop";
  else
    throw std::runtime_error("unknown input " + name);
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return {name, ss.str()};
}

void check_inputs(const Config& cfg, Checks* checks) {
  const Input lu = load_input(cfg, "lu");
  checks->expect(inlt::print_program(inlt::parse_program(lu.source)) ==
                     inlt::print_program(inlt::gallery::lu()),
                 "perfbench/inputs/lu.loop does not print as gallery::lu()");
}

void settle_heap() {
  // A request above the small-bin sizes makes glibc consolidate the
  // chunks freed into this thread's arena.
  void* volatile block = std::malloc(std::size_t{1} << 16);
  std::free(block);
}

PinToNextCpu::PinToNextCpu() {
  sched_getaffinity(0, sizeof saved_, &saved_);
  static int turn = 0;
  const int n = CPU_COUNT(&saved_);
  int pick = turn++ % n;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &saved_) || pick-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    sched_setaffinity(0, sizeof one, &one);
    return;
  }
}

PinToNextCpu::~PinToNextCpu() { sched_setaffinity(0, sizeof saved_, &saved_); }

// ---- spans --------------------------------------------------------

namespace {

i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

void SpanRecorder::open(const std::string& name) {
  auto [id, fresh] = ids_.emplace(name, static_cast<int>(names_.size()));
  if (fresh) names_.push_back(name);
  Span s;
  s.name = id->second;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.iteration = iteration_;
  s.start_ns = now_ns();
  spans_.push_back(s);
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
}

void SpanRecorder::close() {
  spans_[stack_.back()].end_ns = now_ns();
  stack_.pop_back();
}

std::map<std::string, i64> SpanRecorder::self_ns() const {
  std::vector<i64> child(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child[s.parent] += s.end_ns - s.start_ns;
  std::map<std::string, i64> out;
  for (size_t i = 0; i < spans_.size(); ++i)
    out[names_[spans_[i].name]] +=
        spans_[i].end_ns - spans_[i].start_ns - child[i];
  return out;
}

std::map<std::string, i64> SpanRecorder::counts(int iteration) const {
  std::map<std::string, i64> out;
  for (const Span& s : spans_)
    if (s.iteration == iteration) ++out[names_[s.name]];
  return out;
}

i64 SpanRecorder::root_ns(int iteration) const {
  i64 ns = 0;
  for (const Span& s : spans_)
    if (s.parent < 0 && s.iteration == iteration) ns += s.end_ns - s.start_ns;
  return ns;
}

void SpanRecorder::write_tsv(const std::string& path) const {
  std::ofstream out(path);
  out << "iteration\tname\tparent\tstart_ns\tend_ns\n";
  for (const Span& s : spans_)
    out << s.iteration << '\t' << names_[s.name] << '\t' << s.parent << '\t'
        << s.start_ns << '\t' << s.end_ns << '\n';
}

// ---- counters -----------------------------------------------------

std::map<std::string, i64> layer_counts(const inlt::StatsSnapshot& d) {
  static const char* const kCounters[] = {
      "fm.eliminations",        "fm.cache_hits",
      "fm.cache_misses",        "incremental.pushes",
      "incremental.memo_hits",  "model.estimates",
      "exec.native.compiles",   "exec.native.lru_hits",
      "exec.native.disk_hits",  "exec.native.fallbacks",
      "exec.native.compile_failures", "exec.native.instances",
      "exec.vm.instances",      "exec.par.instances",
      "exec.verify.errors",
  };
  std::map<std::string, i64> out;
  for (const char* c : kCounters) out[c] = d.counter(c);
  return out;
}

void add_counts(std::map<std::string, i64>* into,
                const std::map<std::string, i64>& more) {
  for (const auto& [k, v] : more) (*into)[k] += v;
}

i64 count_nodes(const inlt::Program& p) {
  i64 n = 0;
  inlt::walk(p, [&](const inlt::Node&, const std::vector<const inlt::Node*>&) {
    ++n;
  });
  return n;
}

// ---- JSON ---------------------------------------------------------

std::string Json::done() const {
  std::string s(1, '{');
  s += body_.str();
  s += '}';
  return s;
}

std::ostringstream& Json::key(const std::string& k) {
  if (!first_) body_ << ",";
  first_ = false;
  body_ << inlt::json_quote(k) << ":";
  return body_;
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

}  // namespace

Json& Json::num(const std::string& k, double v) {
  key(k) << number(v);
  return *this;
}

Json& Json::integer(const std::string& k, i64 v) {
  key(k) << v;
  return *this;
}

Json& Json::str(const std::string& k, const std::string& v) {
  key(k) << inlt::json_quote(v);
  return *this;
}

Json& Json::raw(const std::string& k, const std::string& json) {
  key(k) << json;
  return *this;
}

namespace {

template <class T, class F>
void write_list(std::ostringstream& os, const std::vector<T>& v, F item) {
  os << "[";
  for (size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << item(v[i]);
  os << "]";
}

}  // namespace

Json& Json::nums(const std::string& k, const std::vector<double>& v) {
  write_list(key(k), v, number);
  return *this;
}

Json& Json::ints(const std::string& k, const std::vector<i64>& v) {
  write_list(key(k), v, [](i64 x) { return x; });
  return *this;
}

Json& Json::strs(const std::string& k, const std::vector<std::string>& v) {
  write_list(key(k), v, inlt::json_quote);
  return *this;
}

Json& Json::int_map(const std::string& k, const std::map<std::string, i64>& m) {
  Json o;
  for (const auto& [name, v] : m) o.integer(name, v);
  return raw(k, o.done());
}

Json& Json::num_map(const std::string& k,
                    const std::map<std::string, double>& m) {
  Json o;
  for (const auto& [name, v] : m) o.num(name, v);
  return raw(k, o.done());
}

std::string finish(Json& j, const Checks& checks) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return j.integer("attempted", checks.attempted)
      .integer("failed", checks.failed)
      .strs("failures", checks.failures)
      .num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0)
      .done();
}

void trace_fields(Json& j, const Config& cfg, const SpanRecorder& rec,
                  const std::vector<double>& traced_s,
                  const std::vector<double>& untraced_s,
                  const std::vector<std::map<std::string, i64>>& counts,
                  Checks* checks) {
  for (size_t i = 1; i < counts.size(); ++i)
    checks->expect(counts[i] == counts[0],
                   cfg.workload + ": work counts differ between traced "
                                  "iterations");
  const std::string spans = cfg.out_dir + "/spans-" + cfg.workload + ".tsv";
  rec.write_tsv(spans);
  const double n = static_cast<double>(traced_s.size());
  std::map<std::string, double> self_ms;
  for (const auto& [name, ns] : rec.self_ns())
    self_ms[name] = static_cast<double>(ns) * 1e-6 / n;
  j.integer("threads", 1)
      .integer("exec_threads", cfg.threads)
      .integer("iterations", static_cast<i64>(traced_s.size()))
      .nums("traced_s", traced_s)
      .nums("untraced_s", untraced_s)
      .num_map("self_ms", self_ms)
      .int_map("span_counts", rec.counts(0))
      .int_map("counts", counts.at(0))
      .str("spans_file", spans);
}

std::string outcome_json(const Outcome& o) {
  return Json()
      .integer("candidates", o.candidates)
      .integer("legal", o.legal)
      .integer("verified", o.verified)
      .integer("verify_failed", o.verify_failed)
      .ints("ranked", o.ranked)
      .done();
}

}  // namespace perfbench
