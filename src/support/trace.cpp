#include "support/trace.hpp"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <map>
#include <sstream>

#include "support/json.hpp"

namespace inlt {

namespace {

i64 steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer& Tracer::global() {
  static Tracer t;
  return t;
}

i64 Tracer::now_ns() const {
  return steady_ns() - epoch_ns_.load(std::memory_order_relaxed);
}

void Tracer::enable() {
  epoch_ns_.store(steady_ns(), std::memory_order_relaxed);
  g_enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::disable() {
  g_enabled_.store(false, std::memory_order_relaxed);
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  // The shared_ptr keeps the buffer alive in the registry even after
  // the owning thread exits, so export never races thread teardown.
  thread_local std::shared_ptr<ThreadBuffer> buf;
  if (!buf) {
    buf = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(mu_);
    buf->tid = next_tid_++;
    buffers_.push_back(buf);
  }
  return *buf;
}

void Tracer::record(TraceEvent e) {
  ThreadBuffer& buf = local_buffer();
  e.tid = buf.tid;
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.events.push_back(std::move(e));
}

void Tracer::counter(const char* name, const char* cat, const char* key,
                     i64 value) {
  if (!enabled()) return;
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.start_ns = now_ns();
  e.ph = 'C';
  e.args.push_back(TraceArg{key, std::to_string(value), false});
  record(std::move(e));
}

void Tracer::set_thread_name(const std::string& name) {
  ThreadBuffer& buf = local_buffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.name = name;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buf : buffers_) {
    std::lock_guard<std::mutex> bl(buf->mu);
    buf->events.clear();
  }
}

size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> bl(buf->mu);
    n += buf->events.size();
  }
  return n;
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buf : buffers_) {
      std::lock_guard<std::mutex> bl(buf->mu);
      out.insert(out.end(), buf->events.begin(), buf->events.end());
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_ns < b.start_ns;
                   });
  return out;
}

std::string Tracer::chrome_trace_json() const {
  std::vector<TraceEvent> evs = events();
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  // Thread-name metadata first, so Perfetto labels the worker tracks.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buf : buffers_) {
      std::lock_guard<std::mutex> bl(buf->mu);
      if (buf->name.empty()) continue;
      if (!first) os << ",\n";
      first = false;
      os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
         << buf->tid << ",\"args\":{\"name\":\"" << json_escape(buf->name)
         << "\"}}";
    }
  }
  for (const TraceEvent& e : evs) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\""
       << json_escape(e.cat) << "\",\"ph\":\"" << e.ph
       << "\",\"ts\":" << std::fixed << std::setprecision(3)
       << static_cast<double>(e.start_ns) / 1000.0;
    if (e.ph == 'X')
      os << ",\"dur\":" << static_cast<double>(e.dur_ns) / 1000.0;
    os << ",\"pid\":1,\"tid\":" << e.tid;
    if (!e.args.empty()) {
      os << ",\"args\":{";
      bool afirst = true;
      for (const TraceArg& a : e.args) {
        if (!afirst) os << ",";
        afirst = false;
        os << "\"" << json_escape(a.key) << "\":";
        if (a.is_string)
          os << "\"" << json_escape(a.value) << "\"";
        else
          os << a.value;
      }
      os << "}";
    }
    os << "}";
  }
  os << "]}\n";
  return os.str();
}

namespace {

struct Agg {
  i64 count = 0;
  i64 total_ns = 0;
};

// cat -> (name -> aggregate); the per-category rollup is the sum of
// its names. Counter samples carry no duration and stay out of the
// wall-time summaries.
std::map<std::string, std::map<std::string, Agg>> aggregate(
    const std::vector<TraceEvent>& evs) {
  std::map<std::string, std::map<std::string, Agg>> by_cat;
  for (const TraceEvent& e : evs) {
    if (e.ph != 'X') continue;
    Agg& a = by_cat[e.cat][e.name];
    ++a.count;
    a.total_ns += e.dur_ns;
  }
  return by_cat;
}

}  // namespace

std::string Tracer::summary_json() const {
  auto by_cat = aggregate(events());
  std::ostringstream os;
  os << "{\"categories\":{";
  bool cfirst = true;
  for (const auto& [cat, names] : by_cat) {
    Agg roll;
    for (const auto& [name, a] : names) {
      roll.count += a.count;
      roll.total_ns += a.total_ns;
    }
    if (!cfirst) os << ",";
    cfirst = false;
    os << "\"" << json_escape(cat) << "\":{\"count\":" << roll.count
       << ",\"total_ns\":" << roll.total_ns << ",\"names\":{";
    bool nfirst = true;
    for (const auto& [name, a] : names) {
      if (!nfirst) os << ",";
      nfirst = false;
      os << "\"" << json_escape(name) << "\":{\"count\":" << a.count
         << ",\"total_ns\":" << a.total_ns << "}";
    }
    os << "}}";
  }
  os << "}}";
  return os.str();
}

void ScopedSpan::arg(const char* key, i64 v) {
  if (!active_) return;
  args_.push_back(TraceArg{key, std::to_string(v), false});
}

void ScopedSpan::arg(const char* key, const std::string& v) {
  if (!active_) return;
  args_.push_back(TraceArg{key, v, true});
}

void ScopedSpan::arg(const char* key, const char* v) {
  if (!active_) return;
  args_.push_back(TraceArg{key, v, true});
}

void ScopedSpan::arg(const char* key, bool v) {
  if (!active_) return;
  args_.push_back(TraceArg{key, v ? "true" : "false", false});
}

void ScopedSpan::finish() {
  Tracer& tracer = Tracer::global();
  TraceEvent e;
  e.name = name_;
  e.cat = cat_;
  e.start_ns = start_ns_;
  e.dur_ns = tracer.now_ns() - start_ns_;
  e.args = std::move(args_);
  tracer.record(std::move(e));
}

}  // namespace inlt
