// inlt::trace — thread-aware, low-overhead span tracing.
//
// ScopedSpan is the instrumentation primitive: an RAII object carrying
// a static name, a category, and optional key/value args. Spans are
// buffered per thread and exported as Chrome trace-event JSON — one
// complete "X" event per span — loadable in chrome://tracing and
// Perfetto, plus an aggregated per-category JSON summary for
// quick "where did the time go" answers without a viewer.
//
// Overhead contract: tracing is disabled by default, and a disabled
// span's constructor is one relaxed atomic load (no clock read, no
// allocation, no lock) — hot paths may be instrumented unconditionally.
// When enabled, each completed span takes two steady_clock reads plus
// one push onto the calling thread's buffer under that buffer's
// (uncontended) mutex; arg strings are built only when the owning span
// is active, so callers may guard expensive arg construction with
// `span.active()`.
//
// Threads: each recording thread gets its own buffer and a small
// sequential tid, assigned on first use. Export merges all buffers;
// it may run concurrently with recording (each buffer is locked for
// the copy), though the natural pattern is record-then-export. The
// registry holds shared ownership of every buffer, so events recorded
// on long-lived threads the exporter never joins — the persistent
// exec WorkerPool above all — are collected at export time exactly
// like main-thread events (tests/support/test_trace.cpp and
// tests/exec/test_profile_exec.cpp pin this down).
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/checked_int.hpp"

namespace inlt {

/// One key/value pair attached to a span. Values are either raw JSON
/// numbers or strings (escaped at export time).
struct TraceArg {
  const char* key = "";
  std::string value;
  bool is_string = false;
};

/// One buffered event. Spans are Chrome "X" (complete) events;
/// counters are "C" (counter) events whose args carry the sampled
/// values — Perfetto renders them as counter tracks.
struct TraceEvent {
  const char* name = "";  ///< static string — span names are literals
  const char* cat = "";   ///< static category ("session", "fm", ...)
  i64 start_ns = 0;       ///< steady-clock ns, relative to enable()
  i64 dur_ns = 0;         ///< span duration; 0 (unused) for counters
  int tid = 0;            ///< small sequential id, per recording thread
  char ph = 'X';          ///< Chrome phase: 'X' span, 'C' counter
  std::vector<TraceArg> args;
};

/// The process-wide trace collector.
class Tracer {
 public:
  static Tracer& global();

  /// Start collecting; resets the time origin (but keeps any buffered
  /// events — call clear() for a fresh trace).
  void enable();
  void disable();

  /// The hot-path gate: one relaxed atomic load.
  static bool enabled() {
    return g_enabled_.load(std::memory_order_relaxed);
  }

  /// Drop every buffered event (thread registrations survive).
  void clear();

  /// Total events buffered across all threads.
  size_t event_count() const;

  /// Merged copy of every buffered event, ordered by start time.
  std::vector<TraceEvent> events() const;

  /// {"traceEvents":[...]} — the Chrome trace-event format (complete
  /// "X" events; ts/dur in microseconds).
  std::string chrome_trace_json() const;

  /// Spans aggregated per category and per name — counts and total
  /// wall time:
  /// {"categories":{cat:{"count":..,"total_ns":..,"names":{...}}}}.
  std::string summary_json() const;

  /// Append one event to the calling thread's buffer. Normally called
  /// by ~ScopedSpan; public so tests and instant events can record
  /// directly.
  void record(TraceEvent e);

  /// Record a counter sample (Chrome "C" event) on the calling
  /// thread's track: `key` becomes the counter series, `value` the
  /// sampled value at the current time. No-op when disabled. `name`
  /// and `key` must be static strings.
  void counter(const char* name, const char* cat, const char* key,
               i64 value);

  /// Name the calling thread's track in the exported trace (a Chrome
  /// "thread_name" metadata event). Last call wins — the exec pool
  /// renames its persistent threads per run. Safe to call whether or
  /// not tracing is enabled; the name survives clear().
  void set_thread_name(const std::string& name);

  /// Steady-clock ns relative to the enable() epoch.
  i64 now_ns() const;

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

 private:
  Tracer() = default;

  struct ThreadBuffer {
    std::mutex mu;
    std::vector<TraceEvent> events;
    std::string name;  ///< thread track name ("" = unnamed)
    int tid = 0;
  };

  ThreadBuffer& local_buffer();

  inline static std::atomic<bool> g_enabled_{false};
  std::atomic<i64> epoch_ns_{0};
  mutable std::mutex mu_;  // guards buffers_ / next_tid_
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  int next_tid_ = 1;
};

/// RAII span: records one complete event on destruction when tracing
/// was enabled at construction. Cost when disabled: one relaxed load.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* cat)
      : active_(Tracer::enabled()), name_(name), cat_(cat) {
    if (active_) start_ns_ = Tracer::global().now_ns();
  }
  ~ScopedSpan() {
    if (active_) finish();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// True when this span will be recorded — guard expensive arg
  /// construction with it.
  bool active() const { return active_; }

  /// Attach args (no-ops when inactive). `key` must be a static string.
  void arg(const char* key, i64 v);
  void arg(const char* key, const std::string& v);
  void arg(const char* key, const char* v);
  void arg(const char* key, bool v);

 private:
  void finish();

  bool active_;
  const char* name_;
  const char* cat_;
  i64 start_ns_ = 0;
  std::vector<TraceArg> args_;
};

}  // namespace inlt
