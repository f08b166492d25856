// Lightweight pipeline instrumentation: named counters and timers.
//
// The hot paths of the framework (Fourier–Motzkin elimination, the
// Omega test, legality checks, the session projection cache) bump
// counters here; code-generation stages record wall time. One global
// registry serves the whole process — increments are relaxed atomics,
// so instrumented code stays thread-safe and cheap — and the whole
// registry can be dumped as aligned text or JSON (`inltc --stats`).
//
// Counter references returned by `counter()` are stable for the life
// of the process; `reset()` zeroes values without invalidating them,
// so call sites may cache the reference in a function-local static.
#pragma once

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "support/checked_int.hpp"

namespace inlt {

/// Number of log₂ buckets in a histogram: bucket 0 holds values <= 0,
/// bucket b >= 1 holds values in [2^(b-1), 2^b - 1].
inline constexpr int kHistBuckets = 64;

/// Index of the bucket `value` falls into.
int hist_bucket(i64 value);

/// Smallest value of bucket `b` (0 for bucket 0).
i64 hist_bucket_lo(int b);

/// A log₂-bucketed histogram cell: sample counts per power-of-two
/// bucket plus exact count/sum for means. Returned by reference from
/// `Stats::histogram()` so hot paths can cache it and record with
/// relaxed atomics only.
class HistogramCell {
 public:
  void record(i64 value) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    buckets_[hist_bucket(value)].fetch_add(1, std::memory_order_relaxed);
  }

  i64 count() const { return count_.load(std::memory_order_relaxed); }
  i64 sum() const { return sum_.load(std::memory_order_relaxed); }
  i64 bucket(int b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  void reset() {
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<i64> count_{0};
  std::atomic<i64> sum_{0};
  std::array<std::atomic<i64>, kHistBuckets> buckets_{};
};

/// Point-in-time copy of every counter, timer and histogram.
/// Subtracting two snapshots gives the deltas accumulated between
/// them — how the benchmarks attribute global counters to one
/// measured phase.
struct StatsSnapshot {
  struct TimerValue {
    i64 ns = 0;
    i64 count = 0;
  };
  struct HistogramValue {
    i64 count = 0;
    i64 sum = 0;
    std::array<i64, kHistBuckets> buckets{};

    double mean() const {
      return count ? static_cast<double>(sum) / static_cast<double>(count)
                   : 0.0;
    }
  };
  std::map<std::string, i64> counters;
  std::map<std::string, TimerValue> timers;
  std::map<std::string, HistogramValue> histograms;

  /// Value of a counter in this snapshot (0 if absent).
  i64 counter(const std::string& name) const;

  /// Per-key difference (this - base); keys absent from `base` count
  /// from zero.
  StatsSnapshot operator-(const StatsSnapshot& base) const;
};

class Stats {
 public:
  /// The process-wide registry.
  static Stats& global();

  /// Named counter; created zeroed on first use. The reference stays
  /// valid (and keeps its identity across reset()) forever.
  std::atomic<i64>& counter(const std::string& name);

  /// counter(name) += delta.
  void add(const std::string& name, i64 delta = 1);

  /// counter(name) = max(counter(name), value): a high-water mark.
  void raise(const std::string& name, i64 value);

  /// Current value of a counter (0 if never touched).
  i64 value(const std::string& name) const;

  /// Accumulate `ns` nanoseconds (and one invocation) on a timer.
  void add_time_ns(const std::string& name, i64 ns);

  /// Total nanoseconds recorded on a timer (0 if never touched).
  i64 time_ns(const std::string& name) const;

  /// Named log₂-bucketed histogram; created zeroed on first use. The
  /// reference stays valid forever (cache it on hot paths).
  HistogramCell& histogram(const std::string& name);

  /// histogram(name).record(value).
  void add_sample(const std::string& name, i64 value);

  /// Zero every counter and timer (references stay valid).
  void reset();

  /// Copy every current counter and timer value.
  StatsSnapshot snapshot() const;

  /// Aligned "name  value" lines: counters first, then timers (as
  /// milliseconds with invocation counts and mean per invocation),
  /// then histograms (count/mean plus the non-empty log₂ buckets).
  /// Zero entries included.
  std::string to_text() const;

  /// {"counters":{...},"timers":{name:{"ns":..,"count":..},...},
  ///  "histograms":{name:{"count":..,"sum":..,"buckets":{lo:n,...}}}}.
  std::string to_json() const;

  /// Per-call timing of hot paths (the search pipeline's
  /// `search.stage.<name>_ns` histograms) is off by default; like a
  /// disabled ScopedSpan, an untimed call costs one relaxed load.
  /// `inltc --stats` turns it on.
  static void enable_timing(bool on = true) {
    g_timing_.store(on, std::memory_order_relaxed);
  }
  static bool timing_enabled() {
    return g_timing_.load(std::memory_order_relaxed);
  }

  Stats() = default;
  Stats(const Stats&) = delete;
  Stats& operator=(const Stats&) = delete;

 private:
  struct Timer {
    std::atomic<i64> ns{0};
    std::atomic<i64> count{0};
  };
  inline static std::atomic<bool> g_timing_{false};
  // unique_ptr keeps addresses stable across map growth.
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<std::atomic<i64>>> counters_;
  std::map<std::string, std::unique_ptr<Timer>> timers_;
  std::map<std::string, std::unique_ptr<HistogramCell>> histograms_;
};

/// Adds the elapsed wall time to `Stats::global()` timer `name` on
/// destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string name);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  std::string name_;
  i64 start_ns_;
};

}  // namespace inlt
