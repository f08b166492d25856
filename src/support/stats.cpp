#include "support/stats.hpp"

#include <bit>
#include <chrono>
#include <iomanip>
#include <sstream>

#include "support/json.hpp"

namespace inlt {

namespace {

i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int hist_bucket(i64 value) {
  if (value <= 0) return 0;
  int b = std::bit_width(static_cast<std::uint64_t>(value));
  return b < kHistBuckets ? b : kHistBuckets - 1;
}

i64 hist_bucket_lo(int b) {
  return b <= 0 ? 0 : static_cast<i64>(1) << (b - 1);
}

Stats& Stats::global() {
  static Stats s;
  return s;
}

std::atomic<i64>& Stats::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<std::atomic<i64>>(0);
  return *slot;
}

void Stats::add(const std::string& name, i64 delta) {
  counter(name).fetch_add(delta, std::memory_order_relaxed);
}

void Stats::raise(const std::string& name, i64 value) {
  std::atomic<i64>& c = counter(name);
  i64 cur = c.load(std::memory_order_relaxed);
  while (cur < value &&
         !c.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

i64 Stats::value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end()
             ? 0
             : it->second->load(std::memory_order_relaxed);
}

void Stats::add_time_ns(const std::string& name, i64 ns) {
  Timer* t;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = timers_[name];
    if (!slot) slot = std::make_unique<Timer>();
    t = slot.get();
  }
  t->ns.fetch_add(ns, std::memory_order_relaxed);
  t->count.fetch_add(1, std::memory_order_relaxed);
}

i64 Stats::time_ns(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = timers_.find(name);
  return it == timers_.end() ? 0
                             : it->second->ns.load(std::memory_order_relaxed);
}

HistogramCell& Stats::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<HistogramCell>();
  return *slot;
}

void Stats::add_sample(const std::string& name, i64 value) {
  histogram(name).record(value);
}

i64 StatsSnapshot::counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

StatsSnapshot StatsSnapshot::operator-(const StatsSnapshot& base) const {
  StatsSnapshot d = *this;
  for (auto& [name, v] : d.counters) {
    auto it = base.counters.find(name);
    if (it != base.counters.end()) v -= it->second;
  }
  for (auto& [name, t] : d.timers) {
    auto it = base.timers.find(name);
    if (it != base.timers.end()) {
      t.ns -= it->second.ns;
      t.count -= it->second.count;
    }
  }
  for (auto& [name, h] : d.histograms) {
    auto it = base.histograms.find(name);
    if (it != base.histograms.end()) {
      h.count -= it->second.count;
      h.sum -= it->second.sum;
      for (int b = 0; b < kHistBuckets; ++b)
        h.buckets[b] -= it->second.buckets[b];
    }
  }
  return d;
}

StatsSnapshot Stats::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  StatsSnapshot s;
  for (const auto& [name, c] : counters_)
    s.counters[name] = c->load(std::memory_order_relaxed);
  for (const auto& [name, t] : timers_)
    s.timers[name] = StatsSnapshot::TimerValue{
        t->ns.load(std::memory_order_relaxed),
        t->count.load(std::memory_order_relaxed)};
  for (const auto& [name, h] : histograms_) {
    StatsSnapshot::HistogramValue v;
    v.count = h->count();
    v.sum = h->sum();
    for (int b = 0; b < kHistBuckets; ++b) v.buckets[b] = h->bucket(b);
    s.histograms[name] = v;
  }
  return s;
}

void Stats::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->store(0, std::memory_order_relaxed);
  for (auto& [name, t] : timers_) {
    t->ns.store(0, std::memory_order_relaxed);
    t->count.store(0, std::memory_order_relaxed);
  }
  for (auto& [name, h] : histograms_) h->reset();
}

std::string Stats::to_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t width = 0;
  for (const auto& [name, c] : counters_) width = std::max(width, name.size());
  for (const auto& [name, t] : timers_) width = std::max(width, name.size());
  for (const auto& [name, h] : histograms_)
    width = std::max(width, name.size());
  std::ostringstream os;
  for (const auto& [name, c] : counters_)
    os << std::left << std::setw(static_cast<int>(width) + 2) << name
       << c->load(std::memory_order_relaxed) << "\n";
  for (const auto& [name, t] : timers_) {
    i64 ns = t->ns.load(std::memory_order_relaxed);
    i64 calls = t->count.load(std::memory_order_relaxed);
    os << std::left << std::setw(static_cast<int>(width) + 2) << name
       << std::fixed << std::setprecision(3)
       << static_cast<double>(ns) / 1e6 << " ms (" << calls << " calls";
    if (calls > 0)
      os << ", " << std::setprecision(1)
         << static_cast<double>(ns) / 1e3 / static_cast<double>(calls)
         << " us/call";
    os << ")\n";
  }
  for (const auto& [name, h] : histograms_) {
    i64 count = h->count();
    os << std::left << std::setw(static_cast<int>(width) + 2) << name
       << "n=" << count;
    if (count > 0)
      os << " mean=" << std::fixed << std::setprecision(1)
         << static_cast<double>(h->sum()) / static_cast<double>(count);
    for (int b = 0; b < kHistBuckets; ++b) {
      i64 n = h->bucket(b);
      if (n > 0) os << " " << hist_bucket_lo(b) << ":" << n;
    }
    os << "\n";
  }
  return os.str();
}

std::string Stats::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name)
       << "\":" << c->load(std::memory_order_relaxed);
  }
  os << "},\"timers\":{";
  first = true;
  for (const auto& [name, t] : timers_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name)
       << "\":{\"ns\":" << t->ns.load(std::memory_order_relaxed)
       << ",\"count\":" << t->count.load(std::memory_order_relaxed) << "}";
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":{\"count\":" << h->count()
       << ",\"sum\":" << h->sum() << ",\"buckets\":{";
    bool bfirst = true;
    for (int b = 0; b < kHistBuckets; ++b) {
      i64 n = h->bucket(b);
      if (n == 0) continue;
      if (!bfirst) os << ",";
      bfirst = false;
      os << "\"" << hist_bucket_lo(b) << "\":" << n;
    }
    os << "}}";
  }
  os << "}}";
  return os.str();
}

ScopedTimer::ScopedTimer(std::string name)
    : name_(std::move(name)), start_ns_(now_ns()) {}

ScopedTimer::~ScopedTimer() {
  Stats::global().add_time_ns(name_, now_ns() - start_ns_);
}

}  // namespace inlt
