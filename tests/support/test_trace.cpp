// inlt::trace — the span tracer: disabled-by-default contract,
// nested spans with args, multi-threaded buffering, Chrome JSON
// export, and the per-category summary.
#include "support/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

namespace inlt {
namespace {

// Tracer state is process-global; every test starts from a clean,
// enabled (or deliberately disabled) slate.
class SpanTrace : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::global().disable();
    Tracer::global().clear();
  }
  void TearDown() override {
    Tracer::global().disable();
    Tracer::global().clear();
  }
};

TEST_F(SpanTrace, DisabledRecordsNothing) {
  ASSERT_FALSE(Tracer::enabled());
  {
    ScopedSpan outer("outer", "test");
    EXPECT_FALSE(outer.active());
    outer.arg("k", static_cast<i64>(1));  // no-op, must not crash
    ScopedSpan inner("inner", "test");
  }
  EXPECT_EQ(Tracer::global().event_count(), 0u);
  EXPECT_EQ(Tracer::global().chrome_trace_json().find("outer"),
            std::string::npos);
}

TEST_F(SpanTrace, EnableIsObservedByNewSpans) {
  Tracer::global().enable();
  ASSERT_TRUE(Tracer::enabled());
  { ScopedSpan s("on", "test"); EXPECT_TRUE(s.active()); }
  Tracer::global().disable();
  { ScopedSpan s("off", "test"); EXPECT_FALSE(s.active()); }
  EXPECT_EQ(Tracer::global().event_count(), 1u);
}

TEST_F(SpanTrace, NestedSpansRecordNamesCategoriesAndArgs) {
  Tracer::global().enable();
  {
    ScopedSpan outer("evaluate", "session");
    outer.arg("index", static_cast<i64>(42));
    outer.arg("legal", true);
    {
      ScopedSpan inner("eliminate", "fm");
      inner.arg("cache", "miss");
      inner.arg("detail", std::string("var \"x\""));
    }
  }
  std::vector<TraceEvent> evs = Tracer::global().events();
  ASSERT_EQ(evs.size(), 2u);
  // Sorted by start time: outer opened first.
  EXPECT_STREQ(evs[0].name, "evaluate");
  EXPECT_STREQ(evs[0].cat, "session");
  EXPECT_STREQ(evs[1].name, "eliminate");
  EXPECT_STREQ(evs[1].cat, "fm");
  // The inner span nests inside the outer one.
  EXPECT_GE(evs[1].start_ns, evs[0].start_ns);
  EXPECT_LE(evs[1].start_ns + evs[1].dur_ns, evs[0].start_ns + evs[0].dur_ns);
  ASSERT_EQ(evs[0].args.size(), 2u);
  EXPECT_STREQ(evs[0].args[0].key, "index");
  EXPECT_EQ(evs[0].args[0].value, "42");
  EXPECT_FALSE(evs[0].args[0].is_string);
  EXPECT_EQ(evs[0].args[1].value, "true");

  std::string json = Tracer::global().chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"evaluate\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"cache\":\"miss\""), std::string::npos) << json;
  // The quote inside the string arg must be escaped.
  EXPECT_NE(json.find("var \\\"x\\\""), std::string::npos) << json;
}

TEST_F(SpanTrace, FourThreadsGetDistinctTidsWithoutCorruption) {
  Tracer::global().enable();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 250;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        ScopedSpan s("work", "mt");
        s.arg("thread", static_cast<i64>(t));
        s.arg("i", static_cast<i64>(i));
      }
    });
  }
  for (std::thread& t : pool) t.join();

  std::vector<TraceEvent> evs = Tracer::global().events();
  ASSERT_EQ(evs.size(), static_cast<size_t>(kThreads * kSpansPerThread));
  std::set<int> tids;
  for (const TraceEvent& e : evs) {
    tids.insert(e.tid);
    EXPECT_STREQ(e.name, "work");
    EXPECT_STREQ(e.cat, "mt");
    ASSERT_EQ(e.args.size(), 2u);
    EXPECT_STREQ(e.args[0].key, "thread");
    EXPECT_GE(e.dur_ns, 0);
  }
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));
  // Start-time ordering is a total order over the merged buffers.
  EXPECT_TRUE(std::is_sorted(
      evs.begin(), evs.end(),
      [](const TraceEvent& a, const TraceEvent& b) {
        return a.start_ns < b.start_ns;
      }));
}

TEST_F(SpanTrace, SummaryAggregatesPerCategoryAndName) {
  Tracer::global().enable();
  for (int i = 0; i < 3; ++i) ScopedSpan s("alpha", "catA");
  for (int i = 0; i < 2; ++i) ScopedSpan s("beta", "catA");
  { ScopedSpan s("gamma", "catB"); }

  std::string json = Tracer::global().summary_json();
  EXPECT_NE(json.find("\"categories\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"catA\":{\"count\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"alpha\":{\"count\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"beta\":{\"count\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"catB\":{\"count\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"gamma\""), std::string::npos) << json;
}

TEST_F(SpanTrace, ClearDropsEventsButKeepsRecording) {
  Tracer::global().enable();
  { ScopedSpan s("first", "test"); }
  EXPECT_EQ(Tracer::global().event_count(), 1u);
  Tracer::global().clear();
  EXPECT_EQ(Tracer::global().event_count(), 0u);
  { ScopedSpan s("second", "test"); }
  ASSERT_EQ(Tracer::global().event_count(), 1u);
  EXPECT_STREQ(Tracer::global().events()[0].name, "second");
}

TEST_F(SpanTrace, EmptyTraceIsStillValidJson) {
  std::string json = Tracer::global().chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos) << json;
}

TEST_F(SpanTrace, CounterSamplesExportAsCounterEvents) {
  // Disabled: counter() is a no-op.
  Tracer::global().counter("queue depth", "test", "depth", 3);
  EXPECT_EQ(Tracer::global().event_count(), 0u);

  Tracer::global().enable();
  Tracer::global().counter("queue depth", "test", "depth", 3);
  Tracer::global().counter("queue depth", "test", "depth", 1);

  std::vector<TraceEvent> evs = Tracer::global().events();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].ph, 'C');
  EXPECT_STREQ(evs[0].name, "queue depth");
  EXPECT_EQ(evs[0].dur_ns, 0);
  ASSERT_EQ(evs[0].args.size(), 1u);
  EXPECT_STREQ(evs[0].args[0].key, "depth");
  EXPECT_EQ(evs[0].args[0].value, "3");
  EXPECT_FALSE(evs[0].args[0].is_string);
  EXPECT_EQ(evs[1].args[0].value, "1");

  std::string json = Tracer::global().chrome_trace_json();
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"depth\":3"), std::string::npos) << json;
  // Counter events carry no dur field.
  EXPECT_EQ(json.find("\"dur\""), std::string::npos) << json;
}

TEST_F(SpanTrace, SummariesCountSpansOnly) {
  Tracer::global().enable();
  { ScopedSpan s("alpha", "catA"); }
  Tracer::global().counter("gauge", "catA", "v", 7);
  // The counter sample shows up in the raw stream but not in the
  // per-category span aggregation.
  EXPECT_EQ(Tracer::global().event_count(), 2u);
  std::string json = Tracer::global().summary_json();
  EXPECT_NE(json.find("\"count\":1"), std::string::npos) << json;
  EXPECT_EQ(json.find("gauge"), std::string::npos) << json;
}

TEST_F(SpanTrace, ThreadNamesBecomeMetadataEvents) {
  Tracer::global().enable();
  Tracer::global().set_thread_name("main thread");
  { ScopedSpan s("work", "test"); }
  std::thread t([] {
    Tracer::global().set_thread_name("helper \"h1\"");
    ScopedSpan s("work", "test");
  });
  t.join();

  std::string json = Tracer::global().chrome_trace_json();
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"thread_name\""), std::string::npos) << json;
  EXPECT_NE(json.find("main thread"), std::string::npos) << json;
  // Names are JSON-escaped like any other string.
  EXPECT_NE(json.find("helper \\\"h1\\\""), std::string::npos) << json;
  // Metadata is synthesized at export; the event stream holds spans.
  EXPECT_EQ(Tracer::global().event_count(), 2u);

  // Renaming wins, and the name survives clear().
  Tracer::global().set_thread_name("renamed");
  Tracer::global().clear();
  json = Tracer::global().chrome_trace_json();
  EXPECT_NE(json.find("renamed"), std::string::npos) << json;
  EXPECT_EQ(json.find("main thread"), std::string::npos) << json;
}

}  // namespace
}  // namespace inlt
