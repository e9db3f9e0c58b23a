// Observability layer: instrument semantics (counter/gauge/histogram),
// registry snapshot + JSON export, spans as flight events and stage
// timers (with the Chrome trace rendered from the rings), and the engine
// integration contract — answer-phase traffic reaches the process
// registry by the time the engine is destroyed.
//
// The TSan twin (obs_test_tsan, label `tsan`) reruns the concurrency
// tests against the instrumented library: many probe threads mutating
// instruments while a scraper thread snapshots must be race-free — that
// is the registry's core promise (relaxed atomics on the hot path,
// per-instrument coherent reads on scrape).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "enumerate/engine.h"
#include "fo/builders.h"
#include "fo/parser.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/prom.h"
#include "tests/property_common.h"
#include "util/rng.h"

namespace nwd {
namespace {

using obs::Counter;
using obs::FlightEventKind;
using obs::FlightRecorder;
using obs::Gauge;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::RequestScope;
namespace json = obs::json;

TEST(Counter, AddsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42);
}

TEST(Gauge, SetAndSetMaxAreIndependent) {
  Gauge g;
  g.Set(10);
  EXPECT_EQ(g.value(), 10);
  g.SetMax(5);  // below current: no-op
  EXPECT_EQ(g.value(), 10);
  g.SetMax(99);
  EXPECT_EQ(g.value(), 99);
  g.Set(1);  // plain Set may move down
  EXPECT_EQ(g.value(), 1);
}

TEST(Histogram, BucketsByBitWidthWithExactMoments) {
  Histogram h;
  h.Record(0);    // bucket 0
  h.Record(1);    // bucket 1: [1, 2)
  h.Record(2);    // bucket 2: [2, 4)
  h.Record(3);    // bucket 2
  h.Record(100);  // bucket 7: [64, 128)
  const Histogram::Snapshot s = h.Read();
  EXPECT_EQ(s.count, 5);
  EXPECT_EQ(s.sum, 106);
  EXPECT_EQ(s.min, 0);
  EXPECT_EQ(s.max, 100);
  EXPECT_DOUBLE_EQ(s.mean(), 106.0 / 5.0);
  ASSERT_EQ(static_cast<int>(s.buckets.size()), Histogram::kBuckets);
  EXPECT_EQ(s.buckets[0], 1);
  EXPECT_EQ(s.buckets[1], 1);
  EXPECT_EQ(s.buckets[2], 2);
  EXPECT_EQ(s.buckets[7], 1);
}

TEST(Histogram, EmptySnapshotIsAllZero) {
  Histogram h;
  const Histogram::Snapshot s = h.Read();
  EXPECT_EQ(s.count, 0);
  EXPECT_EQ(s.sum, 0);
  EXPECT_EQ(s.min, 0);
  EXPECT_EQ(s.max, 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Registry, GetIsCreateOrGetWithStablePointers) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("x.count");
  Counter* b = reg.GetCounter("x.count");
  EXPECT_EQ(a, b);
  // Registering more instruments must not move earlier ones.
  for (int i = 0; i < 100; ++i) {
    reg.GetCounter("churn." + std::to_string(i));
  }
  EXPECT_EQ(reg.GetCounter("x.count"), a);
  a->Add(7);
  const auto snap = reg.Snapshot();
  const auto it = snap.find("x.count");
  ASSERT_NE(it, snap.end());
  EXPECT_EQ(it->second.kind, MetricsRegistry::InstrumentValue::Kind::kCounter);
  EXPECT_EQ(it->second.value, 7);
}

TEST(Registry, WriteJsonIsWellFormedAndSectioned) {
  MetricsRegistry reg;
  reg.GetCounter("c.one")->Add(5);
  reg.GetGauge("g.one")->Set(12);
  reg.GetHistogram("h.one")->Record(3);
  std::ostringstream out;
  reg.WriteJson(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"schema\":\"nwd-metrics/1\""), std::string::npos);
  EXPECT_NE(json.find("\"c.one\":5"), std::string::npos);
  EXPECT_NE(json.find("\"g.one\":12"), std::string::npos);
  EXPECT_NE(json.find("\"h.one\":{\"count\":1"), std::string::npos);
  // Crude but effective balance check for a document with no strings
  // containing braces.
  int depth = 0;
  for (const char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(Registry, ResetForTestZeroesEverything) {
  MetricsRegistry reg;
  reg.GetCounter("c")->Add(5);
  reg.GetGauge("g")->Set(9);
  reg.GetHistogram("h")->Record(4);
  reg.ResetForTest();
  const auto snap = reg.Snapshot();
  EXPECT_EQ(snap.at("c").value, 0);
  EXPECT_EQ(snap.at("g").value, 0);
  EXPECT_EQ(snap.at("h").histogram.count, 0);
}

// --- Spans: flight events and stage timers (flight.h) --------------------

// Every surviving kSpan event on the global recorder
// labelled `name`, oldest first.
std::vector<FlightRecorder::Event> SpansNamed(std::string_view name) {
  std::vector<FlightRecorder::Event> out;
  for (const FlightRecorder::Event& e : FlightRecorder::Global().Collect()) {
    if (e.kind == FlightEventKind::kSpan && e.label != nullptr &&
        name == e.label) {
      out.push_back(e);
    }
  }
  return out;
}

TEST(SpanTest, RecordsOneFlightEventWithNameDurationAndRid) {
  obs::SetFlightEnabled(true);
  double explicit_ms = 0.0;
  {
    obs::RequestScope scope(4711);
    obs::ScopedSpan span("span_test/explicit");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    explicit_ms = span.End();
    EXPECT_EQ(explicit_ms, span.End()) << "End() is idempotent";
    // The destructor must not record a second event.
  }
  {
    obs::ScopedSpan span("span_test/implicit");
  }
  const std::vector<FlightRecorder::Event> explicit_spans =
      SpansNamed("span_test/explicit");
  ASSERT_EQ(1u, explicit_spans.size());
  EXPECT_EQ(uint64_t{4711}, explicit_spans[0].rid);
  EXPECT_GE(explicit_ms, 2.0);
  EXPECT_EQ(explicit_ms, static_cast<double>(explicit_spans[0].a) / 1e6)
      << "the event's a is the duration End() returned, in ns";
  const std::vector<FlightRecorder::Event> implicit_spans =
      SpansNamed("span_test/implicit");
  ASSERT_EQ(1u, implicit_spans.size());
  EXPECT_EQ(uint64_t{0}, implicit_spans[0].rid);
  EXPECT_GE(implicit_spans[0].a, 0);
}

TEST(SpanTest, DisabledRecorderDropsSpansButStillTimes) {
  obs::SetFlightEnabled(false);
  double ms = 0.0;
  {
    obs::ScopedSpan span("span_test/off");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ms = span.End();
  }
  obs::SetFlightEnabled(true);
  EXPECT_GE(ms, 1.0) << "a span times its stage with the recorder off";
  EXPECT_TRUE(SpansNamed("span_test/off").empty());
}

// Every prepare stage is a span under the building thread's rid, and each
// Stats timing is exactly its stage span's duration. The far query has a
// Case I position, so every stage builds something.
TEST(SpanTest, EnginePrepareStagesAreSpansThatFillStats) {
  obs::SetFlightEnabled(true);
  Rng rng(96);
  const ColoredGraph g = testing_common::RandomGraph(1, 120, &rng);
  const fo::ParseResult r = fo::ParseFormula("dist(x, y) > 1");
  ASSERT_TRUE(r.ok) << r.error;
  EngineOptions options;
  options.naive_cutoff = 10;
  options.oracle.small_cutoff = 8;
  constexpr uint64_t kRid = 9091;
  std::unique_ptr<EnumerationEngine> engine;
  {
    obs::RequestScope scope(kRid);
    engine = std::make_unique<EnumerationEngine>(g, r.query, options);
  }
  ASSERT_FALSE(engine->used_fallback());
  const EnumerationEngine::Stats& stats = engine->stats();
  const std::pair<const char*, double> stages[] = {
      {"engine/cover", stats.cover_ms},
      {"engine/kernels", stats.kernels_ms},
      {"engine/oracle", stats.oracle_ms},
      {"engine/compile", stats.compile_ms},
      {"engine/extendable", stats.extendable_ms}};
  for (const auto& [name, ms] : stages) {
    const std::vector<FlightRecorder::Event> spans = SpansNamed(name);
    ASSERT_FALSE(spans.empty()) << name;
    EXPECT_EQ(kRid, spans.back().rid) << name;
    EXPECT_EQ(ms, static_cast<double>(spans.back().a) / 1e6) << name;
  }
  const std::vector<FlightRecorder::Event> lists = SpansNamed("engine/lists");
  const std::vector<FlightRecorder::Event> skips = SpansNamed("engine/skips");
  ASSERT_FALSE(lists.empty());
  ASSERT_FALSE(skips.empty());
  EXPECT_DOUBLE_EQ(stats.skips_ms,
                   static_cast<double>(lists.back().a) / 1e6 +
                       static_cast<double>(skips.back().a) / 1e6);
  const std::vector<FlightRecorder::Event> prepare =
      SpansNamed("engine/prepare");
  ASSERT_FALSE(prepare.empty());
  EXPECT_EQ(kRid, prepare.back().rid);
  EXPECT_GE(static_cast<double>(prepare.back().a) / 1e6,
            stats.cover_ms + stats.kernels_ms + stats.oracle_ms +
                stats.skips_ms + stats.compile_ms + stats.extendable_ms);
}

// The converse: a near query has no Case I position, so its build records
// no cover, kernel or skip span under its rid and leaves those timings and
// sizes at 0, while the stages it does run still fill their Stats.
TEST(SpanTest, NearQueryBuildRecordsNoCoverKernelOrSkipSpans) {
  obs::SetFlightEnabled(true);
  Rng rng(97);
  const ColoredGraph g = testing_common::RandomGraph(1, 120, &rng);
  const fo::ParseResult r = fo::ParseFormula("dist(x, y) <= 1");
  ASSERT_TRUE(r.ok) << r.error;
  EngineOptions options;
  options.naive_cutoff = 10;
  options.oracle.small_cutoff = 8;
  constexpr uint64_t kRid = 9092;
  std::unique_ptr<EnumerationEngine> engine;
  {
    obs::RequestScope scope(kRid);
    engine = std::make_unique<EnumerationEngine>(g, r.query, options);
  }
  ASSERT_FALSE(engine->used_fallback());
  const auto spans_under_rid = [](const char* name) {
    std::vector<FlightRecorder::Event> out;
    for (const FlightRecorder::Event& e : SpansNamed(name)) {
      if (e.rid == kRid) out.push_back(e);
    }
    return out;
  };
  for (const char* skipped :
       {"engine/cover", "engine/kernels", "engine/skips"}) {
    EXPECT_TRUE(spans_under_rid(skipped).empty()) << skipped;
  }
  for (const char* built : {"engine/prepare", "engine/oracle", "engine/lists",
                            "engine/compile", "engine/extendable"}) {
    EXPECT_EQ(1u, spans_under_rid(built).size()) << built;
  }
  const EnumerationEngine::Stats& stats = engine->stats();
  EXPECT_EQ(0.0, stats.cover_ms);
  EXPECT_EQ(0.0, stats.kernels_ms);
  EXPECT_EQ(0, stats.cover_bags);
  EXPECT_EQ(0, stats.skip_entries);
  const std::vector<FlightRecorder::Event> lists =
      spans_under_rid("engine/lists");
  ASSERT_FALSE(lists.empty());
  EXPECT_DOUBLE_EQ(stats.skips_ms, static_cast<double>(lists.back().a) / 1e6)
      << "with no skips built, the skip timing is the list scans alone";
}

// The Chrome trace rendered from the rings parses back: spans as "X"
// events with their duration, other events as instants carrying the rid,
// labels escaped, and otherData counting what the rings already lost.
TEST(SpanTest, ChromeTraceFromFlightRingsRoundTripsThroughJson) {
  obs::SetFlightEnabled(true);
  FlightRecorder recorder(/*capacity=*/8);
  {
    RequestScope scope(42);
    recorder.Record(FlightEventKind::kRequestStart, "test", 0, 0, 3);
    for (int i = 0; i < 6; ++i) {
      recorder.Record(FlightEventKind::kSpan, "stage/a", 1500);
    }
    recorder.Record(FlightEventKind::kFaultFire,
                    obs::InternFlightLabel("point \"q\"\n"), 1);
  }
  recorder.Record(FlightEventKind::kSpan, "stage/b", 300);
  recorder.Record(FlightEventKind::kEpochPublish, nullptr, 7);
  // 10 events into an 8-slot ring: the two oldest are overwritten.
  std::ostringstream out;
  recorder.WriteChromeTrace(out);
  const json::ParseResult parsed = json::Parse(out.str());
  ASSERT_TRUE(parsed.ok) << parsed.error << "\n" << out.str();
  const json::Value* events = parsed.value.Find("traceEvents");
  ASSERT_NE(nullptr, events);
  ASSERT_EQ(8u, events->array.size());
  int spans = 0;
  int instants = 0;
  double min_ts = 1e300;
  for (const json::Value& e : events->array) {
    const std::string& ph = e.Find("ph")->string;
    const json::Value* args = e.Find("args");
    ASSERT_NE(nullptr, args);
    ASSERT_NE(nullptr, args->Find("rid"));
    min_ts = std::min(min_ts, e.Find("ts")->number);
    const std::string& name = e.Find("name")->string;
    if (ph == "X") {
      ++spans;
      if (name == "stage/a") {
        EXPECT_DOUBLE_EQ(1.5, e.Find("dur")->number);
        EXPECT_DOUBLE_EQ(42.0, args->Find("rid")->number);
      } else {
        EXPECT_EQ("stage/b", name);
        EXPECT_DOUBLE_EQ(0.3, e.Find("dur")->number);
        EXPECT_DOUBLE_EQ(0.0, args->Find("rid")->number);
      }
    } else {
      EXPECT_EQ("i", ph);
      ++instants;
      if (name == "fault_fire") {
        EXPECT_EQ("point \"q\"\n", args->Find("label")->string);
        EXPECT_DOUBLE_EQ(42.0, args->Find("rid")->number);
      } else {
        EXPECT_EQ("epoch_publish", name);
        EXPECT_DOUBLE_EQ(7.0, args->Find("a")->number);
      }
    }
  }
  EXPECT_EQ(6, spans);  // request_start and one stage/a were lapped
  EXPECT_EQ(2, instants);
  EXPECT_DOUBLE_EQ(0.0, min_ts) << "timestamps start at the earliest event";
  const json::Value* other = parsed.value.Find("otherData");
  ASSERT_NE(nullptr, other);
  EXPECT_DOUBLE_EQ(10.0, other->Find("recorded")->number);
  EXPECT_DOUBLE_EQ(2.0, other->Find("overwritten")->number);
  EXPECT_DOUBLE_EQ(0.0, other->Find("torn_skipped")->number);
  EXPECT_DOUBLE_EQ(1.0, other->Find("rings")->number);
}

// Four threads end spans while a reader collects and renders the global
// rings: race-free under the TSan twin, no span lost or half-read.
TEST(SpanTest, ConcurrentSpansAndCollectAreRaceFree) {
  obs::SetFlightEnabled(true);
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 256;
  constexpr uint64_t kRidBase = 77000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const FlightRecorder::Event& e :
           FlightRecorder::Global().Collect()) {
        if (e.label == nullptr ||
            std::string_view(e.label) != "span_test/concurrent") {
          continue;
        }
        ASSERT_EQ(FlightEventKind::kSpan, e.kind);
        ASSERT_GE(e.a, 0);
        ASSERT_GE(e.rid, kRidBase);
        ASSERT_LT(e.rid, kRidBase + kThreads);
      }
      std::ostringstream sink;
      FlightRecorder::Global().WriteChromeTrace(sink);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      obs::RequestScope scope(kRidBase + static_cast<uint64_t>(t));
      for (int i = 0; i < kSpansPerThread; ++i) {
        obs::ScopedSpan span("span_test/concurrent");
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  std::vector<int> per_rid(kThreads, 0);
  for (const FlightRecorder::Event& e : SpansNamed("span_test/concurrent")) {
    ++per_rid[static_cast<size_t>(e.rid - kRidBase)];
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(kSpansPerThread, per_rid[static_cast<size_t>(t)]) << t;
  }
}

// Engine integration: answer-phase probes reach the global registry by
// the time the engine is destroyed, via the destructor's implicit
// DrainAnswerStats(). (This is the path nwdq --metrics-json relies on.)
TEST(EngineMetrics, DestructorDrainPublishesAnswerCounters) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const int64_t before = reg.GetCounter("answer.probes_served")->value();
  Rng rng(97);
  const ColoredGraph g = testing_common::RandomGraph(1, 60, &rng);
  const fo::ParseResult r = fo::ParseFormula("dist(x, y) <= 1");
  ASSERT_TRUE(r.ok) << r.error;
  {
    EngineOptions options;
    options.naive_cutoff = 10;
    options.oracle.small_cutoff = 8;
    const EnumerationEngine engine(g, r.query, options);
    for (int i = 0; i < 9; ++i) {
      (void)engine.Test({static_cast<Vertex>(i % g.NumVertices()), 0});
    }
    (void)engine.Next({0, 0});
  }  // ~EnumerationEngine drains the pool into the registry
  const int64_t after = reg.GetCounter("answer.probes_served")->value();
  EXPECT_EQ(after - before, 10);
}

TEST(EngineMetrics, PrepareStagesPublishGaugesAndPhaseHistograms) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const int64_t covers_before =
      reg.GetHistogram("engine.phase.cover_us")->Read().count;
  Rng rng(98);
  const ColoredGraph g = testing_common::RandomGraph(1, 120, &rng);
  // A Case I query: the cover and kernel stages run.
  const fo::ParseResult r = fo::ParseFormula("dist(x, y) > 1");
  ASSERT_TRUE(r.ok) << r.error;
  EngineOptions options;
  options.naive_cutoff = 10;
  options.oracle.small_cutoff = 8;
  const EnumerationEngine engine(g, r.query, options);
  ASSERT_FALSE(engine.used_fallback());
  EXPECT_GT(reg.GetGauge("engine.cover.bags")->value(), 0);
  EXPECT_GT(reg.GetGauge("engine.kernels.values")->value(), 0);
  EXPECT_EQ(reg.GetHistogram("engine.phase.cover_us")->Read().count,
            covers_before + 1);
  EXPECT_EQ(reg.GetCounter("engine.built")->value() > 0, true);
}

// --- Prometheus text renderer (prom.h) -----------------------------------

TEST(PromTest, MetricNamesGetFleetPrefixAndSanitizedChars) {
  EXPECT_EQ("nwd_serve_request_ns", obs::PromMetricName("serve.request_ns"));
  EXPECT_EQ("nwd_repair_full_rebuilds",
            obs::PromMetricName("repair.full_rebuilds"));
  // Every non-[a-zA-Z0-9_] character maps to '_'.
  EXPECT_EQ("nwd_a_b_c_d", obs::PromMetricName("a-b.c/d"));
  EXPECT_EQ("nwd_", obs::PromMetricName(""));
}

TEST(PromTest, RendersCounterGaugeAndHistogramFamilies) {
  MetricsRegistry reg;
  reg.GetCounter("c.one")->Add(5);
  reg.GetGauge("g.one")->Set(12);
  reg.GetHistogram("h.one")->Record(3);
  std::ostringstream out;
  obs::WritePrometheus(out, reg.Snapshot());
  const std::string text = out.str();
  // Counters get the _total suffix, with HELP/TYPE on the full name so
  // a strict scraper associates the metadata with the sample family.
  EXPECT_NE(text.find("# HELP nwd_c_one_total"), std::string::npos);
  EXPECT_NE(text.find("# TYPE nwd_c_one_total counter"), std::string::npos);
  EXPECT_NE(text.find("nwd_c_one_total 5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE nwd_g_one gauge"), std::string::npos);
  EXPECT_NE(text.find("nwd_g_one 12\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE nwd_h_one histogram"), std::string::npos);
  EXPECT_NE(text.find("nwd_h_one_sum 3\n"), std::string::npos);
  EXPECT_NE(text.find("nwd_h_one_count 1\n"), std::string::npos);
  // Derived quantile gauges for scrapers without histogram_quantile().
  EXPECT_NE(text.find("# TYPE nwd_h_one_p50 gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE nwd_h_one_p99 gauge"), std::string::npos);
  // Nothing leaks outside the fleet namespace.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_EQ(0u, line.find("nwd_")) << line;
  }
}

TEST(PromTest, HistogramBucketsAreCumulativeWithPow2UpperBounds) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("h.lat");
  h->Record(0);    // bucket 0: le="0"
  h->Record(1);    // bucket 1: le="1"
  h->Record(2);    // bucket 2: le="3"
  h->Record(3);    // bucket 2
  h->Record(100);  // bucket 7: le="127"
  std::ostringstream out;
  obs::WritePrometheus(out, reg.Snapshot());
  const std::string text = out.str();
  // Cumulative counts at the log2 bucket upper bounds (2^b - 1), ending
  // in +Inf == _count — what histogram_quantile() requires.
  EXPECT_NE(text.find("nwd_h_lat_bucket{le=\"0\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("nwd_h_lat_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("nwd_h_lat_bucket{le=\"3\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("nwd_h_lat_bucket{le=\"127\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("nwd_h_lat_bucket{le=\"+Inf\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("nwd_h_lat_count 5\n"), std::string::npos);
  // No buckets past the last populated one (the +Inf line caps the
  // family): le="255" would be bucket 8.
  EXPECT_EQ(text.find("nwd_h_lat_bucket{le=\"255\"}"), std::string::npos);
}

TEST(PromTest, EmptyHistogramStillClosesWithInfBucket) {
  MetricsRegistry reg;
  reg.GetHistogram("h.idle");  // registered, never recorded
  std::ostringstream out;
  obs::WritePrometheus(out, reg.Snapshot());
  const std::string text = out.str();
  // A scraper must still see a conformant (empty) histogram family.
  EXPECT_NE(text.find("nwd_h_idle_bucket{le=\"+Inf\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("nwd_h_idle_sum 0\n"), std::string::npos);
  EXPECT_NE(text.find("nwd_h_idle_count 0\n"), std::string::npos);
  EXPECT_NE(text.find("nwd_h_idle_p50 0\n"), std::string::npos);
}

// --- Concurrency (the TSan twin's reason to exist) -----------------------

// Many writer threads hammer one counter/gauge/histogram while a scraper
// concurrently snapshots the registry. With relaxed atomics this must be
// race-free and lose no counter increments.
TEST(Concurrency, WritersAndScraperAreRaceFree) {
  MetricsRegistry reg;
  Counter* counter = reg.GetCounter("stress.count");
  Gauge* gauge = reg.GetGauge("stress.peak");
  Histogram* hist = reg.GetHistogram("stress.delay");
  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 20000;
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto snap = reg.Snapshot();
      // Monotone counter: snapshots never exceed the final total.
      ASSERT_LE(snap.at("stress.count").value,
                int64_t{kWriters} * kOpsPerWriter);
      std::ostringstream sink;
      reg.WriteJson(sink);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        counter->Increment();
        gauge->SetMax(w * kOpsPerWriter + i);
        hist->Record(i);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  EXPECT_EQ(counter->value(), int64_t{kWriters} * kOpsPerWriter);
  EXPECT_EQ(gauge->value(), (kWriters - 1) * kOpsPerWriter + kOpsPerWriter - 1);
  EXPECT_EQ(hist->Read().count, int64_t{kWriters} * kOpsPerWriter);
}

// Concurrent registration of fresh names races lookup of existing ones;
// pointers must stay stable and unique per name.
TEST(Concurrency, ConcurrentRegistrationIsSafe) {
  MetricsRegistry reg;
  Counter* shared = reg.GetCounter("shared");
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        EXPECT_EQ(reg.GetCounter("shared"), shared);
        reg.GetCounter("own." + std::to_string(t) + "." + std::to_string(i))
            ->Increment();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(reg.Snapshot().size(), 1u + kThreads * 500);
}

// Probe threads against one engine while a scraper drains and snapshots:
// the end-to-end version of the registry contract. No increment may be
// lost between the pool, DrainAnswerStats(), and the registry.
TEST(Concurrency, ConcurrentProbesAndDrainLoseNothing) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const int64_t before = reg.GetCounter("answer.probes_served")->value();
  Rng rng(99);
  const ColoredGraph g = testing_common::RandomGraph(1, 60, &rng);
  const fo::ParseResult r = fo::ParseFormula("dist(x, y) <= 1");
  ASSERT_TRUE(r.ok) << r.error;
  constexpr int kThreads = 4;
  constexpr int kProbesPerThread = 500;
  {
    EngineOptions options;
    options.naive_cutoff = 10;
    options.oracle.small_cutoff = 8;
    const EnumerationEngine engine(g, r.query, options);
    std::atomic<bool> stop{false};
    std::thread scraper([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)engine.DrainAnswerStats();  // publishes into the registry
        std::ostringstream sink;
        reg.WriteJson(sink);
      }
    });
    std::vector<std::thread> probers;
    for (int t = 0; t < kThreads; ++t) {
      probers.emplace_back([&, t] {
        const int64_t n = g.NumVertices();
        for (int i = 0; i < kProbesPerThread; ++i) {
          (void)engine.Test({static_cast<Vertex>((t * 31 + i) % n),
                             static_cast<Vertex>(i % n)});
        }
      });
    }
    for (std::thread& t : probers) t.join();
    stop.store(true, std::memory_order_relaxed);
    scraper.join();
  }  // destructor drain publishes whatever the scraper missed
  const int64_t after = reg.GetCounter("answer.probes_served")->value();
  EXPECT_EQ(after - before, int64_t{kThreads} * kProbesPerThread);
}

}  // namespace
}  // namespace nwd
