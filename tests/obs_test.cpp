// Telemetry subsystem (src/obs): metrics registry, the per-thread ring
// model, the shared clock and the event tracer.
//
// The concurrency tests are the point — counters, histograms, rings and
// the tracer are documented lock-free on their hot paths, and this file is
// included in the tier-1 TSAN pass (scripts/tier1.sh runs -R 'Obs') so
// those claims are checked, not assumed. The JSON emitted by both the
// registry and the tracer round-trips through a small recursive-descent
// validator: Chrome/Perfetto and scripts consume it, so "mostly JSON" is
// a bug. Every test also passes with JROUTE_NO_TELEMETRY (instruments
// and rings record nothing); assertions on recorded values are gated on
// jrobs::compiledIn().
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "json_validator.h"
#include "obs/metrics.h"
#include "obs/ring.h"
#include "obs/spans.h"
#include "obs/trace.h"

namespace jrobs {
namespace {

// RFC 8259 validator shared with provenance_test.cpp.
using jrtest::validJson;

TEST(ObsJsonValidator, SelfTest) {
  EXPECT_TRUE(validJson("{}"));
  EXPECT_TRUE(validJson(R"({"a":[1,2.5,-3e2],"b":{"c":"x\"y"},"d":null})"));
  EXPECT_FALSE(validJson("{"));
  EXPECT_FALSE(validJson(R"({"a":1,})"));
  EXPECT_FALSE(validJson(R"({"a":1} extra)"));
  EXPECT_FALSE(validJson(R"({"a":})"));
}

// --- Counters and gauges ----------------------------------------------------

TEST(ObsMetrics, CounterAndGaugeBasics) {
  Counter c;
  c.add();
  c.add(9);
  Gauge g;
  g.set(5);
  g.add(2);
  g.sub(3);
  if (compiledIn()) {
    EXPECT_EQ(c.value(), 10u);
    EXPECT_EQ(g.value(), 4);
  } else {
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0);
  }
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsMetrics, CounterConcurrentAdds) {
  constexpr int kThreads = 4;
  constexpr int kAdds = 20000;
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add();
    });
  }
  for (std::thread& th : threads) th.join();
  if (compiledIn()) {
    EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kAdds);
  }
}

// --- Histograms -------------------------------------------------------------

TEST(ObsMetrics, HistogramBucketRoundTrip) {
  // The log-bucket mapping must be monotone and tight: every value lands
  // in a bucket whose lower bound is <= the value and whose width bounds
  // the relative error by 1/16 (kSubBits = 4).
  uint32_t prev = 0;
  for (uint64_t v :
       {uint64_t{0}, uint64_t{1}, uint64_t{15}, uint64_t{16}, uint64_t{17},
        uint64_t{100}, uint64_t{1000}, uint64_t{123456}, uint64_t{1} << 40,
        ~uint64_t{0}}) {
    const uint32_t b = Histogram::bucketOf(v);
    EXPECT_LT(b, Histogram::kNumBuckets) << v;
    EXPECT_GE(b, prev) << v;  // monotone in v (the list is ascending)
    prev = b;
    const uint64_t lo = Histogram::bucketLowerBound(b);
    EXPECT_LE(lo, v);
    if (v >= 16) {
      EXPECT_GE(static_cast<double>(lo), static_cast<double>(v) * (1 - 1.0 / 8))
          << v;
    }
  }
}

TEST(ObsMetrics, HistogramPercentiles) {
  if (!compiledIn()) GTEST_SKIP() << "telemetry compiled out";
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.sum(), 500500u);
  // Log buckets with 16 sub-buckets: ~6% relative error, test at 10%.
  EXPECT_NEAR(h.percentile(50), 500.0, 50.0);
  EXPECT_NEAR(h.percentile(95), 950.0, 95.0);
  EXPECT_NEAR(h.percentile(99), 990.0, 99.0);
  EXPECT_LE(h.percentile(0), h.percentile(100));
}

TEST(ObsMetrics, HistogramConcurrentRecords) {
  constexpr int kThreads = 4;
  constexpr int kRecords = 10000;
  Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kRecords; ++i) {
        h.record(static_cast<uint64_t>(t * kRecords + i));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  if (compiledIn()) {
    EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kRecords);
  }
}

// --- Registry ---------------------------------------------------------------

TEST(ObsRegistry, InstrumentsAreStableAndShared) {
  MetricsRegistry reg;
  Counter& a = reg.counter("test.reg.hits");
  Counter& b = reg.counter("test.reg.hits");
  EXPECT_EQ(&a, &b);  // same name, same instrument
  a.add(3);
  reg.gauge("test.reg.depth").set(7);
  reg.histogram("test.reg.lat_us").record(250);

  const MetricsSnapshot snap = reg.snapshot();
  if (compiledIn()) {
    ASSERT_NE(snap.find("test.reg.hits"), nullptr);
    EXPECT_EQ(snap.value("test.reg.hits"), 3);
    EXPECT_EQ(snap.value("test.reg.depth"), 7);
    EXPECT_EQ(snap.value("test.reg.lat_us"), 1);  // histogram count
    EXPECT_EQ(snap.find("test.reg.lat_us")->kind, MetricKind::kHistogram);
  }
  EXPECT_EQ(snap.value("test.reg.absent"), 0);
  EXPECT_EQ(snap.find("test.reg.absent"), nullptr);
}

TEST(ObsRegistry, SnapshotRendersValidJsonAndText) {
  MetricsRegistry reg;
  reg.counter("test.json.count").add(42);
  reg.histogram("test.json.hist").record(99);
  const MetricsSnapshot snap = reg.snapshot();
  const std::string json = snap.json();
  EXPECT_TRUE(validJson(json)) << json;
  if (compiledIn()) {
    EXPECT_NE(json.find("\"test.json.count\""), std::string::npos);
    EXPECT_NE(snap.text().find("test.json.count"), std::string::npos);
  }
}

TEST(ObsRegistry, ResetZeroesEverything) {
  MetricsRegistry reg;
  reg.counter("test.reset.c").add(5);
  reg.histogram("test.reset.h").record(5);
  reg.reset();
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.value("test.reset.c"), 0);
  EXPECT_EQ(snap.value("test.reset.h"), 0);
}

TEST(ObsRegistry, GlobalRegistryIsAProcessSingleton) {
  Counter& a = registry().counter("test.global.c");
  a.add();
  EXPECT_EQ(&registry().counter("test.global.c"), &a);
}

TEST(ObsRegistry, ConcurrentRegistrationAndUse) {
  // First-lookup registration takes a lock; concurrent callers racing on
  // the same names must agree on the instruments and lose no counts.
  MetricsRegistry reg;
  constexpr int kThreads = 4;
  constexpr int kAdds = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (int i = 0; i < kAdds; ++i) {
        reg.counter("test.race.c").add();
        reg.histogram("test.race.h").record(static_cast<uint64_t>(i));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  if (compiledIn()) {
    const MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.value("test.race.c"), kThreads * kAdds);
    EXPECT_EQ(snap.value("test.race.h"), kThreads * kAdds);
  }
}

// --- Per-thread rings -------------------------------------------------------

TEST(ObsRing, OverflowIsCountedAsDropped) {
  ThreadRings<int, 8> rings;
  for (int i = 0; i < 11; ++i) rings.push(i);
  std::vector<int> kept;
  rings.collect([&](size_t, int v) { kept.push_back(v); });
  if (!compiledIn()) {
    EXPECT_EQ(rings.count(), 0u);
    EXPECT_TRUE(kept.empty());
    return;
  }
  EXPECT_EQ(rings.count(), 8u);
  EXPECT_EQ(rings.dropped(), 3u);
  EXPECT_EQ(kept, (std::vector<int>{3, 4, 5, 6, 7, 8, 9, 10}));  // newest 8
}

TEST(ObsRing, ClearEmptiesEveryRing) {
  if (!compiledIn()) GTEST_SKIP() << "telemetry compiled out";
  ThreadRings<int, 4> rings;
  rings.push(1);
  std::thread([&rings] {
    for (int i = 0; i < 6; ++i) rings.push(i);  // wraps: 2 dropped
  }).join();
  ASSERT_EQ(rings.count(), 5u);
  ASSERT_EQ(rings.dropped(), 2u);
  rings.clear();
  EXPECT_EQ(rings.count(), 0u);
  EXPECT_EQ(rings.dropped(), 0u);
  size_t seen = 0;
  rings.collect([&](size_t, int) { ++seen; });
  EXPECT_EQ(seen, 0u);
  rings.push(7);  // registrations survive a clear
  EXPECT_EQ(rings.count(), 1u);
}

TEST(ObsRing, ConcurrentWritersPublishExactlyTheirEvents) {
  // Four writers race a reader that polls count() and collect(); every
  // ring must end up holding exactly its own thread's events, in order.
  if (!compiledIn()) GTEST_SKIP() << "telemetry compiled out";
  constexpr int kThreads = 4;
  constexpr int kEvents = 500;
  ThreadRings<std::pair<int, int>, 1024> rings;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      EXPECT_LE(rings.count(), static_cast<size_t>(kThreads * kEvents));
      rings.collect([](size_t, const std::pair<int, int>&) {});
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&rings, t] {
      for (int i = 0; i < kEvents; ++i) rings.push({t, i});
    });
  }
  for (std::thread& w : writers) w.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(rings.count(), static_cast<size_t>(kThreads * kEvents));
  EXPECT_EQ(rings.dropped(), 0u);
  std::vector<int> owner;      // ring index -> writer thread
  std::vector<int> next(kThreads, 0);
  rings.collect([&](size_t ring, const std::pair<int, int>& e) {
    if (ring >= owner.size()) owner.resize(ring + 1, -1);
    if (owner[ring] < 0) owner[ring] = e.first;
    EXPECT_EQ(owner[ring], e.first) << "ring " << ring << " mixes writers";
    EXPECT_EQ(next[static_cast<size_t>(e.first)]++, e.second);
  });
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(next[static_cast<size_t>(t)], kEvents) << "writer " << t;
  }
}

// --- Shared timebase ---------------------------------------------------------

/// The number after `"key":` at the first `marker` in `json`.
double numberAfter(const std::string& json, const std::string& marker,
                   const std::string& key) {
  const size_t at = json.find(marker);
  if (at == std::string::npos) return -1;
  const size_t k = json.find("\"" + key + "\":", at);
  if (k == std::string::npos) return -1;
  return std::stod(json.substr(k + key.size() + 3));
}

TEST(ObsTimebase, SpanStampLandsBetweenTraceInstants) {
  // One clock: a request-span stamp taken between two trace instants
  // reads between their ts (the trace prints microseconds with three
  // decimals, so the comparison is exact to the nanosecond).
  if (!compiledIn()) GTEST_SKIP() << "telemetry compiled out";
  Tracer& tracer = Tracer::instance();
  tracer.start();
  JR_TRACE_INSTANT("test", "timebase.before");
  RequestSpan span;
  span.stamp(SpanStage::kEnqueue);
  JR_TRACE_INSTANT("test", "timebase.after");
  tracer.stop();
  const std::string trace = tracer.exportJson();

  const long long beforeNs =
      std::llround(numberAfter(trace, "\"timebase.before\"", "ts") * 1000);
  const long long afterNs =
      std::llround(numberAfter(trace, "\"timebase.after\"", "ts") * 1000);
  const auto stampNs =
      static_cast<long long>(span.at(SpanStage::kEnqueue));
  ASSERT_GE(beforeNs, 0);
  ASSERT_GE(afterNs, 0);
  EXPECT_LE(beforeNs, stampNs);
  EXPECT_LE(stampNs, afterNs);
}

// --- Tracer -----------------------------------------------------------------

TEST(ObsTrace, DisabledByDefaultAndCheap) {
  EXPECT_FALSE(Tracer::instance().enabled());
  // Recording while disabled is a no-op, not an error.
  JR_TRACE_SCOPE("test", "disabled");
  JR_TRACE_INSTANT("test", "disabled.instant");
}

TEST(ObsTrace, CapturesConcurrentScopesAsValidChromeJson) {
  Tracer& tracer = Tracer::instance();
  tracer.start();
  constexpr int kThreads = 4;
  constexpr int kSpans = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpans; ++i) {
        JR_TRACE_SCOPE("test", "span");
        JR_TRACE_INSTANT("test", "tick");
      }
    });
  }
  for (std::thread& th : threads) th.join();
  tracer.stop();

  const std::string json = tracer.exportJson();
  EXPECT_TRUE(validJson(json)) << json.substr(0, 400);
  if (compiledIn()) {
    EXPECT_EQ(tracer.eventCount(),
              static_cast<size_t>(kThreads) * kSpans * 2);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // spans
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instants
  }
}

TEST(ObsTrace, RingOverflowIsCountedNotSilent) {
  if (!compiledIn()) GTEST_SKIP() << "telemetry compiled out";
  Tracer& tracer = Tracer::instance();
  tracer.start();
  for (size_t i = 0; i < Tracer::kRingCapacity + 100; ++i) {
    JR_TRACE_INSTANT("test", "flood");
  }
  tracer.stop();
  EXPECT_GT(tracer.droppedCount(), 0u);
  const std::string json = tracer.exportJson();
  EXPECT_TRUE(validJson(json));
  EXPECT_NE(json.find("droppedEvents"), std::string::npos);
}

TEST(ObsTrace, StartClearsPreviousCapture) {
  if (!compiledIn()) GTEST_SKIP() << "telemetry compiled out";
  Tracer& tracer = Tracer::instance();
  tracer.start();
  JR_TRACE_INSTANT("test", "old");
  tracer.stop();
  ASSERT_GT(tracer.eventCount(), 0u);
  tracer.start();
  tracer.stop();
  EXPECT_EQ(tracer.eventCount(), 0u);
  EXPECT_EQ(tracer.droppedCount(), 0u);
}

TEST(ObsTrace, ClearDropsBufferedEventsButKeepsEnableState) {
  // jrsh `stats reset` calls this: buffered events vanish, but an active
  // capture stays active (reset is about counters, not instrumentation
  // on/off state).
  if (!compiledIn()) GTEST_SKIP() << "telemetry compiled out";
  Tracer& tracer = Tracer::instance();
  tracer.start();
  JR_TRACE_INSTANT("test", "pre-clear");
  ASSERT_GT(tracer.eventCount(), 0u);
  tracer.clear();
  EXPECT_EQ(tracer.eventCount(), 0u);
  EXPECT_TRUE(tracer.enabled());  // clear() is not stop()
  JR_TRACE_INSTANT("test", "post-clear");
  EXPECT_EQ(tracer.eventCount(), 1u);
  tracer.stop();
  EXPECT_TRUE(validJson(tracer.exportJson()));
}

TEST(ObsTrace, DumpTraceWritesLoadableFile) {
  Tracer& tracer = Tracer::instance();
  tracer.start();
  { JR_TRACE_SCOPE("test", "dumped"); }
  tracer.stop();

  const std::string path =
      testing::TempDir() + "obs_test_trace.json";
  std::string err;
  ASSERT_TRUE(dumpTrace(path, &err)) << err;
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  EXPECT_TRUE(validJson(ss.str()));
  EXPECT_NE(ss.str().find("traceEvents"), std::string::npos);
  std::remove(path.c_str());

  std::string err2;
  EXPECT_FALSE(dumpTrace("/nonexistent-dir/trace.json", &err2));
  EXPECT_FALSE(err2.empty());
}

// --- Bench run-record log ---------------------------------------------------

TEST(ObsBenchRecord, RecordedJsonlLinesAreValid) {
  // scripts/tier1.sh appends jrload's SLO record to its run-record log,
  // then re-runs this test with JROUTE_BENCH_JSONL pointing at it: every
  // line must be one standalone RFC 8259 object carrying a timestamp
  // (jrbench::appendRunRecord's contract). Without the env var there is
  // nothing to check — plain ctest runs skip.
  const char* path = std::getenv("JROUTE_BENCH_JSONL");
  if (path == nullptr || path[0] == '\0') {
    GTEST_SKIP() << "JROUTE_BENCH_JSONL not set";
  }
  std::ifstream is(path);
  ASSERT_TRUE(is.good()) << "cannot open " << path;
  size_t records = 0;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    ++records;
    EXPECT_TRUE(validJson(line)) << "line " << records << ": " << line;
    EXPECT_EQ(line.front(), '{') << "line " << records;
    EXPECT_NE(line.find("\"timestamp\""), std::string::npos)
        << "line " << records;
  }
  EXPECT_GT(records, 0u) << path << " is empty";
}

}  // namespace
}  // namespace jrobs
