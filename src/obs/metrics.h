// Low-overhead routing telemetry: counters, gauges, latency histograms.
//
// The paper's only visibility story is trace/reverseTrace over nets; a
// concurrent routing service needs to answer *why was this slow* — which
// API level resolved the route, how much search it cost, where claim
// contention burns time. This module is the measurement substrate: every
// hot-path increment is one relaxed atomic op, histograms are fixed
// log-bucketed arrays (no allocation on record), and a process-global
// MetricsRegistry renders everything as text or JSON for jrsh `stats`
// and RoutingService::snapshotMetrics().
//
// Compile-out: with -DJROUTE_NO_TELEMETRY (obs/clock.h) every recording
// call is an empty `if constexpr` branch and snapshots are empty, so
// latency-critical deployments pay nothing. There is one implementation
// in both modes; call sites never need #ifdefs.
//
// Naming scheme (see DESIGN.md §11): dotted lowercase
// `<layer>.<component>.<metric>[_<unit>]`, e.g. `router.maze.visits`,
// `service.span.e2e_us`. Units are spelled in the name so a
// reader of `stats` output never guesses.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/clock.h"

namespace jrobs {

/// Monotonic event count. One relaxed fetch_add per record.
class Counter {
 public:
  void add(uint64_t n = 1) {
    if constexpr (compiledIn()) v_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Instantaneous level (queue depth, live sessions).
class Gauge {
 public:
  void set(int64_t v) {
    if constexpr (compiledIn()) v_.store(v, std::memory_order_relaxed);
  }
  void add(int64_t n = 1) {
    if constexpr (compiledIn()) v_.fetch_add(n, std::memory_order_relaxed);
  }
  void sub(int64_t n = 1) { add(-n); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Log-bucketed histogram over uint64 samples (typically microseconds or
/// node counts). 16 sub-buckets per power of two keeps relative bucket
/// error under ~6%, which is plenty for p50/p95/p99 reporting, in a flat
/// 7.7 KB array recorded into with a single relaxed add — no allocation,
/// no locks, safe from any thread.
class Histogram {
 public:
  static constexpr uint32_t kSubBits = 4;
  static constexpr uint32_t kSub = 1u << kSubBits;  // 16
  static constexpr uint32_t kNumBuckets = (64 - kSubBits) * kSub + kSub;

  void record(uint64_t v) {
    if constexpr (compiledIn()) {
      count_.fetch_add(1, std::memory_order_relaxed);
      sum_.fetch_add(v, std::memory_order_relaxed);
      buckets_[bucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    }
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    const uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }

  /// p-th percentile (0..100) by rank over the bucket counts, linearly
  /// interpolated inside the winning bucket. Concurrent records may skew
  /// a live read by a sample or two; snapshots taken at quiescence are
  /// exact to bucket resolution.
  double percentile(double p) const;

  void reset() {
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  }

  static uint32_t bucketOf(uint64_t v) {
    if (v < kSub) return static_cast<uint32_t>(v);
    const uint32_t msb = 63u - static_cast<uint32_t>(std::countl_zero(v));
    const uint32_t top = msb - kSubBits;
    return (top + 1) * kSub +
           static_cast<uint32_t>((v >> top) & (kSub - 1));
  }

  /// Smallest sample value that lands in bucket `i`.
  static uint64_t bucketLowerBound(uint32_t i) {
    if (i < kSub) return i;
    const uint32_t top = i / kSub - 1;
    return static_cast<uint64_t>(kSub + i % kSub) << top;
  }

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
};


enum class MetricKind : uint8_t { kCounter, kGauge, kHistogram };

const char* metricKindName(MetricKind k);

/// One metric's value frozen at snapshot time.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  int64_t value = 0;    // counter/gauge reading
  uint64_t count = 0;   // histogram sample count
  uint64_t sum = 0;     // histogram sample sum
  double mean = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
};

/// Point-in-time copy of a registry, detached from the live atomics —
/// safe to serialize, diff, or ship across threads.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;  // registration order

  const MetricSample* find(std::string_view name) const;
  /// Counter/gauge value (or histogram count) by name; 0 when absent.
  int64_t value(std::string_view name) const;

  /// Aligned `name kind value [p50/p95/p99]` lines, one per metric.
  std::string text() const;
  /// Single JSON object: {"metrics":[{...},...]}.
  std::string json() const;
};

/// Named metric registry. Registration (first lookup of a name) takes a
/// mutex; the returned reference is stable for the registry's lifetime,
/// so hot paths cache it in a function-local static and never touch the
/// lock again. With telemetry compiled out, snapshots are empty.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  MetricsSnapshot snapshot() const;
  std::string renderText() const { return snapshot().text(); }
  std::string renderJson() const { return snapshot().json(); }

  /// Zero every registered metric (names stay registered). jrsh `stats
  /// reset` and tests use this to scope measurements.
  void reset();

 private:
  struct Impl;
  template <typename T>
  T& lookup(std::string_view name);

  std::unique_ptr<Impl> impl_;
};

/// The process-global registry every instrumented layer records into.
MetricsRegistry& registry();

}  // namespace jrobs
