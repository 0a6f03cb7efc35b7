// Lock-free event tracing with Chrome trace_event JSON export.
//
// Each thread that emits events owns a fixed-size ring buffer it alone
// writes (registered once under a mutex, then wait-free): recording an
// event is a clock read, a slot write, and one release store — cheap
// enough to leave the scopes compiled into the hot paths and gate them
// on a single atomic flag. When tracing is off (the default) a scope
// costs one relaxed load and a branch.
//
// Export renders the rings as Chrome's trace_event JSON (the
// `{"traceEvents":[...]}` array format), which chrome://tracing and
// Perfetto load directly — ts/dur in microseconds, one tid per ring.
// Rings overwrite their oldest events when full; the export reports how
// many were dropped per thread so a truncated trace is never mistaken
// for a complete one.
//
// With JROUTE_NO_TELEMETRY the tracer is a stub (never enabled, empty
// export) and JR_TRACE_SCOPE expands to nothing.
#pragma once

#include <cstdint>
#include <string>

#ifndef JROUTE_NO_TELEMETRY
#include <atomic>
#include <chrono>
#endif

namespace jrobs {

#ifndef JROUTE_NO_TELEMETRY

/// One duration ("X") or instant ("i") event.
/// Name/category must be string literals (or otherwise outlive the
/// tracer): rings store the pointers, never copies.
struct TraceEvent {
  enum class Phase : uint8_t { kDuration, kInstant };

  const char* cat = nullptr;
  const char* name = nullptr;
  uint64_t tsNs = 0;   // since tracer epoch
  uint64_t durNs = 0;  // duration events only
  Phase phase = Phase::kDuration;
};

class Tracer {
 public:
  static Tracer& instance();

  /// Start a fresh capture: clears every ring, then enables recording.
  void start();
  /// Stop recording. Events already captured stay exportable.
  void stop();
  /// Drop every captured event without touching the enabled flag. jrsh
  /// `stats reset` uses this so a reset scopes traces the same way it
  /// scopes counters. Call at quiescence (or accept that in-flight
  /// spans may land in the cleared rings).
  void clear();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Record a completed span. No-op unless enabled.
  void record(const char* cat, const char* name, uint64_t tsNs,
              uint64_t durNs);
  /// Record a point-in-time event. No-op unless enabled.
  void instant(const char* cat, const char* name);

  /// Nanoseconds since the tracer epoch (first use in the process).
  uint64_t nowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Chrome trace_event JSON of everything captured. Call after stop()
  /// (or at a point where emitting threads are quiescent): single-writer
  /// rings are safe to read then, and the export is a consistent cut.
  std::string exportJson() const;

  /// Events currently held across all rings (capped by ring capacity).
  size_t eventCount() const;
  /// Events overwritten because a ring wrapped.
  size_t droppedCount() const;

  static constexpr size_t kRingCapacity = 1u << 14;  // events per thread

 private:
  Tracer();
  ~Tracer() = delete;  // process-lifetime singleton; rings stay valid

  struct Ring;
  Ring& localRing();

  struct Impl;
  Impl* impl_;
  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII duration span. Records on destruction when tracing was enabled
/// at construction AND still is at destruction (a stop() in between
/// drops the span instead of writing into a ring being exported).
class TraceScope {
 public:
  TraceScope(const char* cat, const char* name)
      : cat_(cat), name_(name) {
    Tracer& t = Tracer::instance();
    live_ = t.enabled();
    if (live_) t0_ = t.nowNs();
  }
  ~TraceScope() {
    if (!live_) return;
    Tracer& t = Tracer::instance();
    const uint64_t t1 = t.nowNs();
    t.record(cat_, name_, t0_, t1 - t0_);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  const char* cat_;
  const char* name_;
  uint64_t t0_ = 0;
  bool live_ = false;
};

#define JR_TRACE_CONCAT2(a, b) a##b
#define JR_TRACE_CONCAT(a, b) JR_TRACE_CONCAT2(a, b)
/// Scoped duration event: JR_TRACE_SCOPE("service", "plan.parallel");
#define JR_TRACE_SCOPE(cat, name) \
  ::jrobs::TraceScope JR_TRACE_CONCAT(jrTraceScope_, __LINE__)(cat, name)
/// Point event: JR_TRACE_INSTANT("service", "claim.conflict");
#define JR_TRACE_INSTANT(cat, name) \
  ::jrobs::Tracer::instance().instant(cat, name)

#else  // JROUTE_NO_TELEMETRY ------------------------------------------------

class Tracer {
 public:
  static Tracer& instance();
  void start() {}
  void stop() {}
  void clear() {}
  bool enabled() const { return false; }
  void record(const char*, const char*, uint64_t, uint64_t) {}
  void instant(const char*, const char*) {}
  uint64_t nowNs() const { return 0; }
  std::string exportJson() const { return "{\"traceEvents\":[]}"; }
  size_t eventCount() const { return 0; }
  size_t droppedCount() const { return 0; }

  static constexpr size_t kRingCapacity = 1u << 14;  // mirrors the real tracer
};

#define JR_TRACE_SCOPE(cat, name) \
  do {                            \
  } while (false)
#define JR_TRACE_INSTANT(cat, name) \
  do {                              \
  } while (false)

#endif  // JROUTE_NO_TELEMETRY

/// Write exportJson() to `path`. Returns false (and sets `error`) on I/O
/// failure. Available in both build modes (writes an empty trace when
/// compiled out).
bool dumpTrace(const std::string& path, std::string* error = nullptr);

}  // namespace jrobs
