// Lock-free event tracing with Chrome trace_event JSON export.
//
// Each thread that emits events writes its own single-writer ring
// (obs/ring.h): recording an event is a clock read (obs/clock.h), a slot
// write, and one release store — cheap enough to leave the scopes
// compiled into the hot paths and gate them on a single atomic flag.
// When tracing is off (the default) a scope costs one relaxed load and a
// branch.
//
// Export renders the rings as Chrome's trace_event JSON (the
// `{"traceEvents":[...]}` array format), which chrome://tracing and
// Perfetto load directly — ts/dur in microseconds since the obs process
// epoch, one tid per ring. Rings overwrite their oldest events when
// full; the export reports how many were dropped so a truncated trace is
// never mistaken for a complete one.
//
// With JROUTE_NO_TELEMETRY the tracer is never enabled, its export is
// empty, and JR_TRACE_SCOPE / JR_TRACE_INSTANT expand to nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/clock.h"
#include "obs/ring.h"

namespace jrobs {

/// One duration ("X") or instant ("i") event.
/// Name/category must be string literals (or otherwise outlive the
/// tracer): rings store the pointers, never copies.
struct TraceEvent {
  enum class Phase : uint8_t { kDuration, kInstant };

  const char* cat = nullptr;
  const char* name = nullptr;
  uint64_t tsNs = 0;   // nowNs()
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
  void clear() { rings_.clear(); }
  bool enabled() const {
    if constexpr (compiledIn()) {
      return enabled_.load(std::memory_order_relaxed);
    } else {
      return false;
    }
  }

  /// Record a completed span. No-op unless enabled.
  void record(const char* cat, const char* name, uint64_t tsNs,
              uint64_t durNs);
  /// Record a point-in-time event. No-op unless enabled.
  void instant(const char* cat, const char* name);

  /// Chrome trace_event JSON of everything captured. Call after stop()
  /// (or at a point where emitting threads are quiescent): single-writer
  /// rings are safe to read then, and the export is a consistent cut.
  std::string exportJson() const;

  /// Events currently held across all rings (capped by ring capacity).
  size_t eventCount() const { return rings_.count(); }
  /// Events overwritten because a ring wrapped.
  size_t droppedCount() const { return rings_.dropped(); }

  static constexpr size_t kRingCapacity = 1u << 14;  // events per thread

 private:
  Tracer() = default;
  ~Tracer() = delete;  // process-lifetime singleton; rings stay valid

  ThreadRings<TraceEvent, kRingCapacity> rings_;
  std::atomic<bool> enabled_{false};
};

/// RAII duration span. Records on destruction when tracing was enabled
/// at construction AND still is at destruction (a stop() in between
/// drops the span instead of writing into a ring being exported).
class TraceScope {
 public:
  TraceScope(const char* cat, const char* name)
      : cat_(cat), name_(name) {
    live_ = Tracer::instance().enabled();
    if (live_) t0_ = nowNs();
  }
  ~TraceScope() {
    if (!live_) return;
    const uint64_t t1 = nowNs();
    Tracer::instance().record(cat_, name_, t0_, t1 - t0_);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  const char* cat_;
  const char* name_;
  uint64_t t0_ = 0;
  bool live_ = false;
};

// Compiled out, both macros are empty statements; otherwise they are
// defined below.
#ifdef JROUTE_NO_TELEMETRY
#define JR_TRACE_SCOPE(cat, name) static_cast<void>(0)
#define JR_TRACE_INSTANT(cat, name) static_cast<void>(0)
#endif

#ifndef JR_TRACE_SCOPE
#define JR_TRACE_CONCAT2(a, b) a##b
#define JR_TRACE_CONCAT(a, b) JR_TRACE_CONCAT2(a, b)
/// Scoped duration event: JR_TRACE_SCOPE("service", "plan.parallel");
#define JR_TRACE_SCOPE(cat, name) \
  ::jrobs::TraceScope JR_TRACE_CONCAT(jrTraceScope_, __LINE__)(cat, name)
/// Point event: JR_TRACE_INSTANT("service", "claim.conflict");
#define JR_TRACE_INSTANT(cat, name) \
  ::jrobs::Tracer::instance().instant(cat, name)
#endif

/// Write exportJson() to `path`. Returns false (and sets `error`) on I/O
/// failure. Writes an empty trace when telemetry is compiled out.
bool dumpTrace(const std::string& path, std::string* error = nullptr);

}  // namespace jrobs
