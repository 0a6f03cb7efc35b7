// Anomaly flight recorder: post-mortem bundles for routing failures.
//
// Counters tell you contention happened; a trace tells you when — but by
// the time someone goes looking, the interesting window is long gone.
// The flight recorder keeps a small ring of recent engine events (batch
// boundaries, contention, rollbacks, commits) in per-thread
// single-writer rings (obs/ring.h, the tracer's ring model), so a note
// never takes a lock and worker threads never contend; rings are merged
// and time-sorted only when a bundle is dumped. Events are stamped with
// the shared obs clock (obs/clock.h), so a bundle's ts_ns lines up with
// a Chrome trace's ts. When an anomaly fires (contention exception,
// rollback, deadline miss, paranoid-DRC violation, SLO breach) and the
// recorder is armed, it dumps a self-contained JSON bundle to a file:
// the anomaly, the last-N events, caller-supplied extra context (the
// offending net's provenance, the DRC report), and a full metrics
// snapshot. Anomalies are always *counted* in the registry
// (obs.flightrec.anomalies and obs.flightrec.anomaly.<kind>) even when
// disarmed, so `stats` shows that something went wrong without any
// filesystem writes.
//
// Arming: `jrsh flightrec arm <dir>`, or set JROUTE_FLIGHT_DIR before
// startup. Bundles are named flightrec-<seq>-<kind>.json.
//
// With JROUTE_NO_TELEMETRY notes record nothing, the recorder never
// arms, and anomaly() writes no bundle and returns an empty path.
#pragma once

#include <cstdint>
#include <string>

#include "common/sync.h"
#include "obs/ring.h"

namespace jrobs {

/// One ring entry. cat/name must be string literals (the ring stores the
/// pointers, mirroring the tracer's contract); a/b are free-form payload
/// words — typically a node id, request id, or count.
struct FlightEvent {
  uint64_t tsNs = 0;  // nowNs()
  const char* cat = nullptr;
  const char* name = nullptr;
  uint64_t a = 0;
  uint64_t b = 0;
};

class FlightRecorder {
 public:
  static FlightRecorder& instance();

  /// Append an event to the calling thread's ring (overwrites that
  /// thread's oldest when full). Lock-free after the thread's first note.
  void note(const char* cat, const char* name, uint64_t a = 0,
            uint64_t b = 0);

  /// Start writing anomaly bundles into `dir` (must already exist).
  void arm(const std::string& dir);
  void disarm();
  bool armed() const;
  /// Directory bundles are written to; empty when disarmed.
  std::string dir() const;

  /// Report an anomaly. Always bumps obs.flightrec.anomalies (and the
  /// per-kind counter); when armed, also writes a bundle and returns its
  /// path. `extraJson`, when non-empty, must be a complete JSON value
  /// (e.g. `{"provenance":...,"drc":...}`) and is embedded verbatim as
  /// the bundle's "extra" field.
  std::string anomaly(const std::string& kind, const std::string& detail,
                      const std::string& extraJson = "");

  /// Events currently retained across all thread rings (each ring caps
  /// at kRingCapacity).
  size_t eventCount() const { return rings_.count(); }
  /// Anomalies reported (armed or not): the obs.flightrec.anomalies
  /// counter, so a registry reset zeroes it too.
  uint64_t anomalyCount() const;

  /// Drop all ring events (jrsh `stats reset`). Arming state and the
  /// anomaly sequence counter are untouched.
  void clear() { rings_.clear(); }

  /// Per-thread ring capacity.
  static constexpr size_t kRingCapacity = 1024;

 private:
  FlightRecorder();
  ~FlightRecorder() = delete;  // process-lifetime singleton

  /// Every retained event as one JSON array, oldest first.
  std::string eventsJson() const;

  ThreadRings<FlightEvent, kRingCapacity> rings_;
  mutable jrsync::Mutex mu_;
  bool armed_ JR_GUARDED_BY(mu_) = false;
  std::string dir_ JR_GUARDED_BY(mu_);
  uint64_t nextSeq_ JR_GUARDED_BY(mu_) = 1;
};

/// Shorthand for FlightRecorder::instance().
FlightRecorder& flightRecorder();

}  // namespace jrobs
