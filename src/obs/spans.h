// Request-lifecycle spans: where did my milliseconds go?
//
// Counters say how many requests the service resolved; the end-to-end
// time says how long they took. Neither answers the question that steers
// the engine's tuning knobs: of those milliseconds, how many were queue
// wait vs batch linger vs planning vs waiting to commit vs commit? Every
// Request carries a RequestSpan — seven fixed timestamp slots stamped
// from the obs clock (obs/clock.h) as the request crosses each engine
// stage — and when the request resolves, the engine folds the span: the
// telescoped segments go into the service.span.*_us registry histograms
// (one per segment plus service.span.e2e_us, the service's one request
// latency) and the record into a per-thread ring of recent records
// (obs/ring.h). Those histograms are the only store of span totals,
// counts and percentiles; report() reads them. Folding is relaxed
// atomics plus one ring publish, so the hot path never takes a lock.
//
// The attribution report (jrsh `spans [json]`) telescopes exactly: the
// six segments of one request sum to its reply-minus-enqueue latency by
// construction (missing or reordered stamps clamp to zero-length
// segments, never negative ones). Recent records feed the flight
// recorder's SLO-breach bundles (obs/slo.h) so a burn-rate page carries
// the worst offenders' per-segment breakdown.
//
// With JROUTE_NO_TELEMETRY stamps stay 0 ("never stamped"), so fold()
// records nothing and the report is all zeros; call sites never #ifdef.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/clock.h"
#include "obs/ring.h"

namespace jrobs {

/// The stamped points of a request's life, in engine order. Each
/// adjacent pair bounds one attribution segment (spanSegmentName).
enum class SpanStage : uint8_t {
  kEnqueue = 0,     // RoutingService::submit pushed the request
  kBatchClose,      // the engine drained it out of the MPSC queue
  kPlanStart,       // a planner (parallel or serialized) picked it up
  kPlanEnd,         // the plan/search finished
  kArbitration,     // the commit loop (or the serialized path) reached it
  kCommit,          // its transaction committed or rolled back
  kReply,           // finish() resolved the promise
};

inline constexpr size_t kNumSpanStages = 7;
inline constexpr size_t kNumSpanSegments = kNumSpanStages - 1;

/// Segment `i` spans stage `i` -> stage `i+1`: queue_wait, batch_linger,
/// plan, arbitration, commit, reply.
const char* spanSegmentName(size_t i);

/// Per-request timestamp record, embedded by value in jrsvc::Request.
/// Slots are nowNs() readings; zero means "never stamped" (a stamp is
/// kept >= 1 so the clock's first nanosecond cannot read as missing).
/// Stamping twice overwrites (the serialized retry after a parallel
/// fallback re-stamps plan/commit with its own, later times).
struct RequestSpan {
  std::array<uint64_t, kNumSpanStages> ns{};

  void stamp(SpanStage s) {
    if constexpr (compiledIn()) {
      ns[static_cast<size_t>(s)] = std::max<uint64_t>(nowNs(), 1);
    }
  }
  uint64_t at(SpanStage s) const { return ns[static_cast<size_t>(s)]; }
};

/// One resolved request's folded span: the telescoped segments (they sum
/// to e2eUs exactly) plus enough identity to make a breach bundle or a
/// report line self-explanatory. op/result are string literals
/// (opName/rejectName), mirroring the tracer's literal-pointer contract.
struct SpanRecord {
  uint64_t requestId = 0;
  uint64_t sessionId = 0;
  const char* op = "";
  const char* result = "";
  bool parallel = false;
  std::array<uint64_t, kNumSpanSegments> segUs{};
  uint64_t e2eUs = 0;

  std::string json() const;
};

/// The "where did my milliseconds go" answer at one point in time.
struct SpanAttribution {
  struct Segment {
    const char* name = "";
    uint64_t totalUs = 0;
    double share = 0.0;  // of the summed end-to-end time
    double p50Us = 0.0, p95Us = 0.0, p99Us = 0.0;
  };
  uint64_t requests = 0;
  uint64_t e2eTotalUs = 0;
  double e2eP50Us = 0.0, e2eP95Us = 0.0, e2eP99Us = 0.0;
  std::array<Segment, kNumSpanSegments> segments{};

  /// Aligned table for jrsh `spans`.
  std::string text() const;
  /// {"spans":{...}} for jrsh `spans json` and breach bundles.
  std::string json() const;
};

/// Process-global span aggregator. fold() is called by the engine once
/// per resolved request; everything else is report-time.
class SpanAggregator {
 public:
  static SpanAggregator& instance();

  /// Telescope the span into segments, record them into the
  /// service.span.* registry histograms, and retain the record in the
  /// calling thread's recent-ring. Returns the folded record so the
  /// caller can embed it (flight-recorder bundles).
  SpanRecord fold(const RequestSpan& span, uint64_t requestId,
                  uint64_t sessionId, const char* op, const char* result,
                  bool parallel);

  /// Requests folded since the last reset (service.span.e2e_us count).
  uint64_t count() const;

  SpanAttribution report() const;

  /// Every record still retained in the per-thread rings (newest last
  /// per thread; cross-thread order unspecified).
  std::vector<SpanRecord> recentRecords() const;
  /// The k retained records with the largest end-to-end latency.
  std::vector<SpanRecord> recentWorst(size_t k) const;

  /// Zero the seven service.span.* histograms and empty the rings (jrsh
  /// `stats reset`, jrload). Thread registrations persist.
  void reset();

  /// Per-thread recent-record ring capacity.
  static constexpr size_t kRecentCapacity = 256;

 private:
  SpanAggregator() = default;
  ~SpanAggregator() = delete;  // process-lifetime singleton

  ThreadRings<SpanRecord, kRecentCapacity> recent_;
};

/// Shorthand for SpanAggregator::instance().
SpanAggregator& spanAggregator();

}  // namespace jrobs
