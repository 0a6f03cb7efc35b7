#include "obs/spans.h"

#include "obs/jsonutil.h"
#include "obs/metrics.h"

#include <cinttypes>
#include <cstdio>

#ifndef JROUTE_NO_TELEMETRY
#include <algorithm>
#include <atomic>
#include <memory>

#include "common/sync.h"
#endif

namespace jrobs {

const char* spanSegmentName(size_t i) {
  switch (i) {
    case 0: return "queue_wait";    // enqueue -> drained from the queue
    case 1: return "batch_linger";  // in the open batch until planning
    case 2: return "plan";          // template/maze search
    case 3: return "arbitration";   // waiting for the commit loop / claims
    case 4: return "commit";        // transaction apply (or unroute)
    case 5: return "reply";         // finish() bookkeeping to promise-set
  }
  return "?";
}

namespace {

std::string u64s(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
}

std::string dbl(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

std::string SpanRecord::json() const {
  std::string out = "{";
  out += "\"request_id\":" + u64s(requestId) + ",";
  out += "\"session_id\":" + u64s(sessionId) + ",";
  out += jsonKv("op", op) + ",";
  out += jsonKv("result", result) + ",";
  out += std::string("\"parallel\":") + (parallel ? "true" : "false") + ",";
  out += "\"segments_us\":{";
  for (size_t i = 0; i < kNumSpanSegments; ++i) {
    if (i != 0) out += ",";
    out += "\"" + std::string(spanSegmentName(i)) + "\":" + u64s(segUs[i]);
  }
  out += "},\"e2e_us\":" + u64s(e2eUs) + "}";
  return out;
}

std::string SpanAttribution::text() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line,
                "span attribution: %" PRIu64 " request(s), e2e p50 %.0fus"
                "  p95 %.0fus  p99 %.0fus\n",
                requests, e2eP50Us, e2eP95Us, e2eP99Us);
  out += line;
  if (requests == 0) return out;
  std::snprintf(line, sizeof line, "  %-14s %7s %14s %10s %10s %10s\n",
                "segment", "share", "total_ms", "p50_us", "p95_us", "p99_us");
  out += line;
  for (const Segment& s : segments) {
    std::snprintf(line, sizeof line,
                  "  %-14s %6.1f%% %14.3f %10.0f %10.0f %10.0f\n", s.name,
                  s.share * 100.0, static_cast<double>(s.totalUs) / 1000.0,
                  s.p50Us, s.p95Us, s.p99Us);
    out += line;
  }
  return out;
}

std::string SpanAttribution::json() const {
  std::string out = "{\"spans\":{";
  out += "\"requests\":" + u64s(requests) + ",";
  out += "\"e2e_total_us\":" + u64s(e2eTotalUs) + ",";
  out += "\"e2e_p50_us\":" + dbl(e2eP50Us) + ",";
  out += "\"e2e_p95_us\":" + dbl(e2eP95Us) + ",";
  out += "\"e2e_p99_us\":" + dbl(e2eP99Us) + ",";
  out += "\"segments\":[";
  for (size_t i = 0; i < segments.size(); ++i) {
    const Segment& s = segments[i];
    if (i != 0) out += ",";
    out += "{" + jsonKv("name", s.name) + ",";
    out += "\"total_us\":" + u64s(s.totalUs) + ",";
    out += "\"share\":" + dbl(s.share) + ",";
    out += "\"p50_us\":" + dbl(s.p50Us) + ",";
    out += "\"p95_us\":" + dbl(s.p95Us) + ",";
    out += "\"p99_us\":" + dbl(s.p99Us) + "}";
  }
  out += "]}}";
  return out;
}

#ifndef JROUTE_NO_TELEMETRY

namespace {

/// Registry mirrors, resolved once per process (the registration lock is
/// never touched again afterwards — same pattern as the engine metrics).
struct SpanMetrics {
  std::array<Histogram*, kNumSpanSegments> seg{};
  Histogram& e2e = registry().histogram("service.span.e2e_us");
  SpanMetrics() {
    for (size_t i = 0; i < kNumSpanSegments; ++i) {
      seg[i] = &registry().histogram("service.span." +
                                     std::string(spanSegmentName(i)) + "_us");
    }
  }
};

SpanMetrics& spanMetrics() {
  static SpanMetrics m;
  return m;
}

}  // namespace

struct SpanAggregator::Impl {
  /// One thread's aggregate: relaxed-atomic sums plus a single-writer
  /// ring of recent records published with a release store of head —
  /// the flight recorder's protocol, so fold() never takes a lock after
  /// the thread's first registration.
  struct Agg {
    std::array<std::atomic<uint64_t>, kNumSpanSegments> sumUs{};
    std::atomic<uint64_t> e2eSumUs{0};
    std::atomic<uint64_t> count{0};
    std::array<SpanRecord, kRecentCapacity> recent;
    std::atomic<uint64_t> head{0};
  };

  /// Registration and report-time merges only — never on the fold path.
  mutable jrsync::Mutex mu;
  std::vector<std::unique_ptr<Agg>> aggs JR_GUARDED_BY(mu);

  Agg& localAgg() {
    thread_local Agg* agg = nullptr;
    if (agg == nullptr) {
      auto owned = std::make_unique<Agg>();
      agg = owned.get();
      jrsync::MutexLock lock(mu);
      aggs.push_back(std::move(owned));
    }
    return *agg;
  }
};

SpanAggregator::SpanAggregator() : impl_(new Impl) {}

SpanAggregator& SpanAggregator::instance() {
  static SpanAggregator* agg = new SpanAggregator();  // leaked on purpose
  return *agg;
}

SpanRecord SpanAggregator::fold(const RequestSpan& span, uint64_t requestId,
                                uint64_t sessionId, const char* op,
                                const char* result, bool parallel) {
  SpanRecord rec;
  rec.requestId = requestId;
  rec.sessionId = sessionId;
  rec.op = op;
  rec.result = result;
  rec.parallel = parallel;

  // Telescope the stamps into segments with a monotone running clock:
  // a missing stamp (stage skipped — unroutes never plan) or one that
  // reads earlier than its predecessor (serialized retry overwrote a
  // later stage first) clamps to a zero-length segment. The invariant
  // the tests lean on falls out by construction: sum(segments) ==
  // reply - enqueue, exactly, whenever both ends were stamped.
  const uint64_t t0 = span.at(SpanStage::kEnqueue);
  uint64_t prevNs = t0;
  for (size_t i = 1; i < kNumSpanStages; ++i) {
    const uint64_t raw = span.ns[i];
    const uint64_t t = std::max(raw == 0 ? prevNs : raw, prevNs);
    rec.segUs[i - 1] = (t - prevNs) / 1000;
    prevNs = t;
  }
  if (t0 == 0) return rec;  // never entered the service; nothing to fold
  // Derive e2e from the microsecond segments, not the raw nanoseconds,
  // so the telescoping identity holds after truncation too.
  rec.e2eUs = 0;
  for (const uint64_t s : rec.segUs) rec.e2eUs += s;

  Impl::Agg& a = impl_->localAgg();
  for (size_t i = 0; i < kNumSpanSegments; ++i) {
    a.sumUs[i].fetch_add(rec.segUs[i], std::memory_order_relaxed);
  }
  a.e2eSumUs.fetch_add(rec.e2eUs, std::memory_order_relaxed);
  a.count.fetch_add(1, std::memory_order_relaxed);
  const uint64_t h = a.head.load(std::memory_order_relaxed);
  a.recent[h % kRecentCapacity] = rec;
  a.head.store(h + 1, std::memory_order_release);

  SpanMetrics& m = spanMetrics();
  for (size_t i = 0; i < kNumSpanSegments; ++i) {
    m.seg[i]->record(rec.segUs[i]);
  }
  m.e2e.record(rec.e2eUs);
  return rec;
}

uint64_t SpanAggregator::count() const {
  jrsync::MutexLock lock(impl_->mu);
  uint64_t n = 0;
  for (const auto& a : impl_->aggs) {
    n += a->count.load(std::memory_order_relaxed);
  }
  return n;
}

SpanAttribution SpanAggregator::report() const {
  SpanAttribution rep;
  {
    jrsync::MutexLock lock(impl_->mu);
    for (const auto& a : impl_->aggs) {
      rep.requests += a->count.load(std::memory_order_relaxed);
      rep.e2eTotalUs += a->e2eSumUs.load(std::memory_order_relaxed);
      for (size_t i = 0; i < kNumSpanSegments; ++i) {
        rep.segments[i].totalUs +=
            a->sumUs[i].load(std::memory_order_relaxed);
      }
    }
  }
  for (size_t i = 0; i < kNumSpanSegments; ++i) {
    rep.segments[i].name = spanSegmentName(i);
    rep.segments[i].share =
        rep.e2eTotalUs == 0
            ? 0.0
            : static_cast<double>(rep.segments[i].totalUs) /
                  static_cast<double>(rep.e2eTotalUs);
  }
  // Percentiles come from the registry histograms fold() co-records
  // into — the sums answer "where did the total go", the histograms
  // answer "how bad is the tail of each segment".
  const MetricsSnapshot snap = registry().snapshot();
  for (size_t i = 0; i < kNumSpanSegments; ++i) {
    if (const MetricSample* h = snap.find(
            "service.span." + std::string(spanSegmentName(i)) + "_us")) {
      rep.segments[i].p50Us = h->p50;
      rep.segments[i].p95Us = h->p95;
      rep.segments[i].p99Us = h->p99;
    }
  }
  if (const MetricSample* h = snap.find("service.span.e2e_us")) {
    rep.e2eP50Us = h->p50;
    rep.e2eP95Us = h->p95;
    rep.e2eP99Us = h->p99;
  }
  return rep;
}

std::vector<SpanRecord> SpanAggregator::recentRecords() const {
  jrsync::MutexLock lock(impl_->mu);
  std::vector<SpanRecord> all;
  for (const auto& a : impl_->aggs) {
    const uint64_t h = a->head.load(std::memory_order_acquire);
    const uint64_t n = std::min<uint64_t>(h, kRecentCapacity);
    for (uint64_t seq = h - n; seq < h; ++seq) {
      all.push_back(a->recent[seq % kRecentCapacity]);
    }
  }
  return all;
}

std::vector<SpanRecord> SpanAggregator::recentWorst(size_t k) const {
  std::vector<SpanRecord> all = recentRecords();
  const size_t n = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(n),
                    all.end(), [](const SpanRecord& a, const SpanRecord& b) {
                      return a.e2eUs > b.e2eUs;
                    });
  all.resize(n);
  return all;
}

void SpanAggregator::reset() {
  jrsync::MutexLock lock(impl_->mu);
  for (auto& a : impl_->aggs) {
    for (auto& s : a->sumUs) s.store(0, std::memory_order_relaxed);
    a->e2eSumUs.store(0, std::memory_order_relaxed);
    a->count.store(0, std::memory_order_relaxed);
    a->head.store(0, std::memory_order_release);
  }
}

#else  // JROUTE_NO_TELEMETRY ------------------------------------------------

struct SpanAggregator::Impl {};

SpanAggregator::SpanAggregator() : impl_(nullptr) {}

SpanAggregator& SpanAggregator::instance() {
  static SpanAggregator* agg = new SpanAggregator();  // leaked on purpose
  return *agg;
}

SpanRecord SpanAggregator::fold(const RequestSpan&, uint64_t requestId,
                                uint64_t sessionId, const char* op,
                                const char* result, bool parallel) {
  SpanRecord rec;
  rec.requestId = requestId;
  rec.sessionId = sessionId;
  rec.op = op;
  rec.result = result;
  rec.parallel = parallel;
  return rec;
}

uint64_t SpanAggregator::count() const { return 0; }
SpanAttribution SpanAggregator::report() const { return {}; }
std::vector<SpanRecord> SpanAggregator::recentRecords() const { return {}; }
std::vector<SpanRecord> SpanAggregator::recentWorst(size_t) const {
  return {};
}
void SpanAggregator::reset() {}

#endif  // JROUTE_NO_TELEMETRY

SpanAggregator& spanAggregator() { return SpanAggregator::instance(); }

}  // namespace jrobs
