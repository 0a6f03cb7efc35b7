#include "obs/spans.h"

#include "obs/jsonutil.h"
#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace jrobs {

const char* spanSegmentName(size_t i) {
  switch (i) {
    case 0: return "queue_wait";    // enqueue -> drained from the queue
    case 1: return "batch_linger";  // in the open batch until planning
    case 2: return "plan";          // template/maze search
    case 3: return "arbitration";   // waiting for the commit loop
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

namespace {

/// The span histograms, resolved once per process (the registration lock
/// is never touched again afterwards — same pattern as the engine
/// metrics). They are the one store of span totals, counts and tails.
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
  if (t0 == 0) return rec;  // never entered the service; nothing to fold
  uint64_t prevNs = t0;
  for (size_t i = 1; i < kNumSpanStages; ++i) {
    const uint64_t raw = span.ns[i];
    const uint64_t t = std::max(raw == 0 ? prevNs : raw, prevNs);
    rec.segUs[i - 1] = (t - prevNs) / 1000;
    prevNs = t;
  }
  // Derive e2e from the microsecond segments, not the raw nanoseconds,
  // so the telescoping identity holds after truncation too.
  SpanMetrics& m = spanMetrics();
  for (size_t i = 0; i < kNumSpanSegments; ++i) {
    rec.e2eUs += rec.segUs[i];
    m.seg[i]->record(rec.segUs[i]);
  }
  m.e2e.record(rec.e2eUs);
  recent_.push(rec);
  return rec;
}

uint64_t SpanAggregator::count() const { return spanMetrics().e2e.count(); }

SpanAttribution SpanAggregator::report() const {
  const SpanMetrics& m = spanMetrics();
  SpanAttribution rep;
  rep.requests = m.e2e.count();
  rep.e2eTotalUs = m.e2e.sum();
  rep.e2eP50Us = m.e2e.percentile(50);
  rep.e2eP95Us = m.e2e.percentile(95);
  rep.e2eP99Us = m.e2e.percentile(99);
  for (size_t i = 0; i < kNumSpanSegments; ++i) {
    const Histogram& h = *m.seg[i];
    SpanAttribution::Segment& seg = rep.segments[i];
    seg.name = spanSegmentName(i);
    seg.totalUs = h.sum();
    seg.share = rep.e2eTotalUs == 0
                    ? 0.0
                    : static_cast<double>(seg.totalUs) /
                          static_cast<double>(rep.e2eTotalUs);
    seg.p50Us = h.percentile(50);
    seg.p95Us = h.percentile(95);
    seg.p99Us = h.percentile(99);
  }
  return rep;
}

std::vector<SpanRecord> SpanAggregator::recentRecords() const {
  std::vector<SpanRecord> all;
  recent_.collect([&](size_t, const SpanRecord& r) { all.push_back(r); });
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
  SpanMetrics& m = spanMetrics();
  for (Histogram* h : m.seg) h->reset();
  m.e2e.reset();
  recent_.clear();
}

SpanAggregator& spanAggregator() { return SpanAggregator::instance(); }

}  // namespace jrobs
