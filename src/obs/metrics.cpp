#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>

#include "common/sync.h"

namespace jrobs {

const char* metricKindName(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

// --- Snapshot rendering (both build modes) -----------------------------------

const MetricSample* MetricsSnapshot::find(std::string_view name) const {
  for (const MetricSample& s : samples) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

int64_t MetricsSnapshot::value(std::string_view name) const {
  const MetricSample* s = find(name);
  if (s == nullptr) return 0;
  return s->kind == MetricKind::kHistogram ? static_cast<int64_t>(s->count)
                                           : s->value;
}

std::string MetricsSnapshot::text() const {
  if (samples.empty()) {
    return compiledIn() ? std::string("(no metrics recorded)\n")
                        : std::string("(telemetry compiled out)\n");
  }
  size_t width = 0;
  for (const MetricSample& s : samples) width = std::max(width, s.name.size());
  std::ostringstream os;
  char buf[160];
  for (const MetricSample& s : samples) {
    if (s.kind == MetricKind::kHistogram) {
      std::snprintf(buf, sizeof buf,
                    "%-*s  count %llu  mean %.1f  p50 %.1f  p95 %.1f  "
                    "p99 %.1f\n",
                    static_cast<int>(width), s.name.c_str(),
                    static_cast<unsigned long long>(s.count), s.mean, s.p50,
                    s.p95, s.p99);
    } else {
      std::snprintf(buf, sizeof buf, "%-*s  %lld\n", static_cast<int>(width),
                    s.name.c_str(), static_cast<long long>(s.value));
    }
    os << buf;
  }
  return os.str();
}

std::string MetricsSnapshot::json() const {
  std::ostringstream os;
  os << "{\"telemetry\":" << (compiledIn() ? "true" : "false")
     << ",\"metrics\":[";
  char buf[96];
  for (size_t i = 0; i < samples.size(); ++i) {
    const MetricSample& s = samples[i];
    if (i > 0) os << ',';
    os << "{\"name\":\"" << s.name << "\",\"kind\":\""
       << metricKindName(s.kind) << '"';
    if (s.kind == MetricKind::kHistogram) {
      std::snprintf(buf, sizeof buf,
                    ",\"count\":%llu,\"sum\":%llu,\"mean\":%.6g,"
                    "\"p50\":%.6g,\"p95\":%.6g,\"p99\":%.6g",
                    static_cast<unsigned long long>(s.count),
                    static_cast<unsigned long long>(s.sum), s.mean, s.p50,
                    s.p95, s.p99);
      os << buf;
    } else {
      os << ",\"value\":" << s.value;
    }
    os << '}';
  }
  os << "]}";
  return os.str();
}

#ifndef JROUTE_NO_TELEMETRY

// --- Histogram percentile ----------------------------------------------------

double Histogram::percentile(double p) const {
  const uint64_t n = count();
  if (n == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Nearest-rank with interpolation inside the winning bucket.
  const double rank = p / 100.0 * static_cast<double>(n);
  uint64_t cum = 0;
  for (uint32_t i = 0; i < kNumBuckets; ++i) {
    const uint64_t c = buckets_[i].load(std::memory_order_relaxed);
    if (c == 0) continue;
    if (static_cast<double>(cum + c) >= rank) {
      const double lo = static_cast<double>(bucketLowerBound(i));
      const double hi =
          i + 1 < kNumBuckets ? static_cast<double>(bucketLowerBound(i + 1))
                              : lo;
      const double frac =
          std::clamp((rank - static_cast<double>(cum)) /
                         static_cast<double>(c),
                     0.0, 1.0);
      return lo + (hi - lo) * frac;
    }
    cum += c;
  }
  return static_cast<double>(bucketLowerBound(kNumBuckets - 1));
}

// --- Registry ----------------------------------------------------------------

struct MetricsRegistry::Impl {
  struct Entry {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    size_t order = 0;  // registration order, for stable output
  };
  mutable jrsync::Mutex mu;
  std::map<std::string, Entry, std::less<>> entries JR_GUARDED_BY(mu);
  size_t nextOrder JR_GUARDED_BY(mu) = 0;
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}
MetricsRegistry::~MetricsRegistry() { delete impl_; }

Counter& MetricsRegistry::counter(std::string_view name) {
  jrsync::MutexLock lk(impl_->mu);
  auto it = impl_->entries.find(name);
  if (it == impl_->entries.end()) {
    Impl::Entry e;
    e.kind = MetricKind::kCounter;
    e.counter = std::make_unique<Counter>();
    e.order = impl_->nextOrder++;
    it = impl_->entries.emplace(std::string(name), std::move(e)).first;
  }
  return *it->second.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  jrsync::MutexLock lk(impl_->mu);
  auto it = impl_->entries.find(name);
  if (it == impl_->entries.end()) {
    Impl::Entry e;
    e.kind = MetricKind::kGauge;
    e.gauge = std::make_unique<Gauge>();
    e.order = impl_->nextOrder++;
    it = impl_->entries.emplace(std::string(name), std::move(e)).first;
  }
  return *it->second.gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  jrsync::MutexLock lk(impl_->mu);
  auto it = impl_->entries.find(name);
  if (it == impl_->entries.end()) {
    Impl::Entry e;
    e.kind = MetricKind::kHistogram;
    e.histogram = std::make_unique<Histogram>();
    e.order = impl_->nextOrder++;
    it = impl_->entries.emplace(std::string(name), std::move(e)).first;
  }
  return *it->second.histogram;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  jrsync::MutexLock lk(impl_->mu);
  snap.samples.resize(impl_->entries.size());
  for (const auto& [name, e] : impl_->entries) {
    MetricSample& s = snap.samples[e.order];
    s.name = name;
    s.kind = e.kind;
    switch (e.kind) {
      case MetricKind::kCounter:
        s.value = static_cast<int64_t>(e.counter->value());
        break;
      case MetricKind::kGauge:
        s.value = e.gauge->value();
        break;
      case MetricKind::kHistogram:
        s.count = e.histogram->count();
        s.sum = e.histogram->sum();
        s.mean = e.histogram->mean();
        s.p50 = e.histogram->percentile(50);
        s.p95 = e.histogram->percentile(95);
        s.p99 = e.histogram->percentile(99);
        break;
    }
  }
  return snap;
}

void MetricsRegistry::reset() {
  jrsync::MutexLock lk(impl_->mu);
  for (auto& [name, e] : impl_->entries) {
    switch (e.kind) {
      case MetricKind::kCounter: e.counter->reset(); break;
      case MetricKind::kGauge: e.gauge->reset(); break;
      case MetricKind::kHistogram: e.histogram->reset(); break;
    }
  }
}

#else  // JROUTE_NO_TELEMETRY ------------------------------------------------

// The stub registry hands out shared no-op instruments and reports no
// metrics, so `stats` surfaces say "compiled out" instead of lying with
// zeros.
struct MetricsRegistry::Impl {
  Counter counter;
  Gauge gauge;
  Histogram histogram;
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}
MetricsRegistry::~MetricsRegistry() { delete impl_; }

Counter& MetricsRegistry::counter(std::string_view) { return impl_->counter; }
Gauge& MetricsRegistry::gauge(std::string_view) { return impl_->gauge; }
Histogram& MetricsRegistry::histogram(std::string_view) {
  return impl_->histogram;
}
MetricsSnapshot MetricsRegistry::snapshot() const { return {}; }
void MetricsRegistry::reset() {}

#endif  // JROUTE_NO_TELEMETRY

MetricsRegistry& registry() {
  static MetricsRegistry reg;
  return reg;
}

}  // namespace jrobs
