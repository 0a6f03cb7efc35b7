#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <variant>

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
  // The variant's index is the MetricKind.
  using Instrument =
      std::variant<std::unique_ptr<Counter>, std::unique_ptr<Gauge>,
                   std::unique_ptr<Histogram>>;
  struct Entry {
    Instrument instrument;
    size_t order = 0;  // registration order, for stable output
  };
  mutable jrsync::Mutex mu;
  std::map<std::string, Entry, std::less<>> entries JR_GUARDED_BY(mu);
};

MetricsRegistry::MetricsRegistry() : impl_(std::make_unique<Impl>()) {}
MetricsRegistry::~MetricsRegistry() = default;

template <typename T>
T& MetricsRegistry::lookup(std::string_view name) {
  jrsync::MutexLock lk(impl_->mu);
  auto it = impl_->entries.find(name);
  if (it == impl_->entries.end()) {
    const size_t order = impl_->entries.size();
    it = impl_->entries
             .emplace(std::string(name), Impl::Entry{std::make_unique<T>(),
                                                     order})
             .first;
  }
  // A name registered as another kind throws std::bad_variant_access.
  return *std::get<std::unique_ptr<T>>(it->second.instrument);
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return lookup<Counter>(name);
}
Gauge& MetricsRegistry::gauge(std::string_view name) {
  return lookup<Gauge>(name);
}
Histogram& MetricsRegistry::histogram(std::string_view name) {
  return lookup<Histogram>(name);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  if constexpr (!compiledIn()) return snap;  // "(telemetry compiled out)"
  jrsync::MutexLock lk(impl_->mu);
  snap.samples.resize(impl_->entries.size());
  for (const auto& [name, e] : impl_->entries) {
    MetricSample& s = snap.samples[e.order];
    s.name = name;
    s.kind = static_cast<MetricKind>(e.instrument.index());
    if (const auto* c = std::get_if<std::unique_ptr<Counter>>(&e.instrument)) {
      s.value = static_cast<int64_t>((*c)->value());
    } else if (const auto* g =
                   std::get_if<std::unique_ptr<Gauge>>(&e.instrument)) {
      s.value = (*g)->value();
    } else {
      const Histogram& h = *std::get<std::unique_ptr<Histogram>>(e.instrument);
      s.count = h.count();
      s.sum = h.sum();
      s.mean = h.mean();
      s.p50 = h.percentile(50);
      s.p95 = h.percentile(95);
      s.p99 = h.percentile(99);
    }
  }
  return snap;
}

void MetricsRegistry::reset() {
  jrsync::MutexLock lk(impl_->mu);
  for (auto& [name, e] : impl_->entries) {
    std::visit([](auto& instrument) { instrument->reset(); }, e.instrument);
  }
}

MetricsRegistry& registry() {
  static MetricsRegistry reg;
  return reg;
}

}  // namespace jrobs
