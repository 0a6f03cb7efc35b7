#include "obs/slo.h"

#include <cstdio>
#include <cstdlib>

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>

#include "obs/clock.h"
#include "obs/flightrec.h"
#include "obs/jsonutil.h"
#include "obs/spans.h"

namespace jrobs {

namespace {

/// Largest burn threshold: the monitor keeps burn * 1e3 in a uint64_t.
constexpr double kMaxBurn = 1e15;

std::string u64s(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  return buf;
}

std::string dbl(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

bool SloConfig::parse(const std::string& spec, SloConfig* out,
                      std::string* error) {
  SloConfig cfg;
  bool sawLatency = false;
  if (spec.empty()) {
    if (error != nullptr) *error = "empty SLO spec";
    return false;
  }
  size_t pos = 0;
  while (pos < spec.size()) {
    const size_t comma = spec.find(',', pos);
    const std::string item =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? spec.size() : comma + 1;
    const size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= item.size()) {
      if (error != nullptr) *error = "expected key=value, got '" + item + "'";
      return false;
    }
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    char* end = nullptr;
    if (key == "latency_us") {
      // from_chars takes digits only: no sign, no whitespace, no wrap.
      uint64_t v = 0;
      const char* last = val.data() + val.size();
      const auto [ptr, ec] = std::from_chars(val.data(), last, v);
      if (ec != std::errc() || ptr != last || v == 0) {
        if (error != nullptr) *error = "latency_us wants a positive integer";
        return false;
      }
      cfg.latencyUs = v;
      sawLatency = true;
    } else if (key == "target") {
      const double v = std::strtod(val.c_str(), &end);
      if (end == nullptr || *end != '\0' || !(v > 0.0 && v < 1.0)) {
        if (error != nullptr) *error = "target wants a fraction in (0,1)";
        return false;
      }
      cfg.target = v;
    } else if (key == "burn") {
      const double v = std::strtod(val.c_str(), &end);
      if (end == nullptr || *end != '\0' || !(v > 0.0 && v <= kMaxBurn)) {
        if (error != nullptr) *error = "burn wants a threshold in (0,1e15]";
        return false;
      }
      cfg.burnAlert = v;
    } else {
      if (error != nullptr) *error = "unknown SLO key '" + key + "'";
      return false;
    }
  }
  if (!sawLatency) {
    if (error != nullptr) *error = "SLO spec needs latency_us=<N>";
    return false;
  }
  cfg.enabled = true;
  *out = cfg;
  return true;
}

std::string SloConfig::describe() const {
  if (!enabled) return "disabled";
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "%.4g%% of requests good within %lluus (alert at burn %.3g)",
                target * 100.0, static_cast<unsigned long long>(latencyUs),
                burnAlert);
  return buf;
}

std::string SloReport::text() const {
  std::string out = "slo: " + config.describe() + "\n";
  if (!config.enabled) return out;
  char line[128];
  std::snprintf(line, sizeof line,
                "  observed %llu  good %llu  breaches %llu\n",
                static_cast<unsigned long long>(observed),
                static_cast<unsigned long long>(good),
                static_cast<unsigned long long>(breaches));
  out += line;
  for (const SloWindow& w : windows) {
    std::snprintf(line, sizeof line,
                  "  %3ds window: %llu/%llu good, burn %.3f\n", w.seconds,
                  static_cast<unsigned long long>(w.good),
                  static_cast<unsigned long long>(w.total), w.burn);
    out += line;
  }
  return out;
}

std::string SloReport::json() const {
  std::string out = "{\"slo\":{";
  out += std::string("\"enabled\":") + (config.enabled ? "true" : "false");
  out += ",\"latency_objective_us\":" + u64s(config.latencyUs);
  out += ",\"target\":" + dbl(config.target);
  out += ",\"burn_alert\":" + dbl(config.burnAlert);
  out += ",\"observed\":" + u64s(observed);
  out += ",\"good\":" + u64s(good);
  out += ",\"breaches\":" + u64s(breaches);
  out += ",\"windows\":[";
  for (size_t i = 0; i < windows.size(); ++i) {
    const SloWindow& w = windows[i];
    if (i != 0) out += ",";
    out += "{\"seconds\":" + u64s(static_cast<uint64_t>(w.seconds));
    out += ",\"good\":" + u64s(w.good);
    out += ",\"total\":" + u64s(w.total);
    out += ",\"burn\":" + dbl(w.burn) + "}";
  }
  out += "]}}";
  return out;
}

namespace {

/// The caller's second, or (atSec < 0) the obs clock's current one.
int64_t secondOf(int64_t atSec) {
  return atSec >= 0 ? atSec : static_cast<int64_t>(nowNs() / 1'000'000'000);
}

}  // namespace

struct SloMonitor::Impl {
  /// Ring of second-tagged buckets. 128 > the widest window (60s), so a
  /// tag can only be recycled by a second at least two windows away.
  static constexpr size_t kBuckets = 128;
  struct Bucket {
    std::atomic<int64_t> sec{-1};
    std::atomic<uint64_t> good{0};
    std::atomic<uint64_t> total{0};
  };
  std::array<Bucket, kBuckets> ring;

  // The objective, flattened to atomics so observe() reads it without a
  // lock. configure() is the only writer.
  std::atomic<bool> enabled{false};
  std::atomic<uint64_t> latencyUs{0};
  std::atomic<uint64_t> targetPpm{0};    // target * 1e6
  std::atomic<uint64_t> burnMilli{0};    // burnAlert * 1e3

  std::atomic<uint64_t> observed{0};
  std::atomic<uint64_t> good{0};
  std::atomic<uint64_t> breaches{0};
  std::atomic<int64_t> lastEvalSec{-1};
  std::atomic<bool> inBreach{false};

  double budget() const {
    const double t =
        static_cast<double>(targetPpm.load(std::memory_order_relaxed)) / 1e6;
    return std::max(1e-9, 1.0 - t);
  }

  void window(int windowSec, int64_t atSec, uint64_t* goodOut,
              uint64_t* totalOut) const {
    uint64_t g = 0, t = 0;
    for (int i = 0; i < windowSec; ++i) {
      const int64_t sec = atSec - i;
      if (sec < 0) break;
      const Bucket& b = ring[static_cast<size_t>(sec) % kBuckets];
      if (b.sec.load(std::memory_order_acquire) != sec) continue;  // stale
      g += b.good.load(std::memory_order_relaxed);
      t += b.total.load(std::memory_order_relaxed);
    }
    *goodOut = g;
    *totalOut = t;
  }

  double burn(int windowSec, int64_t atSec) const {
    uint64_t g = 0, t = 0;
    window(windowSec, atSec, &g, &t);
    if (t == 0) return 0.0;
    const double badFrac =
        static_cast<double>(t - g) / static_cast<double>(t);
    return badFrac / budget();
  }

  void resetWindows() {
    for (Bucket& b : ring) {
      b.sec.store(-1, std::memory_order_relaxed);
      b.good.store(0, std::memory_order_relaxed);
      b.total.store(0, std::memory_order_relaxed);
    }
    observed.store(0, std::memory_order_relaxed);
    good.store(0, std::memory_order_relaxed);
    breaches.store(0, std::memory_order_relaxed);
    lastEvalSec.store(-1, std::memory_order_relaxed);
    inBreach.store(false, std::memory_order_relaxed);
  }
};

SloMonitor::SloMonitor() : impl_(new Impl) {}

SloMonitor& SloMonitor::instance() {
  static SloMonitor* mon = new SloMonitor();  // leaked on purpose
  return *mon;
}

void SloMonitor::configure(const SloConfig& cfg) {
  if constexpr (!compiledIn()) return;  // stays disabled
  impl_->resetWindows();
  impl_->latencyUs.store(cfg.latencyUs, std::memory_order_relaxed);
  impl_->targetPpm.store(static_cast<uint64_t>(cfg.target * 1e6),
                         std::memory_order_relaxed);
  impl_->burnMilli.store(static_cast<uint64_t>(cfg.burnAlert * 1e3),
                         std::memory_order_relaxed);
  impl_->enabled.store(cfg.enabled, std::memory_order_release);
}

SloConfig SloMonitor::config() const {
  SloConfig cfg;
  cfg.enabled = impl_->enabled.load(std::memory_order_acquire);
  cfg.latencyUs = impl_->latencyUs.load(std::memory_order_relaxed);
  cfg.target =
      static_cast<double>(impl_->targetPpm.load(std::memory_order_relaxed)) /
      1e6;
  cfg.burnAlert =
      static_cast<double>(impl_->burnMilli.load(std::memory_order_relaxed)) /
      1e3;
  return cfg;
}

void SloMonitor::observe(uint64_t latencyUs, bool accepted, int64_t atSec) {
  if (!impl_->enabled.load(std::memory_order_relaxed)) return;
  const int64_t sec = secondOf(atSec);
  const bool isGood =
      accepted &&
      latencyUs <= impl_->latencyUs.load(std::memory_order_relaxed);

  Impl::Bucket& b = impl_->ring[static_cast<size_t>(sec) %
                                Impl::kBuckets];
  int64_t tag = b.sec.load(std::memory_order_acquire);
  if (tag != sec) {
    // Recycle the bucket for this second. A sample racing the winner's
    // zeroing can be dropped at the boundary; burn rates tolerate that.
    if (b.sec.compare_exchange_strong(tag, sec, std::memory_order_acq_rel)) {
      b.good.store(0, std::memory_order_relaxed);
      b.total.store(0, std::memory_order_relaxed);
    } else if (tag != sec) {
      return;  // recycled for a different second already; drop
    }
  }
  b.total.fetch_add(1, std::memory_order_relaxed);
  if (isGood) b.good.fetch_add(1, std::memory_order_relaxed);
  impl_->observed.fetch_add(1, std::memory_order_relaxed);
  if (isGood) impl_->good.fetch_add(1, std::memory_order_relaxed);

  // Evaluate once per distinct second (plus the very first sample):
  // breach on the rising edge of both windows over the threshold, clear
  // when the slow window recovers.
  if (impl_->lastEvalSec.exchange(sec, std::memory_order_relaxed) == sec) {
    return;
  }
  const double alert =
      static_cast<double>(impl_->burnMilli.load(std::memory_order_relaxed)) /
      1e3;
  const double burnFast = impl_->burn(1, sec);
  const double burnSlow = impl_->burn(10, sec);
  if (burnFast >= alert && burnSlow >= alert) {
    if (!impl_->inBreach.exchange(true, std::memory_order_relaxed)) {
      impl_->breaches.fetch_add(1, std::memory_order_relaxed);
      // The bundle answers the page: the objective's state plus the
      // worst recent requests' per-segment latency breakdown.
      std::string extra = "{\"slo\":" + report(sec).json() + ",\"worst\":[";
      const std::vector<SpanRecord> worst = spanAggregator().recentWorst(3);
      for (size_t i = 0; i < worst.size(); ++i) {
        if (i != 0) extra += ",";
        extra += worst[i].json();
      }
      extra += "]}";
      char detail[96];
      std::snprintf(detail, sizeof detail,
                    "burn rate %.2f (1s) / %.2f (10s) over alert %.2f",
                    burnFast, burnSlow, alert);
      flightRecorder().anomaly(kSloBreach, detail, extra);
    }
  } else if (burnSlow < alert) {
    impl_->inBreach.store(false, std::memory_order_relaxed);
  }
}

double SloMonitor::burnRate(int windowSec, int64_t atSec) const {
  if (!impl_->enabled.load(std::memory_order_relaxed)) return 0.0;
  return impl_->burn(windowSec, secondOf(atSec));
}

SloReport SloMonitor::report(int64_t atSec) const {
  SloReport rep;
  rep.config = config();
  if (!rep.config.enabled) return rep;
  const int64_t sec = secondOf(atSec);
  rep.observed = impl_->observed.load(std::memory_order_relaxed);
  rep.good = impl_->good.load(std::memory_order_relaxed);
  rep.breaches = impl_->breaches.load(std::memory_order_relaxed);
  for (const int w : kWindowsSec) {
    SloWindow win;
    win.seconds = w;
    impl_->window(w, sec, &win.good, &win.total);
    win.burn = impl_->burn(w, sec);
    rep.windows.push_back(win);
  }
  return rep;
}

uint64_t SloMonitor::breachCount() const {
  return impl_->breaches.load(std::memory_order_relaxed);
}

void SloMonitor::reset() { impl_->resetWindows(); }

SloMonitor& sloMonitor() { return SloMonitor::instance(); }

}  // namespace jrobs
