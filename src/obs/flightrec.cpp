#include "obs/flightrec.h"

#include "obs/jsonutil.h"
#include "obs/metrics.h"

#ifndef JROUTE_NO_TELEMETRY
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "common/sync.h"
#endif

namespace jrobs {

#ifndef JROUTE_NO_TELEMETRY

namespace {

std::string u64(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
}

struct FlightMetrics {
  Counter& anomalies = registry().counter("obs.flightrec.anomalies");
  Counter& bundles = registry().counter("obs.flightrec.bundles_written");
  Counter& notes = registry().counter("obs.flightrec.notes");
};

FlightMetrics& flightMetrics() {
  static FlightMetrics m;
  return m;
}

}  // namespace

struct FlightRecorder::Impl {
  /// One thread's single-writer ring, same publish protocol as the
  /// tracer: the owning thread writes a slot, then publishes it with a
  /// release store of head (total events ever written); readers acquire
  /// head and only touch slots below it.
  struct Ring {
    std::array<FlightEvent, kRingCapacity> events;
    std::atomic<uint64_t> head{0};
  };

  mutable jrsync::Mutex mu;
  /// Ring registration and merge only — never taken on the note() path.
  std::vector<std::unique_ptr<Ring>> rings JR_GUARDED_BY(mu);
  bool armed JR_GUARDED_BY(mu) = false;
  std::string dir JR_GUARDED_BY(mu);
  uint64_t nextSeq JR_GUARDED_BY(mu) = 1;
  uint64_t anomalies JR_GUARDED_BY(mu) = 0;
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();

  uint64_t nowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
  }

  Ring& localRing() {
    thread_local Ring* ring = nullptr;
    if (ring == nullptr) {
      auto owned = std::make_unique<Ring>();
      ring = owned.get();
      jrsync::MutexLock lock(mu);
      rings.push_back(std::move(owned));
    }
    return *ring;
  }

  /// Merge every thread's retained events, oldest first across threads
  /// (per-ring order is already chronological; the cross-ring merge sorts
  /// by timestamp, mirroring how the tracer's viewer orders its export).
  std::vector<FlightEvent> mergedEvents() const JR_REQUIRES(mu) {
    std::vector<FlightEvent> all;
    for (const auto& r : rings) {
      const uint64_t h = r->head.load(std::memory_order_acquire);
      const uint64_t n = std::min<uint64_t>(h, kRingCapacity);
      for (uint64_t seq = h - n; seq < h; ++seq) {
        all.push_back(r->events[seq % kRingCapacity]);
      }
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const FlightEvent& a, const FlightEvent& b) {
                       return a.tsNs < b.tsNs;
                     });
    return all;
  }

  std::string eventsJson() const JR_REQUIRES(mu) {
    std::string out = "[";
    bool first = true;
    for (const FlightEvent& e : mergedEvents()) {
      if (!first) out += ",";
      first = false;
      out += "{\"ts_ns\":" + u64(e.tsNs) + "," +
             jsonKv("cat", e.cat ? e.cat : "") + "," +
             jsonKv("name", e.name ? e.name : "") + ",\"a\":" + u64(e.a) +
             ",\"b\":" + u64(e.b) + "}";
    }
    out += "]";
    return out;
  }
};

FlightRecorder::FlightRecorder() : impl_(new Impl) {
  if (const char* dir = std::getenv("JROUTE_FLIGHT_DIR")) {
    if (dir[0] != '\0') {
      jrsync::MutexLock lock(impl_->mu);
      impl_->armed = true;
      impl_->dir = dir;
    }
  }
}

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder* recorder = new FlightRecorder();  // leaked on purpose
  return *recorder;
}

void FlightRecorder::note(const char* cat, const char* name, uint64_t a,
                          uint64_t b) {
  flightMetrics().notes.add();
  Impl::Ring& r = impl_->localRing();
  const uint64_t h = r.head.load(std::memory_order_relaxed);
  FlightEvent& slot = r.events[h % kRingCapacity];
  slot.tsNs = impl_->nowNs();
  slot.cat = cat;
  slot.name = name;
  slot.a = a;
  slot.b = b;
  r.head.store(h + 1, std::memory_order_release);
}

void FlightRecorder::arm(const std::string& dir) {
  jrsync::MutexLock lock(impl_->mu);
  impl_->armed = true;
  impl_->dir = dir;
}

void FlightRecorder::disarm() {
  jrsync::MutexLock lock(impl_->mu);
  impl_->armed = false;
  impl_->dir.clear();
}

bool FlightRecorder::armed() const {
  jrsync::MutexLock lock(impl_->mu);
  return impl_->armed;
}

std::string FlightRecorder::dir() const {
  jrsync::MutexLock lock(impl_->mu);
  return impl_->dir;
}

std::string FlightRecorder::anomaly(const std::string& kind,
                                    const std::string& detail,
                                    const std::string& extraJson) {
  flightMetrics().anomalies.add();
  registry().counter("obs.flightrec.anomaly." + kind).add();

  {
    jrsync::MutexLock lock(impl_->mu);
    ++impl_->anomalies;
    if (!impl_->armed) return "";
  }

  // Snapshot the registry *outside* the ring lock: snapshot() takes the
  // registry mutex, and metric registration can happen on any thread.
  // Only when armed — disarmed anomalies must stay counter-cheap.
  const std::string metricsJson = registry().renderJson();

  std::string bundle;
  std::string path;
  {
    jrsync::MutexLock lock(impl_->mu);
    if (!impl_->armed) return "";  // disarmed between the checks
    const uint64_t seq = impl_->nextSeq++;
    path = impl_->dir + "/flightrec-" + u64(seq) + "-" + kind + ".json";
    bundle = "{\"flightrec\":{";
    bundle += jsonKv("kind", kind) + ",";
    bundle += jsonKv("detail", detail) + ",";
    bundle += "\"seq\":" + u64(seq) + ",";
    bundle += "\"ts_ns\":" + u64(impl_->nowNs()) + ",";
    bundle += "\"events\":" + impl_->eventsJson() + ",";
    bundle += "\"extra\":" + (extraJson.empty() ? "null" : extraJson) + ",";
    bundle += "\"metrics\":" + metricsJson;
    bundle += "}}";
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return "";
  const size_t wrote = std::fwrite(bundle.data(), 1, bundle.size(), f);
  std::fclose(f);
  if (wrote != bundle.size()) return "";
  flightMetrics().bundles.add();
  return path;
}

size_t FlightRecorder::eventCount() const {
  jrsync::MutexLock lock(impl_->mu);
  size_t n = 0;
  for (const auto& r : impl_->rings) {
    n += static_cast<size_t>(std::min<uint64_t>(
        r->head.load(std::memory_order_acquire), kRingCapacity));
  }
  return n;
}

uint64_t FlightRecorder::anomalyCount() const {
  jrsync::MutexLock lock(impl_->mu);
  return impl_->anomalies;
}

void FlightRecorder::clear() {
  // Reset heads rather than unregister: a writer thread may hold a
  // pointer to its ring, so rings live for the process lifetime.
  jrsync::MutexLock lock(impl_->mu);
  for (auto& r : impl_->rings) r->head.store(0, std::memory_order_release);
}

#else  // JROUTE_NO_TELEMETRY ------------------------------------------------

struct FlightRecorder::Impl {};

FlightRecorder::FlightRecorder() : impl_(nullptr) {}

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder* recorder = new FlightRecorder();  // leaked on purpose
  return *recorder;
}

void FlightRecorder::note(const char*, const char*, uint64_t, uint64_t) {}
void FlightRecorder::arm(const std::string&) {}
void FlightRecorder::disarm() {}
bool FlightRecorder::armed() const { return false; }
std::string FlightRecorder::dir() const { return ""; }
std::string FlightRecorder::anomaly(const std::string&, const std::string&,
                                    const std::string&) {
  return "";
}
size_t FlightRecorder::eventCount() const { return 0; }
uint64_t FlightRecorder::anomalyCount() const { return 0; }
void FlightRecorder::clear() {}

#endif  // JROUTE_NO_TELEMETRY

FlightRecorder& flightRecorder() { return FlightRecorder::instance(); }

}  // namespace jrobs
