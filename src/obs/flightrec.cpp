#include "obs/flightrec.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "obs/clock.h"
#include "obs/jsonutil.h"
#include "obs/metrics.h"

namespace jrobs {

namespace {

std::string u64(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
}

struct FlightMetrics {
  Counter& anomalies = registry().counter("obs.flightrec.anomalies");
  Counter& bundles = registry().counter("obs.flightrec.bundles_written");
};

FlightMetrics& flightMetrics() {
  static FlightMetrics m;
  return m;
}

}  // namespace

FlightRecorder::FlightRecorder() {
  if (const char* dir = std::getenv("JROUTE_FLIGHT_DIR")) {
    if (dir[0] != '\0') arm(dir);
  }
}

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder* recorder = new FlightRecorder();  // leaked on purpose
  return *recorder;
}

void FlightRecorder::note(const char* cat, const char* name, uint64_t a,
                          uint64_t b) {
  rings_.push({nowNs(), cat, name, a, b});
}

void FlightRecorder::arm(const std::string& dir) {
  if constexpr (!compiledIn()) return;  // never arms: no bundle is written
  jrsync::MutexLock lock(mu_);
  armed_ = true;
  dir_ = dir;
}

void FlightRecorder::disarm() {
  jrsync::MutexLock lock(mu_);
  armed_ = false;
  dir_.clear();
}

bool FlightRecorder::armed() const {
  jrsync::MutexLock lock(mu_);
  return armed_;
}

std::string FlightRecorder::dir() const {
  jrsync::MutexLock lock(mu_);
  return dir_;
}

uint64_t FlightRecorder::anomalyCount() const {
  return flightMetrics().anomalies.value();
}

std::string FlightRecorder::eventsJson() const {
  // Per-ring order is already chronological; the cross-ring merge sorts
  // by timestamp, as a trace viewer orders the tracer's export.
  std::vector<FlightEvent> all;
  rings_.collect([&](size_t, const FlightEvent& e) { all.push_back(e); });
  std::stable_sort(all.begin(), all.end(),
                   [](const FlightEvent& a, const FlightEvent& b) {
                     return a.tsNs < b.tsNs;
                   });
  std::string out = "[";
  for (const FlightEvent& e : all) {
    if (out.size() > 1) out += ",";
    out += "{\"ts_ns\":" + u64(e.tsNs) + "," +
           jsonKv("cat", e.cat ? e.cat : "") + "," +
           jsonKv("name", e.name ? e.name : "") + ",\"a\":" + u64(e.a) +
           ",\"b\":" + u64(e.b) + "}";
  }
  return out + "]";
}

std::string FlightRecorder::anomaly(const std::string& kind,
                                    const std::string& detail,
                                    const std::string& extraJson) {
  flightMetrics().anomalies.add();
  registry().counter("obs.flightrec.anomaly." + kind).add();
  if (!armed()) return "";  // disarmed anomalies stay counter-cheap

  // Snapshot the registry and the rings outside the arming lock:
  // snapshot() takes the registry mutex, and metric registration can
  // happen on any thread.
  const std::string metricsJson = registry().renderJson();
  const std::string eventsJson = this->eventsJson();

  std::string bundle;
  std::string path;
  {
    jrsync::MutexLock lock(mu_);
    if (!armed_) return "";  // disarmed between the checks
    const uint64_t seq = nextSeq_++;
    path = dir_ + "/flightrec-" + u64(seq) + "-" + kind + ".json";
    bundle = "{\"flightrec\":{";
    bundle += jsonKv("kind", kind) + ",";
    bundle += jsonKv("detail", detail) + ",";
    bundle += "\"seq\":" + u64(seq) + ",";
    bundle += "\"ts_ns\":" + u64(nowNs()) + ",";
    bundle += "\"events\":" + eventsJson + ",";
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

FlightRecorder& flightRecorder() { return FlightRecorder::instance(); }

}  // namespace jrobs
