// Shared helpers for the experiment harnesses (E1..E10).
//
// Each bench binary regenerates one experiment from EXPERIMENTS.md and
// prints a self-contained table; the rows are stable across runs because
// every workload is seeded.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bitstream/pip_table.h"
#include "core/router.h"
#include "rrg/graph.h"

namespace jrbench {

/// Wall-clock seconds of one call.
inline double secondsOf(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// A fully built simulated device: graph + PIP database + blank fabric.
struct Device {
  explicit Device(const xcvsim::DeviceSpec& spec)
      : graph(spec), arch(spec), table(arch), fabric(graph, table) {}

  xcvsim::Graph graph;
  xcvsim::ArchDb arch;
  xcvsim::PipTable table;
  xcvsim::Fabric fabric;
};

/// Device instances are expensive; share one per device name per process.
inline Device& sharedDevice(const xcvsim::DeviceSpec& spec) {
  static std::unique_ptr<Device> dev;
  static std::string name;
  if (!dev || name != spec.name) {
    dev = std::make_unique<Device>(spec);
    name = std::string(spec.name);
  }
  return *dev;
}

/// Minimal single-line JSON object writer, so bench results can be scraped
/// by scripts as well as read as tables. Usage:
///   JsonWriter j; j.kv("mode", "service").kv("reqs", 42.0); puts(j.str());
class JsonWriter {
 public:
  JsonWriter& kv(const char* key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    return raw(key, buf);
  }
  JsonWriter& kv(const char* key, uint64_t value) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(value));
    return raw(key, buf);
  }
  JsonWriter& kv(const char* key, const std::string& value) {
    return raw(key, "\"" + value + "\"");  // callers pass plain identifiers
  }
  const char* str() {
    out_ = "{" + body_ + "}";
    return out_.c_str();
  }

 private:
  JsonWriter& raw(const char* key, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + std::string(key) + "\": " + v;
    return *this;
  }
  std::string body_, out_;
};

/// UTC wall-clock time, ISO 8601 (2026-08-06T12:34:56Z).
inline std::string isoTimestamp() {
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// Append one finished JsonWriter as a run record — JSONL, one record per
/// line — to the file $JROUTE_BENCH_RECORD names. Unset or empty, nothing
/// is written: the tracked BENCH_service.json is frozen history, and tier
/// 1 points the variable at build/run_records.jsonl. Every record gets
/// the host and build it ran on and a timestamp. Targets that call this
/// link jroute_run_record, which defines the build macros.
inline void appendRunRecord(JsonWriter& j) {
  const char* path = std::getenv("JROUTE_BENCH_RECORD");
  if (path == nullptr || path[0] == '\0') return;
  const unsigned cores = std::thread::hardware_concurrency();
  j.kv("host_cores", static_cast<uint64_t>(cores))
      .kv("build_type", std::string(JROUTE_BUILD_TYPE))
      .kv("compiler", std::string(JROUTE_COMPILER))
      .kv("git_sha", std::string(JROUTE_GIT_SHA))
      .kv("timestamp", isoTimestamp());
  std::ofstream os(path, std::ios::app);
  if (os) os << j.str() << "\n";
}

/// p-th percentile (0..100) of an unsorted sample, by nearest rank.
inline double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

}  // namespace jrbench
