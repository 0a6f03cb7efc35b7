#include "obs/trace.h"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace jrobs {

Tracer& Tracer::instance() {
  // Leaked on purpose: emitting threads may outlive static destruction,
  // and their rings must stay valid to the last instruction.
  static Tracer* t = new Tracer();
  return *t;
}

void Tracer::start() {
  rings_.clear();
  enabled_.store(true, std::memory_order_release);
}

void Tracer::stop() { enabled_.store(false, std::memory_order_release); }

void Tracer::record(const char* cat, const char* name, uint64_t tsNs,
                    uint64_t durNs) {
  if (!enabled()) return;
  rings_.push({cat, name, tsNs, durNs, TraceEvent::Phase::kDuration});
}

void Tracer::instant(const char* cat, const char* name) {
  if (!enabled()) return;
  rings_.push({cat, name, nowNs(), 0, TraceEvent::Phase::kInstant});
}

std::string Tracer::exportJson() const {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[64];
  rings_.collect([&](size_t ring, const TraceEvent& e) {
    if (!first) os << ',';
    first = false;
    const bool instant = e.phase == TraceEvent::Phase::kInstant;
    os << "{\"cat\":\"" << e.cat << "\",\"name\":\"" << e.name
       << "\",\"ph\":\"" << (instant ? 'i' : 'X') << '"';
    if (instant) os << ",\"s\":\"t\"";
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f",
                  static_cast<double>(e.tsNs) / 1000.0);
    os << buf;
    if (!instant) {
      std::snprintf(buf, sizeof buf, ",\"dur\":%.3f",
                    static_cast<double>(e.durNs) / 1000.0);
      os << buf;
    }
    os << ",\"pid\":1,\"tid\":" << ring + 1 << '}';
  });
  os << "],\"otherData\":{\"droppedEvents\":" << droppedCount() << "}}";
  return os.str();
}

bool dumpTrace(const std::string& path, std::string* error) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  os << Tracer::instance().exportJson() << '\n';
  if (!os) {
    if (error != nullptr) *error = "write failed: " + path;
    return false;
  }
  return true;
}

}  // namespace jrobs
