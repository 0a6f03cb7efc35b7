#include "obs/trace.h"

#include <fstream>

#ifndef JROUTE_NO_TELEMETRY
#include <array>
#include <cstdio>
#include <memory>
#include <sstream>
#include <vector>

#include "common/sync.h"
#endif

namespace jrobs {

#ifndef JROUTE_NO_TELEMETRY

/// Single-writer ring. The owning thread writes a slot, then publishes
/// it with a release store of head; readers acquire head and only touch
/// slots below it, so every read is ordered after the write it observes.
struct Tracer::Ring {
  std::array<TraceEvent, Tracer::kRingCapacity> events;
  std::atomic<uint64_t> head{0};  // total events ever written
};

struct Tracer::Impl {
  // Ring registration and export only — never on record.
  mutable jrsync::Mutex mu;
  std::vector<std::unique_ptr<Ring>> rings JR_GUARDED_BY(mu);
};

Tracer::Tracer() : impl_(new Impl) {
  epoch_ = std::chrono::steady_clock::now();
}

Tracer& Tracer::instance() {
  // Leaked on purpose: emitting threads may outlive static destruction,
  // and their rings must stay valid to the last instruction.
  static Tracer* t = new Tracer();
  return *t;
}

Tracer::Ring& Tracer::localRing() {
  thread_local Ring* ring = nullptr;
  if (ring == nullptr) {
    auto owned = std::make_unique<Ring>();
    ring = owned.get();
    jrsync::MutexLock lk(impl_->mu);
    impl_->rings.push_back(std::move(owned));
  }
  return *ring;
}

void Tracer::start() {
  jrsync::MutexLock lk(impl_->mu);
  for (auto& r : impl_->rings) r->head.store(0, std::memory_order_release);
  enabled_.store(true, std::memory_order_release);
}

void Tracer::stop() { enabled_.store(false, std::memory_order_release); }

void Tracer::clear() {
  jrsync::MutexLock lk(impl_->mu);
  for (auto& r : impl_->rings) r->head.store(0, std::memory_order_release);
}

void Tracer::record(const char* cat, const char* name, uint64_t tsNs,
                    uint64_t durNs) {
  if (!enabled()) return;
  Ring& r = localRing();
  const uint64_t h = r.head.load(std::memory_order_relaxed);
  TraceEvent& e = r.events[h % kRingCapacity];
  e.cat = cat;
  e.name = name;
  e.tsNs = tsNs;
  e.durNs = durNs;
  e.phase = TraceEvent::Phase::kDuration;
  r.head.store(h + 1, std::memory_order_release);
}

void Tracer::instant(const char* cat, const char* name) {
  if (!enabled()) return;
  const uint64_t now = nowNs();
  Ring& r = localRing();
  const uint64_t h = r.head.load(std::memory_order_relaxed);
  TraceEvent& e = r.events[h % kRingCapacity];
  e.cat = cat;
  e.name = name;
  e.tsNs = now;
  e.durNs = 0;
  e.phase = TraceEvent::Phase::kInstant;
  r.head.store(h + 1, std::memory_order_release);
}

size_t Tracer::eventCount() const {
  jrsync::MutexLock lk(impl_->mu);
  size_t n = 0;
  for (const auto& r : impl_->rings) {
    n += static_cast<size_t>(
        std::min<uint64_t>(r->head.load(std::memory_order_acquire),
                           kRingCapacity));
  }
  return n;
}

size_t Tracer::droppedCount() const {
  jrsync::MutexLock lk(impl_->mu);
  size_t n = 0;
  for (const auto& r : impl_->rings) {
    const uint64_t h = r->head.load(std::memory_order_acquire);
    if (h > kRingCapacity) n += static_cast<size_t>(h - kRingCapacity);
  }
  return n;
}

std::string Tracer::exportJson() const {
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  jrsync::MutexLock lk(impl_->mu);
  bool first = true;
  char buf[64];
  uint64_t dropped = 0;
  for (size_t t = 0; t < impl_->rings.size(); ++t) {
    const Ring& r = *impl_->rings[t];
    const uint64_t h = r.head.load(std::memory_order_acquire);
    const uint64_t n = std::min<uint64_t>(h, kRingCapacity);
    dropped += h - n;
    for (uint64_t seq = h - n; seq < h; ++seq) {
      const TraceEvent& e = r.events[seq % kRingCapacity];
      if (!first) os << ',';
      first = false;
      const char ph = e.phase == TraceEvent::Phase::kInstant ? 'i' : 'X';
      os << "{\"cat\":\"" << e.cat << "\",\"name\":\"" << e.name
         << "\",\"ph\":\"" << ph << '"';
      if (e.phase == TraceEvent::Phase::kInstant) os << ",\"s\":\"t\"";
      std::snprintf(buf, sizeof buf, ",\"ts\":%.3f",
                    static_cast<double>(e.tsNs) / 1000.0);
      os << buf;
      if (e.phase == TraceEvent::Phase::kDuration) {
        std::snprintf(buf, sizeof buf, ",\"dur\":%.3f",
                      static_cast<double>(e.durNs) / 1000.0);
        os << buf;
      }
      os << ",\"pid\":1,\"tid\":" << t + 1 << '}';
    }
  }
  os << "],\"otherData\":{\"droppedEvents\":" << dropped << "}}";
  return os.str();
}

#else  // JROUTE_NO_TELEMETRY ------------------------------------------------

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

#endif  // JROUTE_NO_TELEMETRY

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
