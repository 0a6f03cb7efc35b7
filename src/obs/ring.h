// Per-thread single-writer event rings: the one ring model of src/obs.
//
// The tracer (obs/trace.h) keeps the one ThreadRings; it is the only
// record of recent engine events. A thread's first push registers its own fixed-size ring
// under a mutex; every later push is wait-free: write the slot, then
// publish it with a release store of head (the count of events ever
// written). Readers take the mutex, acquire each head and read only the
// last min(head, N) slots, so every read is ordered after the write it
// observes. A full ring overwrites its oldest slot, and dropped() counts
// what was overwritten, so a truncated view is never mistaken for a
// complete one. Read at quiescence for an exact cut: a writer that wraps
// while a reader copies can tear the oldest slot.
//
// Rings live as long as their ThreadRings (a writer holds a pointer to
// its ring), so clear() resets heads instead of unregistering; a thread
// that reuses a finished thread's id adopts its ring. With telemetry
// compiled out, push() is empty and no ring is ever registered.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "obs/clock.h"

namespace jrobs {

template <typename T, size_t N>
class ThreadRings {
 public:
  ThreadRings() = default;
  ThreadRings(const ThreadRings&) = delete;
  ThreadRings& operator=(const ThreadRings&) = delete;

  /// Append to the calling thread's ring. Lock-free after the thread's
  /// first push.
  void push(const T& v) {
    if constexpr (compiledIn()) {
      Ring& r = local();
      const uint64_t h = r.head.load(std::memory_order_relaxed);
      r.slots[h % N] = v;
      r.head.store(h + 1, std::memory_order_release);
    }
  }

  /// fn(ring, event) for every retained event: rings in registration
  /// order, each oldest first. `ring` is a stable 0-based ring index.
  template <typename Fn>
  void collect(Fn&& fn) const {
    jrsync::MutexLock lock(mu_);
    for (size_t i = 0; i < rings_.size(); ++i) {
      const Ring& r = *rings_[i];
      const uint64_t h = r.head.load(std::memory_order_acquire);
      for (uint64_t seq = h - std::min<uint64_t>(h, N); seq < h; ++seq) {
        fn(i, r.slots[seq % N]);
      }
    }
  }

  /// Events retained across every ring (each caps at N).
  size_t count() const {
    return sum([](uint64_t h) { return std::min<uint64_t>(h, N); });
  }
  /// Events overwritten because a ring wrapped.
  size_t dropped() const {
    return sum([](uint64_t h) { return h - std::min<uint64_t>(h, N); });
  }

  /// Empty every ring; registrations stay.
  void clear() {
    jrsync::MutexLock lock(mu_);
    for (auto& r : rings_) r->head.store(0, std::memory_order_release);
  }

 private:
  struct Ring {
    std::array<T, N> slots{};
    std::atomic<uint64_t> head{0};
    std::thread::id owner;
  };

  Ring& local() {
    // One cached ring per thread and ring type, tagged with the id of
    // the ThreadRings it belongs to (ids are never reused, so a cache
    // entry cannot outlive its rings unnoticed).
    struct Cache {
      uint64_t owner = 0;
      Ring* ring = nullptr;
    };
    thread_local Cache cache;
    if (cache.owner != id_) [[unlikely]] cache = {id_, &adopt()};
    return *cache.ring;
  }

  Ring& adopt() {
    const std::thread::id me = std::this_thread::get_id();
    jrsync::MutexLock lock(mu_);
    for (auto& r : rings_) {
      if (r->owner == me) return *r;
    }
    rings_.push_back(std::make_unique<Ring>());
    rings_.back()->owner = me;
    return *rings_.back();
  }

  template <typename Fn>
  size_t sum(Fn perRing) const {
    jrsync::MutexLock lock(mu_);
    size_t n = 0;
    for (const auto& r : rings_) {
      n += static_cast<size_t>(
          perRing(r->head.load(std::memory_order_acquire)));
    }
    return n;
  }

  static uint64_t nextId() {
    static std::atomic<uint64_t> next{0};
    return next.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  const uint64_t id_ = nextId();
  mutable jrsync::Mutex mu_;
  std::vector<std::unique_ptr<Ring>> rings_ JR_GUARDED_BY(mu_);
};

}  // namespace jrobs
