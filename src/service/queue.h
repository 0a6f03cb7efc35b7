// Bounded multi-producer single-consumer request queue.
//
// Producers are client sessions on arbitrary threads; the consumer is the
// engine, which drains in batches. The queue enforces backpressure by
// construction: tryPush never blocks and fails when the queue is at
// capacity, which the service turns into Rejected{kOverloaded} so an
// overloaded server sheds load instead of growing an unbounded backlog.
//
// Lock protocol is annotated for clang's thread-safety analysis: every
// mutable member is guarded by mu_; the condition variable waits on the
// annotated jrsync::Mutex directly (condition_variable_any only needs
// BasicLockable).
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <vector>

#include "common/sync.h"

namespace jrsvc {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : cap_(capacity) {}

  /// Enqueue without blocking. False when full or closed.
  bool tryPush(T&& item) {
    {
      jrsync::MutexLock lk(mu_);
      if (closed_ || items_.size() >= cap_) return false;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// Move up to `maxItems` into `out`. Blocks up to `wait` for the first
  /// item (zero = poll). Returns the number of items drained.
  size_t drain(std::vector<T>& out, size_t maxItems,
               std::chrono::milliseconds wait) {
    jrsync::MutexLock lk(mu_);
    if (items_.empty() && wait.count() > 0) {
      cv_.wait_for(mu_, wait,
                   [&]() JR_REQUIRES(mu_) { return !items_.empty() || closed_; });
    }
    size_t n = 0;
    while (n < maxItems && !items_.empty()) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
      ++n;
    }
    return n;
  }

  /// Stop accepting new items and wake the consumer.
  void close() {
    {
      jrsync::MutexLock lk(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    jrsync::MutexLock lk(mu_);
    return closed_;
  }

  size_t size() const {
    jrsync::MutexLock lk(mu_);
    return items_.size();
  }

 private:
  mutable jrsync::Mutex mu_;
  std::condition_variable_any cv_;
  std::deque<T> items_ JR_GUARDED_BY(mu_);
  size_t cap_;
  bool closed_ JR_GUARDED_BY(mu_) = false;
};

}  // namespace jrsvc
