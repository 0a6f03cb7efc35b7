// Annotated synchronisation primitives.
//
// libstdc++'s std::mutex carries no clang capability attribute, so code
// that wants -Wthread-safety checking needs this thin wrapper: the same
// std::mutex underneath, but declared as a capability so JR_GUARDED_BY /
// JR_REQUIRES relationships are enforceable. MutexLock is the RAII guard
// (std::lock_guard is likewise unannotated in libstdc++).
//
// Lock ordering and unlock misuse are ThreadSanitizer's job: it sees
// through the wrapper to the std::mutex and reports lock-order
// inversions and unlocks of unheld mutexes (tests/sync_test.cpp proves
// both). What the wrapper adds is one seeded schedule-perturbation hook
// in lock(): with JROUTE_PERTURB_SEED=n in the environment each
// acquisition may first yield (or briefly sleep), driven by a per-thread
// xcvsim::Rng derived from n, so a TSAN run explores interleavings the
// host scheduler would rarely produce and a failure replays from the
// seed. Unset — the default — the hook is one relaxed load and a
// never-taken branch.
//
// Mutex satisfies BasicLockable, so std::condition_variable_any can wait
// on it directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>

#include "common/types.h"

namespace jrsync {

namespace detail {

/// True while perturbation is armed. Defined in common/sync.cpp; declared
/// here so the disarmed test inlines to one load.
extern std::atomic<bool> perturbArmed;

}  // namespace detail

/// Is seeded schedule perturbation armed?
inline bool perturbing() {
  return detail::perturbArmed.load(std::memory_order_relaxed);
}

/// One perturbation point: draws from the calling thread's seeded Rng and
/// yields or sleeps for some draws. Only called when perturbing().
void perturb();

/// Arms perturbation with `seed`, or disarms it (nullopt). The process
/// arms itself from JROUTE_PERTURB_SEED at startup; re-arming with the
/// same seed restarts every thread's decision stream.
void setPerturbSeed(std::optional<uint64_t> seed);

/// Yields and sleeps perturb() has injected on the calling thread.
uint64_t threadPerturbations();

class JR_CAPABILITY("mutex") Mutex {
 public:
  void lock() JR_ACQUIRE() {
    if (perturbing()) perturb();
    mu_.lock();
  }
  void unlock() JR_RELEASE() { mu_.unlock(); }
  bool try_lock() JR_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII guard over Mutex, visible to the analysis as a scoped capability.
class JR_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) JR_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() JR_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace jrsync
