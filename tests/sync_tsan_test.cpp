// ThreadSanitizer death tests for jrsync::Mutex: TSAN reports the lock
// misuse the wrapper relies on it to catch.
//
// These are TSAN's liveness proofs: each commits one bug on real
// jrsync::Mutex objects in a re-executed child process and expects
// TSAN's report text and its exit code (66). Sequential inversions can
// never actually deadlock, yet TSAN's lock-order graph still reports
// them. This file is always built with -fsanitize=thread, into its own
// executable (jr_sync_tsan_tests), so the proofs run in every build
// that can link TSAN, the plain one included. Suite names contain
// "Sync" so tier1.sh's sanitizer passes select them.
#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>

#include "common/sync.h"

#ifndef __has_feature
#define __has_feature(x) 0  // gcc spells it __SANITIZE_THREAD__ instead
#endif
#if !defined(__SANITIZE_THREAD__) && !__has_feature(thread_sanitizer)
#error "sync_tsan_test.cpp must be compiled with -fsanitize=thread"
#endif

namespace {

/// TSAN's exit code when it reported anything (its `exitcode` flag).
constexpr int kTsanExitCode = 66;

/// Takes `first` then `second` on a fresh thread and joins it.
void lockPairOnThread(jrsync::Mutex& first, jrsync::Mutex& second) {
  std::thread([&] {
    jrsync::MutexLock l1(first);
    jrsync::MutexLock l2(second);
  }).join();
}

/// a -> b, then b -> a: the two halves never run concurrently.
[[noreturn]] void twoLockInversion() {
  jrsync::Mutex a;
  jrsync::Mutex b;
  lockPairOnThread(a, b);
  lockPairOnThread(b, a);
  std::exit(0);  // TSAN turns the status into kTsanExitCode
}

/// a -> b, b -> c, c -> a: no pair is ever inverted, yet the composition
/// can deadlock.
[[noreturn]] void threeLockCycle() {
  jrsync::Mutex a;
  jrsync::Mutex b;
  jrsync::Mutex c;
  lockPairOnThread(a, b);
  lockPairOnThread(b, c);
  lockPairOnThread(c, a);
  std::exit(0);
}

[[noreturn]] void unlockUnheld() JR_NO_THREAD_SAFETY_ANALYSIS {
  jrsync::Mutex mu;
  mu.unlock();
  std::exit(0);
}

TEST(SyncTsanDeathTest, TwoLockInversionAcrossThreads) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(twoLockInversion(), ::testing::ExitedWithCode(kTsanExitCode),
              "lock-order-inversion \\(potential deadlock\\)");
}

TEST(SyncTsanDeathTest, ThreeLockCycle) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(threeLockCycle(), ::testing::ExitedWithCode(kTsanExitCode),
              "lock-order-inversion \\(potential deadlock\\)");
}

TEST(SyncTsanDeathTest, UnlockOfUnheldMutex) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(unlockUnheld(), ::testing::ExitedWithCode(kTsanExitCode),
              "unlock of an unlocked mutex");
}

}  // namespace
