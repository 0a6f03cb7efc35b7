// jrsync::Mutex tests: the disarmed lock path stays allocation-free, the
// seeded perturbation hook is deterministic per seed and silent without
// one. sync_tsan_test.cpp holds the ThreadSanitizer death tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <vector>

#include "alloc_counter.h"
#include "common/sync.h"

namespace {

TEST(SyncTest, DisarmedLockPathDoesNotAllocate) {
#if !JRTEST_COUNTS_ALLOCS
  GTEST_SKIP() << "allocation counter unavailable under sanitizers";
#endif
  if (jrsync::perturbing()) {
    GTEST_SKIP() << "JROUTE_PERTURB_SEED armed the perturbation hook";
  }
  jrsync::Mutex mu;
  {
    jrsync::MutexLock warmup(mu);  // any one-time setup happens here
  }
  const uint64_t before = jrtest::threadAllocCalls();
  for (int i = 0; i < 1000; ++i) {
    jrsync::MutexLock lk(mu);
  }
  EXPECT_EQ(jrtest::threadAllocCalls(), before)
      << "disarmed lock/unlock must stay allocation-free";
}

TEST(SyncTest, PerturbationIsSeeded) {
  // Same seed, same thread, same lock sequence => identical yield
  // decisions. That determinism is what makes a perturbed failure
  // replayable from JROUTE_PERTURB_SEED.
  jrsync::Mutex mu;
  const auto run = [&](std::optional<uint64_t> seed) {
    jrsync::setPerturbSeed(seed);
    std::vector<bool> perturbed;
    for (int i = 0; i < 2000; ++i) {
      const uint64_t before = jrsync::threadPerturbations();
      jrsync::MutexLock lk(mu);
      perturbed.push_back(jrsync::threadPerturbations() != before);
    }
    return perturbed;
  };
  const std::vector<bool> first = run(42);
  EXPECT_GT(std::count(first.begin(), first.end(), true), 0);  // ~1 in 14
  EXPECT_EQ(run(42), first);
  EXPECT_NE(run(7), first);
  const std::vector<bool> none = run(std::nullopt);
  EXPECT_EQ(std::count(none.begin(), none.end(), true), 0);
  EXPECT_FALSE(jrsync::perturbing());

  // Leave the process as the environment armed it.
  const char* env = std::getenv("JROUTE_PERTURB_SEED");
  if (env != nullptr && env[0] != '\0') {
    jrsync::setPerturbSeed(std::strtoull(env, nullptr, 10));
  }
}

}  // namespace
