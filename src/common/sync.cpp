#include "common/sync.h"

#include <chrono>
#include <cstdlib>
#include <thread>

#include "common/rng.h"

namespace jrsync {

namespace detail {

std::atomic<bool> perturbArmed{false};

}  // namespace detail

namespace {

std::atomic<uint64_t> g_seed{0};
/// Bumped on every (re)arm so each thread re-seeds its stream lazily.
std::atomic<uint64_t> g_generation{0};

struct ThreadStream {
  uint64_t generation = 0;  // 0 = never seeded
  uint64_t perturbations = 0;
  xcvsim::Rng rng;
};

thread_local ThreadStream t_stream;

uint32_t threadTag() {
  static std::atomic<uint32_t> nextTag{1};
  thread_local const uint32_t tag = nextTag.fetch_add(1);
  return tag;
}

bool armFromEnv() {
  const char* seed = std::getenv("JROUTE_PERTURB_SEED");
  if (seed == nullptr || seed[0] == '\0') return false;
  setPerturbSeed(std::strtoull(seed, nullptr, 10));
  return true;
}

[[maybe_unused]] const bool g_envArmed = armFromEnv();

}  // namespace

void setPerturbSeed(std::optional<uint64_t> seed) {
  if (seed) {
    g_seed.store(*seed, std::memory_order_relaxed);
    g_generation.fetch_add(1, std::memory_order_release);
  }
  detail::perturbArmed.store(seed.has_value(), std::memory_order_release);
}

void perturb() {
  ThreadStream& ts = t_stream;
  const uint64_t gen = g_generation.load(std::memory_order_acquire);
  if (ts.generation != gen) {
    // Per-thread deterministic stream derived from the one seed; the
    // golden-ratio multiplier decorrelates adjacent tags before the
    // Rng's own splitmix scrambling.
    ts.rng = xcvsim::Rng(g_seed.load(std::memory_order_relaxed) +
                         0x9E3779B97F4A7C15ull * threadTag());
    ts.generation = gen;
  }
  const uint64_t draw = ts.rng.below(128);
  if (draw == 0) {
    ++ts.perturbations;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  } else if (draw <= 8) {
    ++ts.perturbations;
    std::this_thread::yield();
  }
}

uint64_t threadPerturbations() { return t_stream.perturbations; }

}  // namespace jrsync
