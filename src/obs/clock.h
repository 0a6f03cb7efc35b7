// The one clock of src/obs, and the compile-out switch.
//
// Every obs timestamp reads nowNs(): trace events, request-span stamps
// and the service's DRC timings. It counts nanoseconds on the steady
// clock from one process epoch (its first call), so a span stamp and a
// Chrome trace's ts (the same instant in microseconds) line up.
//
// Compile-out: building with -DJROUTE_NO_TELEMETRY makes compiledIn()
// false. The primitives test it with `if constexpr` — this clock reads
// 0, ring pushes (obs/ring.h) and instrument updates (obs/metrics.h)
// vanish, the tracer is never enabled — so every class built on them
// has one implementation, and a no-telemetry build records nothing.
#pragma once

#include <chrono>
#include <cstdint>

namespace jrobs {

/// True when the library was built with telemetry compiled in.
constexpr bool compiledIn() {
#ifdef JROUTE_NO_TELEMETRY
  return false;
#endif
  return true;
}

/// Nanoseconds since the process epoch; 0 when telemetry is compiled out.
inline uint64_t nowNs() {
  if constexpr (compiledIn()) {
    static const std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
  } else {
    return 0;
  }
}

}  // namespace jrobs
