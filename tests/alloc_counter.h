// Per-thread heap-allocation counter for allocation-free-path tests.
//
// alloc_counter.cpp replaces the global operator new/delete pair for the
// whole test binary; the replacement only counts (per thread) and never
// changes behavior. Under ASan/TSan it would displace the sanitizer's
// own new/delete interceptors and misreport every allocation in the
// binary as an alloc-dealloc mismatch, so it is compiled out there:
// tests check JRTEST_COUNTS_ALLOCS and skip instead.
//
//   const uint64_t before = jrtest::threadAllocCalls();
//   ...code under test...
//   EXPECT_EQ(jrtest::threadAllocCalls(), before);
#pragma once

#include <cstdint>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define JRTEST_COUNTS_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define JRTEST_COUNTS_ALLOCS 0
#else
#define JRTEST_COUNTS_ALLOCS 1
#endif
#else
#define JRTEST_COUNTS_ALLOCS 1
#endif

namespace jrtest {

/// operator new / new[] calls made so far on the calling thread (always
/// 0 when JRTEST_COUNTS_ALLOCS is 0).
uint64_t threadAllocCalls();

}  // namespace jrtest
