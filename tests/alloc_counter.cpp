#include "alloc_counter.h"

#include <cstdlib>
#include <new>

namespace {

thread_local uint64_t t_allocCalls = 0;

}  // namespace

namespace jrtest {

uint64_t threadAllocCalls() { return t_allocCalls; }

}  // namespace jrtest

#if JRTEST_COUNTS_ALLOCS
void* operator new(std::size_t n) {
  ++t_allocCalls;
  void* p = std::malloc(n != 0 ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) {
  ++t_allocCalls;
  void* p = std::malloc(n != 0 ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif  // JRTEST_COUNTS_ALLOCS
