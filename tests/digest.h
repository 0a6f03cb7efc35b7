// FNV-1a (64-bit) over a sequence of integers, fed byte by byte in
// little-endian order so a pinned digest does not depend on struct layout
// or host byte order. Golden-digest tests use it to prove that a rebuilt
// data structure is bit-identical to the one a value was pinned from.
#pragma once

#include <cstddef>
#include <cstdint>

namespace jrtest {

class Fnv1a {
 public:
  template <typename T>
  void add(T v) {
    auto u = static_cast<uint64_t>(v);
    for (size_t i = 0; i < sizeof(T); ++i) {
      h_ = (h_ ^ (u & 0xFF)) * 0x100000001B3ull;
      u >>= 8;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ull;
};

}  // namespace jrtest
