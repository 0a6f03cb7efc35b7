#include "arch/tile_patterns.h"

#include <algorithm>

namespace xcvsim {
namespace {

/// Values each clamped edge distance can take: 0..kHexSpan.
constexpr int kDistValues = kHexSpan + 1;

/// The class key of a tile (see the header comment), packed into one int.
int classKey(const DeviceSpec& dev, int r, int c) {
  const auto dist = [](int d) { return std::min(d, kHexSpan); };
  int key = dist(r);
  key = key * kDistValues + dist(dev.rows - 1 - r);
  key = key * kDistValues + dist(c);
  key = key * kDistValues + dist(dev.cols - 1 - c);
  key = key * kLongAccessPeriod + r % kLongAccessPeriod;
  return key * kLongAccessPeriod + c % kLongAccessPeriod;
}

constexpr int kNumKeys = kDistValues * kDistValues * kDistValues *
                         kDistValues * kLongAccessPeriod * kLongAccessPeriod;

}  // namespace

TilePatterns::TilePatterns(const ArchDb& arch) : cols_(arch.device().cols) {
  const DeviceSpec& dev = arch.device();
  tileClass_.resize(static_cast<size_t>(dev.tiles()));
  std::vector<int> classOfKey(kNumKeys, -1);
  for (int r = 0; r < dev.rows; ++r) {
    for (int c = 0; c < dev.cols; ++c) {
      int& cls = classOfKey[static_cast<size_t>(classKey(dev, r, c))];
      if (cls < 0) {
        cls = numClasses();
        reps_.push_back({static_cast<int16_t>(r), static_cast<int16_t>(c)});
      }
      tileClass_[static_cast<size_t>(r * dev.cols + c)] =
          static_cast<uint16_t>(cls);
    }
  }

  groupOff_.push_back(0);
  for (const RowCol rep : reps_) {
    const auto first = static_cast<std::ptrdiff_t>(pips_.size());
    arch.forEachTilePip(rep, [&](LocalWire f, LocalWire t) {
      pips_.push_back({f, t});
    });
    std::stable_sort(pips_.begin() + first, pips_.end(),
                     [](const LocalPip& a, const LocalPip& b) {
                       return a.from < b.from;
                     });
    for (size_t i = static_cast<size_t>(first); i < pips_.size(); ++i) {
      if (groups_.size() == groupOff_.back() ||
          groups_.back().from != pips_[i].from) {
        groups_.push_back({pips_[i].from, static_cast<uint32_t>(i),
                           static_cast<uint32_t>(i)});
      }
      ++groups_.back().end;
    }
    groupOff_.push_back(static_cast<uint32_t>(groups_.size()));
  }
}

}  // namespace xcvsim
