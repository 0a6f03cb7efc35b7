// Tile classes: the same-tile PIP pattern of a device, enumerated once per
// class of tiles that share it rather than once per tile.
//
// ArchDb::forEachTilePip(rc) sees the tile only through existsAt() and the
// long-line access rule, and those depend on rc only through
//   - its distance to each of the four device edges, clamped at kHexSpan:
//     a hex tap exists when its segment's origin and far end (at most
//     kHexSpan tiles away) are on the device, a single when its channel's
//     neighbour is, an IOB or BRAM pin only at distance 0;
//   - row % kLongAccessPeriod and col % kLongAccessPeriod: which long-line
//     tracks tap the tile, and which vertical long a single drives.
// Tiles that agree on those six numbers therefore have identical patterns.
// The class key is exact, not a heuristic: tests/arch_test.cpp compares the
// class pattern with forEachTilePip on every tile of every family member.
// A 64x96 XCV1000 has 324 classes for 6,144 tiles.
//
// Within a class the PIPs are stable-sorted by source wire, so each source
// wire's PIPs form one contiguous group in enumeration order. A node has at
// most one alias per tile, so a consumer that emits a tile group by group
// keeps every node's per-tile edge order.
//
// This is build-time scratch: the graph builder and the PIP table each make
// one, use it, and drop it. ArchDb stays the single source of PIP truth.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "arch/arch_db.h"
#include "common/types.h"

namespace xcvsim {

/// One same-tile PIP as a (from, to) local-wire pair.
struct LocalPip {
  LocalWire from;
  LocalWire to;
  friend bool operator==(const LocalPip&, const LocalPip&) = default;
};

/// The PIPs of one class that share source wire `from`.
struct PipGroup {
  LocalWire from;
  uint32_t begin;  // [begin, end) into TilePatterns::pips(const PipGroup&)
  uint32_t end;
  uint32_t size() const { return end - begin; }
};

class TilePatterns {
 public:
  explicit TilePatterns(const ArchDb& arch);

  int numClasses() const { return static_cast<int>(reps_.size()); }

  /// Class of tile `rc` (which must be on the device).
  int classOf(RowCol rc) const {
    return tileClass_[static_cast<size_t>(rc.row * cols_ + rc.col)];
  }

  /// The first tile in row-major order that belongs to class `cls`.
  RowCol representative(int cls) const {
    return reps_[static_cast<size_t>(cls)];
  }

  /// Every PIP of class `cls`, stable-sorted by source wire.
  std::span<const LocalPip> pips(int cls) const {
    const auto g = groups(cls);
    return g.empty() ? std::span<const LocalPip>{}
                     : std::span<const LocalPip>(pips_).subspan(
                           g.front().begin, g.back().end - g.front().begin);
  }

  /// The source-wire groups of class `cls`, in ascending `from` order.
  std::span<const PipGroup> groups(int cls) const {
    const auto k = static_cast<size_t>(cls);
    return std::span<const PipGroup>(groups_).subspan(
        groupOff_[k], groupOff_[k + 1] - groupOff_[k]);
  }

  /// The PIPs of one group.
  std::span<const LocalPip> pips(const PipGroup& g) const {
    return std::span<const LocalPip>(pips_).subspan(g.begin, g.size());
  }

 private:
  int cols_ = 0;
  std::vector<uint16_t> tileClass_;  // row-major, one per tile
  std::vector<RowCol> reps_;         // class -> representative tile
  std::vector<LocalPip> pips_;       // all classes, class-major
  std::vector<PipGroup> groups_;     // all classes, class-major
  std::vector<uint32_t> groupOff_;   // numClasses+1 offsets into groups_
};

}  // namespace xcvsim
