// The PIP-to-configuration-bit mapping table.
//
// The real Virtex device database (shipped inside JBits) assigns every
// programmable point a position in the configuration frames of its column.
// That database is proprietary, so we build an equivalent one: take the
// union of every connection pattern that occurs at any tile, order it, and
// assign each key a stable slot. Every tile's pattern is its tile class's
// pattern (arch/tile_patterns.h), so the union runs over one representative
// tile per class, not over every tile. Keys are ordered by (kind, from, to):
// the present keys are marked in a dense array indexed by that triple, and
// one scan in index order assigns the slots, with the kGlobalNets pad keys
// last in k order. slotOf() is a bounds check plus a read of that array. A
// tile's configuration occupies kFramesPerColumn frames x bitsPerTileRow()
// bits; slot s of tile (r,c) lives in column c, frame s / bitsPerTileRow(),
// bit r * bitsPerTileRow() + s % bitsPerTileRow().
//
// Logic (LUT truth tables and per-slice mode bits) gets a reserved slot
// region after the PIPs so cores can be configured through the same frames.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/arch_db.h"
#include "common/types.h"

namespace xcvsim {

/// Number of configuration frames per CLB column (matches Virtex).
inline constexpr int kFramesPerColumn = 48;

/// Kinds of configurable points addressed by a PipKey.
enum class PipKeyKind : uint8_t {
  TilePip,   // same-tile PIP (from, to local wires)
  DirectE,   // direct connect from this tile's output to the EAST neighbour
  DirectW,   // ... to the WEST neighbour
  GlobalPad, // global clock pad driver k (addressed at tile (0,0))
};

/// Identity of one configurable point, relative to a tile.
struct PipKey {
  PipKeyKind kind = PipKeyKind::TilePip;
  LocalWire from = kInvalidLocalWire;
  LocalWire to = kInvalidLocalWire;
  friend bool operator==(const PipKey&, const PipKey&) = default;
};

/// LUTs per tile (2 slices x F/G) and bits per LUT truth table.
inline constexpr int kLutsPerTile = 4;
inline constexpr int kLutBits = 16;
/// Per-tile miscellaneous logic configuration bits (FF modes, muxes...).
inline constexpr int kMiscLogicBits = 16;

class PipTable {
 public:
  explicit PipTable(const ArchDb& arch);

  /// Slot of a configurable point within its tile's config block, or -1 if
  /// the key names no existing pattern (including keys whose wire ids or
  /// pad index are out of range).
  int slotOf(const PipKey& key) const;

  /// Key stored at a slot (inverse of slotOf); only valid for PIP slots.
  const PipKey& keyAt(int slot) const { return keys_[static_cast<size_t>(slot)]; }

  /// Number of PIP slots (keys).
  int numPipSlots() const { return static_cast<int>(keys_.size()); }

  /// First slot of the logic-configuration region.
  int logicSlotBase() const { return numPipSlots(); }

  /// Slot of LUT `lut` bit `bit` within a tile.
  int lutSlot(int lut, int bit) const {
    return logicSlotBase() + lut * kLutBits + bit;
  }
  /// Slot of miscellaneous logic bit `bit` within a tile.
  int miscSlot(int bit) const {
    return logicSlotBase() + kLutsPerTile * kLutBits + bit;
  }

  /// Total slots per tile (PIPs + logic), the tile config block size.
  int slotsPerTile() const {
    return logicSlotBase() + kLutsPerTile * kLutBits + kMiscLogicBits;
  }

  /// Bits each tile contributes to one frame of its column.
  int bitsPerTileRow() const { return bitsPerTileRow_; }

 private:
  std::vector<PipKey> keys_;      // slot -> key, in (kind, from, to) order
  std::vector<int16_t> slots_;    // dense (kind, from, to) -> slot or -1
  int globalPadBase_ = 0;         // slot of GlobalPad key k is base + k
  int bitsPerTileRow_ = 0;
};

}  // namespace xcvsim
