#include "bitstream/pip_table.h"

#include <limits>

#include "arch/tile_patterns.h"
#include "common/error.h"

namespace xcvsim {
namespace {

/// Kinds with a (from, to) wire pair; GlobalPad keys are stored apart.
constexpr int kWireKinds = static_cast<int>(PipKeyKind::GlobalPad);
constexpr size_t kWires = kNumLocalWires;

/// Dense index of a (kind, from, to) key; its order is the slot order.
size_t denseIndex(PipKeyKind kind, LocalWire from, LocalWire to) {
  return (static_cast<size_t>(kind) * kWires + from) * kWires + to;
}

}  // namespace

PipTable::PipTable(const ArchDb& arch)
    : slots_(kWireKinds * kWires * kWires, -1) {
  // Mark every key present at some tile. A tile's keys depend only on its
  // class, so one representative tile per class covers the whole device.
  const TilePatterns patterns(arch);
  for (int cls = 0; cls < patterns.numClasses(); ++cls) {
    for (const LocalPip& p : patterns.pips(cls)) {
      slots_[denseIndex(PipKeyKind::TilePip, p.from, p.to)] = 0;
    }
    const RowCol rc = patterns.representative(cls);
    arch.forEachDirectConnect(rc, [&](LocalWire f, RowCol dst, LocalWire t) {
      const PipKeyKind kind =
          dst.col > rc.col ? PipKeyKind::DirectE : PipKeyKind::DirectW;
      slots_[denseIndex(kind, f, t)] = 0;
    });
  }

  // Number the marked keys in (kind, from, to) order, then the pads.
  for (int k = 0; k < kWireKinds; ++k) {
    const auto kind = static_cast<PipKeyKind>(k);
    for (LocalWire f = 0; f < kNumLocalWires; ++f) {
      for (LocalWire t = 0; t < kNumLocalWires; ++t) {
        int16_t& slot = slots_[denseIndex(kind, f, t)];
        if (slot < 0) continue;
        if (keys_.size() == std::numeric_limits<int16_t>::max()) {
          throw JRouteError("PipTable: more PIP slots than int16_t numbers");
        }
        slot = static_cast<int16_t>(keys_.size());
        keys_.push_back({kind, f, t});
      }
    }
  }
  globalPadBase_ = numPipSlots();
  for (int k = 0; k < kGlobalNets; ++k) {
    keys_.push_back(
        {PipKeyKind::GlobalPad, kInvalidLocalWire, static_cast<LocalWire>(k)});
  }

  const int total = slotsPerTile();
  bitsPerTileRow_ = (total + kFramesPerColumn - 1) / kFramesPerColumn;
}

int PipTable::slotOf(const PipKey& key) const {
  if (key.kind == PipKeyKind::GlobalPad) {
    return key.from == kInvalidLocalWire && key.to < kGlobalNets
               ? globalPadBase_ + key.to
               : -1;
  }
  if (static_cast<int>(key.kind) >= kWireKinds || key.from >= kWires ||
      key.to >= kWires) {
    return -1;
  }
  return slots_[denseIndex(key.kind, key.from, key.to)];
}

}  // namespace xcvsim
