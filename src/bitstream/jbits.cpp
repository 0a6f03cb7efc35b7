#include "bitstream/jbits.h"

#include <string>

#include "arch/wires.h"
#include "common/error.h"

namespace xcvsim {
namespace {

/// A wire's name, or its raw id when it names no wire.
std::string wireLabel(LocalWire w) {
  return isValidWire(w) ? wireName(w) : "#" + std::to_string(w);
}

}  // namespace

int JBits::requireSlot(const PipKey& key) const {
  const int slot = table_->slotOf(key);
  if (slot < 0) {
    throw BitstreamError(
        "no configurable point for " +
        (key.kind == PipKeyKind::GlobalPad
             ? "GCLKPAD[" + std::to_string(key.to) + "]"
             : wireLabel(key.from) + " -> " + wireLabel(key.to)));
  }
  return slot;
}

void JBits::setPip(RowCol rc, LocalWire from, LocalWire to, bool on) {
  bits_.setSlot(rc, requireSlot({PipKeyKind::TilePip, from, to}), on);
}

bool JBits::getPip(RowCol rc, LocalWire from, LocalWire to) const {
  return bits_.getSlot(rc, requireSlot({PipKeyKind::TilePip, from, to}));
}

void JBits::setDirect(RowCol rc, Dir toward, LocalWire from, LocalWire to,
                      bool on) {
  const PipKeyKind kind =
      toward == Dir::East ? PipKeyKind::DirectE : PipKeyKind::DirectW;
  bits_.setSlot(rc, requireSlot({kind, from, to}), on);
}

bool JBits::getDirect(RowCol rc, Dir toward, LocalWire from,
                      LocalWire to) const {
  const PipKeyKind kind =
      toward == Dir::East ? PipKeyKind::DirectE : PipKeyKind::DirectW;
  return bits_.getSlot(rc, requireSlot({kind, from, to}));
}

void JBits::setGlobalPad(int k, bool on) {
  bits_.setSlot({0, 0}, requireSlot({PipKeyKind::GlobalPad,
                                     kInvalidLocalWire,
                                     static_cast<LocalWire>(k)}),
                on);
}

bool JBits::getGlobalPad(int k) const {
  return bits_.getSlot({0, 0}, requireSlot({PipKeyKind::GlobalPad,
                                            kInvalidLocalWire,
                                            static_cast<LocalWire>(k)}));
}

void JBits::setLut(RowCol rc, int lut, uint16_t truth) {
  if (lut < 0 || lut >= kLutsPerTile) {
    throw BitstreamError("LUT index out of range");
  }
  for (int b = 0; b < kLutBits; ++b) {
    bits_.setSlot(rc, table_->lutSlot(lut, b), (truth >> b) & 1);
  }
}

uint16_t JBits::getLut(RowCol rc, int lut) const {
  if (lut < 0 || lut >= kLutsPerTile) {
    throw BitstreamError("LUT index out of range");
  }
  uint16_t truth = 0;
  for (int b = 0; b < kLutBits; ++b) {
    if (bits_.getSlot(rc, table_->lutSlot(lut, b))) {
      truth = static_cast<uint16_t>(truth | (1u << b));
    }
  }
  return truth;
}

void JBits::setMiscBit(RowCol rc, int bit, bool on) {
  if (bit < 0 || bit >= kMiscLogicBits) {
    throw BitstreamError("misc bit out of range");
  }
  bits_.setSlot(rc, table_->miscSlot(bit), on);
}

bool JBits::getMiscBit(RowCol rc, int bit) const {
  if (bit < 0 || bit >= kMiscLogicBits) {
    throw BitstreamError("misc bit out of range");
  }
  return bits_.getSlot(rc, table_->miscSlot(bit));
}

}  // namespace xcvsim
