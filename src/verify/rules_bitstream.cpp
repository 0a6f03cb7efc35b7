// Bitstream-layer rules: the PIP-to-configuration-bit table must be a
// faithful, collision-free inverse pair with the architecture, and an
// encode of known pips must decode back to exactly that set. These rules
// guard the boundary the hardware actually sees — a wrong slot here means
// a silently mis-programmed device, not a routing failure.
#include <map>
#include <set>
#include <tuple>

#include "arch/wires.h"
#include "bitstream/bitstream.h"
#include "verify/rules.h"

namespace jrverify {
namespace {

using xcvsim::Bitstream;
using xcvsim::DecodedPip;
using xcvsim::kFramesPerColumn;
using xcvsim::kGlobalNets;
using xcvsim::kInvalidLocalWire;
using xcvsim::PipKey;
using xcvsim::PipKeyKind;
using xcvsim::wireName;

const char* kindName(PipKeyKind k) {
  switch (k) {
    case PipKeyKind::TilePip: return "TilePip";
    case PipKeyKind::DirectE: return "DirectE";
    case PipKeyKind::DirectW: return "DirectW";
    case PipKeyKind::GlobalPad: return "GlobalPad";
  }
  return "?";
}

std::string keyName(const PipKey& key) {
  std::string s = kindName(key.kind);
  s += ' ';
  s += key.from == kInvalidLocalWire ? std::string("-") : wireName(key.from);
  s += " -> ";
  s += key.to == kInvalidLocalWire ? std::string("-")
                                   : (key.kind == PipKeyKind::GlobalPad
                                          ? "pad" + std::to_string(key.to)
                                          : wireName(key.to));
  return s;
}

/// Lossless, ordered identity of a key for dedup maps.
using KeyId = std::tuple<int, LocalWire, LocalWire>;
KeyId keyId(const PipKey& k) {
  return {static_cast<int>(k.kind), k.from, k.to};
}

/// bit-slot-roundtrip — slotOf(keyAt(s)) == s for every PIP slot.
void slotRoundtrip(const ModelView& m, RuleSink& out) {
  size_t& slots = out.count("slots");
  const int n = m.table->numPipSlots();
  for (int s = 0; s < n; ++s) {
    ++slots;
    const PipKey& key = m.keyAt(s);
    const int back = m.slotOf(key);
    if (back != s) {
      out.add("slot " + std::to_string(s) + " (" + keyName(key) + ")",
              "slotOf(keyAt(slot)) returns " + std::to_string(back),
              "the slot->key vector and the dense key->slot array in "
              "PipTable disagree; number both in one ordered scan");
    }
  }
}

/// Report `key`, enumerated at `rc`, if it has no configuration slot.
void expectSlot(const ModelView& m, RuleSink& out, RowCol rc,
                const PipKey& key) {
  if (m.slotOf(key) >= 0) return;
  out.add(tileName(rc) + " " + keyName(key),
          "arch pip has no configuration slot",
          "PipTable's tile-class union missed this key; check the "
          "TilePatterns class key against ArchDb::existsAt");
}

/// bit-key-coverage — every pip the architecture enumerates at the sampled
/// tiles (tile pips, directs, global pads) owns a slot in the table.
void keyCoverage(const ModelView& m, RuleSink& out) {
  size_t& tiles = out.count("tiles");
  size_t& pips = out.count("pips");
  for (const RowCol rc : sampleTiles(*m.dev)) {
    ++tiles;
    m.tilePips(rc, [&](LocalWire from, LocalWire to) {
      ++pips;
      expectSlot(m, out, rc, PipKey{PipKeyKind::TilePip, from, to});
    });
    m.directs(rc, [&](LocalWire from, RowCol dst, LocalWire to) {
      ++pips;
      const PipKeyKind kind =
          dst.col > rc.col ? PipKeyKind::DirectE : PipKeyKind::DirectW;
      expectSlot(m, out, rc, PipKey{kind, from, to});
    });
  }
  for (int k = 0; k < kGlobalNets; ++k) {
    ++pips;
    expectSlot(m, out, RowCol{0, 0},
               PipKey{PipKeyKind::GlobalPad, kInvalidLocalWire,
                      static_cast<LocalWire>(k)});
  }
}

/// bit-no-aliasing — distinct slots never share a key, and a tile's config
/// block fits its column's frames (two slots must never share a bit).
void noAliasing(const ModelView& m, RuleSink& out) {
  size_t& slots = out.count("slots");
  const int n = m.table->numPipSlots();
  std::map<KeyId, int> firstSlot;
  for (int s = 0; s < n; ++s) {
    ++slots;
    const PipKey& key = m.keyAt(s);
    auto [it, fresh] = firstSlot.emplace(keyId(key), s);
    if (!fresh) {
      out.add("slots " + std::to_string(it->second) + " and " +
                  std::to_string(s),
              "both map the same key (" + keyName(key) + ")",
              "duplicate keys make slotOf ambiguous and decode would "
              "double-report; dedup the enumeration before sorting");
    }
  }
  const int capacity = kFramesPerColumn * m.bitsPerTileRow();
  if (m.table->slotsPerTile() > capacity) {
    out.add("slotsPerTile=" + std::to_string(m.table->slotsPerTile()) +
                " capacity=" + std::to_string(capacity),
            "tile config block overflows its column's frames",
            "two slots would share a configuration bit; bitsPerTileRow "
            "must satisfy slotsPerTile <= kFramesPerColumn * bits");
  }
}

/// bit-encode-decode — setting a known pip set through the slot mapping and
/// decoding the frames recovers exactly that set, nothing more or less.
void encodeDecode(const ModelView& m, RuleSink& out) {
  size_t& tiles = out.count("tiles");
  size_t& pips = out.count("pips");
  Bitstream bs(*m.dev, *m.table);
  // (row, col, kind, from, to) — lossless identity for the comparison.
  using Entry = std::tuple<int, int, int, LocalWire, LocalWire>;
  const auto report = [&](const Entry& e, const char* message,
                          const char* hint) {
    const PipKey key{static_cast<PipKeyKind>(std::get<2>(e)),
                     std::get<3>(e), std::get<4>(e)};
    out.add(tileName(RowCol{static_cast<int16_t>(std::get<0>(e)),
                            static_cast<int16_t>(std::get<1>(e))}) +
                " " + keyName(key),
            message, hint);
  };
  std::set<Entry> expected;
  const auto plant = [&](RowCol rc, const PipKey& key) {
    const int slot = m.slotOf(key);
    if (slot < 0) return;  // coverage rule reports missing keys
    const Entry entry{rc.row, rc.col, static_cast<int>(key.kind), key.from,
                      key.to};
    if (!expected.insert(entry).second) return;
    bs.setSlot(rc, slot, true);
  };
  for (const RowCol rc : sampleTiles(*m.dev)) {
    ++tiles;
    int tilePips = 0;
    m.tilePips(rc, [&](LocalWire from, LocalWire to) {
      if (tilePips >= 3) return;
      ++tilePips;
      plant(rc, PipKey{PipKeyKind::TilePip, from, to});
    });
    bool haveDirect = false;
    m.directs(rc, [&](LocalWire from, RowCol dst, LocalWire to) {
      if (haveDirect) return;
      haveDirect = true;
      const PipKeyKind kind =
          dst.col > rc.col ? PipKeyKind::DirectE : PipKeyKind::DirectW;
      plant(rc, PipKey{kind, from, to});
    });
  }
  plant(RowCol{0, 0},
        PipKey{PipKeyKind::GlobalPad, kInvalidLocalWire, 0});
  pips += expected.size();

  std::set<Entry> decoded;
  bool decodeDup = false;
  for (const DecodedPip& p : m.decode(bs)) {
    const Entry entry{p.tile.row, p.tile.col, static_cast<int>(p.key.kind),
                      p.key.from, p.key.to};
    decodeDup = !decoded.insert(entry).second || decodeDup;
  }
  if (decodeDup) {
    out.add("decodePips", "decode reported a pip twice",
            "the decoder must visit each (tile, slot) bit exactly once");
  }
  for (const Entry& e : expected) {
    if (decoded.count(e)) continue;
    report(e, "planted pip missing after decode",
           "the slot's frame/bit address differs between setSlot and the "
           "decoder's sweep");
  }
  for (const Entry& e : decoded) {
    if (expected.count(e)) continue;
    report(e, "decode reports a pip that was never planted",
           "a stray bit aliases into another slot; check bitIndex maths");
  }
}

}  // namespace

std::span<const VerifyRule> bitstreamRules() {
  static const VerifyRule rules[] = {
      {"bit-slot-roundtrip", "bitstream", kError,
       "slotOf and keyAt are inverse over every PIP slot", nullptr,
       slotRoundtrip},
      {"bit-key-coverage", "bitstream", kError,
       "every enumerated arch pip has a configuration slot", nullptr,
       keyCoverage},
      {"bit-no-aliasing", "bitstream", kError,
       "slots are key-unique and the tile block fits its frames", nullptr,
       noAliasing},
      {"bit-encode-decode", "bitstream", kError,
       "decode(encode(pips)) is the identity on a known pip set", nullptr,
       encodeDecode},
  };
  return rules;
}

}  // namespace jrverify
