// Tests for the JBits-equivalent configuration layer: PIP table, frame
// memory, facade, packets, CRC, and decoder.
#include <gtest/gtest.h>

#include "arch/patterns.h"
#include "bitstream/crc32.h"
#include "bitstream/decoder.h"
#include "bitstream/jbits.h"
#include "bitstream/packets.h"
#include "common/error.h"
#include "digest.h"

namespace xcvsim {
namespace {

class BitstreamTest : public ::testing::Test {
 protected:
  static const ArchDb& arch() {
    static ArchDb a{xcv50()};
    return a;
  }
  static const PipTable& table() {
    static PipTable t{arch()};
    return t;
  }
};

TEST_F(BitstreamTest, Crc32KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(data), 0xCBF43926u);
  Crc32 inc;
  inc.update(std::span<const uint8_t>(data, 4));
  inc.update(std::span<const uint8_t>(data + 4, 5));
  EXPECT_EQ(inc.value(), 0xCBF43926u);
}

TEST_F(BitstreamTest, PipTableCoversEveryTilePattern) {
  // Every PIP of every tile (not just interior ones) must have a slot.
  const DeviceSpec& dev = arch().device();
  for (int16_t r = 0; r < dev.rows; r = static_cast<int16_t>(r + 5)) {
    for (int16_t c = 0; c < dev.cols; c = static_cast<int16_t>(c + 5)) {
      arch().forEachTilePip({r, c}, [&](LocalWire f, LocalWire t) {
        EXPECT_GE(table().slotOf({PipKeyKind::TilePip, f, t}), 0)
            << wireName(f) << " -> " << wireName(t) << " at R" << r << "C"
            << c;
      });
    }
  }
}

TEST_F(BitstreamTest, PipTableSlotsFitFrames) {
  EXPECT_LE(table().slotsPerTile(),
            kFramesPerColumn * table().bitsPerTileRow());
  EXPECT_GT(table().numPipSlots(), 1000);  // a realistically dense GRM
}

TEST_F(BitstreamTest, SlotRoundTrip) {
  for (int s = 0; s < table().numPipSlots(); s += 97) {
    EXPECT_EQ(table().slotOf(table().keyAt(s)), s);
  }
  EXPECT_EQ(table().slotOf({PipKeyKind::TilePip, S0F1, S0_X}), -1);
}

// Golden digest of the slot -> key order on XCV50 and XCV300 (the same
// table: both have every key), pinned from the per-tile union the
// class-pattern build replaced. A match means every slot, and so every
// configuration bit, is where it was.
TEST_F(BitstreamTest, PipTableKeysMatchPinnedDigest) {
  const auto digest = [](const PipTable& t) {
    jrtest::Fnv1a h;
    h.add(t.numPipSlots());
    for (int s = 0; s < t.numPipSlots(); ++s) {
      const PipKey& k = t.keyAt(s);
      h.add(static_cast<uint8_t>(k.kind));
      h.add(k.from);
      h.add(k.to);
    }
    return h.value();
  };
  constexpr uint64_t kPinned = 0x5f3303927f797d2dull;
  EXPECT_EQ(digest(table()), kPinned) << std::hex << digest(table());
  const PipTable t300{ArchDb{xcv300()}};
  EXPECT_EQ(digest(t300), kPinned) << std::hex << digest(t300);
}

TEST_F(BitstreamTest, SetGetBitsAndDirtyFrames) {
  Bitstream bs(arch().device(), table());
  EXPECT_EQ(bs.popcount(), 0u);
  bs.setSlot({3, 7}, 5, true);
  EXPECT_TRUE(bs.getSlot({3, 7}, 5));
  EXPECT_FALSE(bs.getSlot({3, 7}, 6));
  EXPECT_FALSE(bs.getSlot({3, 8}, 5));
  EXPECT_EQ(bs.popcount(), 1u);

  const auto dirty = bs.dirtyFrames();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0].col, 7);  // only the touched column's frame is dirty
  bs.clearDirty();
  EXPECT_TRUE(bs.dirtyFrames().empty());

  bs.setSlot({3, 7}, 5, false);
  EXPECT_EQ(bs.popcount(), 0u);
}

TEST_F(BitstreamTest, OutOfRangeAddressesThrow) {
  Bitstream bs(arch().device(), table());
  EXPECT_THROW(bs.setSlot({99, 0}, 0, true), BitstreamError);
  EXPECT_THROW(bs.setSlot({0, 0}, table().slotsPerTile(), true),
               BitstreamError);
  EXPECT_THROW(bs.frameWords(FrameAddr{0, kFramesPerColumn}),
               BitstreamError);
}

TEST_F(BitstreamTest, JBitsPipRoundTrip) {
  JBits jb(arch().device(), table());
  const RowCol rc{5, 7};
  // S1_YQ (output 7) drives OUT[1] per the OMUX pattern: (7+2)%8 == 1.
  jb.setPip(rc, S1_YQ, omux(1), true);
  EXPECT_TRUE(jb.getPip(rc, S1_YQ, omux(1)));
  EXPECT_FALSE(jb.getPip(rc, S1_YQ, omux(7)));
  jb.setPip(rc, S1_YQ, omux(1), false);
  EXPECT_FALSE(jb.getPip(rc, S1_YQ, omux(1)));
  EXPECT_EQ(jb.bitstream().popcount(), 0u);
}

TEST_F(BitstreamTest, JBitsRejectsNonexistentPip) {
  JBits jb(arch().device(), table());
  EXPECT_THROW(jb.setPip({5, 7}, S0F1, S0_X, true), BitstreamError);
  // Wire ids past the namespace must be rejected by the slot table's
  // bounds check, never read outside its dense array.
  for (const LocalWire bad : {kNumLocalWires, kInvalidLocalWire}) {
    EXPECT_THROW(jb.setPip({5, 7}, bad, S0F1, true), BitstreamError);
    EXPECT_THROW(jb.setPip({5, 7}, omux(0), bad, true), BitstreamError);
    EXPECT_THROW(jb.getPip({5, 7}, bad, bad), BitstreamError);
    EXPECT_THROW(jb.setDirect({5, 7}, Dir::East, bad, S0F1, true),
                 BitstreamError);
    EXPECT_THROW(jb.setDirect({5, 7}, Dir::East, S0_X, bad, true),
                 BitstreamError);
    EXPECT_THROW(jb.getDirect({5, 7}, Dir::West, bad, bad), BitstreamError);
  }
  EXPECT_THROW(jb.setGlobalPad(kGlobalNets, true), BitstreamError);
  EXPECT_THROW(jb.getGlobalPad(kGlobalNets), BitstreamError);
  EXPECT_THROW(jb.setGlobalPad(-1, true), BitstreamError);
}

TEST_F(BitstreamTest, JBitsLutAndMisc) {
  JBits jb(arch().device(), table());
  jb.setLut({2, 3}, 0, 0xCAFE);
  jb.setLut({2, 3}, 3, 0x8001);
  EXPECT_EQ(jb.getLut({2, 3}, 0), 0xCAFE);
  EXPECT_EQ(jb.getLut({2, 3}, 3), 0x8001);
  EXPECT_EQ(jb.getLut({2, 3}, 1), 0);
  jb.setMiscBit({2, 3}, 7, true);
  EXPECT_TRUE(jb.getMiscBit({2, 3}, 7));
  EXPECT_THROW(jb.setLut({2, 3}, 9, 0), BitstreamError);
  EXPECT_THROW(jb.setMiscBit({2, 3}, kMiscLogicBits, true), BitstreamError);
}

TEST_F(BitstreamTest, JBitsGlobalPads) {
  JBits jb(arch().device(), table());
  jb.setGlobalPad(2, true);
  EXPECT_TRUE(jb.getGlobalPad(2));
  EXPECT_FALSE(jb.getGlobalPad(1));
}

TEST_F(BitstreamTest, PacketsRoundTripOneFrame) {
  Bitstream a(arch().device(), table());
  a.setSlot({4, 9}, 11, true);
  const Packet p = makeFramePacket(a, a.dirtyFrames().front());
  Bitstream b(arch().device(), table());
  applyPackets(b, std::span<const Packet>(&p, 1));
  EXPECT_TRUE(a == b);
}

TEST_F(BitstreamTest, DiffPacketsTransformConfigs) {
  JBits from(arch().device(), table());
  JBits to(arch().device(), table());
  from.setPip({1, 1}, sliceOut(0), omux(0), true);
  to.setPip({8, 20}, sliceOut(2), omux(2), true);
  to.setLut({3, 3}, 1, 0xAAAA);

  const auto packets = diffPackets(from.bitstream(), to.bitstream());
  EXPECT_FALSE(packets.empty());
  applyPackets(from.bitstream(), packets);
  EXPECT_TRUE(from.bitstream() == to.bitstream());
}

TEST_F(BitstreamTest, CorruptPacketRejected) {
  Bitstream a(arch().device(), table());
  a.setSlot({4, 9}, 11, true);
  Packet p = makeFramePacket(a, a.dirtyFrames().front());
  p.data[0] ^= 1;  // corrupt payload; CRC now stale
  Bitstream b(arch().device(), table());
  EXPECT_THROW(applyPackets(b, std::span<const Packet>(&p, 1)),
               BitstreamError);
}

TEST_F(BitstreamTest, PartialReconfigTouchesOnlyChangedColumns) {
  JBits jb(arch().device(), table());
  jb.bitstream().clearDirty();
  jb.setPip({5, 7}, S1_YQ, omux(1), true);
  jb.setLut({5, 7}, 0, 0x1234);
  for (const FrameAddr& fa : jb.bitstream().dirtyFrames()) {
    EXPECT_EQ(fa.col, 7);
  }
}

TEST_F(BitstreamTest, DecoderRecoversEnabledPips) {
  JBits jb(arch().device(), table());
  jb.setPip({5, 7}, S1_YQ, omux(1), true);
  jb.setDirect({5, 7}, Dir::East, sliceOut(0), clbIn(directPins(0)[0]),
               true);
  jb.setGlobalPad(1, true);
  jb.setLut({5, 7}, 0, 0xFFFF);  // logic bits must NOT decode as PIPs

  const auto pips = decodePips(jb.bitstream());
  ASSERT_EQ(pips.size(), 3u);
  EXPECT_EQ(countEnabledPips(jb.bitstream()), 3u);
  bool sawPip = false, sawDirect = false, sawPad = false;
  for (const DecodedPip& d : pips) {
    switch (d.key.kind) {
      case PipKeyKind::TilePip:
        EXPECT_EQ(d.tile, (RowCol{5, 7}));
        EXPECT_EQ(d.key.from, S1_YQ);
        EXPECT_EQ(d.key.to, omux(1));
        sawPip = true;
        break;
      case PipKeyKind::DirectE:
        sawDirect = true;
        break;
      case PipKeyKind::GlobalPad:
        EXPECT_EQ(d.key.to, 1);
        sawPad = true;
        break;
      default:
        FAIL();
    }
  }
  EXPECT_TRUE(sawPip && sawDirect && sawPad);
}

TEST_F(BitstreamTest, ConfigSizeIsRealistic) {
  Bitstream bs(arch().device(), table());
  // An XCV50-class device has a configuration in the hundreds of KB.
  EXPECT_GT(bs.configBytes(), size_t{100} << 10);
  EXPECT_LT(bs.configBytes(), size_t{8} << 20);
}

}  // namespace
}  // namespace xcvsim
