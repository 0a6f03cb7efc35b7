// Tests for the Block RAM extension: port wires on the edge columns,
// routing to/from BRAM ports, content frames, and the BlockRam core.
#include <gtest/gtest.h>

#include <sstream>

#include "arch/patterns.h"
#include "bitstream/bitfile.h"
#include "core/router.h"
#include "cores/block_ram.h"
#include "drc_clean.h"

namespace jroute {
namespace {

using xcvsim::bramAd;
using xcvsim::bramDi;
using xcvsim::bramDo;
using xcvsim::Graph;
using xcvsim::kBramPinsPerTile;
using xcvsim::PipTable;
using xcvsim::RowCol;
using xcvsim::WireKind;
using xcvsim::wireKind;
using xcvsim::wireName;

class BramTest : public ::testing::Test {
 protected:
  static const Graph& graph() {
    static Graph g{xcvsim::xcv50()};
    return g;
  }
  static const PipTable& table() {
    static PipTable t{xcvsim::ArchDb{xcvsim::xcv50()}};
    return t;
  }
  BramTest() : fabric_(graph(), table()), router_(fabric_) {}

  xcvsim::Fabric fabric_;
  Router router_;
};

TEST_F(BramTest, WireNamespace) {
  EXPECT_EQ(wireKind(bramDo(0)), WireKind::BramOut);
  EXPECT_EQ(wireKind(bramDi(3)), WireKind::BramIn);
  EXPECT_EQ(wireKind(bramAd(0)), WireKind::BramIn);
  EXPECT_EQ(wireName(bramDo(1)), "BRAM_DO[1]");
  EXPECT_EQ(wireName(bramDi(2)), "BRAM_DI[2]");
  EXPECT_EQ(wireName(bramAd(3)), "BRAM_AD[3]");
  EXPECT_EQ(xcvsim::wireIndex(bramAd(3)), 3 + kBramPinsPerTile);
}

TEST_F(BramTest, PortsExistOnlyOnEdgeColumns) {
  const xcvsim::ArchDb db{xcvsim::xcv50()};
  EXPECT_TRUE(db.existsAt({5, 0}, bramDo(0)));
  EXPECT_TRUE(db.existsAt({5, 23}, bramDi(3)));
  EXPECT_FALSE(db.existsAt({5, 1}, bramDo(0)));
  EXPECT_FALSE(db.existsAt({5, 12}, bramAd(2)));
  // Node identity round trip.
  const auto n = graph().nodeAt({5, 0}, bramDo(2));
  ASSERT_NE(n, xcvsim::kInvalidNode);
  const auto inf = graph().info(n);
  EXPECT_EQ(inf.kind, xcvsim::NodeKind::BramOut);
  EXPECT_EQ(inf.tile, (RowCol{5, 0}));
  EXPECT_EQ(graph().aliasAt(n, {5, 0}), bramDo(2));
  EXPECT_EQ(graph().nodeAt({5, 1}, bramDo(2)), xcvsim::kInvalidNode);
}

TEST_F(BramTest, RouteFromAndToBramPorts) {
  // BRAM data out feeds a CLB three columns in.
  router_.route(EndPoint(Pin(5, 0, bramDo(0))),
                EndPoint(Pin(6, 3, xcvsim::S0F2)));
  EXPECT_TRUE(router_.isOn(6, 3, xcvsim::S0F2));
  // A CLB output feeds the BRAM address port on the east column.
  router_.route(EndPoint(Pin(8, 21, xcvsim::S1_YQ)),
                EndPoint(Pin(8, 23, bramAd(1))));
  EXPECT_TRUE(router_.isOn(8, 23, bramAd(1)));
  EXPECT_TRUE(jrtest::drcClean(fabric_));
}

TEST_F(BramTest, ContentBitsLiveInBramFrames) {
  auto& bs = fabric_.jbits().bitstream();
  EXPECT_EQ(bs.bramBlocksPerColumn(), 4);  // 16 rows / 4
  bs.clearDirty();
  bs.setBramBit(0, 2, 1234, true);
  EXPECT_TRUE(bs.getBramBit(0, 2, 1234));
  EXPECT_FALSE(bs.getBramBit(0, 2, 1235));
  EXPECT_FALSE(bs.getBramBit(1, 2, 1234));
  // The dirty frame is in a BRAM column (beyond the CLB columns).
  const auto dirty = bs.dirtyFrames();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_GE(dirty[0].col, xcvsim::xcv50().cols);
  EXPECT_THROW(bs.setBramBit(0, 99, 0, true), xcvsim::BitstreamError);
  EXPECT_THROW(bs.setBramBit(2, 0, 0, true), xcvsim::BitstreamError);
}

TEST_F(BramTest, BlockRamCoreLifecycle) {
  BlockRam ram(BramSide::West, 1);
  ram.place(router_, {4, 0});  // block 1 = rows 4..7 of the west column
  const auto doPorts = ram.getPorts(BlockRam::kOutGroup);
  ASSERT_EQ(doPorts.size(), 16u);
  EXPECT_EQ(doPorts[0]->pins().size(), 1u);

  // Wrong position is rejected.
  BlockRam misplaced(BramSide::West, 0);
  EXPECT_THROW(misplaced.place(router_, {4, 0}), xcvsim::ArgumentError);

  // Wire a data-out bit into the fabric, then remove the core: the
  // connection detaches like any core's.
  router_.route(EndPoint(*doPorts[0]), EndPoint(Pin(5, 4, xcvsim::S0G2)));
  EXPECT_TRUE(router_.isOn(5, 4, xcvsim::S0G2));
  ram.remove(router_);
  EXPECT_EQ(fabric_.onEdgeCount(), 0u);
}

TEST_F(BramTest, ContentsAndBitfileRoundTrip) {
  BlockRam ram(BramSide::East, 0);
  ram.place(router_, {0, 23});
  const uint16_t words[] = {0xDEAD, 0xBEEF, 0x1234, 0x0000, 0xFFFF};
  ram.load(router_, words);
  EXPECT_EQ(ram.readWord(router_, 0), 0xDEAD);
  EXPECT_EQ(ram.readWord(router_, 1), 0xBEEF);
  EXPECT_EQ(ram.readWord(router_, 4), 0xFFFF);
  EXPECT_EQ(ram.readWord(router_, 5), 0x0000);
  EXPECT_THROW(ram.writeWord(router_, 256, 1), xcvsim::ArgumentError);

  // BRAM contents travel in bitfiles like any configuration frame.
  std::stringstream file;
  writeBitfile(file, fabric_.jbits().bitstream(), "ramtest");
  xcvsim::Bitstream other(graph().device(), table());
  readBitfile(file, other);
  EXPECT_TRUE(other == fabric_.jbits().bitstream());
  EXPECT_TRUE(other.getBramBit(1, 0, 0));  // bit 0 of 0xDEAD... is 1
}

}  // namespace
}  // namespace jroute
