// Tests for the second wave of library cores: LFSR, ROM, and the
// hierarchical adder tree.
#include <gtest/gtest.h>

#include "cores/adder_tree.h"
#include "cores/lfsr.h"
#include "cores/rom.h"
#include "drc_clean.h"
#include "rtr/manager.h"

namespace jroute {
namespace {

using xcvsim::ArgumentError;
using xcvsim::Graph;
using xcvsim::PipTable;

class Cores2Test : public ::testing::Test {
 protected:
  static const Graph& graph() {
    static Graph g{xcvsim::xcv50()};
    return g;
  }
  static const PipTable& table() {
    static PipTable t{xcvsim::ArchDb{xcvsim::xcv50()}};
    return t;
  }
  Cores2Test() : fabric_(graph(), table()), router_(fabric_) {}

  xcvsim::Fabric fabric_;
  Router router_;
};

TEST_F(Cores2Test, LfsrShiftChainAndTaps) {
  Lfsr lfsr(8, 0b10010110);
  lfsr.place(router_, {4, 6});
  // 7 shift nets; taps extend existing stage nets (no extra net objects
  // beyond stages that had none).
  EXPECT_GE(fabric_.liveNetCount(), 7u);
  // The parity LUT is programmed on the first slice.
  EXPECT_EQ(fabric_.jbits().getLut({4, 6}, 0), 0x6996);
  EXPECT_TRUE(jrtest::drcClean(fabric_));
  EXPECT_THROW(Lfsr(8, 0), ArgumentError);
}

TEST_F(Cores2Test, LfsrRetapAtRunTime) {
  Lfsr lfsr(8, 0b00000110);
  lfsr.place(router_, {4, 6});
  const size_t edgesBefore = fabric_.onEdgeCount();
  lfsr.setTaps(router_, 0b10000001);
  EXPECT_EQ(lfsr.taps(), 0b10000001u);
  EXPECT_TRUE(lfsr.placed());
  EXPECT_GT(fabric_.onEdgeCount(), 0u);
  EXPECT_TRUE(jrtest::drcClean(fabric_));
  (void)edgesBefore;
  lfsr.remove(router_);
  EXPECT_EQ(fabric_.usedNodeCount(), 0u);
}

TEST_F(Cores2Test, RomTruthTablesEncodeContents) {
  const uint16_t words[] = {0x0001, 0x0002, 0x0003, 0x0004};
  Rom rom(4, words);
  rom.place(router_, {3, 9});
  // Bit plane 0 truth table: addresses 0 and 2 hold words with bit0 set.
  const uint16_t lut0 = fabric_.jbits().getLut({3, 9}, 0);
  EXPECT_TRUE(lut0 & (1u << 0));   // word 0 = 0x0001
  EXPECT_FALSE(lut0 & (1u << 1));  // word 1 = 0x0002 has bit0 clear
  EXPECT_TRUE(lut0 & (1u << 2));   // word 2 = 0x0003

  // Address ports bind one pin per bit plane (multi-pin ports).
  const auto addr = rom.getPorts(Rom::kAddrGroup);
  ASSERT_EQ(addr.size(), 4u);
  EXPECT_EQ(addr[0]->pins().size(), 4u);  // 4 bit planes on the strip
}

TEST_F(Cores2Test, RomWordUpdateIsBitstreamOnly) {
  const uint16_t words[] = {0, 0, 0, 0};
  Rom rom(4, words);
  rom.place(router_, {3, 9});
  const size_t edges = fabric_.onEdgeCount();
  fabric_.jbits().bitstream().clearDirty();
  rom.setWord(router_, 2, 0xF);
  EXPECT_EQ(fabric_.onEdgeCount(), edges);
  EXPECT_FALSE(fabric_.jbits().bitstream().dirtyFrames().empty());
  EXPECT_THROW(rom.setWord(router_, 99, 0), ArgumentError);
}

TEST_F(Cores2Test, RomAddressFanoutThroughPorts) {
  const uint16_t words[] = {1, 2, 3, 4};
  Rom rom(6, words);
  rom.place(router_, {3, 9});
  // Drive address line 0 from an external pin; the router expands the
  // port to every bound pin (one per bit-plane slice).
  router_.route(EndPoint(Pin(3, 5, xcvsim::S0_X)),
                EndPoint(*rom.getPorts(Rom::kAddrGroup)[0]));
  const auto t = router_.trace(EndPoint(Pin(3, 5, xcvsim::S0_X)));
  EXPECT_EQ(t.sinks.size(), rom.getPorts(Rom::kAddrGroup)[0]->pins().size());
  EXPECT_TRUE(jrtest::drcClean(fabric_));
}

TEST_F(Cores2Test, AdderTreeHierarchy) {
  AdderTree tree(4);
  tree.place(router_, {1, 12});
  // Three children, each with internal carry nets, plus the reduction bus.
  EXPECT_GT(fabric_.liveNetCount(), 6u);
  const auto sum = tree.getPorts(AdderTree::kOutGroup);
  ASSERT_EQ(sum.size(), 4u);
  for (Port* p : sum) EXPECT_EQ(p->pins().size(), 1u);
  EXPECT_TRUE(jrtest::drcClean(fabric_));

  // Removing the composite removes every child too.
  tree.remove(router_);
  EXPECT_EQ(fabric_.usedNodeCount(), 0u);
  EXPECT_EQ(fabric_.onEdgeCount(), 0u);
  EXPECT_EQ(fabric_.jbits().bitstream().popcount(), 0u);
}

TEST_F(Cores2Test, AdderTreeRelocatesThroughManager) {
  RtrManager mgr(router_);
  AdderTree tree(4);
  mgr.install(tree, {1, 4});
  mgr.relocate(tree, {1, 18});
  EXPECT_EQ(tree.origin(), (RowCol{1, 18}));
  EXPECT_TRUE(jrtest::drcClean(fabric_));
}

}  // namespace
}  // namespace jroute
