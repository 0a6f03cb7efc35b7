// Tests for the RTP core framework and the core library: port rules,
// placement/removal, internal routing, and run-time parameterization.
#include <gtest/gtest.h>

#include "cores/comparator.h"
#include "cores/const_adder.h"
#include "cores/counter.h"
#include "cores/kcm.h"
#include "cores/register_bank.h"
#include "cores/shift_reg.h"
#include "drc_clean.h"

namespace jroute {
namespace {

using xcvsim::ArgumentError;
using xcvsim::Graph;
using xcvsim::PipTable;

class CoresTest : public ::testing::Test {
 protected:
  static const Graph& graph() {
    static Graph g{xcvsim::xcv50()};
    return g;
  }
  static const PipTable& table() {
    static PipTable t{xcvsim::ArchDb{xcvsim::xcv50()}};
    return t;
  }

  CoresTest() : fabric_(graph(), table()), router_(fabric_) {}

  xcvsim::Fabric fabric_;
  Router router_;
};

TEST_F(CoresTest, ConstAdderPlacesWithPortsAndCarryChain) {
  ConstAdder adder(8, 0x5A);
  EXPECT_FALSE(adder.placed());
  adder.place(router_, {4, 4});
  EXPECT_TRUE(adder.placed());
  EXPECT_EQ(adder.rows(), 4);

  // Ports follow the section 3.2 rules: grouped, getPorts per group.
  const auto in = adder.getPorts(ConstAdder::kInGroup);
  const auto out = adder.getPorts(ConstAdder::kOutGroup);
  ASSERT_EQ(in.size(), 8u);
  ASSERT_EQ(out.size(), 8u);
  for (const Port* p : in) {
    EXPECT_EQ(p->dir(), PortDir::Input);
    EXPECT_EQ(p->pins().size(), 1u);
  }
  const auto groups = adder.groups();
  EXPECT_EQ(groups.size(), 2u);

  // The carry chain created 7 internal nets.
  EXPECT_EQ(fabric_.liveNetCount(), 7u);
  EXPECT_TRUE(jrtest::drcClean(fabric_));

  // LUTs are programmed from the constant: bit 1 of 0x5A is 1.
  EXPECT_EQ(fabric_.jbits().getLut({4, 4}, 2), 0x9999);  // slice1 = bit 1
  EXPECT_EQ(fabric_.jbits().getLut({4, 4}, 0), 0x6666);  // bit 0 of 0x5A=0
}

TEST_F(CoresTest, ConstAdderRemoveRestoresBlankFabric) {
  ConstAdder adder(8, 3);
  adder.place(router_, {4, 4});
  EXPECT_GT(fabric_.onEdgeCount(), 0u);
  adder.remove(router_);
  EXPECT_EQ(fabric_.onEdgeCount(), 0u);
  EXPECT_EQ(fabric_.usedNodeCount(), 0u);
  EXPECT_EQ(fabric_.liveNetCount(), 0u);
  EXPECT_EQ(fabric_.jbits().bitstream().popcount(), 0u);
  EXPECT_TRUE(adder.getPorts(ConstAdder::kInGroup)[0]->pins().empty());
  // Re-place somewhere else works.
  adder.place(router_, {0, 10});
  EXPECT_EQ(adder.origin(), (RowCol{0, 10}));
}

TEST_F(CoresTest, PlacementValidation) {
  ConstAdder adder(8, 3);
  EXPECT_THROW(adder.place(router_, {14, 4}), ArgumentError);  // falls off
  EXPECT_THROW(adder.remove(router_), ArgumentError);          // not placed
  adder.place(router_, {4, 4});
  EXPECT_THROW(adder.place(router_, {4, 4}), ArgumentError);   // twice
  EXPECT_THROW(ConstAdder(0, 0), ArgumentError);
  EXPECT_THROW(ConstAdder(64, 0), ArgumentError);
}

TEST_F(CoresTest, SetConstantIsPureBitstreamUpdate) {
  ConstAdder adder(8, 0x00);
  adder.place(router_, {4, 4});
  const size_t edges = fabric_.onEdgeCount();
  fabric_.jbits().bitstream().clearDirty();

  adder.setConstant(router_, 0xFF);
  EXPECT_EQ(fabric_.onEdgeCount(), edges);  // routing untouched
  EXPECT_EQ(fabric_.jbits().getLut({4, 4}, 0), 0x9999);
  // Partial reconfiguration touched only this column's frames.
  for (const auto& fa : fabric_.jbits().bitstream().dirtyFrames()) {
    EXPECT_EQ(fa.col, 4);
  }
}

TEST_F(CoresTest, KcmLutsEncodeTheConstant) {
  Kcm kcm(8, 5);
  kcm.place(router_, {2, 7});
  // x=3 -> 3*5=15: bit 0..3 of the product of LUT input 3 are 1.
  const uint16_t lut0 = fabric_.jbits().getLut({2, 7}, 0);
  EXPECT_TRUE((lut0 >> 3) & 1);  // 15 has bit 0 set for x=3
  kcm.setConstant(router_, 4);
  const uint16_t lut0b = fabric_.jbits().getLut({2, 7}, 0);
  EXPECT_NE(lut0, lut0b);
  EXPECT_TRUE(jrtest::drcClean(fabric_));
}

TEST_F(CoresTest, CounterFeedsBackThroughPorts) {
  Counter counter(6, 1);
  counter.place(router_, {3, 12});
  // The q ports are bound and driven: each counter bit's net exists and
  // feeds back into an adder input.
  const auto q = counter.getPorts(Counter::kOutGroup);
  ASSERT_EQ(q.size(), 6u);
  for (Port* p : q) {
    ASSERT_EQ(p->pins().size(), 1u);
    EXPECT_TRUE(router_.isOn(p->pins()[0].rc.row, p->pins()[0].rc.col,
                             p->pins()[0].wire));
  }
  EXPECT_TRUE(jrtest::drcClean(fabric_));
  // Removing the counter removes the child adder too.
  counter.remove(router_);
  EXPECT_EQ(fabric_.usedNodeCount(), 0u);
  EXPECT_EQ(fabric_.liveNetCount(), 0u);
}

TEST_F(CoresTest, RegisterBankClockDistribution) {
  RegisterBank bank(8);
  bank.place(router_, {6, 6});
  bank.clockFrom(router_, 0);
  // Every CLK pin of the bank is driven by the global net.
  for (int t = 0; t < bank.rows(); ++t) {
    EXPECT_TRUE(router_.isOn(6 + t, 6, xcvsim::S0CLK));
    EXPECT_TRUE(router_.isOn(6 + t, 6, xcvsim::S1CLK));
  }
  EXPECT_TRUE(jrtest::drcClean(fabric_));
  // Removing the bank detaches the clock branches as well.
  bank.remove(router_);
  EXPECT_FALSE(router_.isOn(6, 6, xcvsim::S0CLK));
}

TEST_F(CoresTest, ShiftRegChainsStages) {
  ShiftReg sr(8);
  sr.place(router_, {1, 3});
  // 7 stage-to-stage nets.
  EXPECT_EQ(fabric_.liveNetCount(), 7u);
  const auto so = sr.getPorts(ShiftReg::kOutGroup);
  ASSERT_EQ(so.size(), 1u);
  EXPECT_TRUE(jrtest::drcClean(fabric_));
}

TEST_F(CoresTest, ComparatorReductionChain) {
  Comparator cmp(8);
  cmp.place(router_, {9, 15});
  EXPECT_EQ(cmp.getPorts(Comparator::kAGroup).size(), 8u);
  EXPECT_EQ(cmp.getPorts(Comparator::kOutGroup).size(), 1u);
  EXPECT_EQ(fabric_.liveNetCount(), 7u);
  EXPECT_TRUE(jrtest::drcClean(fabric_));
}

TEST_F(CoresTest, TwoCoresConnectPortToPort) {
  // "the output ports of a multiplier core could be connected to the
  //  input ports of an adder core."
  Kcm mult(8, 3);
  ConstAdder adder(8, 10);
  mult.place(router_, {4, 4});
  adder.place(router_, {4, 9});

  const auto p = mult.endPoints(Kcm::kOutGroup);
  const auto a = adder.endPoints(ConstAdder::kInGroup);
  router_.route(std::span<const EndPoint>(p), std::span<const EndPoint>(a));

  for (Port* port : adder.getPorts(ConstAdder::kInGroup)) {
    const Pin& pin = port->pins()[0];
    EXPECT_TRUE(router_.isOn(pin.rc.row, pin.rc.col, pin.wire));
  }
  EXPECT_TRUE(jrtest::drcClean(fabric_));
  // 8 bus connections were remembered (they involve ports).
  EXPECT_EQ(router_.connections().size(), 8u);
}

}  // namespace
}  // namespace jroute
