// Tests for the fabric state layer: net lifecycle, contention protection,
// write-through to the bitstream, tracing, and timing.
#include <gtest/gtest.h>

#include <algorithm>

#include "alloc_counter.h"
#include "arch/patterns.h"
#include "bitstream/decoder.h"
#include "drc_clean.h"
#include "fabric/fabric.h"
#include "fabric/timing.h"
#include "fabric/trace.h"

namespace xcvsim {
namespace {

class FabricTest : public ::testing::Test {
 protected:
  static const Graph& graph() {
    static Graph g{xcv50()};
    return g;
  }
  static const PipTable& table() {
    static PipTable t{ArchDb{xcv50()}};
    return t;
  }

  FabricTest() : fabric_(graph(), table()) {}

  // Turn on a chain of PIPs described as (tile, from, to) triples.
  EdgeId on(NetId net, RowCol rc, LocalWire from, LocalWire to) {
    const NodeId u = graph().nodeAt(rc, from);
    const NodeId v = graph().nodeAt(rc, to);
    const EdgeId e = graph().findEdge(u, v, rc);
    EXPECT_NE(e, kInvalidEdge) << wireName(from) << "->" << wireName(to);
    fabric_.turnOn(e, net);
    return e;
  }

  Fabric fabric_;
};

TEST_F(FabricTest, NetLifecycle) {
  const NodeId src = graph().nodeAt({5, 7}, S1_YQ);
  const NetId net = fabric_.createNet(src, "n0");
  EXPECT_TRUE(fabric_.netExists(net));
  EXPECT_EQ(fabric_.netSource(net), src);
  EXPECT_EQ(fabric_.netName(net), "n0");
  EXPECT_EQ(fabric_.netSize(net), 1u);
  EXPECT_TRUE(fabric_.isUsed(src));
  EXPECT_EQ(fabric_.liveNetCount(), 1u);
  fabric_.removeNet(net);
  EXPECT_FALSE(fabric_.netExists(net));
  EXPECT_FALSE(fabric_.isUsed(src));
  EXPECT_EQ(fabric_.liveNetCount(), 0u);
}

TEST_F(FabricTest, ExplicitNamesSurvive) {
  const NodeId a = graph().nodeAt({5, 7}, S1_YQ);
  const NodeId b = graph().nodeAt({6, 7}, S1_YQ);
  const NetId na = fabric_.createNet(a, "alpha");
  const NetId nb = fabric_.createNet(b, "s3:beta");
  on(na, {5, 7}, S1_YQ, omux(1));
  const NetId nc = fabric_.createNet(graph().nodeAt({7, 7}, S0_YQ));
  fabric_.removeNet(nc);
  EXPECT_EQ(fabric_.netName(na), "alpha");
  EXPECT_EQ(fabric_.netName(nb), "s3:beta");
}

TEST_F(FabricTest, UnnamedNetReportsItsSource) {
  const NodeId src = graph().nodeAt({5, 7}, S1_YQ);
  const NetId net = fabric_.createNet(src);
  EXPECT_EQ(fabric_.netName(net), "net@" + graph().nodeName(src));
  EXPECT_EQ(fabric_.netName(net), "net@R5C7.S1_YQ");
  EXPECT_EQ(FabricMutator(fabric_).namedNets(), 0u);
}

TEST_F(FabricTest, RemoveNetDropsTheExplicitName) {
  const NodeId src = graph().nodeAt({5, 7}, S1_YQ);
  const NetId named = fabric_.createNet(src, "gone");
  EXPECT_EQ(FabricMutator(fabric_).namedNets(), 1u);
  fabric_.removeNet(named);
  EXPECT_EQ(FabricMutator(fabric_).namedNets(), 0u);
  EXPECT_THROW(fabric_.netName(named), ArgumentError);
  // The source is free again; a fresh unnamed net reports the default.
  const NetId again = fabric_.createNet(src);
  EXPECT_EQ(fabric_.netName(again), "net@" + graph().nodeName(src));
}

TEST_F(FabricTest, UnnamedCreateNetIsAllocationFree) {
#if !JRTEST_COUNTS_ALLOCS
  GTEST_SKIP() << "allocation counter unavailable under sanitizers";
#endif
  const auto create = [&] {
    for (int c = 0; c < 16; ++c) {
      fabric_.createNet(graph().nodeAt(
          {3, static_cast<int16_t>(c + 1)}, S0_YQ));
    }
  };
  create();
  fabric_.clear();  // keeps nets_'s capacity
  const uint64_t before = jrtest::threadAllocCalls();
  create();
  EXPECT_EQ(jrtest::threadAllocCalls(), before)
      << "an unnamed net must not store a name";
  EXPECT_EQ(fabric_.liveNetCount(), 16u);
}

TEST_F(FabricTest, DoubleClaimOfSourceThrows) {
  const NodeId src = graph().nodeAt({5, 7}, S1_YQ);
  fabric_.createNet(src, "a");
  EXPECT_THROW(fabric_.createNet(src, "b"), ContentionError);
}

TEST_F(FabricTest, PaperExampleRouteChain) {
  // The section 3.1 example: S1_YQ(5,7) -> OUT[1] -> SingleEast[5] ->
  // SingleNorth[0]@(5,8) -> S0F3@(6,8). Wire choices follow our patterns
  // (the paper's own values assumed the proprietary switch box).
  const NodeId src = graph().nodeAt({5, 7}, S1_YQ);
  const NetId net = fabric_.createNet(src, "example");
  on(net, {5, 7}, S1_YQ, omux(1));
  on(net, {5, 7}, omux(1), single(Dir::East, 1));
  // At (5,8) the same track is SingleWest[1]; it turns onto a north single.
  const auto turns = singleTurn(Dir::West, Dir::North, 1);
  on(net, {5, 8}, single(Dir::West, 1), single(Dir::North, turns[0]));
  // And the north single drives an input pin at (6,8).
  const auto pins = clbInFromSingle(turns[0]);
  on(net, {6, 8}, single(Dir::South, turns[0]), clbIn(pins[0]));

  EXPECT_EQ(fabric_.onEdgeCount(), 4u);
  EXPECT_EQ(fabric_.netSize(net), 5u);
  EXPECT_TRUE(jrtest::drcClean(fabric_));

  // Sinks: exactly the input pin.
  const auto sinks = netSinks(fabric_, src);
  ASSERT_EQ(sinks.size(), 1u);
  EXPECT_EQ(sinks[0], graph().nodeAt({6, 8}, clbIn(pins[0])));

  // Reverse trace from the sink recovers the full chain in order.
  const auto back = traceBack(fabric_, sinks[0]);
  ASSERT_EQ(back.size(), 4u);
  EXPECT_EQ(back.front().from, src);
  EXPECT_EQ(back.back().to, sinks[0]);
}

TEST_F(FabricTest, ContentionOnDoubleDrive) {
  // Two nets trying to drive the same single track: the second driver must
  // be rejected with ContentionError (section 3.4).
  const NodeId srcA = graph().nodeAt({5, 7}, S1_YQ);
  const NodeId srcB = graph().nodeAt({5, 9}, S1_YQ);
  const NetId a = fabric_.createNet(srcA, "a");
  const NetId b = fabric_.createNet(srcB, "b");
  on(a, {5, 7}, S1_YQ, omux(1));
  on(b, {5, 9}, S1_YQ, omux(1));
  // Net A drives SingleEast[1]@(5,7)...
  on(a, {5, 7}, omux(1), single(Dir::East, 1));
  // ...and net B tries to drive the SAME track from the other end
  // (SingleWest[1]@(5,8) == SingleEast[1]@(5,7)? No: B is at (5,9); its
  // SingleWest[1] is the channel between 8 and 9 — use A's track instead.)
  const NodeId track = graph().nodeAt({5, 7}, single(Dir::East, 1));
  ASSERT_EQ(track, graph().nodeAt({5, 8}, single(Dir::West, 1)));
  const NodeId bOut = graph().nodeAt({5, 9}, omux(1));
  // B's OUT can reach the channel between 8 and 9, not A's track, so build
  // the hazard directly: find any edge into A's track from a node of B.
  // Simpler: B claims the channel between (5,8)-(5,9), then tries to turn
  // the straight-through PIP at (5,8) onto A's track.
  on(b, {5, 9}, omux(1), single(Dir::West, 1));
  (void)bOut;
  const NodeId bTrack = graph().nodeAt({5, 9}, single(Dir::West, 1));
  const EdgeId hazard = graph().findEdge(bTrack, track, {5, 8});
  ASSERT_NE(hazard, kInvalidEdge);  // straight-through PIP exists
  EXPECT_THROW(fabric_.turnOn(hazard, b), ContentionError);
  EXPECT_TRUE(jrtest::drcClean(fabric_));
}

TEST_F(FabricTest, SecondDriverWithinSameNetThrows) {
  const NodeId src = graph().nodeAt({5, 7}, S1_YQ);
  const NetId net = fabric_.createNet(src, "n");
  on(net, {5, 7}, S1_YQ, omux(1));
  on(net, {5, 7}, omux(1), single(Dir::East, 1));
  on(net, {5, 7}, omux(1), single(Dir::West, 1));  // fanout is fine
  // Driving OUT[1] again from the same slice output is idempotent...
  on(net, {5, 7}, S1_YQ, omux(1));
  EXPECT_EQ(fabric_.onEdgeCount(), 3u);
  // ...but driving an already-driven track via another PIP is contention.
  const NodeId east = graph().nodeAt({5, 7}, single(Dir::East, 1));
  const NodeId west = graph().nodeAt({5, 7}, single(Dir::West, 1));
  const EdgeId second = graph().findEdge(west, east, {5, 7});
  if (second != kInvalidEdge) {
    EXPECT_THROW(fabric_.turnOn(second, net), ContentionError);
  }
}

TEST_F(FabricTest, TurnOnFromForeignSegmentThrows) {
  const NodeId src = graph().nodeAt({5, 7}, S1_YQ);
  const NetId net = fabric_.createNet(src, "n");
  // OUT[1]@(5,9) does not belong to the net.
  const NodeId foreign = graph().nodeAt({5, 9}, omux(1));
  const EdgeId e =
      graph().findEdge(foreign, graph().nodeAt({5, 9}, single(Dir::East, 1)),
                       {5, 9});
  ASSERT_NE(e, kInvalidEdge);
  EXPECT_THROW(fabric_.turnOn(e, net), ArgumentError);
}

TEST_F(FabricTest, TurnOffReleasesInAnyOrder) {
  const NodeId src = graph().nodeAt({5, 7}, S1_YQ);
  const NetId net = fabric_.createNet(src, "n");
  const EdgeId e1 = on(net, {5, 7}, S1_YQ, omux(1));
  const EdgeId e2 = on(net, {5, 7}, omux(1), single(Dir::East, 1));

  // Forward order (source-side first).
  fabric_.turnOff(e1);
  fabric_.turnOff(e2);
  EXPECT_EQ(fabric_.netSize(net), 1u);
  EXPECT_EQ(fabric_.onEdgeCount(), 0u);
  EXPECT_FALSE(fabric_.isUsed(graph().nodeAt({5, 7}, omux(1))));
  EXPECT_TRUE(jrtest::drcClean(fabric_));

  // Reverse order (sink-side first).
  const EdgeId f1 = on(net, {5, 7}, S1_YQ, omux(1));
  const EdgeId f2 = on(net, {5, 7}, omux(1), single(Dir::East, 1));
  fabric_.turnOff(f2);
  fabric_.turnOff(f1);
  EXPECT_EQ(fabric_.netSize(net), 1u);
  EXPECT_TRUE(jrtest::drcClean(fabric_));
  fabric_.removeNet(net);
}

TEST_F(FabricTest, RemoveRoutedNetThrows) {
  const NodeId src = graph().nodeAt({5, 7}, S1_YQ);
  const NetId net = fabric_.createNet(src, "n");
  on(net, {5, 7}, S1_YQ, omux(1));
  EXPECT_THROW(fabric_.removeNet(net), JRouteError);
}

TEST_F(FabricTest, WriteThroughMatchesDecoder) {
  const NodeId src = graph().nodeAt({5, 7}, S1_YQ);
  const NetId net = fabric_.createNet(src, "n");
  on(net, {5, 7}, S1_YQ, omux(1));
  const EdgeId e2 = on(net, {5, 7}, omux(1), single(Dir::East, 1));
  EXPECT_EQ(countEnabledPips(fabric_.jbits().bitstream()),
            fabric_.onEdgeCount());
  fabric_.turnOff(e2);
  EXPECT_EQ(countEnabledPips(fabric_.jbits().bitstream()),
            fabric_.onEdgeCount());
}

TEST_F(FabricTest, GlobalClockNetWriteThrough) {
  const NetId clk = fabric_.createNet(graph().gclkPad(0), "clk");
  const EdgeId pad = graph().findEdge(graph().gclkPad(0), graph().gclkNet(0));
  ASSERT_NE(pad, kInvalidEdge);
  fabric_.turnOn(pad, clk);
  EXPECT_TRUE(fabric_.jbits().getGlobalPad(0));
  // Global net drives a CLK pin somewhere.
  const NodeId clkPin = graph().nodeAt({9, 9}, S0CLK);
  const EdgeId toPin = graph().findEdge(graph().gclkNet(0), clkPin, {9, 9});
  ASSERT_NE(toPin, kInvalidEdge);
  fabric_.turnOn(toPin, clk);
  const auto sinks = netSinks(fabric_, graph().gclkPad(0));
  ASSERT_EQ(sinks.size(), 1u);
  EXPECT_EQ(sinks[0], clkPin);
}

TEST_F(FabricTest, DirectConnectWriteThrough) {
  const NodeId src = graph().nodeAt({5, 7}, sliceOut(0));
  const NetId net = fabric_.createNet(src, "d");
  const NodeId dst =
      graph().nodeAt({5, 8}, clbIn(directPins(0)[0]));
  const EdgeId e = graph().findEdge(src, dst, {5, 7});
  ASSERT_NE(e, kInvalidEdge);
  fabric_.turnOn(e, net);
  EXPECT_TRUE(fabric_.jbits().getDirect({5, 7}, Dir::East, sliceOut(0),
                                        clbIn(directPins(0)[0])));
  fabric_.turnOff(e);
  EXPECT_FALSE(fabric_.jbits().getDirect({5, 7}, Dir::East, sliceOut(0),
                                         clbIn(directPins(0)[0])));
}

TEST_F(FabricTest, TimingAccumulatesAlongChain) {
  const NodeId src = graph().nodeAt({5, 7}, S1_YQ);
  const NetId net = fabric_.createNet(src, "t");
  on(net, {5, 7}, S1_YQ, omux(1));
  on(net, {5, 7}, omux(1), single(Dir::East, 1));
  const auto turns = singleTurn(Dir::West, Dir::North, 1);
  on(net, {5, 8}, single(Dir::West, 1), single(Dir::North, turns[0]));
  const auto pins = clbInFromSingle(turns[0]);
  on(net, {6, 8}, single(Dir::South, turns[0]), clbIn(pins[0]));

  const NetTiming timing = computeNetTiming(fabric_, src);
  ASSERT_EQ(timing.sinks.size(), 1u);
  // src(80) + pip(60) + out(80) + pip + single(350) + pip + single(350)
  // + pip + pin(80)
  const DelayPs expected = 80 + 60 + 80 + 60 + 350 + 60 + 350 + 60 + 80;
  EXPECT_EQ(timing.sinks[0].delay, expected);
  EXPECT_EQ(timing.maxDelay, expected);
  EXPECT_EQ(timing.skew(), 0);
  EXPECT_EQ(arrivalAt(fabric_, timing.sinks[0].sink), expected);
}

TEST_F(FabricTest, ClearResetsEverything) {
  const NodeId src = graph().nodeAt({5, 7}, S1_YQ);
  const NetId net = fabric_.createNet(src, "n");
  on(net, {5, 7}, S1_YQ, omux(1));
  fabric_.clear();
  EXPECT_EQ(fabric_.usedNodeCount(), 0u);
  EXPECT_EQ(fabric_.onEdgeCount(), 0u);
  EXPECT_EQ(fabric_.liveNetCount(), 0u);
  EXPECT_EQ(fabric_.jbits().bitstream().popcount(), 0u);
  EXPECT_TRUE(jrtest::drcClean(fabric_));
}

}  // namespace
}  // namespace xcvsim
