// Tests for the JRoute API itself: every level of control from section
// 3.1, the unrouter of 3.3, contention of 3.4, and debug traces of 3.5.
#include <gtest/gtest.h>

#include <algorithm>

#include "arch/patterns.h"
#include "bitstream/decoder.h"
#include "alloc_counter.h"
#include "core/router.h"
#include "drc_clean.h"
#include "fabric/timing.h"

namespace jroute {
namespace {

using xcvsim::ArgumentError;
using xcvsim::ContentionError;
using xcvsim::Dir;
using xcvsim::Graph;
using xcvsim::HexTap;
using xcvsim::PipTable;
using xcvsim::TemplateValue;
using xcvsim::UnroutableError;
using xcvsim::WireKind;

class RouterTest : public ::testing::Test {
 protected:
  static const Graph& graph() {
    static Graph g{xcvsim::xcv50()};
    return g;
  }
  static const PipTable& table() {
    static PipTable t{xcvsim::ArchDb{xcvsim::xcv50()}};
    return t;
  }

  RouterTest() : fabric_(graph(), table()), router_(fabric_) {}

  NodeId node(int r, int c, LocalWire w) const {
    return graph().nodeAt({static_cast<int16_t>(r), static_cast<int16_t>(c)},
                          w);
  }

  xcvsim::Fabric fabric_;
  Router router_;
};

// --- Level 1: route(row, col, from, to) ---------------------------------------

TEST_F(RouterTest, SingleConnectionChainLikeThePaper) {
  // The paper's first example, adapted to our switch patterns: S1_YQ(5,7)
  // -> OUT[1] -> SingleEast[1] -> (5,8) SingleNorth -> (6,8) input pin.
  using namespace xcvsim;
  const int turn = singleTurn(Dir::West, Dir::North, 1)[0];
  const int pin = clbInFromSingle(turn)[0];
  router_.route(5, 7, S1_YQ, omux(1));
  router_.route(5, 7, omux(1), single(Dir::East, 1));
  router_.route(5, 8, single(Dir::West, 1), single(Dir::North, turn));
  router_.route(6, 8, single(Dir::South, turn), clbIn(pin));

  EXPECT_TRUE(router_.isOn(5, 7, S1_YQ));
  EXPECT_TRUE(router_.isOn(5, 8, single(Dir::West, 1)));
  EXPECT_TRUE(router_.isOn(6, 8, clbIn(pin)));
  EXPECT_FALSE(router_.isOn(5, 7, omux(0)));
  EXPECT_TRUE(jrtest::drcClean(fabric_));
}

TEST_F(RouterTest, SingleConnectionRejectsNonexistentPip) {
  EXPECT_THROW(router_.route(5, 7, xcvsim::S0F1, xcvsim::S0_X),
               ArgumentError);
  // Valid PIP pattern but the source wire cannot start a net.
  EXPECT_THROW(
      router_.route(5, 7, xcvsim::omux(1), xcvsim::single(Dir::East, 1)),
      ArgumentError);
}

TEST_F(RouterTest, RoutePipHandlesDirectConnects) {
  using namespace xcvsim;
  const Pin out(5, 7, sliceOut(0));
  const Pin in(5, 8, clbIn(directPins(0)[0]));
  router_.routePip(out, in);
  EXPECT_TRUE(router_.isOn(5, 8, in.wire));
  const auto t = router_.trace(EndPoint(out));
  ASSERT_EQ(t.sinks.size(), 1u);
  EXPECT_EQ(t.sinks[0], node(5, 8, in.wire));
}

// --- Level 2: route(Path) -------------------------------------------------------

TEST_F(RouterTest, PathRouteMatchingPaperExample) {
  using namespace xcvsim;
  const int turn = singleTurn(Dir::West, Dir::North, 1)[0];
  const int pin = clbInFromSingle(turn)[0];
  // int[] p = {S1_YQ, Out[1], SingleEast[1], SingleNorth[t], pin};
  Path path(5, 7,
            {S1_YQ, omux(1), single(Dir::East, 1), single(Dir::North, turn),
             clbIn(pin)});
  router_.route(path);
  EXPECT_EQ(router_.stats().lastMethod, RouteMethod::Path);
  // The path lands on the pin at (6,8).
  EXPECT_TRUE(router_.isOn(6, 8, clbIn(pin)));
  EXPECT_TRUE(jrtest::drcClean(fabric_));
}

TEST_F(RouterTest, PathThroughHexAdvancesCursorBySix) {
  using namespace xcvsim;
  // OUT[1] drives hex tracks {1, 5}; hex 1 exits at END six tiles east,
  // where it drives singles via the tap patterns.
  const int hexTrack = hexFromOut(1)[0];
  const int s = singleFromHex(hexTrack)[0];
  Path path(5, 7,
            {S1_YQ, omux(1), hex(Dir::East, HexTap::Beg, hexTrack),
             single(Dir::East, s)});
  router_.route(path);
  // The single driven at the hex END tap is the channel east of (5,13).
  EXPECT_TRUE(router_.isOn(5, 13, single(Dir::East, s)));
}

TEST_F(RouterTest, PathRejectsIllegalStep) {
  using namespace xcvsim;
  Path bad(5, 7, {S1_YQ, single(Dir::East, 0)});  // outputs drive OMUX only
  EXPECT_THROW(router_.route(bad), ArgumentError);
  Path tooShort(5, 7, {S1_YQ});
  EXPECT_THROW(router_.route(tooShort), ArgumentError);
}

// --- Level 3: route(Pin, endWire, Template) ----------------------------------------

TEST_F(RouterTest, TemplateRouteFromThePaper) {
  using namespace xcvsim;
  // int[] t = {OUTMUX, EAST1, NORTH1, CLBIN};
  Template tmpl{TemplateValue::OUTMUX, TemplateValue::EAST1,
                TemplateValue::NORTH1, TemplateValue::CLBIN};
  const Pin src(5, 7, S1_YQ);
  router_.route(src, S0F3, tmpl);
  EXPECT_EQ(router_.stats().lastMethod, RouteMethod::UserTemplate);

  // The route ends on an S0F3 pin one tile north-east-ish of the source.
  const auto trace = router_.trace(EndPoint(src));
  ASSERT_EQ(trace.sinks.size(), 1u);
  const auto inf = graph().info(trace.sinks[0]);
  EXPECT_EQ(inf.local, S0F3);
  EXPECT_EQ(inf.tile.row, 6);
  EXPECT_EQ(inf.tile.col, 8);
  EXPECT_TRUE(jrtest::drcClean(fabric_));
}

TEST_F(RouterTest, TemplateRouteFailsWhenNoneFits) {
  using namespace xcvsim;
  // A clock pin can never be reached through singles.
  Template tmpl{TemplateValue::OUTMUX, TemplateValue::EAST1,
                TemplateValue::CLBIN};
  EXPECT_THROW(router_.route(Pin(5, 7, S1_YQ), S0CLK, tmpl),
               UnroutableError);
  EXPECT_EQ(router_.stats().routesFailed, 1u);
}

TEST_F(RouterTest, TemplateAvoidsWiresInUse) {
  using namespace xcvsim;
  // Route once; the same template still succeeds using different tracks.
  Template tmpl{TemplateValue::OUTMUX, TemplateValue::EAST1,
                TemplateValue::CLBIN};
  const Pin src(5, 7, S1_YQ);
  router_.route(src, S0F1, tmpl);
  router_.route(Pin(5, 7, S0_YQ), S0F4, tmpl);
  // Both nets exist without contention.
  EXPECT_EQ(fabric_.liveNetCount(), 2u);
  EXPECT_TRUE(jrtest::drcClean(fabric_));
}

// --- Level 4: auto point-to-point ---------------------------------------------------

TEST_F(RouterTest, AutoRouteSameArguments) {
  using namespace xcvsim;
  const Pin src(5, 7, S1_YQ);
  const Pin sink(6, 8, S0F3);
  router_.route(EndPoint(src), EndPoint(sink));
  const auto trace = router_.trace(EndPoint(src));
  ASSERT_EQ(trace.sinks.size(), 1u);
  EXPECT_EQ(trace.sinks[0], node(6, 8, S0F3));
  // Short regular hops are satisfied by the predefined templates.
  EXPECT_EQ(router_.stats().lastMethod, RouteMethod::LibTemplate);
}

TEST_F(RouterTest, AutoRouteLongDistanceUsesHexes) {
  using namespace xcvsim;
  const Pin src(2, 2, S0_XQ);
  const Pin sink(14, 20, S1G2);
  router_.route(EndPoint(src), EndPoint(sink));
  const auto back = router_.reverseTrace(EndPoint(sink));
  ASSERT_FALSE(back.empty());
  // At least one hex appears on a route spanning 12+18 tiles.
  bool sawHex = false;
  for (const auto& hop : back) {
    const auto k = graph().info(hop.to).kind;
    sawHex = sawHex || k == xcvsim::NodeKind::HexE ||
             k == xcvsim::NodeKind::HexN;
  }
  EXPECT_TRUE(sawHex);
}

TEST_F(RouterTest, AutoRouteFeedbackAndNeighbour) {
  using namespace xcvsim;
  // Feedback: output to input of the same CLB.
  router_.route(EndPoint(Pin(3, 3, S0_X)),
                EndPoint(Pin(3, 3, clbIn(feedbackPins(0)[0]))));
  // Direct-connect neighbour.
  router_.route(EndPoint(Pin(3, 4, S0_X)),
                EndPoint(Pin(3, 5, clbIn(directPins(0)[0]))));
  EXPECT_TRUE(jrtest::drcClean(fabric_));
}

TEST_F(RouterTest, AutoRouteMazeFallbackWhenTemplatesDisabled) {
  router_.options().templateFirst = false;
  const Pin src(5, 7, xcvsim::S1_YQ);
  const Pin sink(6, 8, xcvsim::S0F3);
  router_.route(EndPoint(src), EndPoint(sink));
  EXPECT_EQ(router_.stats().lastMethod, RouteMethod::Maze);
  EXPECT_EQ(router_.stats().templateAttempts, 0u);
}

TEST_F(RouterTest, AutoRouteIntoUsedSinkThrowsContention) {
  using namespace xcvsim;
  const Pin sink(6, 8, S0F3);
  router_.route(EndPoint(Pin(5, 7, S1_YQ)), EndPoint(sink));
  EXPECT_THROW(router_.route(EndPoint(Pin(5, 9, S1_YQ)), EndPoint(sink)),
               ContentionError);
}

// --- Level 5: fanout ---------------------------------------------------------------

TEST_F(RouterTest, FanoutRoutesNearestFirstAndReusesTree) {
  using namespace xcvsim;
  const Pin src(8, 8, S1_YQ);
  const std::vector<EndPoint> sinks = {
      EndPoint(Pin(8, 10, S0F1)), EndPoint(Pin(8, 14, S0F1)),
      EndPoint(Pin(10, 10, S0G1)), EndPoint(Pin(12, 16, S1F1))};
  router_.route(EndPoint(src), std::span<const EndPoint>(sinks));

  const auto trace = router_.trace(EndPoint(src));
  EXPECT_EQ(trace.sinks.size(), 4u);
  EXPECT_TRUE(jrtest::drcClean(fabric_));

  // Resource reuse: the tree uses fewer segments than four independent
  // point-to-point routes would (each sink chain shares the OMUX at least).
  const size_t treeSize = fabric_.netSize(fabric_.netOf(node(8, 8, S1_YQ)));
  EXPECT_LT(treeSize, 4u * 10u);
}

TEST_F(RouterTest, FanoutToSameSinkTwiceIsReuse) {
  using namespace xcvsim;
  const Pin src(8, 8, S1_YQ);
  const Pin sink(8, 10, S0F1);
  router_.route(EndPoint(src), EndPoint(sink));
  const auto before = fabric_.onEdgeCount();
  router_.route(EndPoint(src), EndPoint(sink));  // already connected
  EXPECT_EQ(router_.stats().lastMethod, RouteMethod::Reuse);
  EXPECT_EQ(fabric_.onEdgeCount(), before);
}

// --- Level 6: bus ---------------------------------------------------------------------

TEST_F(RouterTest, BusRouteConnectsAllBits) {
  using namespace xcvsim;
  std::vector<EndPoint> srcs, sinks;
  for (int i = 0; i < 4; ++i) {
    srcs.push_back(EndPoint(Pin(4 + i, 4, S0_X)));
    sinks.push_back(EndPoint(Pin(4 + i, 9, S0F1)));
  }
  router_.route(std::span<const EndPoint>(srcs),
                std::span<const EndPoint>(sinks));
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(router_.isOn(4 + i, 9, S0F1));
  }
  EXPECT_TRUE(jrtest::drcClean(fabric_));
}

TEST_F(RouterTest, BusRouteSizeMismatchThrows) {
  using namespace xcvsim;
  std::vector<EndPoint> srcs = {EndPoint(Pin(4, 4, S0_X))};
  std::vector<EndPoint> sinks = {EndPoint(Pin(4, 9, S0F1)),
                                 EndPoint(Pin(5, 9, S0F1))};
  EXPECT_THROW(router_.route(std::span<const EndPoint>(srcs),
                             std::span<const EndPoint>(sinks)),
               ArgumentError);
}

// --- Unrouter ----------------------------------------------------------------------------

TEST_F(RouterTest, UnrouteFreesEverything) {
  using namespace xcvsim;
  const Pin src(8, 8, S1_YQ);
  const std::vector<EndPoint> sinks = {EndPoint(Pin(8, 10, S0F1)),
                                       EndPoint(Pin(10, 10, S0G1))};
  router_.route(EndPoint(src), std::span<const EndPoint>(sinks));
  EXPECT_GT(fabric_.onEdgeCount(), 0u);

  router_.unroute(EndPoint(src));
  EXPECT_EQ(fabric_.onEdgeCount(), 0u);
  EXPECT_EQ(fabric_.usedNodeCount(), 0u);
  EXPECT_EQ(fabric_.liveNetCount(), 0u);
  EXPECT_EQ(fabric_.jbits().bitstream().popcount(), 0u);
  EXPECT_TRUE(jrtest::drcClean(fabric_));
  // Resources are genuinely reusable.
  router_.route(EndPoint(src), EndPoint(Pin(8, 10, S0F1)));
}

TEST_F(RouterTest, WarmedUnrouteIsAllocationFree) {
#if !JRTEST_COUNTS_ALLOCS
  GTEST_SKIP() << "allocation counter unavailable under sanitizers";
#endif
  using namespace xcvsim;
  const Pin src(8, 8, S1_YQ);
  const std::vector<EndPoint> sinks = {
      EndPoint(Pin(8, 10, S0F1)), EndPoint(Pin(8, 14, S0F1)),
      EndPoint(Pin(10, 10, S0G1)), EndPoint(Pin(12, 16, S1F1))};
  // The first unroute sizes the Router's trace buffers.
  router_.route(EndPoint(src), std::span<const EndPoint>(sinks));
  router_.unroute(EndPoint(src));
  router_.route(EndPoint(src), std::span<const EndPoint>(sinks));
  const uint64_t before = jrtest::threadAllocCalls();
  router_.unroute(EndPoint(src));
  EXPECT_EQ(jrtest::threadAllocCalls(), before);
  EXPECT_EQ(fabric_.onEdgeCount(), 0u);
  EXPECT_EQ(fabric_.liveNetCount(), 0u);
}

TEST_F(RouterTest, WarmedCommitChainIsAllocationFree) {
#if !JRTEST_COUNTS_ALLOCS
  GTEST_SKIP() << "allocation counter unavailable under sanitizers";
#endif
  using namespace xcvsim;
  const Pin src(8, 8, S1_YQ);
  router_.route(EndPoint(src), EndPoint(Pin(12, 16, S1F1)));
  std::vector<EdgeId> chain;
  for (const TraceHop& hop : traceForward(fabric_, node(8, 8, S1_YQ))) {
    chain.push_back(hop.edge);
  }
  ASSERT_GT(chain.size(), 2u);
  router_.unroute(EndPoint(src));
  // As the routing service commits a plan: under a txn, onto a net the
  // txn created. The first commit sizes the Router's and the journal's
  // buffers.
  const auto commit = [&](bool counted) {
    Router::Txn txn(router_);
    const NetId net = router_.ensureNet(EndPoint(src));
    const uint64_t before = jrtest::threadAllocCalls();
    router_.commitChain(chain, net);
    txn.commit();
    if (counted) {
      EXPECT_EQ(jrtest::threadAllocCalls(), before);
    }
    EXPECT_EQ(fabric_.onEdgeCount(), chain.size());
    router_.unroute(EndPoint(src));
  };
  commit(false);
  commit(true);
}

TEST_F(RouterTest, ReverseUnrouteRemovesOnlyTheBranch) {
  using namespace xcvsim;
  const Pin src(8, 8, S1_YQ);
  const Pin near(8, 10, S0F1);
  const Pin far(12, 16, S1F1);
  const std::vector<EndPoint> sinks = {EndPoint(near), EndPoint(far)};
  router_.route(EndPoint(src), std::span<const EndPoint>(sinks));
  const size_t before = fabric_.onEdgeCount();

  router_.reverseUnroute(EndPoint(far));
  EXPECT_FALSE(router_.isOn(12, 16, S1F1));
  EXPECT_TRUE(router_.isOn(8, 10, S0F1));  // other branch intact
  EXPECT_LT(fabric_.onEdgeCount(), before);
  EXPECT_GT(fabric_.onEdgeCount(), 0u);
  EXPECT_TRUE(jrtest::drcClean(fabric_));

  const auto trace = router_.trace(EndPoint(src));
  ASSERT_EQ(trace.sinks.size(), 1u);
  EXPECT_EQ(trace.sinks[0], node(8, 10, S0F1));
}

TEST_F(RouterTest, ReverseUnrouteOfNonSinkThrows) {
  using namespace xcvsim;
  const Pin src(8, 8, S1_YQ);
  router_.route(EndPoint(src), EndPoint(Pin(8, 10, S0F1)));
  EXPECT_THROW(router_.reverseUnroute(EndPoint(src)), ArgumentError);
  EXPECT_THROW(router_.unroute(EndPoint(Pin(0, 0, S0_X))), ArgumentError);
}

// --- Debug -------------------------------------------------------------------------------

TEST_F(RouterTest, TraceAndReverseTraceAgree) {
  using namespace xcvsim;
  const Pin src(8, 8, S1_YQ);
  const Pin sink(11, 13, S0F2);
  router_.route(EndPoint(src), EndPoint(sink));

  const NetTrace t = router_.trace(EndPoint(src));
  ASSERT_EQ(t.sinks.size(), 1u);
  const auto back = router_.reverseTrace(EndPoint(sink));
  ASSERT_FALSE(back.empty());
  EXPECT_EQ(back.front().from, t.source);
  EXPECT_EQ(back.back().to, t.sinks[0]);
  // Every reverse hop appears in the forward trace.
  for (const auto& hop : back) {
    const bool found =
        std::any_of(t.hops.begin(), t.hops.end(),
                    [&](const auto& h) { return h.edge == hop.edge; });
    EXPECT_TRUE(found);
  }
}

// --- Write-through / options -----------------------------------------------------------------

TEST_F(RouterTest, BitstreamMatchesFabricAfterRouting) {
  using namespace xcvsim;
  router_.route(EndPoint(Pin(8, 8, S1_YQ)), EndPoint(Pin(11, 13, S0F2)));
  router_.route(EndPoint(Pin(2, 2, S0_X)), EndPoint(Pin(2, 3, S0F1)));
  EXPECT_EQ(countEnabledPips(fabric_.jbits().bitstream()),
            fabric_.onEdgeCount());
}

TEST_F(RouterTest, LongLinesCanBeDisabled) {
  using namespace xcvsim;
  router_.options().useLongLines = false;
  router_.options().templateFirst = false;
  router_.route(EndPoint(Pin(2, 2, S1_YQ)), EndPoint(Pin(13, 21, S0F3)));
  for (const auto& hop : router_.trace(EndPoint(Pin(2, 2, S1_YQ))).hops) {
    const auto k = graph().info(hop.to).kind;
    EXPECT_NE(k, xcvsim::NodeKind::LongH);
    EXPECT_NE(k, xcvsim::NodeKind::LongV);
  }
}

TEST_F(RouterTest, StatsAccumulate) {
  using namespace xcvsim;
  router_.route(EndPoint(Pin(5, 7, S1_YQ)), EndPoint(Pin(6, 8, S0F3)));
  const auto& s = router_.stats();
  EXPECT_GE(s.routesCompleted, 1u);
  EXPECT_GT(s.pipsTurnedOn, 0u);
  router_.resetStats();
  EXPECT_EQ(router_.stats().pipsTurnedOn, 0u);
}

// --- Ports ----------------------------------------------------------------------------------

TEST_F(RouterTest, PortToPortRouting) {
  using namespace xcvsim;
  Port out("q", PortDir::Output, "data");
  out.bindPin(Pin(5, 5, S0_XQ));
  Port in("a", PortDir::Input, "data");
  in.bindPin(Pin(5, 9, S0F1));
  in.bindPin(Pin(5, 9, S0G1));  // one port, two physical sinks

  router_.route(EndPoint(out), EndPoint(in));
  EXPECT_TRUE(router_.isOn(5, 9, S0F1));
  EXPECT_TRUE(router_.isOn(5, 9, S0G1));
  // The connection is remembered for RTR reconnection.
  ASSERT_EQ(router_.connections().size(), 1u);
  EXPECT_TRUE(router_.connections()[0].source.isPort());
}

TEST_F(RouterTest, PortWithNoPinsThrows) {
  Port empty("e", PortDir::Output, "g");
  EXPECT_THROW(
      router_.route(EndPoint(empty), EndPoint(Pin(5, 9, xcvsim::S0F1))),
      ArgumentError);
}

TEST_F(RouterTest, RerouteRemberedConnectionAfterRebind) {
  using namespace xcvsim;
  Port out("q", PortDir::Output, "data");
  out.bindPin(Pin(5, 5, S0_XQ));
  Port in("a", PortDir::Input, "data");
  in.bindPin(Pin(5, 9, S0F1));
  router_.route(EndPoint(out), EndPoint(in));

  // Simulate a core replace: unroute, rebind the output elsewhere,
  // reconnect from memory.
  router_.unroute(EndPoint(out));
  EXPECT_EQ(fabric_.onEdgeCount(), 0u);
  out.clearPins();
  out.bindPin(Pin(7, 5, S0_XQ));
  router_.rerouteConnectionsOf(out);
  EXPECT_TRUE(router_.isOn(5, 9, S0F1));
  const auto back = router_.reverseTrace(EndPoint(Pin(5, 9, S0F1)));
  EXPECT_EQ(back.front().from, node(7, 5, S0_XQ));
  // Reconnection does not duplicate the journal entry.
  EXPECT_EQ(router_.connections().size(), 1u);
}

}  // namespace
}  // namespace jroute
