// Tests for skew-minimizing fanout routing (section 6 future work,
// implemented in core/skew.h).
#include <gtest/gtest.h>

#include "core/skew.h"
#include "drc_clean.h"
#include "fabric/timing.h"

namespace jroute {
namespace {

using xcvsim::DelayPs;
using xcvsim::Graph;
using xcvsim::PipTable;

class SkewTest : public ::testing::Test {
 protected:
  static const Graph& graph() {
    static Graph g{xcvsim::xcv50()};
    return g;
  }
  static const PipTable& table() {
    static PipTable t{xcvsim::ArchDb{xcvsim::xcv50()}};
    return t;
  }
  SkewTest() : fabric_(graph(), table()), router_(fabric_) {}

  xcvsim::Fabric fabric_;
  Router router_;
};

TEST_F(SkewTest, BalancedRouteReducesSkew) {
  // One near sink (huge head start) and two far sinks.
  const Pin src(8, 4, xcvsim::S1_YQ);
  const std::vector<EndPoint> sinks{EndPoint(Pin(8, 5, xcvsim::S0F1)),
                                    EndPoint(Pin(8, 16, xcvsim::S0F1)),
                                    EndPoint(Pin(14, 14, xcvsim::S0G1))};
  const BalancedReport report =
      routeBalanced(router_, EndPoint(src), sinks, /*skewTarget=*/900);
  EXPECT_GT(report.skewBefore, 900);
  EXPECT_LT(report.skewAfter, report.skewBefore);
  EXPECT_GT(report.branchesRerouted, 0);
  EXPECT_TRUE(jrtest::drcClean(fabric_));

  // All sinks still connected.
  const auto t = router_.trace(EndPoint(src));
  EXPECT_EQ(t.sinks.size(), 3u);
}

TEST_F(SkewTest, AlreadyBalancedNetIsUntouched) {
  // Two equidistant sinks: skew is already small; nothing gets rerouted.
  const Pin src(8, 8, xcvsim::S1_YQ);
  const std::vector<EndPoint> sinks{EndPoint(Pin(8, 12, xcvsim::S0F1)),
                                    EndPoint(Pin(12, 8, xcvsim::S0F1))};
  const BalancedReport report =
      routeBalanced(router_, EndPoint(src), sinks, /*skewTarget=*/2000);
  EXPECT_LE(report.skewAfter, 2000);
  EXPECT_EQ(report.branchesRerouted, 0);
}

TEST_F(SkewTest, PaddingPreservesBitstreamConsistency) {
  const Pin src(4, 4, xcvsim::S0_YQ);
  const std::vector<EndPoint> sinks{EndPoint(Pin(4, 5, xcvsim::S0F2)),
                                    EndPoint(Pin(10, 12, xcvsim::S1F2))};
  routeBalanced(router_, EndPoint(src), sinks, 500);
  EXPECT_TRUE(jrtest::drcClean(fabric_));
  router_.unroute(EndPoint(src));
  EXPECT_EQ(fabric_.jbits().bitstream().popcount(), 0u);
}

TEST_F(SkewTest, GlobalClockNetworkIsTheZeroSkewReference) {
  // The dedicated clock tree reaches every CLK pin in a single hop, so
  // its skew is zero by construction — the reference routeBalanced
  // approximates for general nets.
  const auto pad = graph().gclkPad(0);
  const auto net = fabric_.createNet(pad, "clk");
  fabric_.turnOn(graph().findEdge(pad, graph().gclkNet(0)), net);
  for (int16_t c : {int16_t{2}, int16_t{12}, int16_t{21}}) {
    const auto pin = graph().nodeAt({8, c}, xcvsim::S0CLK);
    fabric_.turnOn(graph().findEdge(graph().gclkNet(0), pin, {8, c}), net);
  }
  const auto timing = computeNetTiming(fabric_, pad);
  EXPECT_EQ(timing.skew(), 0);
  EXPECT_EQ(timing.sinks.size(), 3u);
}

}  // namespace
}  // namespace jroute
