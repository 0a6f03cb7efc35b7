// Cross-module integration tests: whole-system scenarios spanning the
// router, cores, RTR manager, bitstream, packets, and baseline.
#include <gtest/gtest.h>

#include "baseline/pathfinder.h"
#include "bitstream/decoder.h"
#include "bitstream/packets.h"
#include "cores/const_adder.h"
#include "cores/kcm.h"
#include "cores/register_bank.h"
#include "drc_clean.h"
#include "fabric/timing.h"
#include "rtr/boardscope.h"
#include "rtr/manager.h"
#include "workload/generators.h"

namespace jroute {
namespace {

using xcvsim::Graph;
using xcvsim::PipTable;

class IntegrationTest : public ::testing::Test {
 protected:
  static const xcvsim::DeviceSpec& xcv100() {
    return xcvsim::deviceByName("XCV100");
  }
  static const Graph& graph() {
    static Graph g{xcv100()};
    return g;
  }
  static const PipTable& table() {
    static PipTable t{xcvsim::ArchDb{xcv100()}};
    return t;
  }

  IntegrationTest() : fabric_(graph(), table()), router_(fabric_) {}

  xcvsim::Fabric fabric_;
  Router router_;
};

TEST_F(IntegrationTest, FullPipelineLifecycle) {
  RtrManager mgr(router_);
  Kcm mult(8, 5);
  ConstAdder adder(8, 17);
  RegisterBank regs(8);
  mgr.install(mult, {6, 4});
  mgr.install(adder, {6, 10});
  mgr.install(regs, {6, 16});
  mgr.connect(mult, Kcm::kOutGroup, adder, ConstAdder::kInGroup);
  mgr.connect(adder, ConstAdder::kOutGroup, regs, RegisterBank::kInGroup);
  regs.clockFrom(router_, 1);
  EXPECT_TRUE(jrtest::drcClean(fabric_));

  // The configuration decodes to exactly the live PIP set.
  EXPECT_EQ(countEnabledPips(fabric_.jbits().bitstream()),
            fabric_.onEdgeCount());

  // Timing is sane: every multiplier output reaches the adder with
  // positive, bounded delay.
  for (Port* p : mult.getPorts(Kcm::kOutGroup)) {
    const auto node = graph().nodeAt(p->pins()[0].rc, p->pins()[0].wire);
    const auto t = computeNetTiming(fabric_, node);
    ASSERT_FALSE(t.sinks.empty());
    EXPECT_GT(t.maxDelay, 0);
    EXPECT_LT(t.maxDelay, 100000);  // < 100 ns on a small device
  }

  // Swap the multiplier constant structurally; everything reconnects.
  mult.setConstant(router_, 9);
  mgr.reconfigure(mult);
  EXPECT_TRUE(jrtest::drcClean(fabric_));

  // Tear down the whole system: the device ends factory-blank. The global
  // clock net is a system-level resource (cores only detach their own
  // branches), so it is unrouted explicitly.
  mgr.remove(regs);
  mgr.remove(adder);
  mgr.remove(mult);
  router_.unroute(EndPoint(Pin(0, 0, xcvsim::gclk(1))));
  EXPECT_EQ(fabric_.usedNodeCount(), 0u);
  EXPECT_EQ(fabric_.onEdgeCount(), 0u);
  EXPECT_EQ(fabric_.jbits().bitstream().popcount(), 0u);
}

TEST_F(IntegrationTest, PartialReconfigStreamReplaysOntoSecondDevice) {
  // Route a design, capture the partial stream, apply it to a second
  // blank device, and verify the two configurations decode identically.
  RtrManager mgr(router_);
  ConstAdder adder(8, 3);
  mgr.install(adder, {5, 5});
  router_.route(EndPoint(*adder.getPorts(ConstAdder::kOutGroup)[0]),
                EndPoint(Pin(5, 12, xcvsim::S0F3)));

  const auto packets = dirtyPackets(fabric_.jbits().bitstream());
  ASSERT_FALSE(packets.empty());

  xcvsim::Bitstream other(graph().device(), table());
  applyPackets(other, packets);
  EXPECT_TRUE(other == fabric_.jbits().bitstream());
  EXPECT_EQ(decodePips(other).size(), fabric_.onEdgeCount());
}

TEST_F(IntegrationTest, GreedyAndPathFinderAgreeOnConnectivity) {
  // Both routers must connect the same workload; trees differ, function
  // does not.
  const auto nets = workload::makeP2P(xcv100(), 20, 2, 12, 777);

  for (const auto& net : nets) {
    router_.route(EndPoint(net.src), EndPoint(net.sink));
    // Greedy tree reaches the sink.
    const auto t = router_.trace(EndPoint(net.src));
    ASSERT_EQ(t.sinks.size(), 1u);
    EXPECT_EQ(t.sinks[0], graph().nodeAt(net.sink.rc, net.sink.wire));
  }

  baseline::PathFinderRouter pf(graph());
  const auto pfNets = workload::toPfNets(graph(), std::span(nets));
  const auto res = pf.routeAll(pfNets);
  ASSERT_TRUE(res.success);
  for (size_t i = 0; i < pfNets.size(); ++i) {
    // Each PathFinder tree also ends at the same sink.
    ASSERT_FALSE(pf.netEdges(i).empty());
    EXPECT_EQ(graph().edge(pf.netEdges(i).back()).to, pfNets[i].sinks[0]);
  }
}

TEST_F(IntegrationTest, ReverseUnrouteThenReconnectElsewhere) {
  // RTR micro-scenario: retarget one branch of a fanout net at run time.
  const Pin src(8, 8, xcvsim::S1_YQ);
  const Pin keep(8, 11, xcvsim::S0F1);
  const Pin drop(11, 8, xcvsim::S0G1);
  const Pin fresh(12, 12, xcvsim::S1F3);
  const std::vector<EndPoint> sinks{EndPoint(keep), EndPoint(drop)};
  router_.route(EndPoint(src), std::span<const EndPoint>(sinks));

  router_.reverseUnroute(EndPoint(drop));
  router_.route(EndPoint(src), EndPoint(fresh));

  const auto t = router_.trace(EndPoint(src));
  ASSERT_EQ(t.sinks.size(), 2u);
  EXPECT_TRUE(router_.isOn(8, 11, keep.wire));
  EXPECT_TRUE(router_.isOn(12, 12, fresh.wire));
  EXPECT_FALSE(router_.isOn(11, 8, drop.wire));
  EXPECT_TRUE(jrtest::drcClean(fabric_));
}

TEST_F(IntegrationTest, DebugViewsSurviveComplexState) {
  RtrManager mgr(router_);
  ConstAdder a(6, 1), b(6, 2);
  mgr.install(a, {2, 3});
  mgr.install(b, {10, 18});
  mgr.connect(a, ConstAdder::kOutGroup, b, ConstAdder::kInGroup);

  const std::string map = renderUsageMap(fabric_);
  EXPECT_EQ(map.size(),
            static_cast<size_t>(xcv100().rows * (xcv100().cols + 1)));
  const std::string summary = netSummary(fabric_);
  EXPECT_NE(summary.find("segments"), std::string::npos);
  // Each output port's net renders with sinks and skew.
  const std::string dump =
      renderNet(router_, EndPoint(*a.getPorts(ConstAdder::kOutGroup)[0]));
  EXPECT_NE(dump.find("skew"), std::string::npos);
}

TEST_F(IntegrationTest, StressManySmallCores) {
  RtrManager mgr(router_);
  std::vector<std::unique_ptr<ConstAdder>> cores;
  // A grid of 4-bit adders chained left to right across the device.
  for (int col = 2; col + 2 < xcv100().cols - 2; col += 4) {
    cores.push_back(std::make_unique<ConstAdder>(4, col));
    mgr.install(*cores.back(), {8, static_cast<int16_t>(col)});
    if (cores.size() > 1) {
      mgr.connect(*cores[cores.size() - 2], ConstAdder::kOutGroup,
                  *cores.back(), ConstAdder::kInGroup);
    }
  }
  EXPECT_GT(cores.size(), 4u);
  EXPECT_TRUE(jrtest::drcClean(fabric_));
  EXPECT_EQ(countEnabledPips(fabric_.jbits().bitstream()),
            fabric_.onEdgeCount());
  // Unwind in reverse order.
  for (auto it = cores.rbegin(); it != cores.rend(); ++it) {
    mgr.remove(**it);
  }
  EXPECT_EQ(fabric_.usedNodeCount(), 0u);
  EXPECT_EQ(fabric_.jbits().bitstream().popcount(), 0u);
}

}  // namespace
}  // namespace jroute
