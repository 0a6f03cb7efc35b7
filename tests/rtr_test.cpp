// Tests for the run-time reconfiguration manager and the BoardScope-style
// debug views — the paper's section 3.3 scenarios end to end.
#include <gtest/gtest.h>

#include "cores/const_adder.h"
#include "cores/kcm.h"
#include "drc_clean.h"
#include "rtr/boardscope.h"
#include "rtr/manager.h"
#include "rtr/report.h"

namespace jroute {
namespace {

using xcvsim::Graph;
using xcvsim::PipTable;

class RtrTest : public ::testing::Test {
 protected:
  static const Graph& graph() {
    static Graph g{xcvsim::xcv50()};
    return g;
  }
  static const PipTable& table() {
    static PipTable t{xcvsim::ArchDb{xcvsim::xcv50()}};
    return t;
  }

  RtrTest() : fabric_(graph(), table()), router_(fabric_), mgr_(router_) {}

  xcvsim::Fabric fabric_;
  Router router_;
  RtrManager mgr_;
};

TEST_F(RtrTest, InstallConnectAndTrackCores) {
  Kcm mult(8, 3);
  ConstAdder adder(8, 1);
  mgr_.install(mult, {4, 4});
  mgr_.install(adder, {4, 9});
  EXPECT_EQ(mgr_.installed().size(), 2u);

  mgr_.connect(mult, Kcm::kOutGroup, adder, ConstAdder::kInGroup);
  for (Port* p : adder.getPorts(ConstAdder::kInGroup)) {
    const Pin& pin = p->pins()[0];
    EXPECT_TRUE(router_.isOn(pin.rc.row, pin.rc.col, pin.wire));
  }
  mgr_.remove(mult);
  EXPECT_EQ(mgr_.installed().size(), 1u);
}

TEST_F(RtrTest, ConnectWidthMismatchThrows) {
  Kcm mult(8, 3);
  ConstAdder adder(4, 1);
  mgr_.install(mult, {4, 4});
  mgr_.install(adder, {4, 9});
  EXPECT_THROW(mgr_.connect(mult, Kcm::kOutGroup, adder,
                            ConstAdder::kInGroup),
               xcvsim::ArgumentError);
}

TEST_F(RtrTest, PaperScenarioReplaceConstantMultiplier) {
  // "consider a constant multiplier. The system connects it to the
  //  circuit and later requires a new constant. The core can be removed,
  //  unrouted, and replaced ... without having to specify connections
  //  again."
  Kcm mult(8, 3);
  ConstAdder adder(8, 1);
  mgr_.install(mult, {4, 4});
  mgr_.install(adder, {4, 9});
  mgr_.connect(mult, Kcm::kOutGroup, adder, ConstAdder::kInGroup);
  const size_t edgesBefore = fabric_.onEdgeCount();

  // Structural replacement: remove, change parameter, rebuild, reconnect
  // from the router's memory — no connect() call repeated.
  mult.setConstant(router_, 7);
  mgr_.reconfigure(mult);

  EXPECT_EQ(mult.constant(), 7u);
  for (Port* p : adder.getPorts(ConstAdder::kInGroup)) {
    const Pin& pin = p->pins()[0];
    EXPECT_TRUE(router_.isOn(pin.rc.row, pin.rc.col, pin.wire));
  }
  // Same connectivity shape as before the swap.
  EXPECT_EQ(fabric_.onEdgeCount(), edgesBefore);
  EXPECT_TRUE(jrtest::drcClean(fabric_));
}

TEST_F(RtrTest, RelocationReconnectsPorts) {
  Kcm mult(8, 3);
  ConstAdder adder(8, 1);
  mgr_.install(mult, {4, 4});
  mgr_.install(adder, {4, 9});
  mgr_.connect(mult, Kcm::kOutGroup, adder, ConstAdder::kInGroup);

  mgr_.relocate(mult, {10, 4});
  EXPECT_EQ(mult.origin(), (RowCol{10, 4}));
  // The adder inputs are still fed — now from the new location.
  for (Port* p : adder.getPorts(ConstAdder::kInGroup)) {
    const Pin& pin = p->pins()[0];
    EXPECT_TRUE(router_.isOn(pin.rc.row, pin.rc.col, pin.wire));
    const auto back = router_.reverseTrace(EndPoint(pin));
    const auto srcTile = graph().info(back.front().from).tile;
    EXPECT_GE(srcTile.row, 10);  // driven from the relocated multiplier
  }
  EXPECT_TRUE(jrtest::drcClean(fabric_));
}

TEST_F(RtrTest, UsageMapShowsOccupiedRegion) {
  ConstAdder adder(8, 1);
  mgr_.install(adder, {4, 4});
  router_.route(EndPoint(*adder.getPorts(ConstAdder::kOutGroup)[0]),
                EndPoint(Pin(4, 8, xcvsim::S0F3)));
  const std::string map = renderUsageMap(fabric_);
  // 16 rows of 24 tiles plus newlines.
  EXPECT_EQ(map.size(), 16u * 25u);
  EXPECT_NE(map.find_first_of("123456789#"), std::string::npos);
}

TEST_F(RtrTest, RenderNetListsSinksAndSkew) {
  ConstAdder adder(8, 1);
  mgr_.install(adder, {4, 4});
  Port* out = adder.getPorts(ConstAdder::kOutGroup)[7];
  router_.route(EndPoint(*out), EndPoint(Pin(6, 8, xcvsim::S0F3)));
  const std::string dump = renderNet(router_, EndPoint(*out));
  EXPECT_NE(dump.find("net from"), std::string::npos);
  EXPECT_NE(dump.find("sink"), std::string::npos);
  EXPECT_NE(dump.find("skew"), std::string::npos);
}

TEST_F(RtrTest, UtilizationReportCountsResources) {
  const UtilizationReport blank = computeUtilization(fabric_);
  EXPECT_EQ(blank.singles.used, 0u);
  // XCV50: 16*23*24 horizontal + 15*24*24 vertical singles.
  EXPECT_EQ(blank.singles.total, 17472u);
  EXPECT_EQ(blank.longs.total,
            static_cast<size_t>((16 + 24) * xcvsim::kLongTracks));
  EXPECT_EQ(blank.perColumn.size(), 24u);

  ConstAdder adder(8, 1);
  mgr_.install(adder, {4, 4});
  const UtilizationReport rep = computeUtilization(fabric_);
  EXPECT_GT(rep.logic.used, 0u);
  // All activity concentrates in the adder's column (plus a neighbour for
  // channel segments).
  EXPECT_GT(rep.perColumn[4], 0u);
  EXPECT_EQ(rep.perColumn[20], 0u);
  const std::string text = rep.toString();
  EXPECT_NE(text.find("singles"), std::string::npos);
  EXPECT_NE(text.find("per-column"), std::string::npos);
}

TEST_F(RtrTest, NetSummaryListsLiveNets) {
  ConstAdder adder(4, 1);
  mgr_.install(adder, {4, 4});
  const std::string summary = netSummary(fabric_);
  // 3 carry nets exist; each line mentions segments.
  EXPECT_NE(summary.find("segments"), std::string::npos);
}

}  // namespace
}  // namespace jroute
