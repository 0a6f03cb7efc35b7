// Mutation harness for the fabric DRC (src/analysis).
//
// An analyzer that has never seen a violation proves nothing: every rule
// in the catalogue is exercised twice here — once on a clean fabric
// (rule must stay silent) and once on a fabric with that rule's
// violation class deliberately seeded through the FabricMutator backdoor
// (rule must fire). Seeding one corruption can trip several rules
// (that is the nature of interlocking invariants); each test asserts that
// at least the *matching* rule fires.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "analysis/drc.h"
#include "arch/wires.h"
#include "fabric/trace.h"
#include "rule_liveness.h"

namespace jrdrc {
namespace {

using jroute::EndPoint;
using jroute::Pin;
using jroute::Port;
using jroute::PortDir;
using jroute::Router;
using xcvsim::clbIn;
using xcvsim::ContentionError;
using xcvsim::Edge;
using xcvsim::Fabric;
using xcvsim::FabricMutator;
using xcvsim::Graph;
using xcvsim::kInvalidEdge;
using xcvsim::kInvalidNode;
using xcvsim::PipTable;
using xcvsim::S0_YQ;
using xcvsim::S1_YQ;

class DrcTest : public ::testing::Test {
 protected:
  static const Graph& graph() {
    static Graph g{xcvsim::xcv50()};
    return g;
  }
  static const PipTable& table() {
    static PipTable t{xcvsim::ArchDb{xcvsim::xcv50()}};
    return t;
  }

  DrcTest() : fabric_(graph(), table()), router_(fabric_) {}

  /// A small routed design: one p2p net and one 2-sink fanout net.
  void routeBaseline() {
    router_.route(EndPoint(Pin(3, 3, S1_YQ)), EndPoint(Pin(4, 5, clbIn(2))));
    const std::vector<EndPoint> sinks{EndPoint(Pin(9, 10, clbIn(1))),
                                      EndPoint(Pin(10, 12, clbIn(3)))};
    router_.route(EndPoint(Pin(8, 8, S0_YQ)),
                  std::span<const EndPoint>(sinks));
  }

  DrcInput fullInput() {
    DrcInput in;
    in.fabric = &fabric_;
    in.router = &router_;
    in.netOwners = &owners_;
    return in;
  }

  Fabric fabric_;
  Router router_;
  std::vector<std::pair<xcvsim::NodeId, uint64_t>> owners_;
};

// --- Registry and clean-fabric behaviour -----------------------------------------

TEST_F(DrcTest, RegistryHasUniqueIdsAndResolvesById) {
  std::set<std::string> ids;
  for (const DrcRule& r : drcRules()) {
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate id " << r.id;
    EXPECT_NE(r.description[0], '\0');
    EXPECT_EQ(jrcheck::findRule(drcRules(), r.id), &r);
  }
  EXPECT_GE(ids.size(), 9u);
  EXPECT_EQ(jrcheck::findRule(drcRules(), "no-such-rule"), nullptr);
}

TEST_F(DrcTest, CleanFabricPassesEveryChecker) {
  routeBaseline();
  const DrcReport report = runDrc(fullInput());
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.findings.empty()) << report.summary();
  // Every registered rule actually ran (full input makes all applicable).
  EXPECT_EQ(report.rulesRun.size(), drcRules().size());
}

TEST_F(DrcTest, BlankFabricIsClean) {
  const DrcReport report = runDrc(fabric_);
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.findings.empty());
}

// --- Mutation: each violation class fires its matching rule ----------------------

TEST_F(DrcTest, SeededDoubleDriveFires) {
  routeBaseline();
  const Graph& g = graph();
  // Find a driven segment with a second (off) incoming PIP and force that
  // PIP on: the track is now driven from both ends.
  FabricMutator mut(fabric_);
  bool seeded = false;
  for (xcvsim::NodeId n = 0; n < g.numNodes() && !seeded; ++n) {
    if (fabric_.driverOf(n) == kInvalidEdge) continue;
    for (const xcvsim::EdgeId e : g.in(n)) {
      if (fabric_.edgeOn(e)) continue;
      mut.setEdgeOnBit(e, true);
      seeded = true;
      break;
    }
  }
  ASSERT_TRUE(seeded);
  const DrcReport report = runDrc(fullInput());
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.fired("double-drive")) << report.summary();
}

TEST_F(DrcTest, SeededBrokenTreeFires) {
  routeBaseline();
  // Cut a PIP out of the middle of a net without releasing the segments
  // downstream of it: they are now claimed but unreachable.
  const auto hops =
      xcvsim::traceForward(fabric_, graph().nodeAt({3, 3}, S1_YQ));
  ASSERT_GE(hops.size(), 2u);
  FabricMutator mut(fabric_);
  mut.setEdgeOnBit(hops[hops.size() / 2].edge, false);
  const DrcReport report = runDrc(fullInput());
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.fired("net-tree")) << report.summary();
}

TEST_F(DrcTest, SeededAntennaStubFires) {
  routeBaseline();
  const Graph& g = graph();
  // Turn on a PIP both of whose segments belong to no net: an antenna the
  // net database cannot see.
  xcvsim::EdgeId stub = kInvalidEdge;
  for (xcvsim::EdgeId e = 0; e < g.numEdges(); ++e) {
    if (!fabric_.edgeOn(e) && !fabric_.isUsed(g.edgeSource(e)) &&
        !fabric_.isUsed(g.edge(e).to)) {
      stub = e;
      break;
    }
  }
  ASSERT_NE(stub, kInvalidEdge);
  FabricMutator mut(fabric_);
  mut.setEdgeOnBit(stub, true);
  const DrcReport report = runDrc(fullInput());
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.fired("antenna")) << report.summary();
}

TEST_F(DrcTest, SeededOrphanNodeFires) {
  routeBaseline();
  const Graph& g = graph();
  // Claim a free segment for a live net without wiring it in — the
  // residue an incomplete unroute would leave. Counters are patched so
  // only the orphan rule is at stake.
  const xcvsim::NetId net = fabric_.netOf(g.nodeAt({3, 3}, S1_YQ));
  xcvsim::NodeId orphan = kInvalidNode;
  for (xcvsim::NodeId n = 0; n < g.numNodes(); ++n) {
    if (!fabric_.isUsed(n)) {
      orphan = n;
      break;
    }
  }
  ASSERT_NE(orphan, kInvalidNode);
  FabricMutator mut(fabric_);
  mut.setNodeNet(orphan, net);
  mut.setUsedNodes(mut.usedNodes() + 1);
  mut.setNetNodes(net, mut.netNodes(net) + 1);
  const DrcReport report = runDrc(fullInput());
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.fired("orphan-node")) << report.summary();
}

TEST_F(DrcTest, SeededUsedIndexDisagreementFires) {
  routeBaseline();
  const Graph& g = graph();
  const xcvsim::NodeId claimed = g.nodeAt({3, 3}, S1_YQ);
  xcvsim::NodeId free = kInvalidNode;
  for (xcvsim::NodeId n = 0; n < g.numNodes(); ++n) {
    if (!fabric_.isUsed(n)) {
      free = n;
      break;
    }
  }
  ASSERT_NE(free, kInvalidNode);
  // Each direction alone: a claimed segment the searches would see as
  // free, and a free one they would see as an obstacle.
  for (const auto& [node, bit] :
       {std::pair{claimed, false}, std::pair{free, true}}) {
    FabricMutator mut(fabric_);
    mut.setUsedBit(node, bit);
    const DrcReport report = runDrc(fullInput());
    EXPECT_FALSE(report.clean());
    EXPECT_TRUE(report.fired("used-index")) << report.summary();
    mut.setUsedBit(node, !bit);
    EXPECT_TRUE(runDrc(fullInput()).clean());
  }
}

TEST_F(DrcTest, SeededCounterCorruptionFires) {
  routeBaseline();
  FabricMutator mut(fabric_);
  mut.setUsedNodes(mut.usedNodes() + 3);
  const DrcReport report = runDrc(fullInput());
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.fired("counters")) << report.summary();
  // A pure counter skew trips no structural rule.
  EXPECT_FALSE(report.fired("double-drive"));
  EXPECT_FALSE(report.fired("net-tree"));
}

// The fabric's per-node records, corrupted one at a time: each fires the
// rule that owns it, so the DRC alone vouches for the fabric's
// bookkeeping.
TEST_F(DrcTest, SeededDriverRecordCorruptionFires) {
  routeBaseline();
  const Graph& g = graph();
  // Point a driven segment's driver record at one of its off in-PIPs.
  const auto hops = xcvsim::traceForward(fabric_, g.nodeAt({3, 3}, S1_YQ));
  ASSERT_FALSE(hops.empty());
  const xcvsim::NodeId n = hops.front().to;
  xcvsim::EdgeId off = kInvalidEdge;
  for (const xcvsim::EdgeId e : g.in(n)) {
    if (!fabric_.edgeOn(e)) off = e;
  }
  ASSERT_NE(off, kInvalidEdge);
  FabricMutator mut(fabric_);
  mut.setNodeDriver(n, off);
  const DrcReport report = runDrc(fullInput());
  EXPECT_TRUE(report.fired("double-drive")) << report.summary();
}

TEST_F(DrcTest, SeededOnPipBetweenNetsFires) {
  routeBaseline();
  const Graph& g = graph();
  // Hand the far end of one net's on-PIP to the other net.
  const auto hops = xcvsim::traceForward(fabric_, g.nodeAt({3, 3}, S1_YQ));
  ASSERT_FALSE(hops.empty());
  FabricMutator mut(fabric_);
  mut.setNodeNet(hops.front().to, fabric_.netOf(g.nodeAt({8, 8}, S0_YQ)));
  const DrcReport report = runDrc(fullInput());
  EXPECT_TRUE(report.fired("antenna")) << report.summary();
}

TEST_F(DrcTest, SeededFanoutAndOnEdgeCountersFire) {
  const xcvsim::NodeId src = graph().nodeAt({3, 3}, S1_YQ);
  for (const bool fanout : {true, false}) {
    SCOPED_TRACE(fanout ? "fanout" : "on-edge");
    Fabric fabric(graph(), table());
    Router router(fabric);
    router.route(EndPoint(Pin(3, 3, S1_YQ)), EndPoint(Pin(4, 5, clbIn(2))));
    FabricMutator mut(fabric);
    if (fanout) {
      mut.setOnOut(src, static_cast<uint16_t>(fabric.onOutCount(src) + 1));
    } else {
      mut.setOnEdges(mut.onEdges() + 1);
    }
    const DrcReport report = runDrc(fabric);
    EXPECT_TRUE(report.fired("counters")) << report.summary();
  }
}

TEST_F(DrcTest, SeededBitstreamDivergenceFires) {
  routeBaseline();
  const Graph& g = graph();
  // Enable a PIP directly in the configuration frames, bypassing the
  // fabric: the decode cross-check must notice the divergence.
  bool seeded = false;
  for (xcvsim::EdgeId e = 0; e < g.numEdges() && !seeded; ++e) {
    if (fabric_.edgeOn(e)) continue;
    const Edge& ed = g.edge(e);
    const xcvsim::RowCol rc{static_cast<int16_t>(ed.tileRow),
                            static_cast<int16_t>(ed.tileCol)};
    if (ed.fromLocal == xcvsim::kInvalidLocalWire) continue;
    if (g.nodeAt(rc, ed.toLocal) != ed.to) continue;  // skip direct connects
    fabric_.jbits().setPip(rc, ed.fromLocal, ed.toLocal, true);
    seeded = true;
  }
  ASSERT_TRUE(seeded);
  const DrcReport report = runDrc(fullInput());
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.fired("bitstream")) << report.summary();
}

TEST_F(DrcTest, SeededBogusOwnershipFires) {
  routeBaseline();
  const Graph& g = graph();
  // Ownership entry for a segment no net uses (e.g. left behind after an
  // unroute that forgot to erase the registry row).
  xcvsim::NodeId freeNode = kInvalidNode;
  for (xcvsim::NodeId n = 0; n < g.numNodes(); ++n) {
    if (!fabric_.isUsed(n)) {
      freeNode = n;
      break;
    }
  }
  owners_.emplace_back(freeNode, 77u);
  const DrcReport report = runDrc(fullInput());
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.fired("session-ownership")) << report.summary();

  // An entry naming a non-source segment of a live net is also invalid.
  owners_.clear();
  const auto hops =
      xcvsim::traceForward(fabric_, graph().nodeAt({3, 3}, S1_YQ));
  ASSERT_FALSE(hops.empty());
  owners_.emplace_back(hops.back().to, 78u);
  EXPECT_TRUE(runDrc(fullInput()).fired("session-ownership"));
}

TEST_F(DrcTest, StaleConnectionMemoryWarns) {
  routeBaseline();
  // Remember a port connection whose source was never routed: the
  // connection-memory rule flags it, but only as a warning (a manual
  // unroute legitimately leaves remembered connections behind).
  Port port("stale", PortDir::Output, "g");
  port.bindPin(Pin(12, 12, S1_YQ));
  router_.rememberConnection(EndPoint(port), EndPoint(Pin(13, 14, clbIn(2))));
  const DrcReport report = runDrc(fullInput());
  EXPECT_TRUE(report.fired("connection-memory")) << report.summary();
  EXPECT_GE(report.warningCount(), 1u);
  EXPECT_TRUE(report.clean());  // warnings do not fail the design
}

TEST_F(DrcTest, EveryRuleHasALivenessProof) {
  // The Seeded*Fires tests above and StaleConnectionMemoryWarns.
  jrtest::expectEveryRuleProven(
      drcRules(), {"double-drive", "net-tree", "antenna", "orphan-node",
                   "counters", "used-index", "bitstream",
                   "session-ownership", "connection-memory"});
}

// --- Report output ----------------------------------------------------------------

TEST_F(DrcTest, JsonAndSummaryCarryTheViolation) {
  routeBaseline();
  FabricMutator mut(fabric_);
  mut.setUsedNodes(mut.usedNodes() + 1);
  const DrcReport report = runDrc(fullInput());
  const std::string js = report.json();
  EXPECT_NE(js.find("\"clean\":false"), std::string::npos);
  EXPECT_NE(js.find("\"rule\":\"counters\""), std::string::npos);
  EXPECT_NE(report.summary().find("counters"), std::string::npos);

  mut.setUsedNodes(mut.usedNodes() - 1);
  const std::string cleanJs = runDrc(fullInput()).json();
  EXPECT_NE(cleanJs.find("\"clean\":true"), std::string::npos);
  EXPECT_NE(cleanJs.find("\"findings\":[]"), std::string::npos);
}

TEST_F(DrcTest, EnforceThrowsOnErrors) {
  routeBaseline();
  EXPECT_NO_THROW(enforce(fullInput(), "test"));
  FabricMutator mut(fabric_);
  mut.setUsedNodes(mut.usedNodes() + 1);
  EXPECT_THROW(enforce(fullInput(), "test"), xcvsim::JRouteError);
}

// --- Satellite regression: rollback restores port-connection memory ---------------

TEST_F(DrcTest, RolledBackPortRouteLeavesNoConnectionMemory) {
  // A blocking net occupies the sink the second staged route will want.
  router_.route(EndPoint(Pin(8, 8, S1_YQ)), EndPoint(Pin(8, 10, clbIn(2))));
  ASSERT_EQ(router_.connections().size(), 0u);  // pin-only routes not recorded

  Port port("data", PortDir::Output, "g");
  port.bindPin(Pin(6, 6, S1_YQ));
  Router::Txn txn(router_);
  // First staged route succeeds and records its port connection...
  router_.route(EndPoint(port), EndPoint(Pin(6, 8, clbIn(1))));
  EXPECT_EQ(router_.connections().size(), 1u);
  // ...then a later step of the same txn hits contention.
  EXPECT_THROW(
      router_.route(EndPoint(Pin(4, 4, S1_YQ)), EndPoint(Pin(8, 10, clbIn(2)))),
      ContentionError);
  txn.rollback();

  // Rollback journals connections_ too, so the rolled-back port route
  // leaves no remembered connection that a later core replace would
  // phantom-reroute.
  EXPECT_EQ(router_.connections().size(), 0u);
  const DrcReport report = runDrc(fullInput());
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_FALSE(report.fired("connection-memory"));
}

}  // namespace
}  // namespace jrdrc
