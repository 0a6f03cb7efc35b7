// Tests for jrplan: the claim-footprint over-approximation property on
// two device sizes, and the workload linter with a mutation harness
// proving every rule and extractor hook live.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "arch/wires.h"
#include "core/router.h"
#include "json_validator.h"
#include "plan/footprint.h"
#include "plan/lint.h"
#include "plan/lint_script.h"

namespace jrplan {
namespace {

using jroute::EndPoint;
using jroute::Pin;
using jroute::Router;
using xcvsim::clbIn;
using xcvsim::Fabric;
using xcvsim::Graph;
using xcvsim::NodeId;
using xcvsim::PipTable;
using xcvsim::RowCol;
using xcvsim::S0_YQ;
using xcvsim::S1_YQ;
using xcvsim::TemplateValue;

/// Graph + pip table per device, built once per process (the XCV1000
/// model is expensive enough that per-test construction would dominate).
struct Kit {
  const Graph& graph;
  const PipTable& table;
};

const Kit& kitFor(const std::string& device) {
  if (device == "XCV50") {
    static Graph g{xcvsim::xcv50()};
    static PipTable t{xcvsim::ArchDb{xcvsim::xcv50()}};
    static Kit k{g, t};
    return k;
  }
  if (device == "XCV300") {
    static Graph g{xcvsim::xcv300()};
    static PipTable t{xcvsim::ArchDb{xcvsim::xcv300()}};
    static Kit k{g, t};
    return k;
  }
  static Graph g{xcvsim::xcv1000()};
  static PipTable t{xcvsim::ArchDb{xcvsim::xcv1000()}};
  static Kit k{g, t};
  return k;
}

/// Every node the net driven from `src` occupies, source included.
std::vector<NodeId> netNodes(const Router& router, const Graph& g, Pin src) {
  std::vector<NodeId> nodes{g.nodeAt(src.rc, src.wire)};
  for (const xcvsim::TraceHop& hop : router.trace(EndPoint(src)).hops) {
    nodes.push_back(hop.to);
  }
  return nodes;
}

/// The over-approximation property: every node the route actually
/// occupies must fall inside the statically extracted footprint.
void expectContained(const Graph& g, const Footprint& fp,
                     const std::vector<NodeId>& nodes, const char* what) {
  ASSERT_TRUE(fp.sound()) << what;
  for (NodeId n : nodes) {
    EXPECT_TRUE(fp.allowsNode(g, n))
        << what << ": node " << n << " at (" << g.positionOf(n).row << ","
        << g.positionOf(n).col << ") escaped the footprint";
  }
}

// --- RegionGrid / Footprint mechanics -------------------------------------------

TEST(PlanFootprintTest, GridCellsPartitionTiles) {
  const RegionGrid grid(16, 24);
  // Tiles of one 4x4 block share a cell; crossing the pitch changes it.
  EXPECT_EQ(grid.cellOf(RowCol{0, 0}), grid.cellOf(RowCol{3, 3}));
  EXPECT_NE(grid.cellOf(RowCol{3, 3}), grid.cellOf(RowCol{4, 3}));
  EXPECT_NE(grid.cellOf(RowCol{3, 3}), grid.cellOf(RowCol{3, 4}));
  // Out-of-device tiles clamp instead of indexing out of range.
  EXPECT_EQ(grid.cellOf(RowCol{-5, -5}), grid.cellOf(RowCol{0, 0}));
  EXPECT_EQ(grid.cellOf(RowCol{100, 100}), grid.cellOf(RowCol{15, 23}));
  EXPECT_EQ(grid.numCells(), 4 * 6);
}

TEST(PlanFootprintTest, TileRectCoversEveryCellInTheRectangle) {
  const RegionGrid grid(16, 24);
  Footprint fp(grid);
  fp.addTileRect(RowCol{2, 2}, RowCol{9, 13});
  for (int r = 2; r <= 9; ++r) {
    for (int c = 2; c <= 13; ++c) {
      EXPECT_TRUE(
          fp.containsTile(RowCol{static_cast<int16_t>(r),
                                 static_cast<int16_t>(c)}))
          << r << "," << c;
    }
  }
  // A tile whose cell lies wholly outside the rectangle stays out.
  EXPECT_FALSE(fp.containsTile(RowCol{14, 20}));
}

TEST(PlanFootprintTest, UniteAndIntersectSemantics) {
  const RegionGrid grid(16, 24);
  Footprint a(grid), b(grid), c(grid);
  a.addTile(RowCol{2, 2});
  b.addTile(RowCol{2, 3});   // same 4x4 cell as (2,2)
  c.addTile(RowCol{12, 20});
  EXPECT_TRUE(a.intersects(b));
  EXPECT_TRUE(b.intersects(a));
  EXPECT_FALSE(a.intersects(c));

  // unite() is a union of cells and an AND of soundness.
  c.markUnsound();
  a.unite(c);
  EXPECT_TRUE(a.containsTile(RowCol{12, 20}));
  EXPECT_FALSE(a.sound());
  EXPECT_EQ(a.cellCount(), 2u);
}

// --- Over-approximation property on both device sizes ---------------------------

class PlanFootprintDeviceTest : public ::testing::TestWithParam<const char*> {
};

TEST_P(PlanFootprintDeviceTest, RoutedWiresStayInsideExtractedFootprints) {
  const Kit& kit = kitFor(GetParam());
  const Graph& g = kit.graph;
  Fabric fabric(g, kit.table);
  Router router(fabric);
  const FootprintExtractor fx(g, fabric);
  const int rows = g.device().rows;
  const int cols = g.device().cols;

  // p2p, short and device-diagonal (the long route exercises hexes and
  // long lines on the XCV1000).
  const Pin shortSrc(3, 3, S1_YQ);
  const Pin shortSink(4, 5, clbIn(2));
  const RouteSpec shortSpec{SpecOp::kP2P, {shortSrc}, {shortSink}};
  const Footprint shortFp = fx.extract(shortSpec);
  router.route(EndPoint(shortSrc), EndPoint(shortSink));
  expectContained(g, shortFp, netNodes(router, g, shortSrc), "p2p short");

  const Pin farSrc(2, 2, S0_YQ);
  const Pin farSink(static_cast<int16_t>(rows - 3),
                    static_cast<int16_t>(cols - 3), clbIn(1));
  const RouteSpec farSpec{SpecOp::kP2P, {farSrc}, {farSink}};
  const Footprint farFp = fx.extract(farSpec);
  router.route(EndPoint(farSrc), EndPoint(farSink));
  expectContained(g, farFp, netNodes(router, g, farSrc), "p2p far");

  // fanout: one source, three sinks fanned across the middle rows.
  const Pin fanSrc(static_cast<int16_t>(rows / 2), 4, S1_YQ);
  const std::vector<Pin> fanSinks{
      Pin(static_cast<int16_t>(rows / 2 - 2), 8, clbIn(0)),
      Pin(static_cast<int16_t>(rows / 2), 10, clbIn(1)),
      Pin(static_cast<int16_t>(rows / 2 + 3), 7, clbIn(2))};
  const RouteSpec fanSpec{SpecOp::kFanout, {fanSrc}, fanSinks};
  const Footprint fanFp = fx.extract(fanSpec);
  std::vector<EndPoint> fanEps;
  for (const Pin& p : fanSinks) fanEps.emplace_back(p);
  router.route(EndPoint(fanSrc), std::span<const EndPoint>(fanEps));
  expectContained(g, fanFp, netNodes(router, g, fanSrc), "fanout");

  // bus: four bits, one row each.
  RouteSpec busSpec{SpecOp::kBus, {}, {}};
  std::vector<EndPoint> busSrcs, busSinks;
  for (int i = 0; i < 4; ++i) {
    const Pin s(static_cast<int16_t>(6 + i), static_cast<int16_t>(cols / 2),
                S1_YQ);
    const Pin k(static_cast<int16_t>(6 + i),
                static_cast<int16_t>(cols / 2 + 5), clbIn(2));
    busSpec.srcs.push_back(s);
    busSpec.sinks.push_back(k);
    busSrcs.emplace_back(s);
    busSinks.emplace_back(k);
  }
  const Footprint busFp = fx.extract(busSpec);
  router.route(std::span<const EndPoint>(busSrcs),
               std::span<const EndPoint>(busSinks));
  for (const Pin& s : busSpec.srcs) {
    expectContained(g, busFp, netNodes(router, g, s), "bus bit");
  }

  // unroute: the footprint of tearing down the fanout net is exactly the
  // cells its tree occupies — every live node must be covered.
  const RouteSpec unSpec{SpecOp::kUnroute, {fanSrc}, {}};
  const Footprint unFp = fx.extract(unSpec);
  expectContained(g, unFp, netNodes(router, g, fanSrc), "unroute");

  // reconnect: teardown of the short net plus a route to a new sink.
  const Pin newSink(5, 7, clbIn(3));
  const RouteSpec reSpec{SpecOp::kReconnect, {shortSrc}, {newSink}};
  const Footprint reFp = fx.extract(reSpec);
  expectContained(g, reFp, netNodes(router, g, shortSrc), "reconnect old");
  router.unroute(EndPoint(shortSrc));
  router.route(EndPoint(shortSrc), EndPoint(newSink));
  expectContained(g, reFp, netNodes(router, g, shortSrc), "reconnect new");
}

INSTANTIATE_TEST_SUITE_P(Devices, PlanFootprintDeviceTest,
                         ::testing::Values("XCV50", "XCV1000"));

TEST(PlanFootprintTest, UnboundableRequestsAreUnsoundNotWrong) {
  const Kit& kit = kitFor("XCV50");
  Fabric fabric(kit.graph, kit.table);
  const FootprintExtractor fx(kit.graph, fabric);

  // No sources at all.
  EXPECT_FALSE(fx.extract(RouteSpec{SpecOp::kP2P, {}, {}}).sound());
  // Route with no sinks.
  EXPECT_FALSE(
      fx.extract(RouteSpec{SpecOp::kP2P, {Pin(3, 3, S1_YQ)}, {}}).sound());
  // Unroute of a net that does not exist: nothing to bound.
  EXPECT_FALSE(
      fx.extract(RouteSpec{SpecOp::kUnroute, {Pin(3, 3, S1_YQ)}, {}}).sound());
  // Bus width mismatch.
  EXPECT_FALSE(fx.extract(RouteSpec{SpecOp::kBus,
                                    {Pin(3, 3, S1_YQ), Pin(4, 3, S1_YQ)},
                                    {Pin(3, 6, clbIn(1))}})
                   .sound());
  // A resolvable pair stays sound.
  EXPECT_TRUE(fx.extract(RouteSpec{SpecOp::kP2P,
                                   {Pin(3, 3, S1_YQ)},
                                   {Pin(4, 5, clbIn(2))}})
                  .sound());
}

// --- Extractor hook liveness (mutation harness) ---------------------------------

TEST(PlanExtractorMutationTest, NetNodesHookIsLive) {
  const Kit& kit = kitFor("XCV50");
  const Graph& g = kit.graph;
  Fabric fabric(g, kit.table);
  Router router(fabric);
  // A net spanning several region cells.
  const Pin src(3, 3, S1_YQ);
  router.route(EndPoint(src), EndPoint(Pin(3, 14, clbIn(2))));

  FootprintExtractor fx(g, fabric);
  const RouteSpec unSpec{SpecOp::kUnroute, {src}, {}};
  const Footprint honest = fx.extract(unSpec);
  expectContained(g, honest, netNodes(router, g, src), "honest unroute");

  // Corrupt the tree walk to report only the source: the footprint must
  // now miss live nodes — proof the extractor really consumes the hook.
  fx.hooks().netNodes = [&g, &src](NodeId) {
    return std::vector<NodeId>{g.nodeAt(src.rc, src.wire)};
  };
  const Footprint blinded = fx.extract(unSpec);
  bool missed = false;
  for (NodeId n : netNodes(router, g, src)) {
    if (!blinded.allowsNode(g, n)) missed = true;
  }
  EXPECT_TRUE(missed) << "blinding netNodes did not shrink the footprint";
}

TEST(PlanExtractorMutationTest, TemplateHookIsLive) {
  const Kit& kit = kitFor("XCV50");
  Fabric fabric(kit.graph, kit.table);
  FootprintExtractor fx(kit.graph, fabric);
  const RouteSpec spec{SpecOp::kP2P, {Pin(8, 8, S1_YQ)}, {Pin(8, 10, clbIn(2))}};
  const Footprint honest = fx.extract(spec);

  // Inject a fake nominal walk far outside the corridor: its tiles must
  // show up in the footprint, or the hook is dead code.
  fx.hooks().templates = [](RowCol, RowCol) {
    return std::vector<std::vector<TemplateValue>>{
        {TemplateValue::NORTH6, TemplateValue::NORTH6}};
  };
  const Footprint injected = fx.extract(spec);
  const std::vector<int> before = honest.cells();
  bool gained = false;
  for (int cell : injected.cells()) {
    if (std::find(before.begin(), before.end(), cell) == before.end()) {
      gained = true;
    }
  }
  EXPECT_TRUE(gained) << "templates hook output never reached the footprint";
}

TEST(PlanExtractorMutationTest, LongTemplateHookIsLive) {
  const Kit& kit = kitFor("XCV50");
  Fabric fabric(kit.graph, kit.table);
  FootprintExtractor fx(kit.graph, fabric);
  const RouteSpec spec{SpecOp::kP2P, {Pin(8, 8, S1_YQ)}, {Pin(8, 10, clbIn(2))}};
  const Footprint honest = fx.extract(spec);
  fx.hooks().longTemplates = [](RowCol, RowCol) {
    return std::vector<std::vector<TemplateValue>>{
        {TemplateValue::SOUTH6, TemplateValue::SOUTH6}};
  };
  const Footprint injected = fx.extract(spec);
  const std::vector<int> before = honest.cells();
  bool gained = false;
  for (int cell : injected.cells()) {
    if (std::find(before.begin(), before.end(), cell) == before.end()) {
      gained = true;
    }
  }
  EXPECT_TRUE(gained);
}

TEST(PlanExtractorMutationTest, CorridorMarginIsLive) {
  const Kit& kit = kitFor("XCV50");
  Fabric fabric(kit.graph, kit.table);
  FootprintExtractor fx(kit.graph, fabric);
  const RouteSpec spec{SpecOp::kP2P, {Pin(8, 8, S1_YQ)}, {Pin(9, 10, clbIn(2))}};
  const size_t withMargin = fx.extract(spec).cellCount();
  fx.hooks().corridorMargin = 0;
  const size_t withoutMargin = fx.extract(spec).cellCount();
  EXPECT_LT(withoutMargin, withMargin);
}

// --- Workload linter -------------------------------------------------------------

LintEvent mkEvent(std::string session, SpecOp op, std::vector<Pin> srcs,
                  std::vector<Pin> sinks, std::string origin = "t") {
  LintEvent ev;
  ev.session = std::move(session);
  ev.origin = std::move(origin);
  ev.spec.op = op;
  ev.spec.srcs = std::move(srcs);
  ev.spec.sinks = std::move(sinks);
  return ev;
}

const xcvsim::DeviceSpec& dev50() { return xcvsim::xcv50(); }

TEST(PlanLintTest, CleanStreamHasNoFindings) {
  const std::vector<LintEvent> events{
      mkEvent("a", SpecOp::kP2P, {Pin(3, 3, S1_YQ)}, {Pin(4, 5, clbIn(2))}),
      mkEvent("a", SpecOp::kFanout, {Pin(6, 6, S1_YQ)},
              {Pin(7, 8, clbIn(1)), Pin(5, 7, clbIn(2))}),
      mkEvent("b", SpecOp::kBus, {Pin(10, 3, S1_YQ), Pin(11, 3, S1_YQ)},
              {Pin(10, 6, clbIn(2)), Pin(11, 6, clbIn(2))}),
      mkEvent("a", SpecOp::kReconnect, {Pin(3, 3, S1_YQ)},
              {Pin(4, 6, clbIn(3))}),
      mkEvent("a", SpecOp::kUnroute, {Pin(3, 3, S1_YQ)}, {}),
  };
  const LintReport rep = lintEvents(dev50(), events);
  EXPECT_TRUE(rep.findings.empty()) << rep.summary();
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.eventsChecked, events.size());
  EXPECT_EQ(rep.rulesRun.size(), allLintRules().size());
}

TEST(PlanLintMutationTest, MalformedFires) {
  const std::vector<LintEvent> events{
      mkEvent("a", SpecOp::kP2P, {}, {Pin(4, 5, clbIn(2))}),
      mkEvent("a", SpecOp::kP2P, {Pin(3, 3, S1_YQ)}, {}),
      mkEvent("a", SpecOp::kBus, {Pin(3, 3, S1_YQ), Pin(4, 3, S1_YQ)},
              {Pin(3, 6, clbIn(1))}),
      mkEvent("a", SpecOp::kP2P, {Pin(99, 99, S1_YQ)},
              {Pin(4, 5, clbIn(2))}),
  };
  const LintReport rep = lintEvents(dev50(), events);
  EXPECT_TRUE(rep.firedRule("lint-malformed"));
  EXPECT_GE(rep.errors(), 4u);
}

TEST(PlanLintMutationTest, DoubleClaimFires) {
  const Pin sink(4, 5, clbIn(2));
  const std::vector<LintEvent> events{
      mkEvent("a", SpecOp::kP2P, {Pin(3, 3, S1_YQ)}, {sink}),
      // Same session: warning (the anomaly-smoke pattern).
      mkEvent("a", SpecOp::kP2P, {Pin(6, 6, S1_YQ)}, {sink}),
      // Cross-session: error.
      mkEvent("b", SpecOp::kP2P, {Pin(8, 8, S1_YQ)}, {sink}),
  };
  const LintReport rep = lintEvents(dev50(), events);
  EXPECT_TRUE(rep.firedRule("lint-double-claim"));
  EXPECT_EQ(rep.warnings(), 1u);
  EXPECT_EQ(rep.errors(), 1u);
}

TEST(PlanLintMutationTest, NotOwnerFires) {
  const std::vector<LintEvent> events{
      mkEvent("a", SpecOp::kP2P, {Pin(3, 3, S1_YQ)}, {Pin(4, 5, clbIn(2))}),
      mkEvent("b", SpecOp::kUnroute, {Pin(3, 3, S1_YQ)}, {}),
      mkEvent("b", SpecOp::kFanout, {Pin(3, 3, S1_YQ)},
              {Pin(5, 6, clbIn(3))}),
  };
  const LintReport rep = lintEvents(dev50(), events);
  EXPECT_TRUE(rep.firedRule("lint-not-owner"));
  EXPECT_GE(rep.errors(), 2u);
}

TEST(PlanLintMutationTest, UnrouteDeadFires) {
  const std::vector<LintEvent> events{
      // Never routed.
      mkEvent("a", SpecOp::kUnroute, {Pin(3, 3, S1_YQ)}, {}),
      // Routed, torn down, then unrouted again.
      mkEvent("a", SpecOp::kP2P, {Pin(6, 6, S1_YQ)}, {Pin(7, 8, clbIn(1))}),
      mkEvent("a", SpecOp::kUnroute, {Pin(6, 6, S1_YQ)}, {}),
      mkEvent("a", SpecOp::kUnroute, {Pin(6, 6, S1_YQ)}, {}),
  };
  const LintReport rep = lintEvents(dev50(), events);
  EXPECT_TRUE(rep.firedRule("lint-unroute-dead"));
  EXPECT_EQ(rep.errors(), 2u);
}

TEST(PlanLintMutationTest, ReconnectMissingFires) {
  const std::vector<LintEvent> events{
      mkEvent("a", SpecOp::kReconnect, {Pin(3, 3, S1_YQ)},
              {Pin(4, 5, clbIn(2))}),
  };
  const LintReport rep = lintEvents(dev50(), events);
  EXPECT_TRUE(rep.firedRule("lint-reconnect-missing"));
  EXPECT_EQ(rep.errors(), 1u);
}

TEST(PlanLintMutationTest, EveryLintRuleHasALivenessProof) {
  // Meta-check on this file, mirroring the jrverify harness: the
  // mutation tests above must cover every rule in the catalogue.
  const std::set<std::string> proven = {
      "lint-malformed",    "lint-double-claim",      "lint-not-owner",
      "lint-unroute-dead", "lint-reconnect-missing",
  };
  for (const LintRule* r : allLintRules()) {
    EXPECT_TRUE(proven.count(r->id))
        << "lint rule " << r->id << " has no mutation test";
  }
}

TEST(PlanLintTest, FindingsArePerRuleCapped) {
  std::vector<LintEvent> events;
  for (int i = 0; i < 20; ++i) {
    events.push_back(mkEvent("a", SpecOp::kP2P, {}, {Pin(4, 5, clbIn(2))}));
  }
  const LintReport rep = lintEvents(dev50(), events);
  size_t malformed = 0;
  for (const Finding& f : rep.findings) {
    if (f.rule == "lint-malformed") ++malformed;
  }
  EXPECT_EQ(malformed, 8u);  // kMaxFindingsPerRule
}

TEST(PlanLintTest, GoldenJsonRendersExactlyAndValidates) {
  const std::vector<LintEvent> events{
      mkEvent("a", SpecOp::kUnroute, {Pin(3, 3, S1_YQ)}, {}),
  };
  const LintReport rep = lintEvents(dev50(), events);
  const std::string expected =
      "{\"lint\":{\"events\":1,\"errors\":1,\"warnings\":0,\"findings\":["
      "{\"rule\":\"lint-unroute-dead\",\"severity\":\"error\","
      "\"request\":0,\"entity\":\"(3,3,S1_YQ)\","
      "\"message\":\"unroute of a net that was never routed\","
      "\"hint\":\"route the net before unrouting it\"}]}}";
  EXPECT_EQ(rep.json(), expected);
  EXPECT_TRUE(jrtest::validJson(rep.json()));
  // Same stream, same report — the linter is deterministic.
  EXPECT_EQ(lintEvents(dev50(), events).json(), rep.json());
}

// --- Script front-end ------------------------------------------------------------

TEST(PlanLintScriptTest, ParsesNetCommandsAndIgnoresTheRest) {
  std::istringstream in(
      "# comment\n"
      "device XCV50\n"
      "stats\n"
      "auto 3 3 S1_YQ 4 5 S0F3\n"
      "fanout 6 6 S1_YQ 2 7 8 S0F2 5 7 S0F3\n"
      "unroute 3 3 S1_YQ\n");
  const ScriptWorkload wl = parseScript(in);
  EXPECT_EQ(wl.device, "XCV50");
  EXPECT_TRUE(wl.parseErrors.empty());
  ASSERT_EQ(wl.events.size(), 3u);
  EXPECT_EQ(wl.events[0].spec.op, SpecOp::kP2P);
  EXPECT_EQ(wl.events[1].spec.op, SpecOp::kFanout);
  EXPECT_EQ(wl.events[1].spec.sinks.size(), 2u);
  EXPECT_EQ(wl.events[2].spec.op, SpecOp::kUnroute);
  EXPECT_EQ(wl.events[0].origin, "line 4");
}

TEST(PlanLintScriptTest, ParseErrorSurfacesAsMalformedFinding) {
  std::istringstream in("auto 3 3 NO_SUCH_WIRE 4 5 S0F3\n");
  const LintReport rep = lintScript(in);
  EXPECT_TRUE(rep.firedRule("lint-malformed"));
  EXPECT_GE(rep.errors(), 1u);
}

TEST(PlanLintScriptTest, UnknownDeviceIsMalformed) {
  std::istringstream in("device XCV9999\nauto 3 3 S1_YQ 4 5 S0F3\n");
  const LintReport rep = lintScript(in);
  EXPECT_TRUE(rep.firedRule("lint-malformed"));
  EXPECT_FALSE(rep.clean());
}

TEST(PlanLintScriptTest, CleanScriptLintsClean) {
  std::istringstream in(
      "device XCV50\n"
      "auto 3 3 S1_YQ 4 5 S0F3\n"
      "unroute 3 3 S1_YQ\n");
  const LintReport rep = lintScript(in);
  EXPECT_TRUE(rep.clean()) << rep.summary();
  EXPECT_TRUE(rep.findings.empty());
}

}  // namespace
}  // namespace jrplan
