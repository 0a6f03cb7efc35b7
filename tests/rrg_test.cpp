// Unit and property tests for the routing-resource graph: alias resolution,
// segment identity, edge legality, and graph/description consistency.
#include <gtest/gtest.h>

#include <set>

#include "common/error.h"
#include "common/rng.h"
#include "digest.h"
#include "in_edges.h"
#include "rrg/graph.h"

namespace xcvsim {
namespace {

const Graph& xcv300Graph() {
  static const Graph g{xcv300()};
  return g;
}

class GraphTest : public ::testing::Test {
 protected:
  static const Graph& graph() {
    static Graph g{xcv50()};
    return g;
  }
  static const jrtest::InEdges& in() {
    static const jrtest::InEdges in{graph()};
    return in;
  }
};

TEST_F(GraphTest, PaperAliasExample) {
  // SingleEast[5] at (5,7) and SingleWest[5] at (5,8) are the same track
  // (the paper's section 3.1 routing example depends on this).
  const NodeId a = graph().nodeAt({5, 7}, single(Dir::East, 5));
  const NodeId b = graph().nodeAt({5, 8}, single(Dir::West, 5));
  ASSERT_NE(a, kInvalidNode);
  EXPECT_EQ(a, b);
  // And the two names resolve back from the node.
  EXPECT_EQ(graph().aliasAt(a, {5, 7}), single(Dir::East, 5));
  EXPECT_EQ(graph().aliasAt(a, {5, 8}), single(Dir::West, 5));
  EXPECT_EQ(graph().aliasAt(a, {5, 9}), kInvalidLocalWire);
}

TEST_F(GraphTest, VerticalSingleAliases) {
  const NodeId a = graph().nodeAt({5, 8}, single(Dir::North, 0));
  const NodeId b = graph().nodeAt({6, 8}, single(Dir::South, 0));
  ASSERT_NE(a, kInvalidNode);
  EXPECT_EQ(a, b);
}

TEST_F(GraphTest, HexAliasesAtThreeTaps) {
  // East hex originating at (5,6): BEG at col 6, MID at col 9, END at 12.
  const NodeId beg = graph().nodeAt({5, 6}, hex(Dir::East, HexTap::Beg, 4));
  const NodeId mid = graph().nodeAt({5, 9}, hex(Dir::East, HexTap::Mid, 4));
  const NodeId end = graph().nodeAt({5, 12}, hex(Dir::East, HexTap::End, 4));
  ASSERT_NE(beg, kInvalidNode);
  EXPECT_EQ(beg, mid);
  EXPECT_EQ(beg, end);
  const auto taps = graph().tapsOf(beg);
  ASSERT_EQ(taps.size(), 3u);
  EXPECT_EQ(taps[0], (RowCol{5, 6}));
  EXPECT_EQ(taps[1], (RowCol{5, 9}));
  EXPECT_EQ(taps[2], (RowCol{5, 12}));
}

TEST_F(GraphTest, WestAndSouthHexGeometry) {
  const NodeId w = graph().nodeAt({5, 12}, hex(Dir::West, HexTap::Beg, 0));
  ASSERT_NE(w, kInvalidNode);
  EXPECT_EQ(graph().nodeAt({5, 9}, hex(Dir::West, HexTap::Mid, 0)), w);
  EXPECT_EQ(graph().nodeAt({5, 6}, hex(Dir::West, HexTap::End, 0)), w);

  const NodeId s = graph().nodeAt({12, 3}, hex(Dir::South, HexTap::Beg, 7));
  ASSERT_NE(s, kInvalidNode);
  EXPECT_EQ(graph().nodeAt({6, 3}, hex(Dir::South, HexTap::End, 7)), s);
}

TEST_F(GraphTest, LongLineIdentityAlongAxis) {
  // LongHoriz[0] of row 3 is one node at every access column.
  const NodeId l0 = graph().nodeAt({3, 0}, longH(0));
  const NodeId l6 = graph().nodeAt({3, 6}, longH(0));
  ASSERT_NE(l0, kInvalidNode);
  EXPECT_EQ(l0, l6);
  EXPECT_EQ(graph().nodeAt({3, 1}, longH(0)), kInvalidNode);
  EXPECT_NE(l0, graph().nodeAt({4, 0}, longH(0)));
}

TEST_F(GraphTest, GlobalNetsAreChipWide) {
  const NodeId g = graph().nodeAt({0, 0}, gclk(2));
  EXPECT_EQ(g, graph().nodeAt({15, 23}, gclk(2)));
  EXPECT_EQ(graph().aliasAt(g, {7, 7}), gclk(2));
}

TEST_F(GraphTest, InvalidNamesResolveToInvalidNode) {
  EXPECT_EQ(graph().nodeAt({5, 23}, single(Dir::East, 0)), kInvalidNode);
  EXPECT_EQ(graph().nodeAt({5, 18}, hex(Dir::East, HexTap::Beg, 0)),
            kInvalidNode);
  EXPECT_EQ(graph().nodeAt({99, 0}, S0_X), kInvalidNode);
}

TEST_F(GraphTest, InfoRoundTripsThroughNodeAt) {
  Rng rng(42);
  const auto& dev = graph().device();
  for (int i = 0; i < 2000; ++i) {
    const RowCol rc{static_cast<int16_t>(rng.intIn(0, dev.rows - 1)),
                    static_cast<int16_t>(rng.intIn(0, dev.cols - 1))};
    const LocalWire w =
        static_cast<LocalWire>(rng.intIn(0, kNumLocalWires - 1));
    const NodeId n = graph().nodeAt(rc, w);
    if (n == kInvalidNode) continue;
    // The node must be addressable at rc under exactly the name we used.
    EXPECT_EQ(graph().aliasAt(n, rc), w)
        << graph().nodeName(n) << " via " << wireName(w);
  }
}

TEST_F(GraphTest, EveryEdgeEndpointResolvesAtItsTile) {
  Rng rng(7);
  for (int i = 0; i < 3000; ++i) {
    const EdgeId eid = static_cast<EdgeId>(rng.below(graph().numEdges()));
    const Edge& e = graph().edge(eid);
    const NodeId src = graph().edgeSource(eid);
    const RowCol rc = Graph::pipTile(e);
    if (e.fromLocal != kInvalidLocalWire) {
      EXPECT_EQ(graph().nodeAt(rc, e.fromLocal), src);
    }
    const NodeInfo ti = graph().info(e.to);
    if (ti.kind == NodeKind::Logic && graph().aliasAt(e.to, rc) ==
                                          kInvalidLocalWire) {
      // Direct connects land on a neighbouring tile's input pin.
      EXPECT_TRUE(graph().isDirectConnect(e));
      EXPECT_EQ(ti.tile.row, rc.row);
      EXPECT_EQ(std::abs(ti.tile.col - rc.col), 1);
    } else {
      EXPECT_FALSE(graph().isDirectConnect(e));
      EXPECT_EQ(graph().nodeAt(rc, graph().toLocalOf(e)), e.to);
    }
  }
}

TEST_F(GraphTest, ReverseIndexIsConsistent) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const NodeId n = static_cast<NodeId>(rng.below(graph().numNodes()));
    for (EdgeId eid : in()(n)) {
      EXPECT_EQ(graph().edge(eid).to, n);
    }
    for (const Edge& e : graph().out(n)) {
      bool found = false;
      for (EdgeId eid : in()(e.to)) {
        if (graph().edgeSource(eid) == n) found = true;
      }
      EXPECT_TRUE(found);
      break;  // one edge per node is enough for the property
    }
  }
}

TEST_F(GraphTest, SliceOutputsHaveNoIncomingEdges) {
  for (int o = 0; o < kSliceOutputs; ++o) {
    const NodeId n = graph().nodeAt({8, 12}, sliceOut(o));
    EXPECT_TRUE(in()(n).empty());
    EXPECT_FALSE(graph().out(n).empty());
  }
}

TEST_F(GraphTest, ClbInputsHaveNoOutgoingEdges) {
  for (int p = 0; p < kClbInputs; ++p) {
    const NodeId n = graph().nodeAt({8, 12}, clbIn(p));
    EXPECT_TRUE(graph().out(n).empty()) << wireName(clbIn(p));
    EXPECT_FALSE(in()(n).empty()) << wireName(clbIn(p));
  }
}

TEST_F(GraphTest, TravelDirAndTemplateValues) {
  const Graph& g = graph();
  const NodeId s = g.nodeAt({5, 7}, single(Dir::East, 5));
  EXPECT_EQ(g.travelDir(s, {5, 7}), Dir::East);
  EXPECT_EQ(g.travelDir(s, {5, 8}), Dir::West);

  const NodeId h = g.nodeAt({5, 6}, hex(Dir::East, HexTap::Beg, 0));
  EXPECT_EQ(g.travelDir(h, {5, 6}), Dir::East);
  EXPECT_EQ(g.travelDir(h, {5, 12}), Dir::West);  // bidir hex driven at END
}

TEST_F(GraphTest, TemplateValueOfEdges) {
  const Graph& g = graph();
  // Find an OUT -> SingleEast edge at (5,7) and check its template value.
  const NodeId from = g.nodeAt({5, 7}, omux(1));
  bool sawEastSingle = false;
  for (const Edge& e : g.out(from)) {
    const NodeInfo ti = g.info(e.to);
    if (ti.kind == NodeKind::SingleH &&
        g.templateValueOf(e.to, e) == TemplateValue::EAST1 &&
        g.toLocalOf(e) == single(Dir::East, wireIndex(g.toLocalOf(e)))) {
      sawEastSingle = true;
    }
  }
  EXPECT_TRUE(sawEastSingle);
}

TEST_F(GraphTest, FindEdge) {
  const Graph& g = graph();
  const NodeId a = g.nodeAt({5, 7}, sliceOut(7));  // S1_YQ
  const NodeId b = g.nodeAt({5, 7}, omux(1));
  // S1_YQ (o=7) drives OUT[(7+2)%8]=OUT[1] per the OMUX pattern.
  const EdgeId e = g.findEdge(a, b, {5, 7});
  ASSERT_NE(e, kInvalidEdge);
  EXPECT_EQ(g.edge(e).to, b);
  EXPECT_EQ(g.edgeSource(e), a);
  EXPECT_EQ(g.findEdge(b, a), kInvalidEdge);  // no reverse PIP
}

TEST_F(GraphTest, GclkPadsDriveGlobalNets) {
  const Graph& g = graph();
  for (int k = 0; k < kGlobalNets; ++k) {
    const auto o = g.out(g.gclkPad(k));
    ASSERT_EQ(o.size(), 1u);
    EXPECT_EQ(o[0].to, g.gclkNet(k));
    // The net drives CLK pins everywhere.
    bool drivesClk = false;
    for (const Edge& e : g.out(g.gclkNet(k))) {
      const LocalWire to = g.toLocalOf(e);
      if (to == S0CLK || to == S1CLK) drivesClk = true;
    }
    EXPECT_TRUE(drivesClk);
  }
}

TEST_F(GraphTest, NodeDelaysOrdered) {
  const Graph& g = graph();
  const DelayPs s = g.nodeDelay(g.nodeAt({5, 7}, single(Dir::East, 0)));
  const DelayPs h = g.nodeDelay(g.nodeAt({5, 6}, hex(Dir::East, HexTap::Beg, 0)));
  const DelayPs l = g.nodeDelay(g.nodeAt({3, 0}, longH(0)));
  EXPECT_LT(s, h);
  EXPECT_LT(h, l);
}

TEST_F(GraphTest, NodeNames) {
  const Graph& g = graph();
  EXPECT_EQ(g.nodeName(g.nodeAt({5, 7}, single(Dir::East, 5))),
            "R5C7.SingleEast[5]");
  EXPECT_EQ(g.nodeName(g.nodeAt({5, 7}, S1_YQ)), "R5C7.S1_YQ");
}

TEST_F(GraphTest, MemoryAndSizeAreSane) {
  const Graph& g = graph();
  EXPECT_GT(g.numNodes(), 40000u);  // XCV50 is already substantial
  EXPECT_GT(g.numEdges(), g.numNodes());
  EXPECT_GT(g.memoryBytes(), size_t{1} << 20);
}

TEST_F(GraphTest, EveryEdgeIsOwnedByItsDerivedSource) {
  // edgeSource is derived from (tile, fromLocal), not stored: every edge in
  // a node's CSR range must derive back to that node.
  const Graph& big = xcv300Graph();
  for (const Graph* g : {&graph(), &big}) {
    SCOPED_TRACE(std::string(g->device().name));
    size_t wrong = 0;
    for (NodeId n = 0; n < g->numNodes(); ++n) {
      for (EdgeId e = g->outBegin(n); e < g->outEnd(n); ++e) {
        if (g->edgeSource(e) != n) ++wrong;
      }
    }
    EXPECT_EQ(wrong, 0u);
  }
}

TEST_F(GraphTest, EveryEdgeCarriesItsTargetsTemplateValue) {
  // The build stores each target's template value from a per-alias table;
  // it must equal the derivation for every edge, direct connects and the
  // global pad drivers included.
  const Graph& big = xcv300Graph();
  for (const Graph* g : {&graph(), &big}) {
    SCOPED_TRACE(std::string(g->device().name));
    size_t wrong = 0;
    for (EdgeId e = 0; e < g->numEdges(); ++e) {
      const Edge& ed = g->edge(e);
      if (ed.templateValue() != g->templateValueOf(ed.to, ed)) ++wrong;
    }
    EXPECT_EQ(wrong, 0u);
  }
}

TEST(GraphBuild, RejectsTooSmallDevices) {
  DeviceSpec tiny{"tiny", 4, 4};
  EXPECT_THROW(Graph{tiny}, ArgumentError);
}

TEST(GraphBuild, RejectsTilesBeyondTheEdgeField) {
  // Edge::tileRow/tileCol are 8-bit.
  EXPECT_THROW((Graph{DeviceSpec{"tall", 256, 24}}), ArgumentError);
  EXPECT_THROW((Graph{DeviceSpec{"wide", 16, 256}}), ArgumentError);
}

// A later per-edge array would push the model back toward the 20 bytes
// per edge it once spent (a 12-byte edge, a source table, a reverse
// index); the graph is an 8-byte edge plus per-node tables.
TEST(GraphBuild, FootprintPerEdge) {
  const Graph small{xcv50()};
  for (const Graph* g : {&small, &xcv300Graph()}) {
    SCOPED_TRACE(std::string(g->device().name));
    const double perEdge = static_cast<double>(g->memoryBytes()) /
                           static_cast<double>(g->numEdges());
    EXPECT_LE(perEdge, 9.0);
  }
}

// Golden digest of the XCV300 graph: every edge's target, tile, local
// aliases and source, then every node's incoming edge ids. The value was
// pinned from the per-tile enumeration the class-pattern build replaced,
// when every one of these facts was stored (16-bit tile fields, the target
// alias, a source table, a reverse index). Hashing the derived values at
// the same widths proves the compact graph is the same graph (and
// therefore gives identical routes and bitstreams).
TEST(GraphBuild, Xcv300MatchesPinnedDigest) {
  const Graph& g = xcv300Graph();
  jrtest::Fnv1a h;
  h.add(g.numNodes());
  h.add(g.numEdges());
  for (EdgeId e = 0; e < g.numEdges(); ++e) {
    const Edge& ed = g.edge(e);
    h.add(ed.to);
    h.add(static_cast<uint16_t>(ed.tileRow));
    h.add(static_cast<uint16_t>(ed.tileCol));
    h.add(ed.fromLocal);
    h.add(g.toLocalOf(ed));
    h.add(g.edgeSource(e));
  }
  const jrtest::InEdges inEdges(g);
  for (NodeId n = 0; n < g.numNodes(); ++n) {
    const auto in = inEdges(n);
    h.add(static_cast<uint32_t>(in.size()));
    for (const EdgeId e : in) h.add(e);
  }
  EXPECT_EQ(h.value(), 0xdf674ec134e69804ull) << std::hex << h.value();
}

}  // namespace
}  // namespace xcvsim
