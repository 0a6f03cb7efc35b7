// Tests for the I/O block ring (the paper's section 6 future-work item,
// implemented): pad wires exist only on boundary tiles, pads source and
// sink nets through the regular JRoute calls, and IOPAD templates work.
#include <gtest/gtest.h>

#include <set>

#include "arch/patterns.h"
#include "core/router.h"
#include "drc_clean.h"
#include "in_edges.h"

namespace jroute {
namespace {

using xcvsim::Dir;
using xcvsim::Graph;
using xcvsim::iobIn;
using xcvsim::iobOut;
using xcvsim::kIobsPerTile;
using xcvsim::PipTable;
using xcvsim::RowCol;
using xcvsim::TemplateValue;
using xcvsim::WireKind;
using xcvsim::wireIndex;
using xcvsim::wireKind;
using xcvsim::wireName;

class IobTest : public ::testing::Test {
 protected:
  static const Graph& graph() {
    static Graph g{xcvsim::xcv50()};
    return g;
  }
  static const PipTable& table() {
    static PipTable t{xcvsim::ArchDb{xcvsim::xcv50()}};
    return t;
  }
  IobTest() : fabric_(graph(), table()), router_(fabric_) {}

  xcvsim::Fabric fabric_;
  Router router_;
};

TEST_F(IobTest, WireNamespace) {
  EXPECT_EQ(wireKind(iobIn(0)), WireKind::IobIn);
  EXPECT_EQ(wireKind(iobOut(2)), WireKind::IobOut);
  EXPECT_EQ(wireIndex(iobIn(1)), 1);
  EXPECT_EQ(wireName(iobIn(1)), "IOB_I[1]");
  EXPECT_EQ(wireName(iobOut(2)), "IOB_O[2]");
}

TEST_F(IobTest, ExistOnlyOnBoundaryTiles) {
  const xcvsim::ArchDb db{xcvsim::xcv50()};
  for (int k = 0; k < kIobsPerTile; ++k) {
    EXPECT_TRUE(db.existsAt({0, 5}, iobIn(k)));     // south edge
    EXPECT_TRUE(db.existsAt({15, 5}, iobOut(k)));   // north edge
    EXPECT_TRUE(db.existsAt({7, 0}, iobIn(k)));     // west edge
    EXPECT_TRUE(db.existsAt({7, 23}, iobOut(k)));   // east edge
    EXPECT_TRUE(db.existsAt({0, 0}, iobIn(k)));     // corner
    EXPECT_FALSE(db.existsAt({7, 7}, iobIn(k)));    // interior
    EXPECT_FALSE(db.existsAt({1, 1}, iobOut(k)));
  }
}

TEST_F(IobTest, NodeIdentityRoundTrips) {
  // Every boundary tile resolves each IOB wire to a unique node that
  // decodes back to the same tile and track.
  const auto& dev = graph().device();
  std::set<xcvsim::NodeId> seen;
  for (int16_t r = 0; r < dev.rows; ++r) {
    for (int16_t c = 0; c < dev.cols; ++c) {
      const RowCol rc{r, c};
      const bool boundary = xcvsim::isBoundaryTile(dev, rc);
      for (int k = 0; k < kIobsPerTile; ++k) {
        const auto n = graph().nodeAt(rc, iobIn(k));
        if (!boundary) {
          EXPECT_EQ(n, xcvsim::kInvalidNode);
          continue;
        }
        ASSERT_NE(n, xcvsim::kInvalidNode);
        EXPECT_TRUE(seen.insert(n).second);
        const auto inf = graph().info(n);
        EXPECT_EQ(inf.kind, xcvsim::NodeKind::IobIn);
        EXPECT_EQ(inf.tile, rc);
        EXPECT_EQ(inf.track, k);
        EXPECT_EQ(graph().aliasAt(n, rc), iobIn(k));
      }
    }
  }
  EXPECT_EQ(seen.size(),
            static_cast<size_t>(graph().numBoundaryTiles() * kIobsPerTile));
}

TEST_F(IobTest, PerimeterIndexIsABijection) {
  const auto& dev = graph().device();
  std::set<int> indices;
  for (int16_t r = 0; r < dev.rows; ++r) {
    for (int16_t c = 0; c < dev.cols; ++c) {
      const int p = graph().perimeterIndex({r, c});
      if (xcvsim::isBoundaryTile(dev, {r, c})) {
        EXPECT_GE(p, 0);
        EXPECT_LT(p, graph().numBoundaryTiles());
        EXPECT_TRUE(indices.insert(p).second);
      } else {
        EXPECT_EQ(p, -1);
      }
    }
  }
  EXPECT_EQ(static_cast<int>(indices.size()), graph().numBoundaryTiles());
}

TEST_F(IobTest, PadDrivesIntoFabric) {
  // Route from a pad input on the west edge to a CLB pin 3 tiles in.
  const Pin pad(7, 0, iobIn(1));
  const Pin sink(8, 3, xcvsim::S0F2);
  router_.route(EndPoint(pad), EndPoint(sink));
  EXPECT_TRUE(router_.isOn(7, 0, iobIn(1)));
  const auto t = router_.trace(EndPoint(pad));
  ASSERT_EQ(t.sinks.size(), 1u);
  EXPECT_EQ(t.sinks[0], graph().nodeAt(sink.rc, sink.wire));
  EXPECT_TRUE(jrtest::drcClean(fabric_));
}

TEST_F(IobTest, FabricDrivesPadOutput) {
  // CLB output to a pad output on the north edge.
  const Pin src(13, 10, xcvsim::S1_YQ);
  const Pin pad(15, 10, iobOut(0));
  router_.route(EndPoint(src), EndPoint(pad));
  EXPECT_TRUE(router_.isOn(15, 10, iobOut(0)));
  const auto back = router_.reverseTrace(EndPoint(pad));
  EXPECT_EQ(back.front().from, graph().nodeAt(src.rc, src.wire));
  EXPECT_TRUE(jrtest::drcClean(fabric_));
}

TEST_F(IobTest, TemplateWithIopadValue) {
  // {EAST1, IOPAD}: pad input one column from the east edge pin... the
  // natural direction is a CLB output driving east to the edge pad.
  Template tmpl{TemplateValue::OUTMUX, TemplateValue::EAST1,
                TemplateValue::IOPAD};
  router_.route(Pin(7, 22, xcvsim::S1_YQ), iobOut(0), tmpl);
  EXPECT_TRUE(router_.isOn(7, 23, iobOut(0)));
}

TEST_F(IobTest, PadFanoutAcrossTheDie) {
  // One pad drives several CLB inputs — an input pin distribution net.
  const Pin pad(0, 12, iobIn(2));
  const std::vector<EndPoint> sinks{EndPoint(Pin(2, 10, xcvsim::S0F1)),
                                    EndPoint(Pin(3, 14, xcvsim::S0G1)),
                                    EndPoint(Pin(5, 12, xcvsim::S1F1))};
  router_.route(EndPoint(pad), std::span<const EndPoint>(sinks));
  EXPECT_EQ(router_.trace(EndPoint(pad)).sinks.size(), 3u);
  router_.unroute(EndPoint(pad));
  EXPECT_EQ(fabric_.usedNodeCount(), 0u);
  EXPECT_EQ(fabric_.jbits().bitstream().popcount(), 0u);
}

TEST_F(IobTest, PadOutputsHaveNoFanoutIntoFabric) {
  const jrtest::InEdges inEdges(graph());
  for (const RowCol rc : {RowCol{0, 3}, RowCol{15, 20}, RowCol{9, 0}}) {
    for (int k = 0; k < kIobsPerTile; ++k) {
      const auto out = graph().nodeAt(rc, iobOut(k));
      ASSERT_NE(out, xcvsim::kInvalidNode);
      EXPECT_TRUE(graph().out(out).empty());
      EXPECT_FALSE(inEdges(out).empty());
      const auto in = graph().nodeAt(rc, iobIn(k));
      EXPECT_TRUE(inEdges(in).empty());
      EXPECT_FALSE(graph().out(in).empty());
    }
  }
}

TEST_F(IobTest, PadToPadThroughTheFabric) {
  // Loopback: west pad in -> east pad out straight across the device.
  const Pin in(8, 0, iobIn(0));
  const Pin out(8, 23, iobOut(0));
  router_.route(EndPoint(in), EndPoint(out));
  const auto back = router_.reverseTrace(EndPoint(out));
  EXPECT_GE(back.size(), 4u);  // spans 23 columns
  EXPECT_TRUE(jrtest::drcClean(fabric_));
}

}  // namespace
}  // namespace jroute
