// Tests for the two design interchange formats: binary bitfiles (full and
// partial configuration streams) and the textual routed netlist.
#include <gtest/gtest.h>

#include <sstream>

#include "bitstream/bitfile.h"
#include "bitstream/decoder.h"
#include "cores/const_adder.h"
#include "drc_clean.h"
#include "rtr/manager.h"
#include "rtr/netlist.h"
#include "workload/generators.h"

namespace jroute {
namespace {

using xcvsim::BitfileHeader;
using xcvsim::Bitstream;
using xcvsim::BitstreamError;
using xcvsim::Graph;
using xcvsim::PipTable;
using xcvsim::readBitfile;
using xcvsim::readBitfileHeader;
using xcvsim::readBitfilePackets;
using xcvsim::writeBitfile;
using xcvsim::writePartialBitfile;

class SerializationTest : public ::testing::Test {
 protected:
  static const Graph& graph() {
    static Graph g{xcvsim::xcv50()};
    return g;
  }
  static const PipTable& table() {
    static PipTable t{xcvsim::ArchDb{xcvsim::xcv50()}};
    return t;
  }
  SerializationTest() : fabric_(graph(), table()), router_(fabric_) {}

  void routeSomething() {
    for (const auto& net :
         workload::makeP2P(graph().device(), 6, 2, 10, 99)) {
      router_.route(EndPoint(net.src), EndPoint(net.sink));
    }
  }

  xcvsim::Fabric fabric_;
  Router router_;
};

// --- Bitfiles ----------------------------------------------------------------

TEST_F(SerializationTest, FullBitfileRoundTrip) {
  routeSomething();
  std::stringstream file;
  writeBitfile(file, fabric_.jbits().bitstream(), "testdesign");

  Bitstream other(graph().device(), table());
  const BitfileHeader h = readBitfile(file, other);
  EXPECT_EQ(h.design, "testdesign");
  EXPECT_EQ(h.device, "XCV50");
  EXPECT_TRUE(other == fabric_.jbits().bitstream());
}

TEST_F(SerializationTest, ZeroFramesAreSkipped) {
  routeSomething();
  std::stringstream file;
  writeBitfile(file, fabric_.jbits().bitstream(), "sparse");
  const BitfileHeader h = readBitfileHeader(file);
  // A handful of nets touch far fewer frames than the device holds.
  EXPECT_GT(h.packetCount, 0u);
  EXPECT_LT(h.packetCount, static_cast<uint32_t>(
                               fabric_.jbits().bitstream().numFrames() / 4));
}

TEST_F(SerializationTest, PartialBitfileReplaysOntoConfiguredDevice) {
  // Configure a base design; snapshot; add a net; capture only the delta.
  routeSomething();
  std::stringstream base;
  writeBitfile(base, fabric_.jbits().bitstream(), "base");

  fabric_.jbits().bitstream().clearDirty();
  router_.route(EndPoint(Pin(2, 2, xcvsim::S0_X)),
                EndPoint(Pin(2, 6, xcvsim::S0F1)));
  const auto delta = dirtyPackets(fabric_.jbits().bitstream());
  std::stringstream partial;
  writePartialBitfile(partial, graph().device(), delta, "delta");

  // Rebuild: base bitfile, then the partial on top.
  Bitstream other(graph().device(), table());
  readBitfile(base, other);
  const auto packets = readBitfilePackets(partial);
  applyPackets(other, packets);
  EXPECT_TRUE(other == fabric_.jbits().bitstream());
}

TEST_F(SerializationTest, BitfileErrorPaths) {
  routeSomething();
  std::stringstream file;
  writeBitfile(file, fabric_.jbits().bitstream(), "x");
  std::string raw = file.str();

  // Bad magic.
  {
    std::string bad = raw;
    bad[0] = 'Z';
    std::stringstream is(bad);
    Bitstream other(graph().device(), table());
    EXPECT_THROW(readBitfile(is, other), BitstreamError);
  }
  // Flipped payload bit: packet CRC (or stream CRC) catches it.
  {
    std::string bad = raw;
    bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x10);
    std::stringstream is(bad);
    Bitstream other(graph().device(), table());
    EXPECT_THROW(readBitfile(is, other), BitstreamError);
  }
  // Truncation.
  {
    std::stringstream is(raw.substr(0, raw.size() / 2));
    Bitstream other(graph().device(), table());
    EXPECT_THROW(readBitfile(is, other), BitstreamError);
  }
  // Device mismatch.
  {
    static Graph g300{xcvsim::xcv300()};
    static PipTable t300{xcvsim::ArchDb{xcvsim::xcv300()}};
    std::stringstream is(raw);
    Bitstream other(xcvsim::xcv300(), t300);
    EXPECT_THROW(readBitfile(is, other), BitstreamError);
  }
}

// --- Netlists ----------------------------------------------------------------

TEST_F(SerializationTest, NetlistRoundTripReproducesConfiguration) {
  routeSomething();
  const std::string netlist = exportNetlist(fabric_);
  EXPECT_NE(netlist.find("net "), std::string::npos);
  EXPECT_NE(netlist.find("pip "), std::string::npos);

  // Replay on a second fabric; configurations must match bit for bit.
  xcvsim::Fabric other(graph(), table());
  std::istringstream is(netlist);
  const int nets = importNetlist(other, is);
  EXPECT_EQ(nets, 6);
  EXPECT_TRUE(jrtest::drcClean(other));
  EXPECT_TRUE(other.jbits().bitstream() == fabric_.jbits().bitstream());
}

TEST_F(SerializationTest, NetlistCoversCoresAndDirectConnects) {
  RtrManager mgr(router_);
  ConstAdder adder(8, 5);
  mgr.install(adder, {4, 4});  // carry chain uses feedback/direct connects
  const std::string netlist = exportNetlist(fabric_);

  xcvsim::Fabric other(graph(), table());
  std::istringstream is(netlist);
  importNetlist(other, is);
  EXPECT_EQ(other.onEdgeCount(), fabric_.onEdgeCount());
  EXPECT_TRUE(jrtest::drcClean(other));
}

TEST_F(SerializationTest, NetlistGlobalClockNets) {
  const auto net = fabric_.createNet(graph().gclkPad(2), "clk2");
  fabric_.turnOn(graph().findEdge(graph().gclkPad(2), graph().gclkNet(2)),
                 net);
  fabric_.turnOn(
      graph().findEdge(graph().gclkNet(2),
                       graph().nodeAt({3, 3}, xcvsim::S0CLK), {3, 3}),
      net);
  const std::string netlist = exportNetlist(fabric_);
  EXPECT_NE(netlist.find("netpad clk2 2"), std::string::npos);

  xcvsim::Fabric other(graph(), table());
  std::istringstream is(netlist);
  EXPECT_EQ(importNetlist(other, is), 1);
  EXPECT_TRUE(other.isUsed(graph().nodeAt({3, 3}, xcvsim::S0CLK)));
}

TEST_F(SerializationTest, NetlistErrorPaths) {
  xcvsim::Fabric other(graph(), table());
  {
    std::istringstream is("pip 1 1 0 8\n");  // pip before any net
    EXPECT_THROW(importNetlist(other, is), xcvsim::ArgumentError);
  }
  {
    std::istringstream is("net n 1 1 0\npip 1 1 16 0\nend\n");  // bad PIP
    EXPECT_THROW(importNetlist(other, is), xcvsim::ArgumentError);
  }
  {
    std::istringstream is("bogus directive\n");
    EXPECT_THROW(importNetlist(other, is), xcvsim::ArgumentError);
  }
  EXPECT_EQ(other.liveNetCount(), 0u);  // net n went with its bad PIP
  // Out-of-range numbers are errors, never reads past the graph or
  // silent 16-bit wraps onto a real tile or wire (65539 would be 3).
  for (const char* text :
       {"netpad n 0\npad 1000000000\nend\n", "netpad n 0\npad -1\nend\n",
        "net a 65539 3 2\nend\n", "net a 3 65539 2\nend\n",
        "net a 3 3 65538\nend\n", "net n 1 1 0\npip 65537 1 0 8\nend\n",
        "net n 1 1 0\npipx 1 1 0 1 65538 8\nend\n"}) {
    SCOPED_TRACE(text);
    xcvsim::Fabric blank(graph(), table());
    std::istringstream is(text);
    EXPECT_THROW(importNetlist(blank, is), xcvsim::ArgumentError);
    // All or nothing: the net the failing line belongs to is gone too.
    EXPECT_EQ(blank.liveNetCount(), 0u);
    EXPECT_EQ(blank.usedNodeCount(), 0u);
    EXPECT_TRUE(jrtest::drcClean(blank));
  }
}

TEST_F(SerializationTest, FailedNetlistImportLeavesTheFabricAsItWas) {
  // A routed net already on the fabric, then a netlist whose first net
  // routes cleanly and whose second fails on its last line: the import
  // must remove both of its nets and leave the first one alone.
  router_.route(EndPoint(Pin(5, 7, xcvsim::S1_YQ)),
                EndPoint(Pin(6, 8, xcvsim::S0F3)));
  xcvsim::Fabric scratch(graph(), table());
  Router other(scratch);
  other.route(EndPoint(Pin(2, 2, xcvsim::S1_YQ)),
              EndPoint(Pin(3, 4, xcvsim::S0F1)));
  const std::string good = exportNetlist(scratch);
  const size_t nets = fabric_.liveNetCount();
  const size_t used = fabric_.usedNodeCount();
  const size_t on = fabric_.onEdgeCount();
  const std::string netlist = exportNetlist(fabric_);
  ASSERT_TRUE(jrtest::drcClean(fabric_));
  for (const std::string& text :
       {good + "netpad n 0\npad 1000000000\nend\n",
        good + "netpad n 0\npad 1\nbogus\n"}) {
    SCOPED_TRACE(text);
    std::istringstream is(text);
    EXPECT_THROW(importNetlist(fabric_, is), xcvsim::ArgumentError);
    EXPECT_EQ(fabric_.liveNetCount(), nets);
    EXPECT_EQ(fabric_.usedNodeCount(), used);
    EXPECT_EQ(fabric_.onEdgeCount(), on);
    EXPECT_EQ(exportNetlist(fabric_), netlist);
    EXPECT_TRUE(jrtest::drcClean(fabric_));
  }
}

TEST_F(SerializationTest, NetlistImportCollisionThrows) {
  router_.route(EndPoint(Pin(5, 7, xcvsim::S1_YQ)),
                EndPoint(Pin(6, 8, xcvsim::S0F3)));
  const std::string netlist = exportNetlist(fabric_);
  // Re-importing onto the same fabric collides with the live net.
  std::istringstream is(netlist);
  EXPECT_THROW(importNetlist(fabric_, is), xcvsim::ContentionError);
}

}  // namespace
}  // namespace jroute
