// Property-based tests: system invariants under randomized operation
// sequences, parameterized over devices and seeds.
//
// Invariants checked:
//  P1  every live net is a tree reachable from its source (the fabric
//      DRC is clean) after any route/unroute interleaving;
//  P2  the bitstream always equals the fabric (decode(config) == on-PIPs);
//  P3  unroute restores the exact prior configuration, bit for bit;
//  P4  trace/reverseTrace agree with each other and with the net;
//  P5  no call sequence can ever produce a doubly-driven segment;
//  P6  every sequence ends in a state the static DRC analyzer accepts.
#include <gtest/gtest.h>

#include <map>
#include <unordered_set>

#include "analysis/drc.h"
#include "bitstream/decoder.h"
#include "common/rng.h"
#include "core/router.h"
#include "drc_clean.h"
#include "in_edges.h"
#include "workload/generators.h"

namespace jroute {
namespace {

using xcvsim::DeviceSpec;
using xcvsim::Graph;
using xcvsim::PipTable;
using xcvsim::Rng;

struct Param {
  const char* device;
  uint64_t seed;
};

class PropertyTest : public ::testing::TestWithParam<Param> {
 protected:
  // Shared per-device immutable state (graphs are expensive).
  static Graph& graphFor(const std::string& name) {
    static std::map<std::string, std::unique_ptr<Graph>> cache;
    auto& slot = cache[name];
    if (!slot) slot = std::make_unique<Graph>(xcvsim::deviceByName(name));
    return *slot;
  }
  static PipTable& tableFor(const std::string& name) {
    static std::map<std::string, std::unique_ptr<PipTable>> cache;
    auto& slot = cache[name];
    if (!slot) {
      slot = std::make_unique<PipTable>(
          xcvsim::ArchDb{xcvsim::deviceByName(name)});
    }
    return *slot;
  }

  PropertyTest()
      : graph_(graphFor(GetParam().device)),
        fabric_(graph_, tableFor(GetParam().device)),
        router_(fabric_),
        rng_(GetParam().seed) {}

  /// Every decoded configuration PIP corresponds to an on edge and the
  /// counts match (P2).
  void expectBitstreamMatchesFabric() {
    const auto pips = decodePips(fabric_.jbits().bitstream());
    ASSERT_EQ(pips.size(), fabric_.onEdgeCount());
    for (const auto& d : pips) {
      if (d.key.kind == xcvsim::PipKeyKind::GlobalPad) continue;
      xcvsim::NodeId u, v;
      if (d.key.kind == xcvsim::PipKeyKind::TilePip) {
        u = graph_.nodeAt(d.tile, d.key.from);
        v = graph_.nodeAt(d.tile, d.key.to);
      } else {
        const int dc = d.key.kind == xcvsim::PipKeyKind::DirectE ? 1 : -1;
        u = graph_.nodeAt(d.tile, d.key.from);
        v = graph_.nodeAt({d.tile.row, static_cast<int16_t>(d.tile.col + dc)},
                          d.key.to);
      }
      const auto e = graph_.findEdge(u, v, d.tile);
      ASSERT_NE(e, xcvsim::kInvalidEdge);
      EXPECT_TRUE(fabric_.edgeOn(e));
    }
  }

  /// P6: the full static rule set (fabric + router views) accepts the
  /// current state, whatever sequence of operations produced it.
  void expectDrcClean() {
    jrdrc::DrcInput in;
    in.fabric = &fabric_;
    in.router = &router_;
    const jrdrc::DrcReport report = jrdrc::runDrc(in);
    EXPECT_TRUE(report.clean()) << report.summary();
  }

  Graph& graph_;
  xcvsim::Fabric fabric_;
  Router router_;
  Rng rng_;
};

TEST_P(PropertyTest, RandomRouteUnrouteInterleavingKeepsInvariants) {
  const auto& dev = graph_.device();
  const auto mixed =
      workload::makeMixed(dev, 20, 6, 4, 14, GetParam().seed * 7 + 1);
  std::vector<Pin> liveSources;

  // Route everything, interleaving unroutes of random live nets.
  size_t step = 0;
  const auto maybeUnroute = [&] {
    if (!liveSources.empty() && rng_.chance(0.3)) {
      const size_t i = rng_.below(liveSources.size());
      router_.unroute(EndPoint(liveSources[i]));
      liveSources.erase(liveSources.begin() + static_cast<long>(i));
    }
  };
  for (const auto& net : mixed.p2p) {
    try {
      router_.route(EndPoint(net.src), EndPoint(net.sink));
      liveSources.push_back(net.src);
    } catch (const xcvsim::JRouteError&) {
      // Congestion failures are allowed; invariants must still hold.
    }
    maybeUnroute();
    if (++step % 8 == 0) {
      EXPECT_TRUE(jrtest::drcClean(fabric_));  // P1
    }
  }
  for (const auto& net : mixed.fanout) {
    std::vector<EndPoint> sinks;
    for (const Pin& p : net.sinks) sinks.push_back(EndPoint(p));
    try {
      router_.route(EndPoint(net.src), std::span<const EndPoint>(sinks));
      liveSources.push_back(net.src);
    } catch (const xcvsim::JRouteError&) {
    }
    maybeUnroute();
    EXPECT_TRUE(jrtest::drcClean(fabric_));  // P1
  }

  expectBitstreamMatchesFabric();  // P2
  expectDrcClean();                // P6 at peak occupancy

  // Tear everything down; the device must be factory-blank again.
  for (const Pin& src : liveSources) router_.unroute(EndPoint(src));
  EXPECT_EQ(fabric_.onEdgeCount(), 0u);
  EXPECT_EQ(fabric_.usedNodeCount(), 0u);
  EXPECT_EQ(fabric_.jbits().bitstream().popcount(), 0u);  // P3 global
  expectDrcClean();  // P6 on the blank device
}

TEST_P(PropertyTest, UnrouteRestoresExactConfiguration) {
  const auto& dev = graph_.device();
  const auto base = workload::makeP2P(dev, 5, 2, 10, GetParam().seed + 100);
  for (const auto& net : base) {
    router_.route(EndPoint(net.src), EndPoint(net.sink));
  }
  // Snapshot, route one more fanout net, unroute it, compare bit-exact.
  const xcvsim::Bitstream snapshot = fabric_.jbits().bitstream();
  const auto extra =
      workload::makeFanout(dev, 1, 6, 5, GetParam().seed + 200);
  std::vector<EndPoint> sinks;
  for (const Pin& p : extra[0].sinks) sinks.push_back(EndPoint(p));
  try {
    router_.route(EndPoint(extra[0].src), std::span<const EndPoint>(sinks));
  } catch (const xcvsim::JRouteError&) {
    return;  // workload collision with base pins: nothing to verify
  }
  EXPECT_FALSE(snapshot == fabric_.jbits().bitstream());
  router_.unroute(EndPoint(extra[0].src));
  EXPECT_TRUE(snapshot == fabric_.jbits().bitstream());  // P3
  expectDrcClean();                                      // P6
}

TEST_P(PropertyTest, TraceAndReverseTraceAgreeOnEveryNet) {
  const auto& dev = graph_.device();
  const auto nets = workload::makeFanout(dev, 5, 5, 6, GetParam().seed + 300);
  for (const auto& net : nets) {
    std::vector<EndPoint> sinks;
    for (const Pin& p : net.sinks) sinks.push_back(EndPoint(p));
    try {
      router_.route(EndPoint(net.src), std::span<const EndPoint>(sinks));
    } catch (const xcvsim::JRouteError&) {
      continue;
    }
    const NetTrace t = router_.trace(EndPoint(net.src));
    EXPECT_EQ(t.sinks.size(), net.sinks.size());
    std::unordered_set<xcvsim::EdgeId> forward;
    for (const auto& hop : t.hops) forward.insert(hop.edge);
    // P4: every reverse-trace hop from every sink lies in the forward
    // trace, starts at the source, and ends at the sink.
    for (const Pin& sinkPin : net.sinks) {
      const auto back = router_.reverseTrace(EndPoint(sinkPin));
      ASSERT_FALSE(back.empty());
      EXPECT_EQ(back.front().from, t.source);
      EXPECT_EQ(back.back().to, graph_.nodeAt(sinkPin.rc, sinkPin.wire));
      for (const auto& hop : back) {
        EXPECT_TRUE(forward.count(hop.edge));
      }
    }
  }
  expectDrcClean();  // P6
}

TEST_P(PropertyTest, NoSequenceProducesDoubleDrivers) {
  // Adversarial: repeatedly try to extend nets into each other's wires;
  // every acquisition must either succeed with a unique driver or throw.
  const auto& dev = graph_.device();
  const auto nets = workload::makeP2P(dev, 10, 2, 6, GetParam().seed + 400);
  std::vector<Pin> sources;
  for (const auto& net : nets) {
    try {
      router_.route(EndPoint(net.src), EndPoint(net.sink));
      sources.push_back(net.src);
    } catch (const xcvsim::JRouteError&) {
    }
  }
  // Try random raw PIP activations between used/free wires.
  int contentions = 0;
  for (int i = 0; i < 300; ++i) {
    const xcvsim::EdgeId e =
        static_cast<xcvsim::EdgeId>(rng_.below(graph_.numEdges()));
    const auto u = graph_.edgeSource(e);
    if (!fabric_.isUsed(u)) continue;
    try {
      fabric_.turnOn(e, fabric_.netOf(u));
    } catch (const xcvsim::ContentionError&) {
      ++contentions;
    } catch (const xcvsim::ArgumentError&) {
    }
  }
  // P5: whatever happened, driver bookkeeping is intact.
  EXPECT_TRUE(jrtest::drcClean(fabric_));
  const jrtest::InEdges inEdges(graph_);
  for (xcvsim::NodeId n = 0; n < graph_.numNodes(); ++n) {
    int drivers = 0;
    for (const xcvsim::EdgeId eid : inEdges(n)) {
      if (fabric_.edgeOn(eid)) ++drivers;
    }
    ASSERT_LE(drivers, 1) << graph_.nodeName(n);
  }
  (void)contentions;
  expectDrcClean();  // P6 even after adversarial raw PIP attempts
}

INSTANTIATE_TEST_SUITE_P(
    DevicesAndSeeds, PropertyTest,
    ::testing::Values(Param{"XCV50", 1}, Param{"XCV50", 2},
                      Param{"XCV50", 3}, Param{"XCV50", 4},
                      Param{"XCV50", 5}, Param{"XCV50", 6},
                      Param{"XCV100", 1}, Param{"XCV100", 2},
                      Param{"XCV100", 3}, Param{"XCV150", 1},
                      Param{"XCV150", 2}, Param{"XCV200", 1}),
    [](const ::testing::TestParamInfo<Param>& pinfo) {
      return std::string(pinfo.param.device) + "_seed" +
             std::to_string(pinfo.param.seed);
    });

}  // namespace
}  // namespace jroute
