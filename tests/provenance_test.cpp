// Observability tests: per-net provenance and congestion heatmaps.
//
// Three things are covered. (1) The pure data layer — NetProvenance
// renderers, Heatmap ASCII/JSON — is tested with exact golden strings:
// jrsh `why` and `heatmap json` print these verbatim, so their format is
// contract, not incident. (2) The service's net table — every net
// committed through the engine has exactly one record, in the service
// that routed it, updated on extension and forgotten on unroute —
// including a multi-threaded submission test that tier-1 runs under TSAN
// ("Obs" in the suite names keeps these inside the sanitizer ctest
// filters). Records are service state, so these hold in both build
// modes. (3) A contention rejection leads, through the contested wire's
// net, to the holder's record.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/congestion.h"
#include "arch/wires.h"
#include "json_validator.h"
#include "obs/heatmap.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "service/service.h"

namespace jrsvc {
namespace {

using jrobs::Heatmap;
using jrobs::NetProvenance;
using jroute::EndPoint;
using jroute::Pin;
using jrtest::validJson;
using xcvsim::clbIn;
using xcvsim::Fabric;
using xcvsim::Graph;
using xcvsim::kInvalidNode;
using xcvsim::NodeId;
using xcvsim::PipTable;
using xcvsim::S0_Y;
using xcvsim::S0_YQ;
using xcvsim::S0F1;
using xcvsim::S1_YQ;

// --- Renderers: golden output ----------------------------------------------
// jrsh prints these verbatim; the exact strings are the interface.

NetProvenance sampleRecord() {
  NetProvenance rec;
  rec.netSource = 1234;
  rec.netName = "net_7";
  rec.requestId = 42;
  rec.sessionId = 3;
  rec.op = "p2p";
  rec.algorithm = "template";
  rec.selector = "mixed";
  rec.parallel = true;
  rec.pips = 6;
  rec.sinks = 1;
  rec.searchVisits = 44;
  rec.latencyUs = 120;
  rec.txn = "committed";
  rec.drc = "pass";
  rec.updates = 1;
  rec.seq = 9;
  return rec;
}

TEST(ObsProvenanceGolden, WhyTextRendersExactly) {
  EXPECT_EQ(sampleRecord().text(),
            "net net_7 (source node 1234)\n"
            "  request   #42 session 3 op p2p\n"
            "  algorithm template (parallel plan), selector mixed\n"
            "  effort    44 nodes visited\n"
            "  result    6 pips across 1 sink(s), latency 120 us\n"
            "  outcome   txn committed, drc pass, updated 1x (seq 9)\n");

  // The serialized / never-updated variant drops its optional clauses.
  NetProvenance plain = sampleRecord();
  plain.parallel = false;
  plain.updates = 0;
  EXPECT_NE(
      plain.text().find("  algorithm template (serialized), selector mixed\n"),
      std::string::npos);
  EXPECT_EQ(plain.text().find("updated"), std::string::npos);
}

TEST(ObsProvenanceGolden, JsonRendersExactlyAndValidates) {
  const std::string json = sampleRecord().json();
  EXPECT_EQ(json,
            "{\"net_source\":1234,\"net_name\":\"net_7\",\"request_id\":42,"
            "\"session_id\":3,\"op\":\"p2p\",\"algorithm\":\"template\","
            "\"selector\":\"mixed\",\"parallel\":true,\"pips\":6,"
            "\"sinks\":1,\"search_visits\":44,\"latency_us\":120,"
            "\"txn\":\"committed\",\"drc\":\"pass\",\"updates\":1,\"seq\":9}");
  EXPECT_TRUE(validJson(json));
}

TEST(ObsHeatmapGolden, AsciiAndJsonRenderExactly) {
  Heatmap h;
  h.title = "t";
  h.gridRows = 2;
  h.gridCols = 3;
  h.cellRows = 4;
  h.cellCols = 4;
  h.values = {0, 1, 2, 0, 0, 4};
  EXPECT_EQ(h.maxValue(), 4u);
  EXPECT_EQ(h.total(), 7u);
  EXPECT_EQ(h.ascii(),
            "t (2x3 cells of 4x4 tiles, max=4, total=7)\n"
            "   .-\n"
            "    #\n"
            "  legend: ' '=0 '@'<=4\n");
  const std::string json = h.json();
  EXPECT_EQ(json,
            "{\"heatmap\":{\"title\":\"t\",\"grid_rows\":2,\"grid_cols\":3,"
            "\"cell_rows\":4,\"cell_cols\":4,\"max\":4,\"total\":7,"
            "\"cells\":[[0,1,2],[0,0,4]]}}");
  EXPECT_TRUE(validJson(json));
}

TEST(ObsProvenanceGolden, AlgorithmClassification) {
  using jrobs::classifyAlgorithm;
  EXPECT_STREQ(classifyAlgorithm(0, 0, 0), "reuse");
  EXPECT_STREQ(classifyAlgorithm(2, 0, 0), "template");
  EXPECT_STREQ(classifyAlgorithm(0, 0, 3), "shape-hint");
  EXPECT_STREQ(classifyAlgorithm(0, 1, 0), "maze");
  EXPECT_STREQ(classifyAlgorithm(1, 1, 0), "mixed");
  EXPECT_STREQ(classifyAlgorithm(0, 1, 1), "mixed");
}

// --- Service wiring ---------------------------------------------------------

class ObsServiceTest : public ::testing::Test {
 protected:
  static const Graph& graph() {
    static Graph g{xcvsim::xcv50()};
    return g;
  }
  static const PipTable& table() {
    static PipTable t{xcvsim::ArchDb{xcvsim::xcv50()}};
    return t;
  }

  ObsServiceTest() : fabric_(graph(), table()) {}

  Fabric fabric_;
};

TEST_F(ObsServiceTest, CommittedNetsLeaveOneRecordUpdatedAndForgotten) {
  ServiceOptions opts;
  opts.manualPump = true;
  opts.planThreads = 1;
  RoutingService svc(fabric_, opts);
  Session s = svc.openSession();

  auto routed = s.routeAsync(EndPoint(Pin(3, 3, S1_YQ)),
                             EndPoint(Pin(4, 5, clbIn(2))));
  svc.pumpOnce();
  const RouteResult res = routed.get();
  ASSERT_TRUE(res.ok());
  ASSERT_NE(res.netSource, kInvalidNode);

  auto rec = svc.provenance(res.netSource);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->netSource, res.netSource);
  EXPECT_EQ(rec->netName, fabric_.netName(fabric_.netOf(res.netSource)));
  EXPECT_GT(rec->requestId, 0u);
  EXPECT_EQ(rec->sessionId, s.id());
  EXPECT_EQ(rec->op, "p2p");
  EXPECT_EQ(rec->txn, "committed");
  EXPECT_GT(rec->pips, 0u);
  EXPECT_EQ(rec->sinks, 1u);
  EXPECT_EQ(rec->updates, 0u);
  const std::set<std::string> algos{"template", "shape-hint", "maze", "mixed",
                                    "reuse"};
  EXPECT_TRUE(algos.count(rec->algorithm)) << rec->algorithm;
  EXPECT_TRUE(validJson(rec->json()));
  ASSERT_TRUE(svc.lastCommit().has_value());
  EXPECT_EQ(svc.lastCommit()->netSource, res.netSource);

  // Extending the net replaces the record (exactly one per net) and
  // bumps `updates`; the newest request's view wins.
  auto grew = s.fanoutAsync(EndPoint(Pin(3, 3, S1_YQ)),
                            {EndPoint(Pin(5, 6, clbIn(3)))});
  svc.pumpOnce();
  ASSERT_TRUE(grew.get().ok());
  const uint64_t firstSeq = rec->seq;
  rec = svc.provenance(res.netSource);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->op, "fanout");
  EXPECT_EQ(rec->updates, 1u);
  EXPECT_GT(rec->seq, firstSeq);

  // Unrouting forgets: `why` on a freed net must not explain stale state.
  auto freed = s.unrouteAsync(EndPoint(Pin(3, 3, S1_YQ)));
  svc.pumpOnce();
  ASSERT_TRUE(freed.get().ok());
  EXPECT_FALSE(svc.provenance(res.netSource).has_value());
  EXPECT_FALSE(svc.lastCommit().has_value());
}

TEST_F(ObsServiceTest, LastCommitFallsBackWhenTheNewestNetIsUnrouted) {
  ServiceOptions opts;
  opts.manualPump = true;
  opts.planThreads = 1;
  RoutingService svc(fabric_, opts);
  Session s = svc.openSession();
  auto older = s.routeAsync(EndPoint(Pin(3, 3, S1_YQ)),
                            EndPoint(Pin(4, 5, clbIn(2))));
  svc.pumpOnce();
  auto newer = s.routeAsync(EndPoint(Pin(9, 9, S1_YQ)),
                            EndPoint(Pin(10, 11, clbIn(1))));
  svc.pumpOnce();
  const RouteResult a = older.get(), b = newer.get();
  ASSERT_TRUE(a.ok()) << a.detail;
  ASSERT_TRUE(b.ok()) << b.detail;
  ASSERT_TRUE(svc.lastCommit().has_value());
  EXPECT_EQ(svc.lastCommit()->netSource, b.netSource);

  auto freed = s.unrouteAsync(EndPoint(Pin(9, 9, S1_YQ)));
  svc.pumpOnce();
  ASSERT_TRUE(freed.get().ok());
  const auto last = svc.lastCommit();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->netSource, a.netSource);
  EXPECT_EQ(last->requestId, svc.provenance(a.netSource)->requestId);
}

TEST_F(ObsServiceTest, TwoServicesKeepTheirOwnProvenance) {
  // Records live in the service that routed the net: the same source pin
  // routed on two fabrics is one node id in both, and neither service's
  // commit touches the other's record.
  Fabric otherFabric(graph(), table());
  ServiceOptions opts;
  opts.manualPump = true;
  opts.planThreads = 1;
  RoutingService svcA(fabric_, opts);
  RoutingService svcB(otherFabric, opts);
  Session alice = svcA.openSession();
  svcB.openSession();  // Bob's session and request ids differ from Alice's
  Session bob = svcB.openSession();
  auto warmup = bob.routeAsync(EndPoint(Pin(9, 9, S1_YQ)),
                               EndPoint(Pin(10, 11, clbIn(1))));
  svcB.pumpOnce();
  ASSERT_TRUE(warmup.get().ok());

  const EndPoint src(Pin(3, 3, S1_YQ)), sink(Pin(4, 5, clbIn(2)));
  auto ra = alice.routeAsync(src, sink);
  svcA.pumpOnce();
  auto rb = bob.routeAsync(src, sink);
  svcB.pumpOnce();
  const RouteResult a = ra.get(), b = rb.get();
  ASSERT_TRUE(a.ok()) << a.detail;
  ASSERT_TRUE(b.ok()) << b.detail;
  ASSERT_EQ(a.netSource, b.netSource);

  const auto recA = svcA.provenance(a.netSource);
  const auto recB = svcB.provenance(b.netSource);
  ASSERT_TRUE(recA.has_value());
  ASSERT_TRUE(recB.has_value());
  EXPECT_EQ(recA->sessionId, alice.id());
  EXPECT_EQ(recB->sessionId, bob.id());
  EXPECT_NE(recA->sessionId, recB->sessionId);
  EXPECT_EQ(recA->requestId, 1u);
  EXPECT_EQ(recB->requestId, 2u);
  EXPECT_EQ(recA->updates, 0u);
  EXPECT_EQ(recB->updates, 0u);
}

TEST_F(ObsServiceTest, OccupancyHeatmapMatchesFabricUsage) {
  ServiceOptions opts;
  opts.manualPump = true;
  opts.planThreads = 1;
  RoutingService svc(fabric_, opts);
  Session s = svc.openSession();
  auto routed = s.routeAsync(EndPoint(Pin(3, 3, S1_YQ)),
                             EndPoint(Pin(4, 5, clbIn(2))));
  svc.pumpOnce();
  ASSERT_TRUE(routed.get().ok());

  // Occupancy is a fabric read, not telemetry: it works in both build
  // modes and its total is exactly the number of in-use nodes.
  const Heatmap occ = svc.occupancy();
  EXPECT_EQ(occ.gridRows, 4);  // xcv50: 16x24 tiles in 4x4 cells
  EXPECT_EQ(occ.gridCols, 6);
  EXPECT_EQ(occ.total(), fabric_.usedNodeCount());
  EXPECT_GT(occ.total(), 0u);
  EXPECT_TRUE(validJson(occ.json()));
}

TEST_F(ObsServiceTest, ConcurrentSubmissionsLeaveExactlyOneRecordPerNet) {
  // The TSAN target: client threads race the engine thread and the
  // parallel planners; afterwards every committed net has exactly one
  // provenance record and every rejected request left none.
  ServiceOptions opts;
  opts.planThreads = 2;
  RoutingService svc(fabric_, opts);

  constexpr int kThreads = 4;
  constexpr int kReqs = 6;
  std::vector<Session> sessions;
  for (int t = 0; t < kThreads; ++t) sessions.push_back(svc.openSession());

  std::vector<std::vector<std::future<RouteResult>>> futs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto ti = static_cast<size_t>(t);
      for (int i = 0; i < kReqs; ++i) {
        const int row = 2 + 3 * t;
        const int col = 2 + 3 * i;
        futs[ti].push_back(
            sessions[ti].routeAsync(EndPoint(Pin(row, col, S1_YQ)),
                                    EndPoint(Pin(row + 1, col + 1, clbIn(1)))));
      }
    });
  }
  // Two deliberately conflicting requests racing for the same sink:
  // exactly one can win, and the loser's rollback must leave no record.
  auto war0 = sessions[0].routeAsync(EndPoint(Pin(14, 21, S0_Y)),
                                     EndPoint(Pin(15, 22, S0F1)));
  auto war1 = sessions[1].routeAsync(EndPoint(Pin(14, 22, S1_YQ)),
                                     EndPoint(Pin(15, 22, S0F1)));
  for (std::thread& th : threads) th.join();

  std::set<NodeId> committed;
  std::vector<NodeId> rejectedSources;
  for (size_t t = 0; t < kThreads; ++t) {
    for (auto& f : futs[t]) {
      const RouteResult r = f.get();
      ASSERT_TRUE(r.ok()) << r.detail;  // disjoint tiles: all must land
      committed.insert(r.netSource);
    }
  }
  const RouteResult w0 = war0.get();
  const RouteResult w1 = war1.get();
  EXPECT_EQ((w0.ok() ? 1 : 0) + (w1.ok() ? 1 : 0), 1)
      << w0.detail << " / " << w1.detail;
  if (w0.ok()) {
    committed.insert(w0.netSource);
    rejectedSources.push_back(graph().nodeAt({14, 22}, S1_YQ));
  } else {
    committed.insert(w1.netSource);
    rejectedSources.push_back(graph().nodeAt({14, 21}, S0_Y));
  }
  ASSERT_EQ(committed.size(), static_cast<size_t>(kThreads * kReqs + 1));

  for (const NodeId src : committed) {
    auto rec = svc.provenance(src);
    ASSERT_TRUE(rec.has_value()) << "net source " << src;
    EXPECT_EQ(rec->netSource, src);
    EXPECT_EQ(rec->op, "p2p");
    EXPECT_EQ(rec->txn, "committed");
    EXPECT_EQ(rec->updates, 0u);  // one committing request per net
  }
  for (const NodeId src : rejectedSources) {
    EXPECT_FALSE(svc.provenance(src).has_value());
    EXPECT_FALSE(fabric_.isUsed(src));  // rollback left no residue either
  }
  size_t records = 0;
  for (const Session& s : sessions) records += s.ownedNets().size();
  EXPECT_EQ(records, committed.size());
}

// --- Contention: from the rejection to the holder's record -----------------

TEST_F(ObsServiceTest, ContentionRejectionLeadsToTheHolderRecord) {
  // A kContention rejection names the contested wire; the fabric names
  // the net holding it, and the service's table says who routed that net.
  ServiceOptions opts;
  opts.manualPump = true;
  opts.planThreads = 1;
  RoutingService svc(fabric_, opts);
  Session owner = svc.openSession();
  Session other = svc.openSession();
  auto holder = owner.routeAsync(EndPoint(Pin(3, 3, S0_Y)),
                                 EndPoint(Pin(5, 5, S0F1)));
  svc.pumpOnce();
  const RouteResult held = holder.get();
  ASSERT_TRUE(held.ok());
  auto loser = other.routeAsync(EndPoint(Pin(3, 4, S1_YQ)),
                                EndPoint(Pin(5, 5, S0F1)));  // sink is taken
  svc.pumpOnce();
  const RouteResult rej = loser.get();
  ASSERT_FALSE(rej.ok());
  ASSERT_EQ(rej.reason, Reject::kContention);
  ASSERT_NE(rej.contendedNode, kInvalidNode);
  EXPECT_EQ(svc.stats().contention, 1u);

  const NodeId netSource =
      fabric_.netSource(fabric_.netOf(rej.contendedNode));
  EXPECT_EQ(netSource, held.netSource);
  const auto rec = svc.provenance(netSource);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->sessionId, owner.id());
  EXPECT_EQ(rec->requestId, 1u);  // the service's first request
  EXPECT_EQ(rec->op, "p2p");
  svc.stop();
}

}  // namespace
}  // namespace jrsvc
