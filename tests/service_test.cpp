// Tests for the concurrent routing service: transactional net operations
// (all-or-nothing rollback, bit-identical fabric), sessions and net
// ownership, the batched request engine (parallel planning + serialized
// conflicts), backpressure, and deadlines.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "analysis/drc.h"
#include "arch/wires.h"
#include "bitstream/bitstream.h"
#include "drc_clean.h"
#include "obs/metrics.h"
#include "service/queue.h"
#include "service/service.h"

namespace jrsvc {
namespace {

using jroute::EndPoint;
using jroute::Pin;
using jroute::Router;
using xcvsim::Bitstream;
using xcvsim::clbIn;
using xcvsim::Fabric;
using xcvsim::Graph;
using xcvsim::JRouteError;
using xcvsim::kInvalidNode;
using xcvsim::PipTable;
using xcvsim::S0_Y;
using xcvsim::S0_YQ;
using xcvsim::S0F1;
using xcvsim::S1_YQ;

class ServiceTest : public ::testing::Test {
 protected:
  static const Graph& graph() {
    static Graph g{xcvsim::xcv50()};
    return g;
  }
  static const PipTable& table() {
    static PipTable t{xcvsim::ArchDb{xcvsim::xcv50()}};
    return t;
  }

  ServiceTest() : fabric_(graph(), table()) {}

  Fabric fabric_;
};

/// Every on PIP with its net's source node.
std::set<std::pair<xcvsim::EdgeId, NodeId>> onEdges(const Fabric& f) {
  std::set<std::pair<xcvsim::EdgeId, NodeId>> on;
  for (xcvsim::EdgeId e = 0; e < f.graph().numEdges(); ++e) {
    if (f.edgeOn(e)) {
      on.insert({e, f.netSource(f.netOf(f.graph().edgeSource(e)))});
    }
  }
  return on;
}

// --- Transactional net operations (Router::Txn) --------------------------------

TEST_F(ServiceTest, TxnCommitKeepsRoutes) {
  Router router(fabric_);
  Router::Txn txn(router);
  router.route(EndPoint(Pin(3, 3, S1_YQ)), EndPoint(Pin(4, 5, clbIn(2))));
  ASSERT_EQ(txn.createdNets().size(), 1u);
  EXPECT_GT(txn.pipsOf(txn.createdNets().front()), 0u);
  txn.commit();
  EXPECT_FALSE(txn.active());
  EXPECT_FALSE(router.trace(EndPoint(Pin(3, 3, S1_YQ))).hops.empty());
  EXPECT_TRUE(jrtest::drcClean(fabric_));
}

TEST_F(ServiceTest, TxnRollbackRestoresBitIdenticalFabric) {
  Router router(fabric_);
  // A pre-existing net the txn must not disturb — it occupies a sink the
  // fanout below will fail on.
  router.route(EndPoint(Pin(8, 8, S1_YQ)), EndPoint(Pin(8, 10, clbIn(2))));
  const size_t netsBefore = fabric_.liveNetCount();
  const Bitstream before = fabric_.jbits().bitstream();

  Router::Txn txn(router);
  bool threw = false;
  try {
    // First sink routes fine; the second is owned by the other net, so the
    // fanout fails mid-way with the fabric half-routed.
    const std::vector<EndPoint> sinks{EndPoint(Pin(6, 8, clbIn(1))),
                                      EndPoint(Pin(8, 10, clbIn(2)))};
    router.route(EndPoint(Pin(6, 6, S1_YQ)), std::span<const EndPoint>(sinks));
  } catch (const JRouteError&) {
    threw = true;
  }
  ASSERT_TRUE(threw);
  // The partial work is journaled...
  ASSERT_EQ(txn.createdNets().size(), 1u);
  EXPECT_GT(txn.pipsOf(txn.createdNets().front()), 0u);
  txn.rollback();

  // ...and rollback leaves the device bit-identical to the pre-txn state.
  EXPECT_TRUE(before == fabric_.jbits().bitstream());
  EXPECT_EQ(fabric_.liveNetCount(), netsBefore);
  EXPECT_FALSE(router.trace(EndPoint(Pin(8, 8, S1_YQ))).hops.empty());
  EXPECT_TRUE(jrtest::drcClean(fabric_));
}

TEST_F(ServiceTest, TxnDestructorRollsBackOpenWork) {
  Router router(fabric_);
  const Bitstream before = fabric_.jbits().bitstream();
  {
    Router::Txn txn(router);
    router.route(EndPoint(Pin(3, 3, S1_YQ)), EndPoint(Pin(4, 5, clbIn(2))));
    // No commit: leaving scope must undo everything.
  }
  EXPECT_TRUE(before == fabric_.jbits().bitstream());
  EXPECT_EQ(fabric_.liveNetCount(), 0u);
}

TEST_F(ServiceTest, SecondTxnOnOneRouterThrowsAndLeavesTheFirstOpen) {
  Router router(fabric_);
  const Bitstream before = fabric_.jbits().bitstream();
  {
    Router::Txn txn(router);
    router.route(EndPoint(Pin(3, 3, S1_YQ)), EndPoint(Pin(4, 5, clbIn(2))));
    EXPECT_THROW(Router::Txn second(router), JRouteError);
    // The first txn still journals and rolls back everything.
    EXPECT_TRUE(txn.active());
    router.route(EndPoint(Pin(6, 6, S1_YQ)), EndPoint(Pin(6, 8, clbIn(1))));
    EXPECT_EQ(txn.createdNets().size(), 2u);
    txn.rollback();
  }
  EXPECT_TRUE(before == fabric_.jbits().bitstream());
  EXPECT_EQ(fabric_.liveNetCount(), 0u);

  // The refused txn left no mark: once the first closes, the router opens
  // a new one, and a second is refused again while it is open.
  Router::Txn txn(router);
  router.route(EndPoint(Pin(3, 3, S1_YQ)), EndPoint(Pin(4, 5, clbIn(2))));
  EXPECT_THROW(Router::Txn second(router), JRouteError);
  txn.commit();
  EXPECT_EQ(fabric_.liveNetCount(), 1u);
  EXPECT_TRUE(jrtest::drcClean(fabric_));
  Router::Txn third(router);  // open again after the commit
  EXPECT_TRUE(third.active());
}

// --- Sessions and ownership -----------------------------------------------------

TEST_F(ServiceTest, SessionsOwnTheirNets) {
  ServiceOptions opts;
  opts.manualPump = true;
  opts.drcParanoid = true;  // full static DRC after every pumped batch
  opts.planThreads = 1;
  RoutingService svc(fabric_, opts);
  Session alice = svc.openSession();
  Session bob = svc.openSession();

  auto routed = alice.routeAsync(EndPoint(Pin(3, 3, S1_YQ)),
                                 EndPoint(Pin(4, 5, clbIn(2))));
  svc.pumpOnce();
  ASSERT_TRUE(routed.get().ok());
  ASSERT_EQ(alice.ownedNets().size(), 1u);

  // Bob may neither unroute nor extend Alice's net.
  auto steal = bob.unrouteAsync(EndPoint(Pin(3, 3, S1_YQ)));
  auto extend = bob.fanoutAsync(EndPoint(Pin(3, 3, S1_YQ)),
                                {EndPoint(Pin(5, 6, clbIn(3)))});
  svc.pumpOnce();
  EXPECT_EQ(steal.get().reason, Reject::kNotOwner);
  EXPECT_EQ(extend.get().reason, Reject::kNotOwner);

  // Alice extends and unroutes her own net freely.
  auto grow = alice.fanoutAsync(EndPoint(Pin(3, 3, S1_YQ)),
                                {EndPoint(Pin(5, 6, clbIn(3)))});
  svc.pumpOnce();
  EXPECT_TRUE(grow.get().ok());
  auto freed = alice.unrouteAsync(EndPoint(Pin(3, 3, S1_YQ)));
  svc.pumpOnce();
  EXPECT_TRUE(freed.get().ok());
  EXPECT_EQ(fabric_.liveNetCount(), 0u);
}

TEST_F(ServiceTest, CloseSessionUnroutesOwnedNets) {
  ServiceOptions opts;
  opts.manualPump = true;
  opts.drcParanoid = true;  // full static DRC after every pumped batch
  opts.planThreads = 1;
  RoutingService svc(fabric_, opts);
  Session s = svc.openSession();
  auto f1 = s.routeAsync(EndPoint(Pin(3, 3, S1_YQ)),
                         EndPoint(Pin(4, 5, clbIn(2))));
  auto f2 = s.routeAsync(EndPoint(Pin(8, 8, S0_YQ)),
                         EndPoint(Pin(9, 10, clbIn(1))));
  svc.pumpOnce();
  ASSERT_TRUE(f1.get().ok());
  ASSERT_TRUE(f2.get().ok());
  EXPECT_EQ(fabric_.liveNetCount(), 2u);

  svc.closeSession(s);
  EXPECT_FALSE(s.valid());
  EXPECT_EQ(fabric_.liveNetCount(), 0u);
  EXPECT_TRUE(jrtest::drcClean(fabric_));
}

TEST_F(ServiceTest, ClosedSessionRejectsAsInvalid) {
  ServiceOptions opts;
  opts.manualPump = true;
  opts.planThreads = 1;
  RoutingService svc(fabric_, opts);
  Session s = svc.openSession();
  svc.closeSession(s);

  // Every entry point resolves at once without touching the service.
  const EndPoint src(Pin(3, 3, S1_YQ));
  const EndPoint sink(Pin(4, 5, clbIn(2)));
  auto r = s.routeAsync(src, sink);
  ASSERT_EQ(r.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const RouteResult res = r.get();
  EXPECT_EQ(res.outcome, Outcome::kRejected);
  EXPECT_EQ(res.reason, Reject::kBadArgument);
  EXPECT_EQ(res.detail, "invalid session");
  EXPECT_EQ(s.fanout(src, {sink}).reason, Reject::kBadArgument);
  EXPECT_EQ(s.bus({src}, {sink}).reason, Reject::kBadArgument);
  EXPECT_EQ(s.unroute(src).reason, Reject::kBadArgument);
  EXPECT_TRUE(s.ownedNets().empty());
  EXPECT_EQ(Session().route(src, sink).reason, Reject::kBadArgument);
  EXPECT_TRUE(Session().ownedNets().empty());

  EXPECT_EQ(svc.pumpOnce(), 0u);  // nothing reached the queue
  EXPECT_EQ(svc.stats().submitted, 0u);
  EXPECT_EQ(fabric_.liveNetCount(), 0u);
}

TEST_F(ServiceTest, QueuedRequestOfClosedSessionIsRejected) {
  // A route queued before closeSession but drained after it must not
  // leave a net owned by the dead session id: nothing could unroute it
  // (every other session gets not-owner) and the DRC would not flag it.
  ServiceOptions opts;
  opts.manualPump = true;
  opts.planThreads = 1;
  RoutingService svc(fabric_, opts);
  Session s = svc.openSession();
  auto routed = s.routeAsync(EndPoint(Pin(3, 3, S1_YQ)),
                             EndPoint(Pin(4, 5, clbIn(2))));
  svc.closeSession(s);
  EXPECT_EQ(svc.pumpOnce(), 1u);

  const RouteResult res = routed.get();
  EXPECT_EQ(res.outcome, Outcome::kRejected);
  EXPECT_EQ(res.reason, Reject::kBadArgument);
  EXPECT_EQ(res.detail, "session closed");
  EXPECT_EQ(fabric_.liveNetCount(), 0u);
  const jrdrc::DrcReport drc = svc.runDrc();
  EXPECT_TRUE(drc.clean()) << drc.summary();
}

// --- Backpressure and deadlines --------------------------------------------------

TEST_F(ServiceTest, FullQueueShedsLoadWithOverloaded) {
  ServiceOptions opts;
  opts.manualPump = true;
  opts.drcParanoid = true;  // full static DRC after every pumped batch
  opts.planThreads = 1;
  opts.queueCapacity = 2;
  RoutingService svc(fabric_, opts);
  Session s = svc.openSession();

  auto a = s.routeAsync(EndPoint(Pin(3, 3, S1_YQ)),
                        EndPoint(Pin(4, 5, clbIn(2))));
  auto b = s.routeAsync(EndPoint(Pin(8, 8, S0_YQ)),
                        EndPoint(Pin(9, 10, clbIn(1))));
  auto c = s.routeAsync(EndPoint(Pin(12, 12, S1_YQ)),
                        EndPoint(Pin(13, 14, clbIn(3))));

  // The overflow request resolves immediately, without queueing.
  ASSERT_EQ(c.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const RouteResult shed = c.get();
  EXPECT_EQ(shed.outcome, Outcome::kRejected);
  EXPECT_EQ(shed.reason, Reject::kOverloaded);

  svc.pumpOnce();
  EXPECT_TRUE(a.get().ok());
  EXPECT_TRUE(b.get().ok());
  EXPECT_EQ(svc.stats().overloaded, 1u);
}

TEST_F(ServiceTest, ExpiredDeadlineIsShedBeforeRouting) {
  ServiceOptions opts;
  opts.manualPump = true;
  opts.drcParanoid = true;  // full static DRC after every pumped batch
  opts.planThreads = 1;
  RoutingService svc(fabric_, opts);
  Session s = svc.openSession();

  const auto past = Clock::now() - std::chrono::seconds(1);
  auto stale = s.routeAsync(EndPoint(Pin(3, 3, S1_YQ)),
                            EndPoint(Pin(4, 5, clbIn(2))), past);
  svc.pumpOnce();
  EXPECT_EQ(stale.get().reason, Reject::kDeadlineExpired);
  EXPECT_EQ(fabric_.liveNetCount(), 0u);
  EXPECT_EQ(svc.stats().deadlineExpired, 1u);
}

TEST_F(ServiceTest, StoppedServiceRejectsWithShutdown) {
  ServiceOptions opts;
  opts.manualPump = true;
  opts.drcParanoid = true;  // full static DRC after every pumped batch
  opts.planThreads = 1;
  RoutingService svc(fabric_, opts);
  Session s = svc.openSession();
  svc.stop();
  auto late = s.routeAsync(EndPoint(Pin(3, 3, S1_YQ)),
                           EndPoint(Pin(4, 5, clbIn(2))));
  EXPECT_EQ(late.get().reason, Reject::kShutdown);
}

// --- Batched engine: buses, fallbacks -------------------------------------------

TEST_F(ServiceTest, BusRoutesThroughService) {
  ServiceOptions opts;
  opts.manualPump = true;
  opts.drcParanoid = true;  // full static DRC after every pumped batch
  opts.planThreads = 1;
  RoutingService svc(fabric_, opts);
  Session s = svc.openSession();

  std::vector<EndPoint> sources, sinks;
  for (int i = 0; i < 4; ++i) {
    sources.push_back(EndPoint(Pin(4 + i, 6, S1_YQ)));
    sinks.push_back(EndPoint(Pin(4 + i, 9, clbIn(2))));
  }
  auto fut = s.busAsync(sources, sinks);
  svc.pumpOnce();
  ASSERT_TRUE(fut.get().ok());
  EXPECT_EQ(fabric_.liveNetCount(), 4u);
  for (int i = 0; i < 4; ++i) {
    svc.withRouter([&](Router& r) {
      EXPECT_FALSE(r.trace(EndPoint(Pin(4 + i, 6, S1_YQ))).hops.empty());
    });
  }
  EXPECT_EQ(s.ownedNets().size(), 4u);
}

TEST_F(ServiceTest, BusRequestReusesBitShapeAcrossBits) {
  // Within one parallel-planned bus request, bit 0 exports its template
  // shape and later bits refit it instead of re-searching. The planner
  // runs the Router's sink search, so the hits are counted where serial
  // ones are, in router.bus.shape_reuse_hits.
  const int64_t before =
      jrobs::registry().snapshot().value("router.bus.shape_reuse_hits");

  ServiceOptions opts;
  opts.manualPump = true;
  opts.drcParanoid = true;
  opts.planThreads = 1;
  RoutingService svc(fabric_, opts);
  Session s = svc.openSession();

  // Four bits with the identical displacement — the regular-bus case the
  // shape hint exists for. Adjacent-east is a library-template shape, so
  // bit 0 plans off the library and exports its chain; each bit sits on
  // its own row, so the bits never contest each other's wires.
  std::vector<EndPoint> sources, sinks;
  for (int i = 0; i < 4; ++i) {
    sources.push_back(EndPoint(Pin(4 + i, 6, S0_Y)));
    sinks.push_back(EndPoint(Pin(4 + i, 7, S0F1)));
  }
  auto fut = s.busAsync(sources, sinks);
  svc.pumpOnce();
  const RouteResult res = fut.get();
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res.routedInParallel);

  const int64_t after =
      jrobs::registry().snapshot().value("router.bus.shape_reuse_hits");
  if (jrobs::compiledIn()) {
    EXPECT_GE(after - before, 3);  // bits 1..3 each refit bit 0's shape
  }
}

TEST_F(ServiceTest, WidthMismatchedBusIsBadArgument) {
  ServiceOptions opts;
  opts.manualPump = true;
  opts.drcParanoid = true;  // full static DRC after every pumped batch
  opts.planThreads = 1;
  RoutingService svc(fabric_, opts);
  Session s = svc.openSession();
  auto fut = s.busAsync({EndPoint(Pin(4, 6, S1_YQ))},
                        {EndPoint(Pin(4, 9, clbIn(2))),
                         EndPoint(Pin(5, 9, clbIn(2)))});
  svc.pumpOnce();
  EXPECT_EQ(fut.get().reason, Reject::kBadArgument);
}

TEST_F(ServiceTest, SinkPortWithoutPinsIsBadArgument) {
  // The engine's precheck rejects a sink endpoint with no bound pins
  // before anything is planned or routed, whether the request would have
  // been planned in parallel or routed serially.
  ServiceOptions opts;
  opts.manualPump = true;
  opts.drcParanoid = true;  // full static DRC after every pumped batch
  opts.planThreads = 1;
  RoutingService svc(fabric_, opts);
  Session s = svc.openSession();
  jroute::Port unbound("in", jroute::PortDir::Input, "core");

  // Alone in its batch: a parallel-phase candidate. The other sink is
  // fine; the whole request is still rejected.
  auto alone = s.fanoutAsync(EndPoint(Pin(4, 6, S1_YQ)),
                             {EndPoint(Pin(4, 9, clbIn(2))), EndPoint(unbound)});
  svc.pumpOnce();
  EXPECT_EQ(alone.get().reason, Reject::kBadArgument);

  // Overlapping an earlier request of its batch: a serial-path candidate.
  auto first = s.routeAsync(EndPoint(Pin(8, 6, S1_YQ)),
                            EndPoint(Pin(8, 9, clbIn(2))));
  auto overlapping =
      s.busAsync({EndPoint(Pin(8, 7, S1_YQ))}, {EndPoint(unbound)});
  svc.pumpOnce();
  EXPECT_TRUE(first.get().ok());
  EXPECT_EQ(overlapping.get().reason, Reject::kBadArgument);
  EXPECT_EQ(fabric_.liveNetCount(), 1u);
}

TEST_F(ServiceTest, MisshapenRequestIsBadArgument) {
  // submit() is public: a request whose endpoint counts do not fit its op
  // is rejected whole, never routed in part or widened to fit.
  ServiceOptions opts;
  opts.manualPump = true;
  opts.drcParanoid = true;  // full static DRC after every pumped batch
  opts.planThreads = 1;
  RoutingService svc(fabric_, opts);
  Session s = svc.openSession();
  const EndPoint a(Pin(3, 3, S1_YQ)), b(Pin(6, 6, S1_YQ));
  auto ra = s.routeAsync(a, EndPoint(Pin(4, 5, clbIn(2))));
  auto rb = s.routeAsync(b, EndPoint(Pin(6, 8, clbIn(1))));
  svc.pumpOnce();
  ASSERT_TRUE(ra.get().ok());
  ASSERT_TRUE(rb.get().ok());
  const Bitstream before = fabric_.jbits().bitstream();

  const EndPoint c(Pin(10, 4, S1_YQ)), d(Pin(12, 4, S1_YQ));
  const EndPoint x(Pin(10, 7, clbIn(2))), y(Pin(12, 7, clbIn(2)));
  std::vector<std::future<RouteResult>> futs;
  futs.push_back(svc.submit(Op::kRouteP2P, s.id(), {c, d}, {x}));
  futs.push_back(svc.submit(Op::kRouteP2P, s.id(), {c}, {x, y}));
  futs.push_back(svc.submit(Op::kRouteFanout, s.id(), {c, d}, {x, y}));
  futs.push_back(svc.submit(Op::kUnroute, s.id(), {a, b}, {}));
  futs.push_back(svc.submit(Op::kUnroute, s.id(), {a}, {x}));
  svc.pumpOnce();
  for (auto& f : futs) EXPECT_EQ(f.get().reason, Reject::kBadArgument);
  EXPECT_TRUE(before == fabric_.jbits().bitstream());
  EXPECT_EQ(s.ownedNets().size(), 2u);
}

TEST_F(ServiceTest, ConnectContentionNamesTheContestedWire) {
  // RtrManager routes its port groups through Session::connect, which
  // keeps the raw router's contract: its ContentionError names the
  // contested wire, as the Router's own does.
  ServiceOptions opts;
  opts.planThreads = 2;
  RoutingService svc(fabric_, opts);
  Session alice = svc.openSession();
  Session bob = svc.openSession();
  const Pin sink(8, 10, clbIn(2));
  ASSERT_TRUE(alice.route(EndPoint(Pin(8, 8, S1_YQ)), EndPoint(sink)).ok());
  const std::vector<EndPoint> srcs{EndPoint(Pin(6, 6, S1_YQ))};
  const std::vector<EndPoint> sinks{EndPoint(sink)};
  try {
    bob.connect(srcs, sinks);
    ADD_FAILURE() << "connect onto a driven sink did not throw";
  } catch (const xcvsim::ContentionError& e) {
    EXPECT_EQ(e.node(), graph().nodeAt(sink.rc, sink.wire));
  }
}

TEST_F(ServiceTest, PlannedRouteEqualsBareRouter) {
  // The planners run the Router's own sink search, so a fanout and a bus
  // planned in the parallel phase must leave exactly the PIPs the same
  // calls leave on a bare Router over a fresh fabric.
  static const Graph graph{xcvsim::xcv300()};
  static const PipTable table{xcvsim::ArchDb{xcvsim::xcv300()}};
  const EndPoint fanSrc(Pin(6, 6, S1_YQ));
  const std::vector<EndPoint> fanSinks{EndPoint(Pin(8, 9, clbIn(2))),
                                       EndPoint(Pin(4, 11, clbIn(5))),
                                       EndPoint(Pin(10, 4, clbIn(7)))};
  std::vector<EndPoint> busSrcs, busSinks;
  for (int i = 0; i < 4; ++i) {
    busSrcs.push_back(EndPoint(Pin(20 + i, 30, S1_YQ)));
    busSinks.push_back(EndPoint(Pin(20 + i, 35, clbIn(2))));
  }
  Fabric planned(graph, table);
  {
    ServiceOptions opts;
    opts.manualPump = true;
    opts.drcParanoid = true;
    opts.planThreads = 1;
    RoutingService svc(planned, opts);
    Session s = svc.openSession();
    auto fan = s.fanoutAsync(fanSrc, fanSinks);
    auto bus = s.busAsync(busSrcs, busSinks);
    svc.pumpOnce();
    const RouteResult fanRes = fan.get(), busRes = bus.get();
    ASSERT_TRUE(fanRes.ok()) << fanRes.detail;
    ASSERT_TRUE(busRes.ok()) << busRes.detail;
    EXPECT_TRUE(fanRes.routedInParallel);
    EXPECT_TRUE(busRes.routedInParallel);
  }

  Fabric bare(graph, table);
  Router router(bare);
  router.route(fanSrc, std::span<const EndPoint>(fanSinks));
  router.route(std::span<const EndPoint>(busSrcs),
               std::span<const EndPoint>(busSinks));

  const auto want = onEdges(bare);
  EXPECT_GT(want.size(), 20u);
  EXPECT_EQ(onEdges(planned), want);
}

TEST_F(ServiceTest, PlanOfAClockNetRechecksItsSourceAtCommit) {
  // A global clock wire is one node that every tile can name, so two
  // requests sourcing gclk(2) from distant tiles pass the bbox partition
  // and are both planned as fresh nets against the frozen fabric. Only
  // the first may create the net; the second must not extend it.
  const Pin aliceSrc(1, 1, xcvsim::gclk(2)), bobSrc(13, 20, xcvsim::gclk(2));
  const Pin aliceSink(2, 2, xcvsim::S0CLK), bobSink(14, 21, xcvsim::S0CLK);
  ASSERT_EQ(graph().nodeAt(aliceSrc.rc, aliceSrc.wire),
            graph().nodeAt(bobSrc.rc, bobSrc.wire));
  for (const bool sameSession : {false, true}) {
    SCOPED_TRACE(sameSession ? "same session" : "two sessions");
    Fabric fabric(graph(), table());
    ServiceOptions opts;
    opts.manualPump = true;
    opts.planThreads = 1;
    RoutingService svc(fabric, opts);
    Session alice = svc.openSession();
    Session bob = svc.openSession();
    Session& second = sameSession ? alice : bob;
    auto first = alice.routeAsync(EndPoint(aliceSrc), EndPoint(aliceSink));
    auto later = second.routeAsync(EndPoint(bobSrc), EndPoint(bobSink));
    EXPECT_EQ(svc.pumpOnce(), 2u);
    const RouteResult a = first.get(), b = later.get();
    ASSERT_TRUE(a.ok()) << a.detail;
    EXPECT_TRUE(a.routedInParallel);
    if (sameSession) {
      // The serialized retry extends the session's own clock net.
      ASSERT_TRUE(b.ok()) << b.detail;
      EXPECT_FALSE(b.routedInParallel);
      EXPECT_EQ(alice.ownedNets().size(), 1u);
    } else {
      EXPECT_EQ(b.reason, Reject::kNotOwner) << b.detail;
      EXPECT_TRUE(bob.ownedNets().empty());
    }
    EXPECT_EQ(fabric.liveNetCount(), 1u);
    EXPECT_EQ(svc.stats().planFallbacks, 1u);
    const jrdrc::DrcReport report = svc.runDrc();
    EXPECT_TRUE(report.clean()) << report.summary();
  }
}

TEST_F(ServiceTest, PlansWantingOneWireSettleAtCommitInArrivalOrder) {
  // One long line named as the sink from two distant tiles: the requests'
  // bounding boxes are disjoint, so both are planned in parallel against
  // the frozen fabric, and both plans end on the same wire. The first
  // commits; the second's txn rolls back at commit and the serialized
  // path rejects it, exactly as a bare Router running both in arrival
  // order does.
  const EndPoint srcA(Pin(5, 6, S1_YQ)), sinkA(Pin(5, 6, xcvsim::longH(0)));
  const EndPoint srcB(Pin(5, 18, S1_YQ)), sinkB(Pin(5, 18, xcvsim::longH(0)));
  const auto nodeOf = [](const EndPoint& ep) {
    const Pin p = ep.resolve().front();
    return graph().nodeAt(p.rc, p.wire);
  };
  ASSERT_NE(nodeOf(sinkA), kInvalidNode);
  ASSERT_EQ(nodeOf(sinkA), nodeOf(sinkB));

  Fabric bare(graph(), table());
  Router router(bare);
  router.route(srcA, sinkA);
  EXPECT_THROW(router.route(srcB, sinkB), xcvsim::ContentionError);

  for (const unsigned planThreads : {1u, 2u}) {
    SCOPED_TRACE(::testing::Message() << planThreads << " planners");
    Fabric fabric(graph(), table());
    ServiceOptions opts;
    opts.manualPump = true;
    opts.planThreads = planThreads;
    RoutingService svc(fabric, opts);
    Session alice = svc.openSession();
    Session bob = svc.openSession();
    const int64_t rollbacksBefore =
        jrobs::registry().snapshot().value("txn.rollbacks");
    auto first = alice.routeAsync(srcA, sinkA);
    auto later = bob.routeAsync(srcB, sinkB);
    EXPECT_EQ(svc.pumpOnce(), 2u);
    if (jrobs::compiledIn()) {
      // The later plan was applied and undone, then the serialized
      // Router call rolled back too.
      EXPECT_EQ(jrobs::registry().snapshot().value("txn.rollbacks") -
                    rollbacksBefore,
                2);
    }
    const RouteResult a = first.get(), b = later.get();
    ASSERT_TRUE(a.ok()) << a.detail;
    EXPECT_TRUE(a.routedInParallel);
    EXPECT_EQ(b.reason, Reject::kContention) << b.detail;
    EXPECT_EQ(b.contendedNode, nodeOf(sinkB));
    const ServiceStats st = svc.stats();
    EXPECT_EQ(st.parallelPlanned, 1u);
    EXPECT_EQ(st.planFallbacks, 1u);
    EXPECT_EQ(onEdges(fabric), onEdges(bare));
    const jrdrc::DrcReport report = svc.runDrc();
    EXPECT_TRUE(report.clean()) << report.summary();
  }
}

// --- Concurrency: disjoint parallel clients plus one conflicting -----------------

TEST(ServiceConcurrencyTest, DisjointSessionsRouteInParallelConflictsResolve) {
  static Graph graph{xcvsim::xcv300()};
  static PipTable table{xcvsim::ArchDb{xcvsim::xcv300()}};
  Fabric fabric(graph, table);

  constexpr int kThreads = 4;   // disjoint clients, one row band each
  constexpr int kPerThread = 6; // nets per client
  ServiceOptions opts;
  opts.batchSize = 16;
  opts.drcParanoid = true;  // analyzer cross-checks every engine batch
  RoutingService svc(fabric, opts);

  std::vector<Session> sessions;
  for (int t = 0; t < kThreads + 1; ++t) sessions.push_back(svc.openSession());

  std::atomic<int> escapes{0};
  std::vector<std::vector<RouteResult>> results(
      static_cast<size_t>(kThreads) + 1);

  const auto srcOf = [](int t, int k) {
    return Pin(2 + t * 7, 4 + k * 3, S1_YQ);
  };
  const auto sinkOf = [](int t, int k) {
    return Pin(3 + t * 7, 6 + k * 3, clbIn(2));
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        for (int k = 0; k < kPerThread; ++k) {
          results[static_cast<size_t>(t)].push_back(
              sessions[static_cast<size_t>(t)].route(
                  EndPoint(srcOf(t, k)), EndPoint(sinkOf(t, k))));
        }
      } catch (...) {
        escapes.fetch_add(1);
      }
    });
  }
  // The conflicting client races thread 0 for its exact sink pins.
  threads.emplace_back([&] {
    try {
      for (int k = 0; k < kPerThread; ++k) {
        results[kThreads].push_back(sessions[kThreads].route(
            EndPoint(Pin(4, 4 + k * 3, S0_YQ)), EndPoint(sinkOf(0, k))));
      }
    } catch (...) {
      escapes.fetch_add(1);
    }
  });
  for (std::thread& th : threads) th.join();
  svc.stop();

  // Contention never escapes as an exception (section 3.4 made clean).
  EXPECT_EQ(escapes.load(), 0);

  // Clients 1..3 touch nothing anyone else wants: all accepted.
  for (int t = 1; t < kThreads; ++t) {
    for (const RouteResult& r : results[static_cast<size_t>(t)]) {
      EXPECT_TRUE(r.ok()) << "thread " << t << ": " << r.detail;
    }
  }
  // Each contested sink went to exactly one of the two rivals.
  for (int k = 0; k < kPerThread; ++k) {
    const bool a = results[0][static_cast<size_t>(k)].ok();
    const bool b = results[kThreads][static_cast<size_t>(k)].ok();
    EXPECT_NE(a, b) << "sink " << k << " should have exactly one winner";
    const RouteResult& loser =
        a ? results[kThreads][static_cast<size_t>(k)]
          : results[0][static_cast<size_t>(k)];
    EXPECT_EQ(loser.reason, Reject::kContention);
  }

  // Every accepted net traces source-to-sink through the debug API.
  size_t accepted = 0;
  for (const auto& batch : results) {
    for (const RouteResult& r : batch) {
      if (!r.ok()) continue;
      ++accepted;
      ASSERT_NE(r.netSource, kInvalidNode);
      const xcvsim::NodeInfo ni = graph.info(r.netSource);
      svc.withRouter([&](Router& router) {
        EXPECT_FALSE(
            router.trace(EndPoint(Pin(ni.tile, ni.local))).hops.empty());
      });
    }
  }
  EXPECT_EQ(accepted, fabric.liveNetCount());
  EXPECT_TRUE(jrtest::drcClean(fabric));

  // Final offline pass with every view wired up (router, ownership,
  // bitstream): the concurrent run must leave zero analyzer findings.
  const jrdrc::DrcReport report = svc.runDrc();
  EXPECT_TRUE(report.clean()) << report.summary();

  const ServiceStats st = svc.stats();
  EXPECT_EQ(st.submitted, static_cast<uint64_t>((kThreads + 1) * kPerThread));
  EXPECT_EQ(st.accepted + st.rejected, st.submitted);
}

// --- BoundedQueue close()/drain() vs tryPush() (TSAN regression) ----------------

TEST(ServiceQueueTest, CloseDrainTryPushRace) {
  // Producers race tryPush against a mid-stream close() while the
  // consumer drains concurrently. Every accepted item must come out
  // exactly once, and closing must not wedge the consumer. Run under
  // TSAN (and with JROUTE_PERTURB_SEED) by tier1.sh.
  jrsvc::BoundedQueue<int> q(64);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  std::atomic<int> accepted{0};
  std::atomic<bool> producersDone{false};

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        int v = p * 10000 + i;
        if (q.tryPush(std::move(v))) accepted.fetch_add(1);
      }
    });
  }

  std::vector<int> drained;
  std::thread consumer([&] {
    std::vector<int> batch;
    while (true) {
      batch.clear();
      q.drain(batch, 32, std::chrono::milliseconds(1));
      drained.insert(drained.end(), batch.begin(), batch.end());
      if (batch.empty() && producersDone.load() && q.closed() &&
          q.size() == 0) {
        return;
      }
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  q.close();  // races in-flight tryPush calls
  for (std::thread& t : producers) t.join();
  producersDone.store(true);
  consumer.join();

  EXPECT_EQ(drained.size(), static_cast<size_t>(accepted.load()));
  const std::set<int> unique(drained.begin(), drained.end());
  EXPECT_EQ(unique.size(), drained.size());  // nothing duplicated
  EXPECT_FALSE(q.tryPush(1));                // closed stays closed
}

}  // namespace
}  // namespace jrsvc
