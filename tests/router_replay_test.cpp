// Replay-outcome digests: the session stream replayed on a bare Router
// must end every request the same way and leave the same fabric behind.
// The Router's route digest hashes what each request routed — outcome,
// PIPs turned on and off, template attempts, hits and visits, maze runs —
// so any optimisation that changes a route, or the order in which a
// template walk visits nodes, fails here. The maze's visit total is
// pinned beside it, not hashed into it: it counts search effort, not
// routes, and moves when the search stops counting work that cannot
// change a route (sink-only nodes off the open list). The same stream
// replayed through the routing service is pinned too: every request's
// outcome, which engine path committed it, the engine's plan counters
// and the final fabric.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <future>
#include <optional>
#include <set>
#include <span>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.h"
#include "core/router.h"
#include "digest.h"
#include "drc_clean.h"
#include "service/service.h"
#include "workload/session_stream.h"

namespace jroute {
namespace {

using workload::SessionStream;
using workload::SessionStreamOptions;
using workload::StreamEvent;
using workload::StreamOp;
using xcvsim::Fabric;
using xcvsim::Graph;
using xcvsim::PipTable;

/// How one request ended.
enum Outcome : uint8_t {
  kAccepted,
  kContention,
  kUnroutable,
  kBadArgument,
  kOtherError,
  kRejectedNotOwner,
  kRejectedNotRouted,
};

/// Hash every on PIP with its net's source node.
void hashOnEdges(jrtest::Fnv1a& h, const Graph& g, const Fabric& fabric) {
  for (EdgeId e = 0; e < g.numEdges(); ++e) {
    if (!fabric.edgeOn(e)) continue;
    h.add(e);
    h.add(fabric.netSource(fabric.netOf(g.edgeSource(e))));
  }
}

const Graph& xcv1000Graph() {
  static const Graph g{xcvsim::xcv1000()};
  return g;
}

const PipTable& xcv1000Table() {
  static const PipTable table{xcv1000Graph().arch()};
  return table;
}

/// Events replayed from each seed's session stream.
constexpr size_t kReplayEvents = 60000;

Outcome classify(const std::exception& e) {
  if (dynamic_cast<const xcvsim::ContentionError*>(&e)) return kContention;
  if (dynamic_cast<const xcvsim::UnroutableError*>(&e)) return kUnroutable;
  if (dynamic_cast<const xcvsim::ArgumentError*>(&e)) return kBadArgument;
  return kOtherError;
}

struct Replay {
  /// FNV-1a over every request's outcome and RouteStats route deltas
  /// (every counter but mazeVisits), then over every on PIP with its net's
  /// source node.
  uint64_t digest = 0;
  uint64_t accepted = 0;
  RouteStats stats;  // cumulative over the whole replay
};

/// Replays the first `events` events of the XCV1000 session stream for
/// `seed` through one Router with the benchmark's ownership rules: a
/// session may only route from or unroute sources it owns, unrouting a
/// free source is rejected, and a throwing route unroutes the nets it
/// created.
Replay replay(const Graph& g, const PipTable& table, uint64_t seed,
              size_t events) {
  Fabric fabric(g, table);
  Router router(fabric);
  std::unordered_map<NodeId, uint32_t> owner;
  jrtest::Fnv1a h;
  Replay out;

  const auto nodeOf = [&](const Pin& p) { return g.nodeAt(p.rc, p.wire); };
  const auto record = [&](Outcome o, const RouteStats& before) {
    const RouteStats& s = router.stats();
    h.add(static_cast<uint8_t>(o));
    if (o == kAccepted) ++out.accepted;
    h.add(s.pipsTurnedOn - before.pipsTurnedOn);
    h.add(s.pipsTurnedOff - before.pipsTurnedOff);
    h.add(s.templateAttempts - before.templateAttempts);
    h.add(s.templateHits - before.templateHits);
    h.add(s.templateVisits - before.templateVisits);
    h.add(s.mazeRuns - before.mazeRuns);
  };
  const auto call = [&](const auto& fn, const std::vector<Pin>& newNets) {
    const RouteStats before = router.stats();
    Outcome o = kAccepted;
    try {
      fn();
    } catch (const std::exception& e) {
      o = classify(e);
      for (const Pin& src : newNets) {
        if (fabric.isUsed(nodeOf(src))) router.unroute(EndPoint(src));
      }
    }
    record(o, before);
    return o == kAccepted;
  };
  const auto reject = [&](Outcome o) { record(o, router.stats()); };
  const auto route = [&](const StreamEvent& ev) {
    for (const Pin& src : ev.srcs) {
      const auto it = owner.find(nodeOf(src));
      if (it != owner.end() && it->second != ev.session) {
        return reject(kRejectedNotOwner);
      }
    }
    std::vector<Pin> fresh;
    for (const Pin& src : ev.srcs) {
      if (!fabric.isUsed(nodeOf(src))) fresh.push_back(src);
    }
    const std::vector<EndPoint> srcs(ev.srcs.begin(), ev.srcs.end());
    const std::vector<EndPoint> sinks(ev.sinks.begin(), ev.sinks.end());
    const bool ok = call(
        [&] {
          switch (ev.op) {
            case StreamOp::kFanout:
              router.route(srcs[0], std::span<const EndPoint>(sinks));
              break;
            case StreamOp::kBus:
              router.route(std::span<const EndPoint>(srcs),
                           std::span<const EndPoint>(sinks));
              break;
            default: router.route(srcs[0], sinks[0]); break;
          }
        },
        fresh);
    if (ok) {
      for (const Pin& src : ev.srcs) owner[nodeOf(src)] = ev.session;
    }
  };
  const auto unroute = [&](const Pin& src, uint32_t session) {
    const NodeId n = nodeOf(src);
    if (!fabric.isUsed(n)) return reject(kRejectedNotRouted);
    const auto it = owner.find(n);
    if (it == owner.end() || it->second != session) {
      return reject(kRejectedNotOwner);
    }
    call([&] { router.unroute(EndPoint(src)); }, {});
    owner.erase(n);
  };

  SessionStreamOptions opts;
  opts.seed = seed;
  SessionStream stream(g.device(), opts);
  for (size_t i = 0; i < events; ++i) {
    const StreamEvent ev = stream.next();
    switch (ev.op) {
      case StreamOp::kP2P:
      case StreamOp::kFanout:
      case StreamOp::kBus: route(ev); break;
      case StreamOp::kUnroute:
        for (const Pin& src : ev.srcs) unroute(src, ev.session);
        break;
      case StreamOp::kReconnect:
        unroute(ev.srcs[0], ev.session);
        route(ev);
        break;
    }
  }

  hashOnEdges(h, g, fabric);
  EXPECT_TRUE(jrtest::drcClean(fabric));
  out.digest = h.value();
  out.stats = router.stats();
  return out;
}

struct ServiceReplayResult {
  /// FNV-1a over every request's outcome, reason and engine path (in
  /// submission order), then the engine's plan counters, then every on
  /// PIP with its net's source node.
  uint64_t digest = 0;
  jrsvc::ServiceStats stats;
};

/// Replays the first `events` events of the XCV1000 session stream for
/// `seed` through a RoutingService with one planner and no engine
/// thread, so batch boundaries and planning order are a pure function of
/// the stream. As in perfbench and jrload, a slot's next event is
/// submitted only after its previous request resolved, and a reconnect's
/// route only after its unroute: when an event finds its slot busy, every
/// queued request is pumped and resolved first.
ServiceReplayResult serviceReplay(const Graph& g, const PipTable& table,
                                  uint64_t seed, size_t events) {
  Fabric fabric(g, table);
  jrsvc::ServiceOptions opts;
  opts.manualPump = true;
  opts.planThreads = 1;
  opts.drcParanoid = false;
  jrsvc::RoutingService svc(fabric, opts);
  SessionStreamOptions streamOpts;
  streamOpts.seed = seed;
  SessionStream stream(g.device(), streamOpts);
  std::vector<jrsvc::Session> sessions;
  for (int s = 0; s < stream.sessions(); ++s) {
    sessions.push_back(svc.openSession());
  }

  struct Pending {
    std::future<jrsvc::RouteResult> fut;
    /// A reconnect whose unroute this is; its route goes next.
    std::optional<StreamEvent> reconnect;
  };
  std::vector<Pending> pending;  // submission order
  std::set<std::pair<uint32_t, uint32_t>> busy;  // (session, slot)
  jrtest::Fnv1a h;

  const auto routeP2P = [&](const StreamEvent& ev) {
    pending.push_back({sessions[ev.session].routeAsync(
                           EndPoint(ev.srcs[0]), EndPoint(ev.sinks[0])),
                       std::nullopt});
  };
  const auto settle = [&] {
    while (!pending.empty()) {
      while (svc.pumpOnce() > 0) {
      }
      std::vector<Pending> done;
      done.swap(pending);
      busy.clear();
      for (Pending& p : done) {
        const jrsvc::RouteResult res = p.fut.get();
        h.add(static_cast<uint8_t>(res.outcome));
        h.add(static_cast<uint8_t>(res.reason));
        h.add(res.routedInParallel);
        if (p.reconnect) {
          busy.insert({p.reconnect->session, p.reconnect->slot});
          routeP2P(*p.reconnect);
        }
      }
    }
  };

  for (size_t i = 0; i < events; ++i) {
    const StreamEvent ev = stream.next();
    if (busy.contains({ev.session, ev.slot})) settle();
    busy.insert({ev.session, ev.slot});
    jrsvc::Session& s = sessions[ev.session];
    const std::vector<EndPoint> srcs(ev.srcs.begin(), ev.srcs.end());
    const std::vector<EndPoint> sinks(ev.sinks.begin(), ev.sinks.end());
    switch (ev.op) {
      case StreamOp::kP2P: routeP2P(ev); break;
      case StreamOp::kFanout:
        pending.push_back({s.fanoutAsync(srcs[0], sinks), std::nullopt});
        break;
      case StreamOp::kBus:
        pending.push_back({s.busAsync(srcs, sinks), std::nullopt});
        break;
      case StreamOp::kUnroute:
        for (const EndPoint& src : srcs) {
          pending.push_back({s.unrouteAsync(src), std::nullopt});
        }
        break;
      case StreamOp::kReconnect:
        pending.push_back({s.unrouteAsync(srcs[0]), ev});
        break;
    }
  }
  settle();

  ServiceReplayResult out;
  out.stats = svc.stats();
  h.add(out.stats.parallelPlanned);
  h.add(out.stats.serialRouted);
  h.add(out.stats.planFallbacks);
  h.add(out.stats.claimRetries);
  hashOnEdges(h, g, fabric);
  EXPECT_TRUE(jrtest::drcClean(fabric));
  out.digest = h.value();
  return out;
}

TEST(RouterReplay, Xcv1000SessionStreamMatchesPinnedDigest) {
  // (seed, route digest, total maze visits)
  for (const auto& [seed, digest, visits] :
       {std::tuple<uint64_t, uint64_t, uint64_t>{1, 0xbd5ba473e4b0c6a0ull,
                                                 773450},
        {1009, 0xab6d0ac69beb1d76ull, 776895}}) {
    SCOPED_TRACE(seed);
    const Replay r =
        replay(xcv1000Graph(), xcv1000Table(), seed, kReplayEvents);
    // The stream must exercise both engines, or the digest pins little.
    EXPECT_GT(r.accepted, kReplayEvents / 2);
    EXPECT_GT(r.stats.templateHits, 0u);
    EXPECT_GT(r.stats.mazeRuns, 0u);
    EXPECT_EQ(r.digest, digest) << std::hex << r.digest;
    EXPECT_EQ(r.stats.mazeVisits, visits);
  }
}

TEST(ServiceReplay, Xcv1000ManualPumpMatchesPinnedDigest) {
  constexpr size_t kEvents = kReplayEvents;
  for (const auto& [seed, digest] :
       {std::pair<uint64_t, uint64_t>{1, 0x62d88a013718347eull},
        {1009, 0x72e0bca1653db72aull}}) {
    SCOPED_TRACE(seed);
    const ServiceReplayResult r =
        serviceReplay(xcv1000Graph(), xcv1000Table(), seed, kEvents);
    // Both engine paths must carry traffic, or the digest pins little.
    EXPECT_GT(r.stats.accepted, kEvents / 2);
    EXPECT_GT(r.stats.parallelPlanned, 0u);
    EXPECT_GT(r.stats.serialRouted, 0u);
    EXPECT_EQ(r.digest, digest) << std::hex << r.digest;
  }
}

}  // namespace
}  // namespace jroute
