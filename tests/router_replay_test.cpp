// Replay-outcome digest: the session stream replayed on a bare Router
// must end every request the same way, with the same search effort, and
// leave the same fabric behind. The digest below was pinned from the
// router before its hot path was made index-only and allocation-free, so
// any optimisation that changes what gets routed — or merely the order in
// which a search visits nodes (mazeVisits and templateVisits are hashed
// per request) — fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.h"
#include "core/router.h"
#include "digest.h"
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

Outcome classify(const std::exception& e) {
  if (dynamic_cast<const xcvsim::ContentionError*>(&e)) return kContention;
  if (dynamic_cast<const xcvsim::UnroutableError*>(&e)) return kUnroutable;
  if (dynamic_cast<const xcvsim::ArgumentError*>(&e)) return kBadArgument;
  return kOtherError;
}

struct Replay {
  /// FNV-1a over every request's outcome and RouteStats delta, then over
  /// every on PIP with its net's source node.
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
    h.add(s.mazeVisits - before.mazeVisits);
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

  for (EdgeId e = 0; e < g.numEdges(); ++e) {
    if (!fabric.edgeOn(e)) continue;
    h.add(e);
    h.add(fabric.netSource(fabric.netOf(g.edgeSource(e))));
  }
  fabric.checkConsistency();
  out.digest = h.value();
  out.stats = router.stats();
  return out;
}

TEST(RouterReplay, Xcv1000SessionStreamMatchesPinnedDigest) {
  static const Graph g{xcvsim::xcv1000()};
  static const PipTable table{g.arch()};
  constexpr size_t kEvents = 60000;
  for (const auto& [seed, digest] :
       {std::pair<uint64_t, uint64_t>{1, 0x8cf1dd06a4b6a9b1ull},
        {1009, 0xb570e235bef426ddull}}) {
    SCOPED_TRACE(seed);
    const Replay r = replay(g, table, seed, kEvents);
    // The stream must exercise both engines, or the digest pins little.
    EXPECT_GT(r.accepted, kEvents / 2);
    EXPECT_GT(r.stats.templateHits, 0u);
    EXPECT_GT(r.stats.mazeRuns, 0u);
    EXPECT_EQ(r.digest, digest);
  }
}

}  // namespace
}  // namespace jroute
