#include "core/router.h"

#include <algorithm>
#include <string>

#include "arch/wires.h"
#include "common/error.h"
#include "lookahead/lookahead.h"
#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "router/path_engine.h"
#include "router/sink_search.h"
#include "router/template_engine.h"

namespace jroute {

using xcvsim::ArgumentError;
using xcvsim::ContentionError;
using xcvsim::Edge;
using xcvsim::EdgeId;
using xcvsim::Graph;
using xcvsim::JRouteError;
using xcvsim::kInvalidEdge;
using xcvsim::kInvalidNode;
using xcvsim::NodeInfo;
using xcvsim::NodeKind;
using xcvsim::TemplateValue;
using xcvsim::TraceHop;
using xcvsim::UnroutableError;

namespace {

std::string pinName(const Pin& p) {
  return "R" + std::to_string(p.rc.row) + "C" + std::to_string(p.rc.col) +
         "." + xcvsim::wireName(p.wire);
}

Pin sourcePinOf(const EndPoint& ep) {
  if (ep.isPin()) return ep.pin();
  const auto& pins = ep.port().pins();
  if (pins.empty()) {
    throw ArgumentError("port '" + ep.port().name() + "' has no bound pins");
  }
  return pins.front();
}

/// Which API level resolved each call (the paper's six route levels plus
/// the unrouter), how each auto-routed sink was satisfied, and how each
/// txn ended. The per-sink counters are the template-hit vs
/// maze-fallback split that E3 measures offline, live.
struct RouterMetrics {
  jrobs::Counter& apiPip = jrobs::registry().counter("router.api.pip");
  jrobs::Counter& apiPath = jrobs::registry().counter("router.api.path");
  jrobs::Counter& apiTemplate =
      jrobs::registry().counter("router.api.template");
  jrobs::Counter& apiP2p = jrobs::registry().counter("router.api.p2p");
  jrobs::Counter& apiFanout = jrobs::registry().counter("router.api.fanout");
  jrobs::Counter& apiBus = jrobs::registry().counter("router.api.bus");
  jrobs::Counter& apiCommitChain =
      jrobs::registry().counter("router.api.commit_chain");
  jrobs::Counter& apiUnroute =
      jrobs::registry().counter("router.api.unroute");
  jrobs::Counter& apiReverseUnroute =
      jrobs::registry().counter("router.api.reverse_unroute");
  jrobs::Counter& sinkReuse = jrobs::registry().counter("router.sink.reuse");
  jrobs::Counter& sinkTemplate =
      jrobs::registry().counter("router.sink.lib_template");
  jrobs::Counter& sinkMaze = jrobs::registry().counter("router.sink.maze");
  jrobs::Counter& failed = jrobs::registry().counter("router.routes.failed");
  jrobs::Counter& txnCommits = jrobs::registry().counter("txn.commits");
  jrobs::Counter& txnRollbacks = jrobs::registry().counter("txn.rollbacks");
};

RouterMetrics& metrics() {
  static RouterMetrics m;
  return m;
}

}  // namespace

bool canDriveNet(const Graph& g, NodeId n) {
  const NodeInfo inf = g.info(n);
  if (inf.kind == NodeKind::GclkPad || inf.kind == NodeKind::Gclk ||
      inf.kind == NodeKind::IobIn || inf.kind == NodeKind::BramOut) {
    return true;
  }
  return inf.kind == NodeKind::Logic && inf.local < xcvsim::kOmuxBase;
}

std::vector<Pin> sinkPinsNearestFirst(const Pin& source,
                                      std::span<const EndPoint> sinks) {
  // "Each sink gets routed in order of increasing distance from the
  // source. For each sink, the router attempts to reuse the previous
  // paths as much as possible."
  std::vector<Pin> pins;
  for (const EndPoint& ep : sinks) {
    for (const Pin& p : ep.resolve()) pins.push_back(p);
  }
  std::stable_sort(pins.begin(), pins.end(), [&](const Pin& a, const Pin& b) {
    return manhattan(source.rc, a.rc) < manhattan(source.rc, b.rc);
  });
  return pins;
}

Router::Router(Fabric& fabric, RouterOptions opts)
    : fabric_(&fabric), opts_(opts), maze_(fabric.graph()) {
  // Resolve the shared per-device lookahead once; every search and every
  // selector decision then reads the same immutable table.
  if (opts_.useLookahead && opts_.lookahead == nullptr) {
    opts_.lookahead = &jrla::Lookahead::forGraph(fabric.graph());
  }
}

NodeId Router::pinNode(const Pin& pin) const {
  const NodeId n = fabric_->graph().nodeAt(pin.rc, pin.wire);
  if (n == kInvalidNode) {
    throw ArgumentError("no such wire: " + pinName(pin));
  }
  return n;
}

NetId Router::netFor(NodeId srcNode) {
  if (fabric_->isUsed(srcNode)) return fabric_->netOf(srcNode);
  if (!canDriveNet(fabric_->graph(), srcNode)) {
    throw ArgumentError("wire " + fabric_->graph().nodeName(srcNode) +
                        " is not routed and cannot drive a new net");
  }
  const NetId net = fabric_->createNet(srcNode);
  if (journal_.open) journal_.nets.push_back(net);
  return net;
}

NetId Router::ensureNet(const EndPoint& source) {
  return netFor(pinNode(sourcePinOf(source)));
}

void Router::turnOnChain(std::span<const EdgeId> chain, NetId net) {
  // Track which edges this call actually switched: a chain may reuse an
  // already-on edge of its own net (idempotent template reuse), and that
  // edge must survive a rollback and stay out of the journal.
  std::vector<bool> fresh(chain.size(), false);
  size_t done = 0;
  try {
    for (const EdgeId e : chain) {
      fresh[done] = !fabric_->edgeOn(e);
      fabric_->turnOn(e, net);
      ++done;
      ++stats_.pipsTurnedOn;
    }
  } catch (...) {
    // Roll back the partial chain so a failed call leaves no debris.
    while (done > 0) {
      --done;
      if (!fresh[done]) continue;
      fabric_->turnOff(chain[done]);
      ++stats_.pipsTurnedOff;
    }
    throw;
  }
  // Only a fully applied chain is durable; journal it.
  if (journal_.open) {
    for (size_t i = 0; i < chain.size(); ++i) {
      if (fresh[i]) journal_.pips.emplace_back(chain[i], net);
    }
  }
}

void Router::commitChain(std::span<const EdgeId> chain, NetId net) {
  turnOnChain(chain, net);
  ++stats_.routesCompleted;
  metrics().apiCommitChain.add();
}

// --- Level 1: single connections ---------------------------------------------

void Router::route(int row, int col, LocalWire from, LocalWire to) {
  const Pin f(row, col, from), t(row, col, to);
  routePip(f, t);
  stats_.lastMethod = RouteMethod::DirectPip;
}

void Router::routePip(const Pin& from, const Pin& to) {
  const Graph& g = fabric_->graph();
  const NodeId u = pinNode(from);
  const NodeId v = pinNode(to);
  // The PIP lives in the switch box of a tile both wires are visible from;
  // for same-tile calls that is the named tile, for direct connects the
  // source pin's tile.
  EdgeId e = g.findEdge(u, v, from.rc);
  if (e == kInvalidEdge) e = g.findEdge(u, v);
  if (e == kInvalidEdge) {
    throw ArgumentError("no PIP connects " + pinName(from) + " to " +
                        pinName(to));
  }
  const NetId net = netFor(u);
  const bool wasOn = fabric_->edgeOn(e);
  fabric_->turnOn(e, net);
  ++stats_.pipsTurnedOn;
  ++stats_.routesCompleted;
  stats_.lastMethod = RouteMethod::DirectPip;
  metrics().apiPip.add();
  if (journal_.open && !wasOn) journal_.pips.emplace_back(e, net);
}

// --- Level 2: explicit path ---------------------------------------------------

void Router::route(const Path& path) {
  const auto chain = resolvePath(fabric_->graph(), path.start(), path.wires());
  const NodeId first = fabric_->graph().edgeSource(chain.front());
  turnOnChain(chain, netFor(first));
  ++stats_.routesCompleted;
  stats_.lastMethod = RouteMethod::Path;
  metrics().apiPath.add();
}

// --- Level 3: user template ----------------------------------------------------

void Router::route(const Pin& start, LocalWire endWire, const Template& tmpl) {
  const NodeId startNode = pinNode(start);
  const NetId net = netFor(startNode);
  ++stats_.templateAttempts;
  const TemplateResult res =
      followTemplate(*fabric_, startNode, tmpl.values(), kInvalidNode,
                     endWire, opts_);
  stats_.templateVisits += res.visited;
  if (!res.found) {
    ++stats_.routesFailed;
    metrics().failed.add();
    throw UnroutableError(
        "no unused resource combination follows the template from " +
        pinName(start) + " to " + xcvsim::wireName(endWire));
  }
  ++stats_.templateHits;
  turnOnChain(res.edges, net);
  ++stats_.routesCompleted;
  stats_.lastMethod = RouteMethod::UserTemplate;
  metrics().apiTemplate.add();
}

// --- Levels 4-6: auto routing ----------------------------------------------------

std::vector<NodeId> Router::treeOf(NetId net) const {
  std::vector<NodeId> nodes{fabric_->netSource(net)};
  for (const TraceHop& hop : traceForward(*fabric_, nodes.front())) {
    nodes.push_back(hop.to);
  }
  return nodes;
}

void Router::routeSink(NetId net, NodeId srcNode, const Pin& srcPin,
                       const Pin& sinkPin, std::vector<NodeId>& treeNodes,
                       bool tryTemplates,
                       const std::vector<TemplateValue>* hint,
                       std::vector<TemplateValue>* shapeOut) {
  const Graph& g = fabric_->graph();
  const NodeId sinkNode = pinNode(sinkPin);
  if (fabric_->isUsed(sinkNode)) {
    if (fabric_->netOf(sinkNode) == net) {
      stats_.lastMethod = RouteMethod::Reuse;  // already connected
      ++stats_.routesCompleted;
      metrics().sinkReuse.add();
      return;
    }
    throw ContentionError("sink " + pinName(sinkPin) +
                              " is already in use by another net",
                          sinkNode);
  }

  const SinkQuery q{.net = net,
                    .source = srcNode,
                    .sourceTile = srcPin.rc,
                    .sourceWire = srcPin.wire,
                    .sink = sinkNode,
                    .sinkTile = sinkPin.rc,
                    .sinkWire = sinkPin.wire,
                    .tree = treeNodes,
                    .tryLibrary = tryTemplates,
                    .hint = hint,
                    .exportShape = shapeOut != nullptr};
  SinkRoute r = searchSink(*fabric_, maze_, opts_, q, stats_);
  if (!r.found) {
    ++stats_.routesFailed;
    metrics().failed.add();
    throw UnroutableError("auto route failed: " + pinName(srcPin) + " -> " +
                          pinName(sinkPin));
  }
  turnOnChain(r.edges, net);
  for (const EdgeId e : r.edges) treeNodes.push_back(g.edge(e).to);
  if (shapeOut) *shapeOut = std::move(r.shape);
  stats_.lastMethod = r.method;
  ++stats_.routesCompleted;
  (r.method == RouteMethod::Maze ? metrics().sinkMaze : metrics().sinkTemplate)
      .add();
}

void Router::recordConnection(const EndPoint& source,
                              std::span<const EndPoint> sinks) {
  if (!recording_) return;
  bool hasPort = source.isPort();
  for (const EndPoint& s : sinks) hasPort = hasPort || s.isPort();
  if (!hasPort) return;
  connections_.push_back({source, {sinks.begin(), sinks.end()}});
}

void Router::route(const EndPoint& source, const EndPoint& sink) {
  JR_TRACE_SCOPE("router", "p2p");
  metrics().apiP2p.add();
  routeAuto(source, std::span<const EndPoint>(&sink, 1));
}

void Router::route(const EndPoint& source, std::span<const EndPoint> sinks) {
  JR_TRACE_SCOPE("router", "fanout");
  metrics().apiFanout.add();
  routeAuto(source, sinks);
}

void Router::routeAuto(const EndPoint& source,
                       std::span<const EndPoint> sinks) {
  const Pin srcPin = sourcePinOf(source);
  const NodeId srcNode = pinNode(srcPin);
  const NetId net = netFor(srcNode);

  const std::vector<Pin> sinkPins = sinkPinsNearestFirst(srcPin, sinks);
  if (sinkPins.empty()) {
    throw ArgumentError("route: no sink pins to route to");
  }

  std::vector<NodeId> treeNodes = treeOf(net);
  bool first = treeNodes.size() == 1;
  for (const Pin& sp : sinkPins) {
    // Templates shine on fresh point-to-point connections; once a tree
    // exists, tree-reusing maze search is the better (and cheaper) tool.
    routeSink(net, srcNode, srcPin, sp, treeNodes, first, nullptr, nullptr);
    first = false;
  }
  recordConnection(source, sinks);
}

void Router::route(std::span<const EndPoint> sources,
                   std::span<const EndPoint> sinks) {
  routeBusImpl(sources, sinks, /*lenient=*/false);
}

int Router::tryRouteBus(std::span<const EndPoint> sources,
                        std::span<const EndPoint> sinks) {
  return routeBusImpl(sources, sinks, /*lenient=*/true);
}

int Router::routeBusImpl(std::span<const EndPoint> sources,
                         std::span<const EndPoint> sinks, bool lenient) {
  JR_TRACE_SCOPE("router", "bus");
  metrics().apiBus.add();
  if (sources.size() != sinks.size()) {
    throw ArgumentError("bus route: " + std::to_string(sources.size()) +
                        " sources vs " + std::to_string(sinks.size()) +
                        " sinks");
  }
  int failed = 0;
  std::vector<TemplateValue> shape, nextShape;
  for (size_t i = 0; i < sources.size(); ++i) {
    const Pin srcPin = sourcePinOf(sources[i]);
    const NodeId srcNode = pinNode(srcPin);
    const NetId net = netFor(srcNode);
    std::vector<NodeId> treeNodes = treeOf(net);
    const auto sinkPins = sinks[i].resolve();
    if (sinkPins.empty()) {
      throw ArgumentError("bus route: sink " + std::to_string(i) +
                          " has no pins");
    }
    bool first = treeNodes.size() == 1;
    bool bitOk = true;
    for (const Pin& sp : sinkPins) {
      try {
        routeSink(net, srcNode, srcPin, sp, treeNodes, first,
                  shape.empty() ? nullptr : &shape,
                  first ? &nextShape : nullptr);
      } catch (const UnroutableError&) {
        if (!lenient) throw;
        bitOk = false;
        ++failed;
        break;
      }
      first = false;
    }
    if (bitOk) {
      shape = nextShape;  // regularity: reuse this bit's shape for the next
      recordConnection(sources[i], sinks.subspan(i, 1));
    }
  }
  return failed;
}

// --- Unrouter -------------------------------------------------------------------

void Router::unroute(const EndPoint& source) {
  const Pin srcPin = sourcePinOf(source);
  const NodeId node = pinNode(srcPin);
  if (!fabric_->isUsed(node)) {
    throw ArgumentError("unroute: " + pinName(srcPin) + " is not routed");
  }
  unrouteNode(node);
}

void Router::unrouteNode(NodeId node) {
  metrics().apiUnroute.add();
  const NetId net = fabric_->netOf(node);
  const auto hops = traceForward(*fabric_, node);
  // Leaf-side first keeps the fabric consistent at every step.
  for (auto it = hops.rbegin(); it != hops.rend(); ++it) {
    fabric_->turnOff(it->edge);
    ++stats_.pipsTurnedOff;
  }
  if (fabric_->netSource(net) == node) {
    fabric_->removeNet(net);
  }
}

void Router::reverseUnroute(const EndPoint& sink) {
  metrics().apiReverseUnroute.add();
  const Pin sinkPin = sourcePinOf(sink);
  NodeId node = pinNode(sinkPin);
  if (!fabric_->isUsed(node)) {
    throw ArgumentError("reverseUnroute: " + pinName(sinkPin) +
                        " is not routed");
  }
  if (fabric_->onOutCount(node) != 0) {
    throw ArgumentError("reverseUnroute: " + pinName(sinkPin) +
                        " is not a sink (it drives other wires)");
  }
  const NetId net = fabric_->netOf(node);
  while (true) {
    const EdgeId e = fabric_->driverOf(node);
    if (e == kInvalidEdge) break;  // reached the net source
    const NodeId up = fabric_->graph().edgeSource(e);
    fabric_->turnOff(e);
    ++stats_.pipsTurnedOff;
    // "It stops there because only the branch to the given sink is to be
    // unrouted": stop at the first segment still driving other branches
    // and at the source.
    if (up == fabric_->netSource(net) || fabric_->onOutCount(up) != 0) break;
    node = up;
  }
}

// --- Contention -------------------------------------------------------------------

bool Router::isOn(int row, int col, LocalWire wire) const {
  return fabric_->isUsed(pinNode(Pin(row, col, wire)));
}

// --- Debug ------------------------------------------------------------------------

NetTrace Router::trace(const EndPoint& source) const {
  const NodeId node = pinNode(sourcePinOf(source));
  NetTrace t;
  t.source = node;
  t.hops = traceForward(*fabric_, node);
  t.sinks = netSinks(*fabric_, node);
  return t;
}

std::vector<TraceHop> Router::reverseTrace(const EndPoint& sink) const {
  return traceBack(*fabric_, pinNode(sourcePinOf(sink)));
}

// --- Transactions ------------------------------------------------------------------

Router::Txn::Txn(Router& router) : router_(&router) {
  Journal& j = router.journal_;
  if (j.open) throw JRouteError("a transaction is already open on this router");
  j.open = true;
  j.connMark = router.connections_.size();
}

void Router::Txn::commit() {
  if (!active_) return;
  close();
  metrics().txnCommits.add();
}

void Router::Txn::rollback() {
  if (!active_) return;
  const Journal& j = router_->journal_;
  jrobs::flightRecorder().note("txn", "rollback", j.pips.size(),
                               j.nets.size());
  Fabric& fabric = *router_->fabric_;
  // Chains were applied source-side first, so reverse order is leaf-first
  // within every chain and detaches later branches before the trunks they
  // hang from.
  for (auto it = j.pips.rbegin(); it != j.pips.rend(); ++it) {
    fabric.turnOff(it->first);
  }
  // With all journaled PIPs off, each created net is back to its bare
  // source.
  for (auto it = j.nets.rbegin(); it != j.nets.rend(); ++it) {
    fabric.removeNet(*it);
  }
  // A rolled-back port route must leave no remembered connection that a
  // later core replace would phantom-reroute.
  router_->truncateConnections(j.connMark);
  close();
  metrics().txnRollbacks.add();
}

size_t Router::Txn::pipsOf(NetId net) const {
  return static_cast<size_t>(std::ranges::count(
      router_->journal_.pips, net, &std::pair<EdgeId, NetId>::second));
}

void Router::Txn::close() {
  active_ = false;
  Journal& j = router_->journal_;
  j.open = false;
  j.pips.clear();
  j.nets.clear();
}

// --- RTR reconnection ----------------------------------------------------------------

void Router::rerouteConnectionsOf(const Port& port) {
  const auto touches = [&](const Connection& c) {
    if (c.source.isPort() && &c.source.port() == &port) return true;
    for (const EndPoint& s : c.sinks) {
      if (s.isPort() && &s.port() == &port) return true;
    }
    return false;
  };
  recording_ = false;
  try {
    for (const Connection& c : connections_) {
      if (touches(c)) route(c.source, std::span<const EndPoint>(c.sinks));
    }
  } catch (...) {
    recording_ = true;
    throw;
  }
  recording_ = true;
}

}  // namespace jroute
