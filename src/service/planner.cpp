#include "service/planner.h"

#include <string>
#include <utility>

#include "core/router.h"
#include "fabric/trace.h"
#include "lookahead/lookahead.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace jrsvc {

using jroute::Pin;
using xcvsim::kInvalidNet;
using xcvsim::kInvalidNode;
using xcvsim::TemplateValue;

namespace {

constexpr int kMaxClaimRetries = 4;

std::string pinName(const xcvsim::Graph& g, const Pin& p) {
  const NodeId n = g.nodeAt(p.rc, p.wire);
  if (n != kInvalidNode) return g.nodeName(n);
  return "R" + std::to_string(p.rc.row) + "C" + std::to_string(p.rc.col) +
         ".wire" + std::to_string(p.wire);
}

/// Count a lost claim race.
void countLostClaim() {
  static jrobs::Counter& conflicts =
      jrobs::registry().counter("service.plan.claim_conflicts");
  conflicts.add();
}

bool fail(Plan& plan, Reject reason, std::string detail, bool authoritative) {
  plan.reason = reason;
  plan.detail = std::move(detail);
  plan.authoritative = authoritative;
  return false;
}

}  // namespace

Planner::Planner(const xcvsim::Fabric& fabric, ClaimMap& claims,
                 jroute::RouterOptions opts)
    : fabric_(&fabric),
      claims_(&claims),
      view_(claims),
      opts_(opts),
      maze_(fabric.graph()) {
  opts_.claimFilter = &view_;
  // Same per-device table as the serial router: immutable, shared across
  // every planner thread.
  if (opts_.useLookahead && opts_.lookahead == nullptr) {
    opts_.lookahead = &jrla::Lookahead::forGraph(fabric.graph());
  }
}

Plan Planner::plan(uint32_t owner, const Request& req) {
  JR_TRACE_SCOPE("service", "plan");
  // RoutingService::precheck has vetted the request: a route op of the
  // right shape, every source and sink endpoint with pins, and every
  // source pin naming a wire.
  Plan plan;
  if (req.op == Op::kRouteBus) {
    // Bus regularity, as in Router::route(sources, sinks): each bit's
    // first sink exports its template shape, and later bits try it before
    // the library and the maze. All bits of one bus request run on this
    // planner, so the hand-off is sequential even in the parallel phase.
    std::vector<TemplateValue> shape, nextShape;
    for (size_t i = 0; i < req.sources.size(); ++i) {
      if (!planNet(owner, plan, req.sources[i].resolve().front(),
                   req.sinks[i].resolve(), shape.empty() ? nullptr : &shape,
                   &nextShape)) {
        return plan;
      }
      shape = nextShape;
    }
  } else {
    // P2P and fanout: one source, every sink pin on the same net.
    const Pin srcPin = req.sources.front().resolve().front();
    if (!planNet(owner, plan, srcPin,
                 jroute::sinkPinsNearestFirst(srcPin, req.sinks))) {
      return plan;
    }
  }
  plan.found = true;
  return plan;
}

bool Planner::planNet(uint32_t owner, Plan& plan, const Pin& srcPin,
                      const std::vector<Pin>& sinkPins,
                      const std::vector<TemplateValue>* hint,
                      std::vector<TemplateValue>* shapeOut) {
  const xcvsim::Graph& g = fabric_->graph();
  PlannedNet net;
  net.srcPin = srcPin;
  net.srcNode = g.nodeAt(srcPin.rc, srcPin.wire);
  std::vector<NodeId> treeNodes{net.srcNode};
  if (fabric_->isUsed(net.srcNode)) {
    // Extending a committed net: seed the search with its whole tree.
    // (Session ownership was already checked by the engine.)
    net.existing = fabric_->netOf(net.srcNode);
    for (const xcvsim::TraceHop& hop : traceForward(*fabric_, net.srcNode)) {
      treeNodes.push_back(hop.to);
    }
  } else {
    if (!jroute::canDriveNet(g, net.srcNode)) {
      return fail(plan, Reject::kBadArgument,
                  "wire " + g.nodeName(net.srcNode) + " cannot drive a net",
                  true);
    }
    if (!claims_->claim(net.srcNode, owner)) {
      // Another in-flight request wants the same source; let the
      // serialized path decide who wins.
      countLostClaim();
      plan.contendedNode = net.srcNode;
      return fail(plan, Reject::kContention,
                  "source " + g.nodeName(net.srcNode) +
                      " claimed concurrently",
                  false);
    }
    plan.claimed.push_back(net.srcNode);
  }

  // Like Router: only a fresh net's first sink tries the library and
  // exports the next bus bit's shape.
  bool first = treeNodes.size() == 1;
  for (const Pin& sp : sinkPins) {
    if (!planSink(owner, plan, net, srcPin, sp, treeNodes, first, hint,
                  first ? shapeOut : nullptr)) {
      return false;
    }
    first = false;
  }
  plan.nets.push_back(std::move(net));
  return true;
}

bool Planner::planSink(uint32_t owner, Plan& plan, PlannedNet& net,
                       const Pin& srcPin, const Pin& sinkPin,
                       std::vector<NodeId>& treeNodes, bool tryTemplates,
                       const std::vector<TemplateValue>* hint,
                       std::vector<TemplateValue>* shapeOut) {
  const xcvsim::Graph& g = fabric_->graph();
  const NodeId sinkNode = g.nodeAt(sinkPin.rc, sinkPin.wire);
  if (sinkNode == kInvalidNode) {
    return fail(plan, Reject::kBadArgument,
                "no such wire: " + pinName(g, sinkPin), true);
  }
  if (fabric_->isUsed(sinkNode)) {
    if (net.existing != kInvalidNet &&
        fabric_->netOf(sinkNode) == net.existing) {
      return true;  // already connected — idempotent reuse
    }
    plan.contendedNode = sinkNode;
    return fail(plan, Reject::kContention,
                "sink " + g.nodeName(sinkNode) + " is in use by another net",
                true);
  }
  const uint32_t sinkOwner = claims_->ownerOf(sinkNode);
  if (sinkOwner != 0 && sinkOwner != owner) {
    countLostClaim();
    plan.contendedNode = sinkNode;
    return fail(plan, Reject::kContention,
                "sink " + g.nodeName(sinkNode) + " claimed concurrently",
                false);
  }

  // The Router's own sink search. A lost claim race blocks the contested
  // nodes and re-runs it under the strategy chosen the first time.
  const jroute::SinkQuery q{.net = net.existing,
                            .source = net.srcNode,
                            .sourceTile = srcPin.rc,
                            .sourceWire = srcPin.wire,
                            .sink = sinkNode,
                            .sinkTile = sinkPin.rc,
                            .sinkWire = sinkPin.wire,
                            .tree = treeNodes,
                            .tryLibrary = tryTemplates,
                            .hint = hint,
                            .exportShape = shapeOut != nullptr};
  std::optional<jroute::Strategy> strategy;
  for (int attempt = 0; attempt < kMaxClaimRetries; ++attempt) {
    jroute::SinkRoute r = jroute::searchSink(*fabric_, maze_, opts_, q,
                                             strategy, plan.effort);
    if (!r.found) {
      // Possibly starved by concurrent claims; the serialized retry is
      // authoritative for true unroutability.
      return fail(plan, Reject::kUnroutable,
                  "no path: " + pinName(g, srcPin) + " -> " +
                      pinName(g, sinkPin),
                  false);
    }
    if (!claimChain(owner, plan, r.edges)) {
      ++plan.retries;
      continue;
    }
    if (shapeOut) *shapeOut = std::move(r.shape);
    for (const EdgeId e : r.edges) treeNodes.push_back(g.edge(e).to);
    net.edges.insert(net.edges.end(), r.edges.begin(), r.edges.end());
    return true;
  }
  return fail(plan, Reject::kContention, "claim races exhausted", false);
}

bool Planner::claimChain(uint32_t owner, Plan& plan,
                         std::span<const EdgeId> chain) {
  const xcvsim::Graph& g = fabric_->graph();
  std::vector<NodeId> acquired;
  acquired.reserve(chain.size());
  for (const EdgeId e : chain) {
    const NodeId v = g.edge(e).to;
    if (claims_->ownerOf(v) == owner) continue;  // already ours (tree node)
    if (!claims_->claim(v, owner)) {
      countLostClaim();
      plan.contendedNode = v;
      claims_->releaseAll(acquired, owner);
      return false;
    }
    acquired.push_back(v);
  }
  plan.claimed.insert(plan.claimed.end(), acquired.begin(), acquired.end());
  return true;
}

}  // namespace jrsvc
