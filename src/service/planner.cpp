#include "service/planner.h"

#include <string>
#include <utility>

#include "core/router.h"
#include "fabric/trace.h"
#include "lookahead/lookahead.h"
#include "obs/trace.h"

namespace jrsvc {

using jroute::Pin;
using xcvsim::kInvalidNet;
using xcvsim::kInvalidNode;
using xcvsim::TemplateValue;

namespace {

std::string pinName(const xcvsim::Graph& g, const Pin& p) {
  const NodeId n = g.nodeAt(p.rc, p.wire);
  if (n != kInvalidNode) return g.nodeName(n);
  return "R" + std::to_string(p.rc.row) + "C" + std::to_string(p.rc.col) +
         ".wire" + std::to_string(p.wire);
}

bool fail(Plan& plan, Reject reason, std::string detail, bool authoritative) {
  plan.reason = reason;
  plan.detail = std::move(detail);
  plan.authoritative = authoritative;
  return false;
}

}  // namespace

Planner::Planner(const xcvsim::Fabric& fabric, jroute::RouterOptions opts)
    : fabric_(&fabric), opts_(opts), maze_(fabric.graph()) {
  // Same per-device table as the serial router: immutable, shared across
  // every planner thread.
  if (opts_.useLookahead && opts_.lookahead == nullptr) {
    opts_.lookahead = &jrla::Lookahead::forGraph(fabric.graph());
  }
}

Plan Planner::plan(const Request& req) {
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
      if (!planNet(plan, req.sources[i].resolve().front(),
                   req.sinks[i].resolve(), shape.empty() ? nullptr : &shape,
                   &nextShape)) {
        return plan;
      }
      shape = nextShape;
    }
  } else {
    // P2P and fanout: one source, every sink pin on the same net.
    const Pin srcPin = req.sources.front().resolve().front();
    if (!planNet(plan, srcPin,
                 jroute::sinkPinsNearestFirst(srcPin, req.sinks))) {
      return plan;
    }
  }
  plan.found = true;
  return plan;
}

bool Planner::planNet(Plan& plan, const Pin& srcPin,
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
  } else if (!jroute::canDriveNet(g, net.srcNode)) {
    return fail(plan, Reject::kBadArgument,
                "wire " + g.nodeName(net.srcNode) + " cannot drive a net",
                true);
  }

  // Like Router: only a fresh net's first sink tries the library and
  // exports the next bus bit's shape.
  bool first = treeNodes.size() == 1;
  for (const Pin& sp : sinkPins) {
    if (!planSink(plan, net, srcPin, sp, treeNodes, first, hint,
                  first ? shapeOut : nullptr)) {
      return false;
    }
    first = false;
  }
  plan.nets.push_back(std::move(net));
  return true;
}

bool Planner::planSink(Plan& plan, PlannedNet& net,
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

  // The Router's own sink search, against the frozen fabric.
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
  jroute::SinkRoute r =
      jroute::searchSink(*fabric_, maze_, opts_, q, plan.effort);
  if (!r.found) {
    // The serialized retry is authoritative: it runs after the batch's
    // earlier unroutes, which may have freed the wires this search lacked.
    return fail(plan, Reject::kUnroutable,
                "no path: " + pinName(g, srcPin) + " -> " +
                    pinName(g, sinkPin),
                false);
  }
  if (shapeOut) *shapeOut = std::move(r.shape);
  for (const EdgeId e : r.edges) treeNodes.push_back(g.edge(e).to);
  net.edges.insert(net.edges.end(), r.edges.begin(), r.edges.end());
  return true;
}

}  // namespace jrsvc
