#include "service/planner.h"

#include <utility>

#include "core/router.h"
#include "lookahead/lookahead.h"
#include "obs/trace.h"

namespace jrsvc {

using jroute::Pin;
using xcvsim::kInvalidNode;
using xcvsim::TemplateValue;

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
  // source pin naming a wire; the engine sent it here because every
  // source wire was free.
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
                      std::span<const Pin> sinkPins,
                      const std::vector<TemplateValue>* hint,
                      std::vector<TemplateValue>* shapeOut) {
  const xcvsim::Graph& g = fabric_->graph();
  PlannedNet net;
  net.srcPin = srcPin;
  net.srcNode = g.nodeAt(srcPin.rc, srcPin.wire);
  if (!jroute::canDriveNet(g, net.srcNode)) return false;
  std::vector<NodeId> treeNodes{net.srcNode};

  // Like Router: only a fresh net's first sink tries the library and
  // exports the next bus bit's shape.
  bool first = true;
  for (const Pin& sp : sinkPins) {
    if (!planSink(plan, net, sp, treeNodes, first, hint,
                  first ? shapeOut : nullptr)) {
      return false;
    }
    first = false;
  }
  plan.nets.push_back(std::move(net));
  return true;
}

bool Planner::planSink(Plan& plan, PlannedNet& net, const Pin& sinkPin,
                       std::vector<NodeId>& treeNodes, bool tryTemplates,
                       const std::vector<TemplateValue>* hint,
                       std::vector<TemplateValue>* shapeOut) {
  const xcvsim::Graph& g = fabric_->graph();
  const NodeId sinkNode = g.nodeAt(sinkPin.rc, sinkPin.wire);
  // A sink held by another net (or naming no wire) is the serialized
  // path's to judge: an earlier request of the batch may free it.
  if (sinkNode == kInvalidNode || fabric_->isUsed(sinkNode)) return false;

  // The Router's own sink search, against the frozen fabric.
  const jroute::SinkQuery q{.net = xcvsim::kInvalidNet,
                            .source = net.srcNode,
                            .sourceTile = net.srcPin.rc,
                            .sourceWire = net.srcPin.wire,
                            .sink = sinkNode,
                            .sinkTile = sinkPin.rc,
                            .sinkWire = sinkPin.wire,
                            .tree = treeNodes,
                            .tryLibrary = tryTemplates,
                            .hint = hint,
                            .exportShape = shapeOut != nullptr};
  jroute::SinkRoute r =
      jroute::searchSink(*fabric_, maze_, bodies_, opts_, q, plan.effort);
  if (!r.found) return false;
  if (shapeOut) *shapeOut = std::move(r.shape);
  for (const EdgeId e : r.edges) treeNodes.push_back(g.edge(e).to);
  net.edges.insert(net.edges.end(), r.edges.begin(), r.edges.end());
  return true;
}

}  // namespace jrsvc
