// Concurrent route planning against a frozen fabric.
//
// During a batch's parallel phase the engine freezes the fabric (no
// commits happen until every planner is done), and one Planner per worker
// thread computes edge chains for its requests by running the Router's
// own sink search (router/sink_search.h): the same sink order, bus-shape
// hint, strategy selector, template bodies and maze, all of which only
// *read* fabric state. Planners share no mutable state, so a plan never
// depends on how many planners ran or in which order.
//
// A planner only ever plans fresh nets (the engine sends a route whose
// source is already in use to the serialized path) and never decides a
// request's outcome: a plan either found chains or did not. A plan that
// was not found, or that wants a wire an earlier commit took (its
// Router::Txn rolls it back at commit), runs on the serialized path,
// which sees every earlier request of the batch in arrival order and is
// the only judge of a rejection.
#pragma once

#include <span>
#include <vector>

#include "router/sink_search.h"
#include "service/request.h"

namespace jrsvc {

using xcvsim::EdgeId;
using xcvsim::NodeId;

/// One fresh net a plan wants to create.
struct PlannedNet {
  /// Pin addressing the net source (for commit-time ensureNet).
  jroute::Pin srcPin;
  NodeId srcNode = xcvsim::kInvalidNode;
  /// Edge chains in commit order (concatenated, source-side first).
  std::vector<EdgeId> edges;
};

struct Plan {
  bool found = false;
  std::vector<PlannedNet> nets;
  /// Search effort, counted as the Router counts its own; recorded in the
  /// committed nets' provenance (obs/provenance.h).
  jroute::RouteStats effort;
};

class Planner {
 public:
  /// `opts` is copied.
  Planner(const xcvsim::Fabric& fabric, jroute::RouterOptions opts);

  /// Plan `req`, a route request that passed the engine's precheck and
  /// whose sources are all free. Never touches fabric state.
  Plan plan(const Request& req);

 private:
  /// `hint`/`shapeOut` carry bus regularity between bits of one request,
  /// as in Router::route(sources, sinks).
  bool planNet(Plan& plan, const jroute::Pin& srcPin,
               std::span<const jroute::Pin> sinkPins,
               const std::vector<xcvsim::TemplateValue>* hint = nullptr,
               std::vector<xcvsim::TemplateValue>* shapeOut = nullptr);
  bool planSink(Plan& plan, PlannedNet& net, const jroute::Pin& sinkPin,
                std::vector<NodeId>& treeNodes, bool tryTemplates,
                const std::vector<xcvsim::TemplateValue>* hint = nullptr,
                std::vector<xcvsim::TemplateValue>* shapeOut = nullptr);

  const xcvsim::Fabric* fabric_;
  jroute::RouterOptions opts_;
  jroute::MazeRouter maze_;
  jroute::TemplateBodies bodies_;
};

}  // namespace jrsvc
