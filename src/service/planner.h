// Concurrent route planning against a frozen fabric.
//
// During a batch's parallel phase the engine freezes the fabric (no
// commits happen until every planner is done), and one Planner per worker
// thread computes edge chains for its requests by running the Router's
// own sink search (router/sink_search.h): the same sink order, bus-shape
// hint, strategy selector, template bodies and maze, all of which only
// *read* fabric state. Planners share no mutable state, so a plan never
// depends on how many planners ran or in which order. Two plans may still
// want the same wire: the engine finds out at commit, where the plan's
// Router::Txn rolls it back and the request takes the serialized path,
// which is authoritative.
#pragma once

#include <string>
#include <vector>

#include "router/sink_search.h"
#include "service/request.h"

namespace jrsvc {

using xcvsim::EdgeId;
using xcvsim::NetId;
using xcvsim::NodeId;

/// One net a plan wants to create or extend.
struct PlannedNet {
  /// Pin addressing the net source (for commit-time ensureNet).
  jroute::Pin srcPin;
  NodeId srcNode = xcvsim::kInvalidNode;
  /// Net to extend; kInvalidNet means commit creates a fresh net.
  NetId existing = xcvsim::kInvalidNet;
  /// Edge chains in commit order (concatenated, source-side first).
  std::vector<EdgeId> edges;
};

struct Plan {
  bool found = false;
  /// True when the failure is final (bad pin, sink held by another net):
  /// the serialized path would fail identically, so the engine rejects
  /// without retrying.
  bool authoritative = false;
  Reject reason = Reject::kNone;
  std::string detail;
  std::vector<PlannedNet> nets;
  /// Search effort, counted as the Router counts its own; recorded in the
  /// committed nets' provenance (obs/provenance.h).
  jroute::RouteStats effort;
  /// For contention failures: the contested segment, when known.
  NodeId contendedNode = xcvsim::kInvalidNode;
};

class Planner {
 public:
  /// `opts` is copied.
  Planner(const xcvsim::Fabric& fabric, jroute::RouterOptions opts);

  /// Plan `req`, a route request that passed the engine's precheck.
  /// Never touches fabric state.
  Plan plan(const Request& req);

 private:
  /// `hint`/`shapeOut` carry bus regularity between bits of one request,
  /// as in Router::route(sources, sinks).
  bool planNet(Plan& plan, const jroute::Pin& srcPin,
               const std::vector<jroute::Pin>& sinkPins,
               const std::vector<xcvsim::TemplateValue>* hint = nullptr,
               std::vector<xcvsim::TemplateValue>* shapeOut = nullptr);
  bool planSink(Plan& plan, PlannedNet& net, const jroute::Pin& srcPin,
                const jroute::Pin& sinkPin,
                std::vector<NodeId>& treeNodes, bool tryTemplates,
                const std::vector<xcvsim::TemplateValue>* hint = nullptr,
                std::vector<xcvsim::TemplateValue>* shapeOut = nullptr);

  const xcvsim::Fabric* fabric_;
  jroute::RouterOptions opts_;
  jroute::MazeRouter maze_;
};

}  // namespace jrsvc
