// The auto-router's per-sink policy (section 3.1), written once.
//
// One sink of a net is searched in a fixed order: the previous bus bit's
// shape (regular designs route regularly), then, for the first sink of a
// fresh net, the strategy selector's library or long-line template bodies,
// then the maze from the whole net tree. The search only reads the fabric.
// Its callers commit the chain: Router::routeSink turns it on at once, and
// the routing service's planners hand it to the engine's commit phase
// (service/planner.h).
#pragma once

#include <span>
#include <vector>

#include "router/options.h"
#include "router/path_engine.h"
#include "router/search.h"
#include "router/template_lib.h"

namespace jroute {

using xcvsim::TemplateValue;

/// One sink to connect to a net's tree.
struct SinkQuery {
  /// Net being extended; kInvalidNet when the net is not created yet.
  NetId net = xcvsim::kInvalidNet;
  NodeId source = xcvsim::kInvalidNode;
  /// Tile and wire of the pin naming the source (template generation).
  RowCol sourceTile;
  LocalWire sourceWire = xcvsim::kInvalidLocalWire;
  NodeId sink = xcvsim::kInvalidNode;
  RowCol sinkTile;
  LocalWire sinkWire = xcvsim::kInvalidLocalWire;
  /// The net's current tree, source first: the maze's zero-cost starts.
  std::span<const NodeId> tree;
  /// Try the template library (the first sink of a fresh net): once a
  /// tree exists, the tree-reusing maze is the better and cheaper tool.
  bool tryLibrary = false;
  /// Previous bus bit's shape, tried before anything else; may be null.
  const std::vector<TemplateValue>* hint = nullptr;
  /// Fill SinkRoute::shape for the next bus bit.
  bool exportShape = false;
};

struct SinkRoute {
  bool found = false;
  RouteMethod method = RouteMethod::None;  // LibTemplate or Maze
  std::vector<EdgeId> edges;               // source-side first
  /// Template values of `edges`, the next bus bit's hint. Empty unless
  /// requested, and for maze routes: they meander around congestion and
  /// rarely refit.
  std::vector<TemplateValue> shape;
};

/// Search one sink, bumping `stats` (template attempts, hits and visits,
/// shape-reuse and long-line hits, selector decisions, maze runs and
/// visits) and router.bus.shape_reuse_hits. `maze` and `bodies` are the
/// caller's scratch space. The strategy selector runs (and is counted)
/// only when the search reaches the library step. Never mutates the
/// fabric; a failed search (found == false) bumps no failure counter.
SinkRoute searchSink(const Fabric& fabric, MazeRouter& maze,
                     TemplateBodies& bodies, const RouterOptions& opts,
                     const SinkQuery& q, RouteStats& stats);

}  // namespace jroute
