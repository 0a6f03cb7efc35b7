// A*-based maze router over the routing-resource graph.
//
// "One possibility is to use a maze router" (section 3.1) — this is the
// fallback behind the auto-routing calls, and the workhorse of the greedy
// fanout router: it accepts a *set* of start nodes (the already-routed net
// tree, at cost 0) so each additional sink reuses the existing tree as
// much as possible. Delay-weighted costs make it prefer the fast resource
// mix (hexes over chains of singles, long lines over chains of hexes).
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "fabric/fabric.h"
#include "router/options.h"

namespace jroute {

using xcvsim::DelayPs;
using xcvsim::EdgeId;
using xcvsim::Fabric;
using xcvsim::NetId;
using xcvsim::NodeId;

struct SearchResult {
  bool found = false;
  /// Edges source-side first, ending on the goal. Empty when the goal was
  /// already part of the start set.
  std::vector<EdgeId> edges;
  size_t visited = 0;
  /// Neighbors skipped outright because the lookahead proved them
  /// unreachable-to-goal (abstract-unreachable implies real-unreachable).
  size_t pruned = 0;
  /// True when the search ran with the lookahead heuristic.
  bool usedLookahead = false;
};

/// Reusable scratch space; one instance per Router, sized to the graph.
class MazeRouter {
 public:
  explicit MazeRouter(const xcvsim::Graph& graph);

  /// Search from any of `starts` (cost 0; they must belong to `net` or be
  /// free) to `goal`. Nodes used by other nets are obstacles; nodes of
  /// `net` itself are only usable as starts. The result's edge chain is
  /// NOT turned on — the caller owns fabric mutation.
  SearchResult route(const Fabric& fabric, NetId net,
                     std::span<const NodeId> starts, NodeId goal,
                     const RouterOptions& opts);

 private:
  /// The search proper, free of telemetry: the trace scope and metric
  /// objects live in route()'s frame, not here — their cleanups in the
  /// same function as the A* loop measurably pessimize its codegen.
  SearchResult search(const Fabric& fabric, std::span<const NodeId> starts,
                      NodeId goal, const RouterOptions& opts);

  /// Search state of one node: cost so far, the edge it was reached
  /// through, and the search (epoch) that wrote them. One 16-byte record,
  /// so a relaxation touches one cache line, not three.
  struct NodeState {
    DelayPs g = 0;
    EdgeId parent = xcvsim::kInvalidEdge;
    uint32_t epoch = 0;  // the record is valid iff == epoch_
  };
  using QItem = std::pair<DelayPs, NodeId>;  // (f, node)

  /// Start a new search. When the epoch wraps, every stamp is zeroed:
  /// otherwise a node stamped 2^32 searches ago would read as seen.
  void nextEpoch();

  friend class MazeRouterMutator;

  const xcvsim::Graph* graph_;
  std::vector<NodeState> state_;
  std::vector<uint8_t> closed_;
  std::vector<QItem> open_;  // binary min-heap on (f, node), reused
  uint32_t epoch_ = 0;
};

/// TEST-ONLY access to the maze's epoch counter, so a test can drive it
/// to the wrap without 2^32 searches.
class MazeRouterMutator {
 public:
  explicit MazeRouterMutator(MazeRouter& m) : m_(&m) {}
  void setEpoch(uint32_t epoch) { m_->epoch_ = epoch; }
  uint32_t epoch() const { return m_->epoch_; }

 private:
  MazeRouter* m_;
};

}  // namespace jroute
