// A*-based maze router over the routing-resource graph.
//
// "One possibility is to use a maze router" (section 3.1) — this is the
// fallback behind the auto-routing calls, and the workhorse of the greedy
// fanout router: it accepts a *set* of start nodes (the already-routed net
// tree, at cost 0) so each additional sink reuses the existing tree as
// much as possible. Delay-weighted costs make it prefer the fast resource
// mix (hexes over chains of singles, long lines over chains of hexes).
#pragma once

#include <cstdint>
#include <span>
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
  /// Nodes expanded, plus the goal when found (see MazeRouter::route).
  size_t visited = 0;
  /// Neighbors skipped outright because the lookahead proved them
  /// unreachable-to-goal (abstract-unreachable implies real-unreachable).
  size_t pruned = 0;
  /// True when the search ran with the lookahead heuristic.
  bool usedLookahead = false;
};

/// Reusable scratch space; one instance per Router (and per planner).
/// Its per-search state is a small table sized to the search, not to the
/// graph, so a search touches a cache-sized working set.
class MazeRouter {
 public:
  explicit MazeRouter(const xcvsim::Graph& graph);

  /// Search from any of `starts` (cost 0; they must belong to `net` or be
  /// free) to `goal`. Nodes used by other nets are obstacles; nodes of
  /// `net` itself are only usable as starts. The result's edge chain is
  /// NOT turned on — the caller owns fabric mutation.
  ///
  /// Sink-only nodes (Graph::isSinkOnly) other than the goal never enter
  /// the open list: they could only be leaves, so skipping them changes
  /// no other node's cost, parent or pop order. `visited` counts the
  /// nodes expanded, the goal included, and is what maxMazeVisits bounds.
  SearchResult route(const Fabric& fabric, NetId net,
                     std::span<const NodeId> starts, NodeId goal,
                     const RouterOptions& opts);

  /// Largest priority an open-list key holds exactly.
  static constexpr DelayPs kMaxKeyF = (DelayPs{1} << 32) - 1;

  /// Open-list key of `node` at priority `f`: f in the high 32 bits, the
  /// node in the low 32, so one integer compare orders keys as the pairs
  /// (f, node) for every f in [0, kMaxKeyF]. A search pushes a node again
  /// only at a strictly lower f, so its keys are unique and it pops nodes
  /// in the order the pairs would.
  ///
  /// With the shipped options f stays far below the bound: a path has at
  /// most maxMazeVisits (2,000,000) edges of at most 60 + 1200 ps, so
  /// g <= 2.52e9 ps, and the weighted heuristic adds well under 1e6 ps on
  /// a 255 x 255 device, against kMaxKeyF = 4.29e9 ps. A larger f (a
  /// bigger visit budget or custom weights) is clamped to kMaxKeyF, and a
  /// negative one to 0: those nodes tie on f and pop in node order, after
  /// (before) every other key. The search still terminates and finds a
  /// path; only its order among them departs from (f, node).
  static constexpr uint64_t openKey(DelayPs f, NodeId node) {
    const DelayPs c = f < 0 ? 0 : f > kMaxKeyF ? kMaxKeyF : f;
    return static_cast<uint64_t>(c) << 32 | node;
  }

 private:
  /// The search proper, free of telemetry: the trace scope and metric
  /// objects live in route()'s frame, not here — their cleanups in the
  /// same function as the A* loop measurably pessimize its codegen.
  SearchResult search(const Fabric& fabric, std::span<const NodeId> starts,
                      NodeId goal, const RouterOptions& opts);

  /// Search state of one node the current search reached: cost so far,
  /// the edge it was reached through and whether it was expanded, stamped
  /// with the search (epoch) that wrote it.
  struct Slot {
    DelayPs g = 0;
    NodeId node = xcvsim::kInvalidNode;
    EdgeId parent = xcvsim::kInvalidEdge;
    uint32_t epoch = 0;  // occupied in this search iff == epoch_
    bool closed = false;
  };
  static constexpr size_t kInitialSlots = 4096;

  /// Start a new search: every slot is forgotten in O(1) by moving to a
  /// new epoch. When the epoch wraps, every stamp is zeroed: otherwise a
  /// slot stamped 2^32 searches ago would read as occupied.
  void nextEpoch();
  /// The slot holding `n` in this search, else the free slot where `n`
  /// would go (open addressing, linear probing).
  Slot& slotOf(NodeId n);
  /// `s` (= slotOf(n)) occupied by `n`; it may move when the table grows.
  Slot& claim(Slot& s, NodeId n);
  /// Double the table, carrying over this search's slots.
  void grow();

  friend class MazeRouterMutator;

  const xcvsim::Graph* graph_;
  std::vector<Slot> slots_;  // power-of-two size, at most half occupied
  size_t occupied_ = 0;      // slots claimed in this search
  std::vector<uint64_t> open_;  // binary min-heap of openKey, reused
  uint32_t epoch_ = 0;
};

/// TEST-ONLY access to the maze's epoch counter and node table, so a test
/// can drive the epoch to the wrap without 2^32 searches, see the table
/// grow, and read which nodes the last search reached.
class MazeRouterMutator {
 public:
  explicit MazeRouterMutator(MazeRouter& m) : m_(&m) {}
  void setEpoch(uint32_t epoch) { m_->epoch_ = epoch; }
  uint32_t epoch() const { return m_->epoch_; }
  size_t tableSlots() const { return m_->slots_.size(); }
  /// Nodes holding a slot in the last search: its starts and every node
  /// that entered the open list.
  std::vector<NodeId> tableNodes() const {
    std::vector<NodeId> out;
    for (const MazeRouter::Slot& s : m_->slots_) {
      if (s.epoch == m_->epoch_) out.push_back(s.node);
    }
    return out;
  }
  static constexpr size_t initialTableSlots() {
    return MazeRouter::kInitialSlots;
  }

 private:
  MazeRouter* m_;
};

}  // namespace jroute
