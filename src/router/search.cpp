#include "router/search.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "fabric/timing.h"
#include "lookahead/lookahead.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace jroute {

using xcvsim::Graph;
using xcvsim::kInvalidEdge;
using xcvsim::kInvalidNet;
using xcvsim::kPipDelayPs;
using xcvsim::NodeKind;
using xcvsim::RowCol;

namespace {

bool isLong(NodeKind k) {
  return k == NodeKind::LongH || k == NodeKind::LongV;
}

/// Per-tile distance rate for the heuristic: a full-span hex progresses at
/// ~126 ps/tile. A chip-spanning long line can beat that (~13 ps/tile),
/// so with long lines enabled this is technically inadmissible for
/// extreme-distance nets — but the router is deliberately a weighted
/// (bounded-suboptimality) search anyway (RouterOptions::heuristicWeight),
/// and the hex rate is what keeps the search focused.
DelayPs perTileBound(bool /*useLongLines*/) { return 120; }

/// Search-effort telemetry, shared by the serial router and every
/// concurrent planner thread (counters are relaxed atomics). Resolved
/// once; hot paths pay one atomic add per *search*, not per node.
struct MazeMetrics {
  jrobs::Counter& runs = jrobs::registry().counter("router.maze.runs");
  jrobs::Counter& visits = jrobs::registry().counter("router.maze.visits");
  jrobs::Counter& found = jrobs::registry().counter("router.maze.found");
  jrobs::Counter& failed = jrobs::registry().counter("router.maze.failed");
  jrobs::Counter& laSearches =
      jrobs::registry().counter("router.lookahead.searches");
  jrobs::Counter& laVisits =
      jrobs::registry().counter("router.lookahead.visits");
  jrobs::Counter& laPruned =
      jrobs::registry().counter("router.lookahead.pruned_nodes");
};

MazeMetrics& mazeMetrics() {
  static MazeMetrics m;
  return m;
}

/// Home slot of node `n` in a table of mask + 1 slots is slotHash & mask.
size_t slotHash(NodeId n) {
  return static_cast<size_t>((n * 0x9E3779B97F4A7C15ull) >> 32);
}

}  // namespace

MazeRouter::MazeRouter(const Graph& graph)
    : graph_(&graph), slots_(kInitialSlots) {}

void MazeRouter::nextEpoch() {
  if (++epoch_ == 0) {
    for (Slot& s : slots_) s.epoch = 0;
    epoch_ = 1;
  }
  occupied_ = 0;
}

MazeRouter::Slot& MazeRouter::slotOf(NodeId n) {
  const size_t mask = slots_.size() - 1;
  for (size_t i = slotHash(n) & mask;; i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (s.epoch != epoch_ || s.node == n) return s;
  }
}

MazeRouter::Slot& MazeRouter::claim(Slot& s, NodeId n) {
  if (s.epoch == epoch_) return s;
  Slot* free = &s;
  if (2 * (occupied_ + 1) > slots_.size()) {
    grow();
    free = &slotOf(n);
  }
  ++occupied_;
  free->node = n;
  free->epoch = epoch_;
  return *free;
}

void MazeRouter::grow() {
  const std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  const size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.epoch != epoch_) continue;
    size_t i = slotHash(s.node) & mask;
    while (slots_[i].epoch == epoch_) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

SearchResult MazeRouter::route(const Fabric& fabric, NetId net,
                               std::span<const NodeId> starts, NodeId goal,
                               const RouterOptions& opts) {
  (void)net;  // same-net segments are exactly the start set
  // Telemetry stays in this thin wrapper: putting objects with cleanups
  // (the trace scope, a metrics recorder) into the frame that holds the
  // A* loop costs ~8% on maze-heavy workloads — the unwind paths bloat
  // the loop's codegen. Out here they cost one add per search.
  JR_TRACE_SCOPE("router", "maze");
  const SearchResult result = search(fabric, starts, goal, opts);
  MazeMetrics& m = mazeMetrics();
  m.runs.add();
  m.visits.add(result.visited);
  (result.found ? m.found : m.failed).add();
  if (result.usedLookahead) {
    m.laSearches.add();
    m.laVisits.add(result.visited);
    m.laPruned.add(result.pruned);
  }
  return result;
}

SearchResult MazeRouter::search(const Fabric& fabric,
                                std::span<const NodeId> starts, NodeId goal,
                                const RouterOptions& opts) {
  const Graph& g = *graph_;
  SearchResult result;
  nextEpoch();

  // Heuristic: the precomputed lookahead when available (admissible at
  // weight 1.0, and a prune oracle — abstract-unreachable implies real-
  // unreachable), otherwise the legacy weighted manhattan rate.
  const jrla::Lookahead* la = opts.useLookahead ? opts.lookahead : nullptr;
  result.usedLookahead = la != nullptr;
  const jrla::Lookahead::Mode laMode =
      (!opts.useLongLines || opts.mazeSinglesOnly)
          ? jrla::Lookahead::Mode::kNoLongs
          : jrla::Lookahead::Mode::kFull;

  const RowCol goalPos = g.positionOf(goal);
  const DelayPs tileBound = static_cast<DelayPs>(
      static_cast<double>(perTileBound(opts.useLongLines)) *
      opts.heuristicWeight);
  const auto h = [&](NodeId n) -> DelayPs {
    if (la) {
      const DelayPs est = la->estimate(g, n, goal, laMode);
      if (est >= jrla::Lookahead::kUnreachable) return est;
      DelayPs weighted = static_cast<DelayPs>(static_cast<double>(est) *
                                              opts.lookaheadWeight);
      if (opts.lookaheadWeight > 1.0) {
        // Greedy floor. Far from the goal the admissible estimate is
        // long-line-dominated (~13 ps/tile) — so flat that even a weighted
        // search expands near-breadth-first. The legacy per-tile rate keeps
        // the frontier goal-directed out there; close in, the weighted
        // estimate rises above the floor and its exact knowledge of the
        // wire hierarchy takes over. Weight 1.0 skips the floor and stays
        // strictly admissible (delay-optimal paths, the jrverify proof).
        const DelayPs floor =
            static_cast<DelayPs>(manhattan(g.positionOf(n), goalPos)) *
            tileBound;
        if (floor > weighted) weighted = floor;
      }
      return weighted;
    }
    return static_cast<DelayPs>(manhattan(g.positionOf(n), goalPos)) *
           tileBound;
  };

  // std::priority_queue's own algorithm on a buffer kept across searches.
  // Keys order as their (f, node) pairs (openKey), so nodes pop in
  // exactly the (f, node) sequence.
  open_.clear();
  const auto push = [this](DelayPs f, NodeId n) {
    open_.push_back(openKey(f, n));
    std::push_heap(open_.begin(), open_.end(), std::greater<>());
  };

  for (NodeId s : starts) {
    if (s == goal) {
      result.found = true;  // sink already on the net tree
      return result;
    }
    if (g.isSinkOnly(s)) continue;  // a tree leaf: nothing to expand
    const DelayPs hs = h(s);
    if (hs >= jrla::Lookahead::kUnreachable) {
      ++result.pruned;  // provably cannot reach the goal from here
      continue;
    }
    Slot& ss = claim(slotOf(s), s);
    ss.g = 0;
    ss.parent = kInvalidEdge;
    ss.closed = false;
    push(hs, s);
  }

  const bool goalUsed = fabric.isUsed(goal);
  while (!open_.empty()) {
    std::pop_heap(open_.begin(), open_.end(), std::greater<>());
    const NodeId n = static_cast<NodeId>(open_.back());
    open_.pop_back();
    Slot& sn = slotOf(n);  // every pushed node holds a slot
    if (sn.closed) continue;
    sn.closed = true;
    ++result.visited;
    if (n == goal) {
      // Reconstruct source-side-first edge chain.
      for (EdgeId e = sn.parent; e != kInvalidEdge;
           e = slotOf(g.edgeSource(e)).parent) {
        result.edges.push_back(e);
      }
      std::reverse(result.edges.begin(), result.edges.end());
      result.found = true;
      return result;
    }
    if (result.visited > opts.maxMazeVisits) break;

    const DelayPs gn = sn.g;
    for (const xcvsim::Edge& ed : g.out(n)) {
      const NodeId v = ed.to;
      // A sink-only node other than the goal could only be a leaf of the
      // search tree: it never enters the open list.
      if (v != goal && g.isSinkOnly(v)) continue;
      const NodeKind kv = g.kindOf(v);
      if (!opts.useLongLines && isLong(kv)) continue;
      if (opts.mazeSinglesOnly) {
        if (kv != NodeKind::SingleH && kv != NodeKind::SingleV &&
            kv != NodeKind::Logic && v != goal) {
          continue;
        }
      }
      // Nodes claimed by any net are obstacles; the net's own segments are
      // only usable as starts (re-entering them would add a second driver).
      if (v == goal ? goalUsed : fabric.isUsed(v)) continue;
      const DelayPs ng = gn + kPipDelayPs + g.nodeDelay(v);
      Slot& sv = slotOf(v);
      if (sv.epoch == epoch_ && sv.g <= ng) continue;
      const DelayPs hv = h(v);
      if (hv >= jrla::Lookahead::kUnreachable) {
        ++result.pruned;  // hard A* prune: no path from v to goal exists
        continue;
      }
      Slot& cv = claim(sv, v);
      cv.g = ng;
      cv.parent = static_cast<EdgeId>(&ed - &g.edge(0));
      cv.closed = false;
      push(ng + hv, v);
    }
  }
  return result;  // not found (or visit budget exhausted)
}

}  // namespace jroute
