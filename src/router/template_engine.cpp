#include "router/template_engine.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"

namespace jroute {

using xcvsim::Edge;
using xcvsim::Graph;
using xcvsim::kInvalidLocalWire;
using xcvsim::kInvalidNode;

bool nodeMatchesWire(const Graph& g, NodeId n, LocalWire w) {
  for (const xcvsim::RowCol rc : g.tapsOf(n)) {
    if (g.aliasAt(n, rc) == w) return true;
  }
  // Globals have no finite tap list; compare canonical alias at (0, 0).
  if (g.kindOf(n) == xcvsim::NodeKind::Gclk) {
    return g.aliasAt(n, {0, 0}) == w;
  }
  return false;
}

namespace {

/// Walk-effort telemetry, shared by the serial router and the concurrent
/// planners. One atomic add per walk, not per step.
struct TemplateMetrics {
  jrobs::Counter& walks = jrobs::registry().counter("router.template.walks");
  jrobs::Counter& visits =
      jrobs::registry().counter("router.template.visits");
  jrobs::Counter& hits = jrobs::registry().counter("router.template.hits");
};

TemplateMetrics& templateMetrics() {
  static TemplateMetrics m;
  return m;
}

/// Per-thread walk scratch, reused by every walk on the thread (the serial
/// router and each planner thread): the set of visited (node, depth)
/// pairs and the current chain. Allocation happens only on the first walk
/// and when a walk outgrows the set.
class WalkScratch {
 public:
  /// Forget every visited pair in O(1) by moving to a new epoch. On wrap
  /// the stamps are zeroed, or a stale stamp would read as visited.
  void beginWalk() {
    if (++epoch_ == 0) {
      for (Slot& s : slots_) s.epoch = 0;
      epoch_ = 1;
    }
    size_ = 0;
    path.clear();
  }

  /// Insert (node, depth); false when the pair was already visited.
  bool visit(NodeId node, size_t depth) {
    // 32 bits of depth: user templates may be hundreds of steps long.
    const uint64_t key = (static_cast<uint64_t>(node) << 32) | depth;
    if (2 * (size_ + 1) > slots_.size()) grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash(key) & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.epoch != epoch_) {
        s = {key, epoch_};
        ++size_;
        return true;
      }
      if (s.key == key) return false;
    }
  }

  /// Nodes of the current chain, start first. A node is never on it
  /// twice, so a linear search over at most one template's length is the
  /// whole membership test.
  std::vector<NodeId> path;

 private:
  struct Slot {
    uint64_t key = 0;
    uint32_t epoch = 0;  // occupied in this walk iff == epoch_
  };
  static constexpr size_t kInitialSlots = 8192;

  static size_t hash(uint64_t key) {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> 32);
  }

  /// Double the table, carrying over this walk's pairs.
  void grow() {
    const std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    const size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.epoch != epoch_) continue;
      size_t i = hash(s.key) & mask;
      while (slots_[i].epoch == epoch_) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  // Open addressing, power-of-two size.
  std::vector<Slot> slots_ = std::vector<Slot>(kInitialSlots);
  uint32_t epoch_ = 0;
  size_t size_ = 0;  // pairs visited in this walk
};

struct Walk {
  const Fabric& fabric;
  const Graph& g;
  std::span<const TemplateValue> tmpl;
  NodeId requiredTarget;
  LocalWire requiredEndWire;
  const RouterOptions& opts;
  xcvsim::NetId net;  // net of the start node
  WalkScratch& scratch;
  TemplateResult result;

  bool accept(NodeId node) const {
    if (requiredTarget != kInvalidNode) return node == requiredTarget;
    if (requiredEndWire != kInvalidLocalWire) {
      return nodeMatchesWire(g, node, requiredEndWire);
    }
    return true;
  }

  /// Directional wires must make progress: after entering a single or hex
  /// at tile `entry`, the walk may only leave it at a *different* tap —
  /// exiting where it came in would mean the wire contributed no movement
  /// and its template value (EAST1, NORTH6, ...) was a lie.
  static bool directional(xcvsim::NodeKind k) {
    return k == xcvsim::NodeKind::SingleH || k == xcvsim::NodeKind::SingleV ||
           k == xcvsim::NodeKind::HexE || k == xcvsim::NodeKind::HexW ||
           k == xcvsim::NodeKind::HexN || k == xcvsim::NodeKind::HexS;
  }

  bool onPath(NodeId n) const {
    return std::find(scratch.path.begin(), scratch.path.end(), n) !=
           scratch.path.end();
  }

  // Depth-first, first-fit; edges accumulate in result.edges on success.
  // `entry` is the tile through which `node` was entered (source tile for
  // the walk's start).
  bool step(NodeId node, xcvsim::RowCol entry, size_t depth) {
    if (depth == tmpl.size()) return accept(node);
    if (result.visited > opts.maxTemplateVisits) return false;
    if (!scratch.visit(node, depth)) return false;

    const bool mustAdvance = directional(g.kindOf(node));
    scratch.path.push_back(node);
    for (const Edge& ed : g.out(node)) {
      const xcvsim::RowCol tile{static_cast<int16_t>(ed.tileRow),
                                static_cast<int16_t>(ed.tileCol)};
      if (mustAdvance && tile == entry) continue;
      if (g.templateValueOf(ed.to, ed) != tmpl[depth]) continue;
      // "...it checks to make sure the wire is not already in use" — by
      // another net, or by an earlier hop of this very walk (looping
      // templates would otherwise double-drive their own wires). Wires of
      // the walk's OWN net are fine when entered through the exact PIP
      // that already drives them: turning that PIP on again is the
      // idempotent tree-reuse case, not contention.
      if (onPath(ed.to)) continue;
      if (fabric.isUsed(ed.to)) {
        const EdgeId eid = static_cast<EdgeId>(&ed - &g.edge(0));
        const bool ownChain = fabric.netOf(ed.to) == net &&
                              fabric.driverOf(ed.to) == eid;
        if (!ownChain) continue;
      }
      ++result.visited;
      if (step(ed.to, tile, depth + 1)) {
        result.edges.push_back(static_cast<EdgeId>(&ed - &g.edge(0)));
        scratch.path.pop_back();
        return true;
      }
    }
    scratch.path.pop_back();
    return false;
  }
};

}  // namespace

TemplateResult followTemplate(const Fabric& fabric, NodeId start,
                              std::span<const TemplateValue> tmpl,
                              NodeId requiredTarget,
                              LocalWire requiredEndWire,
                              const RouterOptions& opts) {
  thread_local WalkScratch scratch;
  scratch.beginWalk();
  Walk walk{fabric,
            fabric.graph(),
            tmpl,
            requiredTarget,
            requiredEndWire,
            opts,
            fabric.netOf(start),
            scratch,
            {}};
  if (walk.step(start, fabric.graph().tileOf(start), 0)) {
    walk.result.found = true;
    std::reverse(walk.result.edges.begin(), walk.result.edges.end());
    walk.result.finalNode = walk.result.edges.empty()
                                ? start
                                : walk.g.edge(walk.result.edges.back()).to;
  }
  TemplateMetrics& m = templateMetrics();
  m.walks.add();
  m.visits.add(walk.result.visited);
  if (walk.result.found) m.hits.add();
  return walk.result;
}

}  // namespace jroute
