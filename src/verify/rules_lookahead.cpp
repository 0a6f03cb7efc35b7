// Lookahead-layer rule: the router's precomputed cost map must be an
// admissible heuristic. The A*-pruned maze (router/search.cpp) treats an
// estimate as a *lower bound* on the delay still ahead — an estimate that
// overshoots makes weight-1.0 searches return sub-optimal paths, and a
// spurious "unreachable" verdict makes the hard prune drop routable
// sinks. The rule replays a stratified sample of (source, goal) pairs:
// one true-shortest-path Dijkstra per source over live graph edges (same
// edge cost as the maze: kPipDelayPs + nodeDelay(target)), then every
// sampled goal's estimate is checked against the exact distance.
#include <algorithm>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "fabric/timing.h"
#include "lookahead/lookahead.h"
#include "verify/rules.h"

namespace jrverify {
namespace {

using xcvsim::Edge;
using xcvsim::Graph;
using xcvsim::kPipDelayPs;
using xcvsim::NodeInfo;
using xcvsim::NodeKind;

constexpr DelayPs kInf = jrla::Lookahead::kUnreachable;

/// Up to two representative nodes per wire class, spread across the
/// device (first and last in node-id order): the stratification mirrors
/// the lookahead's own (class, displacement) state space.
std::vector<NodeId> classStratifiedNodes(const Graph& g) {
  constexpr size_t kNumKinds = 16;
  std::vector<NodeId> first(kNumKinds, xcvsim::kInvalidNode);
  std::vector<NodeId> last(kNumKinds, xcvsim::kInvalidNode);
  for (NodeId n = 0; n < g.numNodes(); ++n) {
    const auto k = static_cast<size_t>(g.info(n).kind);
    if (k >= kNumKinds) continue;
    if (first[k] == xcvsim::kInvalidNode) first[k] = n;
    last[k] = n;
  }
  std::vector<NodeId> out;
  for (size_t k = 0; k < kNumKinds; ++k) {
    if (first[k] != xcvsim::kInvalidNode) out.push_back(first[k]);
    if (last[k] != xcvsim::kInvalidNode && last[k] != first[k]) {
      out.push_back(last[k]);
    }
  }
  return out;
}

/// Exact shortest delay from `src` over live edges, to every node that is
/// no farther than the last of `goals`: once every sampled goal has
/// settled, the remaining frontier can only confirm admissibility (their
/// distances exceed every settled one), so the search stops there.
std::vector<DelayPs> dijkstraFrom(const ModelView& m, NodeId src,
                                  std::span<const NodeId> goals,
                                  size_t& edges) {
  const Graph& g = *m.graph;
  std::vector<DelayPs> dist(g.numNodes(), kInf);
  std::vector<uint8_t> settled(g.numNodes(), 0);
  std::vector<uint8_t> isGoal(g.numNodes(), 0);
  size_t goalsLeft = 0;
  for (const NodeId goal : goals) {
    if (goal != src && isGoal[goal] == 0) {
      isGoal[goal] = 1;
      ++goalsLeft;
    }
  }
  using Entry = std::pair<DelayPs, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> open;
  dist[src] = 0;
  open.emplace(0, src);
  while (!open.empty() && goalsLeft > 0) {
    const auto [d, n] = open.top();
    open.pop();
    if (d > dist[n] || settled[n] != 0) continue;
    settled[n] = 1;
    goalsLeft -= isGoal[n];
    for (const Edge& e : g.out(n)) {
      if (!edgeLive(m, g.edgeIdOf(n, e))) continue;
      ++edges;
      const DelayPs nd = d + kPipDelayPs + g.nodeDelay(e.to);
      if (nd < dist[e.to]) {
        dist[e.to] = nd;
        open.emplace(nd, e.to);
      }
    }
  }
  return dist;
}

/// lookahead-admissible — for a stratified sample of sources, the cost
/// map never estimates more than the true shortest-path delay to any
/// sampled goal, and never calls a reachable goal unreachable.
void admissible(const ModelView& m, RuleSink& out) {
  size_t& nodes = out.count("nodes");
  size_t& edges = out.count("edges");
  const Graph& g = *m.graph;
  const std::vector<NodeId> goals = classStratifiedNodes(g);
  // Sources: nodes of every routing-wire class (signals originate on
  // logic/pad outputs but the estimate must hold mid-search from any
  // expanded node, so every class should source a Dijkstra). Each
  // source costs one full-graph Dijkstra, so like the per-tile rules
  // (DESIGN.md §13) the sample thins on large devices to keep the
  // tier-1 gate inside its E17 budget: a fixed node-work allowance,
  // strided over the stratified list to preserve class spread.
  std::vector<NodeId> sources = classStratifiedNodes(g);
  constexpr size_t kNodeWorkBudget = 6'000'000;
  const size_t cap =
      std::max<size_t>(3, kNodeWorkBudget / std::max<size_t>(g.numNodes(), 1));
  if (sources.size() > cap) {
    std::vector<NodeId> thinned;
    thinned.reserve(cap);
    for (size_t i = 0; i < cap; ++i) {
      thinned.push_back(sources[i * sources.size() / cap]);
    }
    sources = std::move(thinned);
  }
  for (const NodeId src : sources) {
    const std::vector<DelayPs> dist = dijkstraFrom(m, src, goals, edges);
    for (const NodeId goal : goals) {
      if (dist[goal] >= kInf) continue;  // estimate free to say anything
      ++nodes;
      const DelayPs est = m.lookaheadEstimate(src, goal);
      if (est <= dist[goal]) continue;
      const NodeInfo si = g.info(src);
      const NodeInfo gi = g.info(goal);
      out.add(tileName(si.tile) + " " + g.nodeName(src) + " -> " +
                  tileName(gi.tile) + " " + g.nodeName(goal),
              est >= kInf
                  ? "cost map calls a reachable goal unreachable (true delay " +
                        std::to_string(dist[goal]) + " ps)"
                  : "estimate " + std::to_string(est) +
                        " ps exceeds true shortest-path delay " +
                        std::to_string(dist[goal]) + " ps",
              "the lookahead must lower-bound real delay: check the move "
              "projection and the floor quantization in jrla::Lookahead");
    }
  }
}

}  // namespace

std::span<const VerifyRule> lookaheadRules() {
  static const VerifyRule rules[] = {
      {"lookahead-admissible", "lookahead", kError,
       "cost-map estimates lower-bound true shortest-path delay", nullptr,
       admissible},
  };
  return rules;
}

}  // namespace jrverify
