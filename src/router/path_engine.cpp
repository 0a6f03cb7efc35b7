#include "router/path_engine.h"

#include <algorithm>
#include <string>

#include "common/error.h"
#include "lookahead/lookahead.h"
#include "obs/metrics.h"

namespace jroute {

using xcvsim::ArgumentError;
using xcvsim::Graph;
using xcvsim::kInvalidEdge;
using xcvsim::kInvalidNode;
using xcvsim::NodeId;

std::vector<EdgeId> resolvePath(const Graph& g, RowCol start,
                                const std::vector<LocalWire>& wires) {
  if (wires.size() < 2) {
    throw ArgumentError("a path needs at least two wires");
  }
  NodeId cur = g.nodeAt(start, wires[0]);
  if (cur == kInvalidNode) {
    throw ArgumentError("path start wire " + xcvsim::wireName(wires[0]) +
                        " does not exist at R" + std::to_string(start.row) +
                        "C" + std::to_string(start.col));
  }
  std::vector<EdgeId> chain;
  chain.reserve(wires.size() - 1);
  RowCol entry = start;  // tile through which `cur` was entered
  for (size_t i = 1; i < wires.size(); ++i) {
    const LocalWire next = wires[i];
    EdgeId found = kInvalidEdge;
    // The cursor advances along each wire: try the taps of the current
    // segment farthest from its entry tile first, so a single exits at its
    // far end and a hex at END before MID (the paper's example semantics).
    std::vector<RowCol> taps = g.tapsOf(cur);
    std::stable_sort(taps.begin(), taps.end(),
                     [&](const RowCol a, const RowCol b) {
                       return manhattan(a, entry) > manhattan(b, entry);
                     });
    for (const RowCol tap : taps) {
      const NodeId cand = g.nodeAt(tap, next);
      if (cand == kInvalidNode) continue;
      const EdgeId e = g.findEdge(cur, cand, tap);
      if (e != kInvalidEdge) {
        found = e;
        entry = tap;
        break;
      }
    }
    if (found == kInvalidEdge) {
      throw ArgumentError("path step " + std::to_string(i) + ": no PIP " +
                          g.nodeName(cur) + " -> " + xcvsim::wireName(next));
    }
    chain.push_back(found);
    cur = g.edge(found).to;
  }
  return chain;
}

namespace {

struct SelectorMetrics {
  jrobs::Counter& tmpl =
      jrobs::registry().counter("router.lookahead.select.template");
  jrobs::Counter& longLine =
      jrobs::registry().counter("router.lookahead.select.long_line");
  jrobs::Counter& maze =
      jrobs::registry().counter("router.lookahead.select.maze");
};

SelectorMetrics& selectorMetrics() {
  static SelectorMetrics m;
  return m;
}

/// Is the displacement shaped so a long-line composition walk is cheap?
/// Long templates are axis compositions: the walk is a near-constant-work
/// hit when the request hugs one axis (cross-axis ≤ 1 tile) and the major
/// displacement sits on the long-access lattice (no residual suffix to
/// wander through). Off-lattice requests multiply the walker's exit
/// subtrees until the attempt costs more than an entire maze search.
bool longLatticeAligned(const Graph& g, NodeId src, NodeId sink) {
  const RowCol a = g.positionOf(src);
  const RowCol b = g.positionOf(sink);
  const int dr = a.row > b.row ? a.row - b.row : b.row - a.row;
  const int dc = a.col > b.col ? a.col - b.col : b.col - a.col;
  const int major = dr > dc ? dr : dc;
  const int minor = dr > dc ? dc : dr;
  return minor <= 1 && major % xcvsim::kLongAccessPeriod == 0;
}

}  // namespace

StrategyChoice selectStrategy(const Graph& g, NodeId src, NodeId sink,
                              const RouterOptions& opts) {
  StrategyChoice choice;
  choice.distance = manhattan(g.positionOf(src), g.positionOf(sink));

  const jrla::Lookahead* la = opts.useLookahead ? opts.lookahead : nullptr;
  if (la == nullptr) {
    // Legacy fixed ordering: templates inside the distance cap, else maze.
    choice.strategy = (opts.templateFirst &&
                       choice.distance <= opts.templateMaxDistance)
                          ? Strategy::kTemplate
                          : Strategy::kMaze;
    return choice;
  }

  choice.estimate =
      la->estimate(g, src, sink, jrla::Lookahead::Mode::kFull);
  choice.estimateNoLongs =
      la->estimate(g, src, sink, jrla::Lookahead::Mode::kNoLongs);

  SelectorMetrics& m = selectorMetrics();
  if (opts.templateFirst && choice.distance < opts.templateMaxDistance) {
    // Strictly inside the template cap. E3 locates the template/maze
    // crossover near the cap itself, where a template attempt averages
    // break-even at best — so unlike the legacy inclusive ordering, the
    // selector gives boundary-distance requests to the guided maze.
    choice.strategy = Strategy::kTemplate;
    m.tmpl.add();
  } else if (opts.templateFirst && opts.useLongLines &&
             choice.estimate < choice.estimateNoLongs &&
             longLatticeAligned(g, src, sink)) {
    // Long lines strictly improve the best achievable delay over this
    // displacement AND the shape makes the composition walk cheap — worth
    // attempting before surrendering the request to the maze. Everything
    // else goes to the lookahead-guided maze, which routes an arbitrary
    // far net in less time than one speculative long-template walk.
    choice.strategy = Strategy::kLongLine;
    m.longLine.add();
  } else {
    choice.strategy = Strategy::kMaze;
    m.maze.add();
  }
  return choice;
}

}  // namespace jroute
