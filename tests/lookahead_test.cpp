// Router lookahead subsystem tests: the precomputed cost map is an
// admissible heuristic (estimate <= the delay of any real route), the
// A*-pruned maze at weight 1.0 returns delay- and wire-count-identical
// paths to an exact Dijkstra while visiting strictly fewer nodes at long
// distance, and the per-request strategy selector follows its documented
// policy. Admissibility is checked on both the smallest and the largest
// shipped device — the hub-class collapse and the quantization are both
// size-dependent.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "fabric/fabric.h"
#include "fabric/timing.h"
#include "json_validator.h"
#include "lookahead/lookahead.h"
#include "router/path_engine.h"
#include "router/search.h"
#include "router/template_lib.h"
#include "workload/generators.h"

namespace jroute {
namespace {

using jrla::Lookahead;
using workload::P2P;
using xcvsim::DelayPs;
using xcvsim::Graph;
using xcvsim::kPipDelayPs;
using xcvsim::NodeId;
using xcvsim::PipTable;

/// Delay of a routed chain under the maze's cost model.
DelayPs chainDelay(const Graph& g, const std::vector<xcvsim::EdgeId>& edges) {
  DelayPs d = 0;
  for (const auto e : edges) d += kPipDelayPs + g.nodeDelay(g.edge(e).to);
  return d;
}

/// Exact-search options: no lookahead, zero-weight heuristic (Dijkstra).
RouterOptions dijkstraOpts() {
  RouterOptions o;
  o.useLookahead = false;
  o.heuristicWeight = 0.0;
  return o;
}

/// Admissible lookahead options: weight 1.0 keeps the search delay-optimal.
RouterOptions admissibleOpts(const Lookahead& la) {
  RouterOptions o;
  o.useLookahead = true;
  o.lookahead = &la;
  o.lookaheadWeight = 1.0;
  return o;
}

/// Shared per-device model for the heavy tests.
struct Model {
  Graph graph;
  PipTable table;
  explicit Model(const xcvsim::DeviceSpec& dev)
      : graph(dev), table(graph.arch()) {}
};

Model& xcv50Model() {
  static Model* m = new Model(xcvsim::xcv50());
  return *m;
}

Model& xcv1000Model() {
  static Model* m = new Model(xcvsim::xcv1000());
  return *m;
}

/// Route one pin pair twice — exact Dijkstra and weight-1.0 lookahead —
/// and return both results (asserting both searches succeed).
struct PairResult {
  SearchResult exact;
  SearchResult pruned;
  NodeId src = xcvsim::kInvalidNode;
  NodeId sink = xcvsim::kInvalidNode;
};

PairResult routeBothWays(Model& m, const P2P& p) {
  const Graph& g = m.graph;
  xcvsim::Fabric fabric(g, m.table);
  MazeRouter maze(g);
  PairResult out;
  out.src = g.nodeAt(p.src.rc, p.src.wire);
  out.sink = g.nodeAt(p.sink.rc, p.sink.wire);
  const auto net = fabric.createNet(out.src, "t");
  const NodeId starts[] = {out.src};
  out.exact = maze.route(fabric, net, starts, out.sink, dijkstraOpts());
  out.pruned = maze.route(fabric, net, starts, out.sink,
                          admissibleOpts(Lookahead::forGraph(g)));
  return out;
}

// --- Admissibility ----------------------------------------------------------

TEST(LookaheadTest, AdmissibleOnXcv50RandomPairs) {
  Model& m = xcv50Model();
  const Lookahead& la = Lookahead::forGraph(m.graph);
  for (const P2P& p : workload::makeP2P(xcvsim::xcv50(), 24, 1, 30, 71)) {
    const PairResult r = routeBothWays(m, p);
    ASSERT_TRUE(r.exact.found);
    const DelayPs exact = chainDelay(m.graph, r.exact.edges);
    const DelayPs est =
        la.estimate(m.graph, r.src, r.sink, Lookahead::Mode::kFull);
    EXPECT_LE(est, exact) << "estimate overshoots true delay for "
                          << m.graph.nodeName(r.src) << " -> "
                          << m.graph.nodeName(r.sink);
  }
}

TEST(LookaheadTest, AdmissibleOnXcv1000RandomPairs) {
  Model& m = xcv1000Model();
  const Lookahead& la = Lookahead::forGraph(m.graph);
  for (const P2P& p : workload::makeP2P(xcvsim::xcv1000(), 6, 8, 48, 72)) {
    const PairResult r = routeBothWays(m, p);
    ASSERT_TRUE(r.exact.found);
    const DelayPs exact = chainDelay(m.graph, r.exact.edges);
    const DelayPs est =
        la.estimate(m.graph, r.src, r.sink, Lookahead::Mode::kFull);
    EXPECT_LE(est, exact);
  }
}

TEST(LookaheadTest, EstimateBasics) {
  const Graph& g = xcv50Model().graph;
  const Lookahead& la = Lookahead::forGraph(g);
  // Same node: nothing remains.
  const NodeId n = g.nodeAt({5, 7}, xcvsim::S1_YQ);
  EXPECT_EQ(la.estimate(g, n, n, Lookahead::Mode::kFull), 0);
  // The full table lower-bounds the long-free table pointwise: its move
  // set is a superset, so abstract distances can only be smaller.
  for (const P2P& p : workload::makeP2P(xcvsim::xcv50(), 12, 1, 30, 73)) {
    const NodeId a = g.nodeAt(p.src.rc, p.src.wire);
    const NodeId b = g.nodeAt(p.sink.rc, p.sink.wire);
    EXPECT_LE(la.estimate(g, a, b, Lookahead::Mode::kFull),
              la.estimate(g, a, b, Lookahead::Mode::kNoLongs));
  }
}

TEST(LookaheadTest, CachedTableOutlivesItsGraph) {
  // The per-device cache keeps its table after the graph it was built
  // from is gone; estimates must read node kind and position from the
  // caller's graph, so they match a table built from that graph.
  const Lookahead* cached = nullptr;
  {
    const Graph first(xcvsim::xcv50());
    cached = &Lookahead::forGraph(first);
  }
  const Graph second(xcvsim::xcv50());
  const Lookahead fresh(second);
  EXPECT_EQ(&Lookahead::forGraph(second), cached);
  xcvsim::Rng rng(91);
  for (int i = 0; i < 20000; ++i) {
    const auto a = static_cast<NodeId>(rng.below(second.numNodes()));
    const auto b = static_cast<NodeId>(rng.below(second.numNodes()));
    for (const auto mode :
         {Lookahead::Mode::kFull, Lookahead::Mode::kNoLongs}) {
      ASSERT_EQ(cached->estimate(second, a, b, mode),
                fresh.estimate(second, a, b, mode))
          << second.nodeName(a) << " -> " << second.nodeName(b);
    }
  }
}

TEST(LookaheadTest, StatsAreSaneAndJsonValid) {
  const Lookahead& la = Lookahead::forGraph(xcv50Model().graph);
  const Lookahead::Stats& s = la.stats();
  EXPECT_GT(s.moveCount, 100u);
  EXPECT_GT(s.states, 0u);
  EXPECT_GT(s.tableBytes, 0u);
  EXPECT_GE(s.quantumFull, 1);
  EXPECT_GE(s.quantumNoLongs, 1);
  EXPECT_FALSE(la.statsText().empty());
  EXPECT_TRUE(jrtest::JsonValidator(la.statsJson()).valid()) << la.statsJson();
}

// --- A*-pruned maze vs exact Dijkstra ---------------------------------------

TEST(LookaheadTest, PrunedSearchIsDelayAndWireCountIdenticalOnXcv50) {
  Model& m = xcv50Model();
  for (const P2P& p : workload::makeP2P(xcvsim::xcv50(), 16, 2, 30, 74)) {
    const PairResult r = routeBothWays(m, p);
    ASSERT_TRUE(r.exact.found);
    ASSERT_TRUE(r.pruned.found);
    EXPECT_TRUE(r.pruned.usedLookahead);
    EXPECT_FALSE(r.exact.usedLookahead);
    // Weight 1.0 keeps the heuristic admissible, so the pruned search is
    // still delay-optimal; near-collision-free hop costs make equal-delay
    // paths equal-wire-count as well.
    EXPECT_EQ(chainDelay(m.graph, r.pruned.edges),
              chainDelay(m.graph, r.exact.edges));
    EXPECT_EQ(r.pruned.edges.size(), r.exact.edges.size());
    EXPECT_LE(r.pruned.visited, r.exact.visited);
  }
}

TEST(LookaheadTest, PrunedSearchStrictlyReducesVisitsAtDistanceOnXcv1000) {
  Model& m = xcv1000Model();
  for (const P2P& p : workload::makeP2P(xcvsim::xcv1000(), 4, 24, 48, 75)) {
    const PairResult r = routeBothWays(m, p);
    ASSERT_TRUE(r.exact.found);
    ASSERT_TRUE(r.pruned.found);
    EXPECT_EQ(chainDelay(m.graph, r.pruned.edges),
              chainDelay(m.graph, r.exact.edges));
    EXPECT_EQ(r.pruned.edges.size(), r.exact.edges.size());
    EXPECT_LT(r.pruned.visited, r.exact.visited);
  }
}

// --- Strategy selector ------------------------------------------------------

TEST(LookaheadTest, SelectorFollowsPolicy) {
  const Graph& g = xcv1000Model().graph;
  const Lookahead& la = Lookahead::forGraph(g);
  RouterOptions opts;
  opts.useLookahead = true;
  opts.lookahead = &la;

  // Near pair strictly inside template reach: template library first.
  const NodeId nearSrc = g.nodeAt({10, 10}, xcvsim::S1_YQ);
  const NodeId nearSink = g.nodeAt({12, 18}, xcvsim::S0F1);
  EXPECT_EQ(selectStrategy(g, nearSrc, nearSink, opts).strategy,
            Strategy::kTemplate);

  // Exactly at the cap (the E3 crossover): the guided maze, not a
  // break-even template attempt.
  const NodeId capSink = g.nodeAt({12, 24}, xcvsim::S0F1);
  const StrategyChoice cap = selectStrategy(g, nearSrc, capSink, opts);
  EXPECT_EQ(cap.distance, opts.templateMaxDistance);
  EXPECT_EQ(cap.strategy, Strategy::kMaze);

  // Far axis-aligned pair on the long-access lattice (42 = 7 * 6, zero
  // cross-axis): a long-line composition exactly when the full estimate
  // says long lines strictly improve the achievable delay.
  const NodeId farSrc = g.nodeAt({20, 10}, xcvsim::S1_YQ);
  const NodeId farSink = g.nodeAt({20, 52}, xcvsim::S0F1);
  const StrategyChoice far = selectStrategy(g, farSrc, farSink, opts);
  EXPECT_EQ(far.distance, 42);
  EXPECT_LE(far.estimate, far.estimateNoLongs);
  EXPECT_EQ(far.strategy, far.estimate < far.estimateNoLongs
                              ? Strategy::kLongLine
                              : Strategy::kMaze);

  // Far but off the long lattice (cross-axis 6 tiles): the composition
  // walk would cost more than the guided maze, so the maze gets it even
  // though long lines would improve the delay bound.
  const NodeId offSrc = g.nodeAt({20, 10}, xcvsim::S1_YQ);
  const NodeId offSink = g.nodeAt({26, 46}, xcvsim::S0F1);
  EXPECT_EQ(selectStrategy(g, offSrc, offSink, opts).strategy,
            Strategy::kMaze);

  // templateFirst off routes everything to the maze.
  RouterOptions noTpl = opts;
  noTpl.templateFirst = false;
  EXPECT_EQ(selectStrategy(g, nearSrc, nearSink, noTpl).strategy,
            Strategy::kMaze);

  // Without a lookahead the legacy policy applies: template inside its
  // distance cap, maze beyond — never a long-line composition.
  RouterOptions legacy;
  legacy.useLookahead = false;
  EXPECT_EQ(selectStrategy(g, nearSrc, nearSink, legacy).strategy,
            Strategy::kTemplate);
  EXPECT_EQ(selectStrategy(g, farSrc, farSink, legacy).strategy,
            Strategy::kMaze);
}

TEST(LookaheadTest, LongTemplatesCoverResidualShapes) {
  // A row-aligned displacement beyond hex reach in every residual class
  // r0 = delta mod 6 must produce at least one in-bounds composition on
  // the big device, and every body must start with the long step.
  const auto dev = xcvsim::xcv1000();
  TemplateBodies lib;
  for (int delta = 18; delta < 24; ++delta) {
    const auto& ts = longTemplatesFor(dev, {30, 10},
                                      {30, static_cast<int16_t>(10 + delta)},
                                      true, true, lib);
    ASSERT_FALSE(ts.empty()) << "delta " << delta;
    for (const auto& t : ts) {
      ASSERT_GE(t.size(), 2u);
      EXPECT_EQ(t.front(), xcvsim::TemplateValue::OUTMUX);
      EXPECT_EQ(t[1], xcvsim::TemplateValue::LONGH);
    }
  }
}

}  // namespace
}  // namespace jroute
