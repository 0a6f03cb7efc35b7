// Direct unit tests for the routing engines (template library, template
// follower, path executor, maze) — below the Router facade.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "alloc_counter.h"
#include "fabric/fabric.h"
#include "router/path_engine.h"
#include "router/search.h"
#include "router/template_engine.h"
#include "router/template_lib.h"

namespace jroute {
namespace {

using xcvsim::Dir;
using xcvsim::Graph;
using xcvsim::HexTap;
using xcvsim::PipTable;
using xcvsim::RowCol;
using xcvsim::TemplateValue;

class EnginesTest : public ::testing::Test {
 protected:
  static const Graph& graph() {
    static Graph g{xcvsim::xcv50()};
    return g;
  }
  static const PipTable& table() {
    static PipTable t{xcvsim::ArchDb{xcvsim::xcv50()}};
    return t;
  }
  EnginesTest() : fabric_(graph(), table()) {}

  xcvsim::Fabric fabric_;
  RouterOptions opts_;
};

// --- Template library ----------------------------------------------------------

TEST_F(EnginesTest, TemplateLibExactDecomposition) {
  // (0,0) -> (2,9): 1 hex east + 3 singles east + 2 singles north.
  const auto ts = templatesFor(xcvsim::xcv50(), {0, 0}, {2, 9}, true, true);
  ASSERT_FALSE(ts.empty());
  bool foundCanonical = false;
  for (const auto& t : ts) {
    int dr = 0, dc = 0;
    for (TemplateValue v : t) {
      dr += xcvsim::templateDRow(v);
      dc += xcvsim::templateDCol(v);
    }
    // Every generated template lands exactly on the displacement.
    EXPECT_EQ(dr, 2);
    EXPECT_EQ(dc, 9);
    EXPECT_EQ(t.front(), TemplateValue::OUTMUX);
    EXPECT_EQ(t.back(), TemplateValue::CLBIN);
    foundCanonical = foundCanonical ||
                     (t.size() == 2 + 1 + 3 + 2);  // OUTMUX+hex+5 singles+CLBIN
  }
  EXPECT_TRUE(foundCanonical);
}

TEST_F(EnginesTest, TemplateLibOvershootVariant) {
  // Remainder 5 admits an overshoot: 1 hex + 1 single back.
  const auto ts = templatesFor(xcvsim::xcv50(), {0, 0}, {0, 5}, true, true);
  bool overshoot = false;
  for (const auto& t : ts) {
    int east6 = 0, west1 = 0;
    for (TemplateValue v : t) {
      east6 += v == TemplateValue::EAST6 ? 1 : 0;
      west1 += v == TemplateValue::WEST1 ? 1 : 0;
    }
    overshoot = overshoot || (east6 == 1 && west1 == 1);
  }
  EXPECT_TRUE(overshoot);
}

TEST_F(EnginesTest, TemplateLibSameTileAndNeighbour) {
  // Same-tile: the feedback variant is a bare {CLBIN}.
  const auto same = templatesFor(xcvsim::xcv50(), {3, 3}, {3, 3}, true, true);
  bool feedback = false;
  for (const auto& t : same) {
    feedback = feedback || (t.size() == 1 && t[0] == TemplateValue::CLBIN);
  }
  EXPECT_TRUE(feedback);
  // Neighbour: the direct-connect variant too.
  const auto nb = templatesFor(xcvsim::xcv50(), {3, 3}, {3, 4}, true, true);
  bool direct = false;
  for (const auto& t : nb) {
    direct = direct || (t.size() == 1 && t[0] == TemplateValue::CLBIN);
  }
  EXPECT_TRUE(direct);
}

TEST_F(EnginesTest, TemplateLibRowFirstAndColFirstOrders) {
  const auto ts = templatesFor(xcvsim::xcv50(), {0, 0}, {7, 7}, true, true);
  bool rowFirst = false, colFirst = false;
  for (const auto& t : ts) {
    if (t.size() < 2) continue;
    if (t[1] == TemplateValue::NORTH6) rowFirst = true;
    if (t[1] == TemplateValue::EAST6) colFirst = true;
  }
  EXPECT_TRUE(rowFirst);
  EXPECT_TRUE(colFirst);
}

// --- Template follower ----------------------------------------------------------

TEST_F(EnginesTest, FollowTemplateHonoursAdvanceRule) {
  // {OUTMUX, EAST1, CLBIN} must land one column east, never back home.
  const auto start = graph().nodeAt({5, 7}, xcvsim::S1_YQ);
  fabric_.createNet(start, "t");
  const std::vector<TemplateValue> tmpl{
      TemplateValue::OUTMUX, TemplateValue::EAST1, TemplateValue::CLBIN};
  const auto res = followTemplate(fabric_, start, tmpl, xcvsim::kInvalidNode,
                                  xcvsim::kInvalidLocalWire, opts_);
  ASSERT_TRUE(res.found);
  const auto inf = graph().info(res.finalNode);
  EXPECT_EQ(inf.tile, (RowCol{5, 8}));
}

TEST_F(EnginesTest, FollowTemplateRespectsVisitBudget) {
  const auto start = graph().nodeAt({5, 7}, xcvsim::S1_YQ);
  fabric_.createNet(start, "t");
  // An impossible constraint with a tiny budget terminates quickly.
  opts_.maxTemplateVisits = 5;
  const std::vector<TemplateValue> tmpl{
      TemplateValue::OUTMUX, TemplateValue::EAST1, TemplateValue::NORTH1,
      TemplateValue::EAST1,  TemplateValue::NORTH1, TemplateValue::CLBIN};
  const auto res = followTemplate(fabric_, start, tmpl,
                                  graph().nodeAt({0, 0}, xcvsim::S0F1),
                                  xcvsim::kInvalidLocalWire, opts_);
  EXPECT_FALSE(res.found);
  EXPECT_LE(res.visited, opts_.maxTemplateVisits + 64);
}

TEST_F(EnginesTest, TemplateWalkOverBudgetIsAllocationFree) {
#if !JRTEST_COUNTS_ALLOCS
  GTEST_SKIP() << "allocation counter unavailable under sanitizers";
#endif
  const auto start = graph().nodeAt({5, 7}, xcvsim::S1_YQ);
  fabric_.createNet(start, "t");
  // A template circling on hexes toward a pin it can never end on: the
  // walk runs until the budget is spent. The budget is large enough that
  // the visited set outgrows its first size, which the warm-up absorbs.
  opts_.maxTemplateVisits = 10000;
  std::vector<TemplateValue> tmpl{TemplateValue::OUTMUX};
  for (int i = 0; i < 60; ++i) {
    tmpl.insert(tmpl.end(), {TemplateValue::EAST6, TemplateValue::NORTH6,
                             TemplateValue::WEST6, TemplateValue::SOUTH6});
  }
  tmpl.push_back(TemplateValue::CLBIN);
  const NodeId target = graph().nodeAt({0, 0}, xcvsim::S0F1);
  const auto walk = [&] {
    return followTemplate(fabric_, start, tmpl, target,
                          xcvsim::kInvalidLocalWire, opts_);
  };
  const TemplateResult warm = walk();  // sizes this thread's scratch
  ASSERT_FALSE(warm.found);
  ASSERT_GT(warm.visited, opts_.maxTemplateVisits);
  const uint64_t before = jrtest::threadAllocCalls();
  for (int i = 0; i < 3; ++i) {
    const TemplateResult res = walk();
    EXPECT_EQ(res.visited, warm.visited);
  }
  EXPECT_EQ(jrtest::threadAllocCalls(), before)
      << "a walk must reuse the thread's scratch";
}

TEST_F(EnginesTest, NodeMatchesWireAtEveryTap) {
  const auto hexNode =
      graph().nodeAt({5, 6}, xcvsim::hex(Dir::East, HexTap::Beg, 4));
  EXPECT_TRUE(nodeMatchesWire(graph(), hexNode,
                              xcvsim::hex(Dir::East, HexTap::Mid, 4)));
  EXPECT_TRUE(nodeMatchesWire(graph(), hexNode,
                              xcvsim::hex(Dir::East, HexTap::End, 4)));
  EXPECT_FALSE(nodeMatchesWire(graph(), hexNode,
                               xcvsim::hex(Dir::East, HexTap::Beg, 5)));
  const auto g2 = graph().gclkNet(2);
  EXPECT_TRUE(nodeMatchesWire(graph(), g2, xcvsim::gclk(2)));
}

// --- Path executor ---------------------------------------------------------------

TEST_F(EnginesTest, ResolvePathPrefersFarTap) {
  using namespace xcvsim;
  // Through a hex: the next single must be picked up at the END tap.
  const int hexTrack = 1;  // OUT[1] drives hex 1 per hexFromOut
  const std::vector<LocalWire> wires{
      S1_YQ, omux(1), hex(Dir::East, HexTap::Beg, hexTrack)};
  const auto chain = resolvePath(graph(), {5, 7}, wires);
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(graph().edge(chain[1]).to,
            graph().nodeAt({5, 7}, hex(Dir::East, HexTap::Beg, hexTrack)));
}

TEST_F(EnginesTest, ResolvePathErrors) {
  using namespace xcvsim;
  EXPECT_THROW(resolvePath(graph(), {5, 7}, {S1_YQ}), ArgumentError);
  EXPECT_THROW(resolvePath(graph(), {5, 99}, {S1_YQ, omux(1)}),
               ArgumentError);
  EXPECT_THROW(resolvePath(graph(), {5, 7}, {S1_YQ, single(Dir::East, 0)}),
               ArgumentError);
}

// --- Maze router -----------------------------------------------------------------

TEST_F(EnginesTest, MazeFindsShortRouteAndReconstructsChain) {
  using namespace xcvsim;
  MazeRouter maze(graph());
  const auto src = graph().nodeAt({5, 7}, S1_YQ);
  const auto dst = graph().nodeAt({6, 9}, S0F3);
  // A CLB input: the goal is reached even though sink-only nodes other
  // than the goal never enter the open list.
  ASSERT_TRUE(graph().isSinkOnly(dst));
  const auto net = fabric_.createNet(src, "m");
  const NodeId starts[] = {src};
  const auto res = maze.route(fabric_, net, starts, dst, opts_);
  ASSERT_TRUE(res.found);
  ASSERT_FALSE(res.edges.empty());
  // Chain is contiguous from src to dst.
  NodeId cur = src;
  for (const auto e : res.edges) {
    EXPECT_EQ(graph().edgeSource(e), cur);
    cur = graph().edge(e).to;
  }
  EXPECT_EQ(cur, dst);
}

TEST_F(EnginesTest, MazeTreatsOtherNetsAsObstacles) {
  using namespace xcvsim;
  MazeRouter maze(graph());
  // Net A occupies a sink pin; net B cannot route into it.
  const auto srcA = graph().nodeAt({5, 7}, S1_YQ);
  const auto netA = fabric_.createNet(srcA, "a");
  const auto srcB = graph().nodeAt({5, 9}, S1_YQ);
  const auto netB = fabric_.createNet(srcB, "b");
  const auto dst = graph().nodeAt({6, 9}, S0F3);
  const NodeId startsA[] = {srcA};
  const auto resA = maze.route(fabric_, netA, startsA, dst, opts_);
  ASSERT_TRUE(resA.found);
  for (const auto e : resA.edges) fabric_.turnOn(e, netA);

  const NodeId startsB[] = {srcB};
  const auto resB = maze.route(fabric_, netB, startsB, dst, opts_);
  EXPECT_FALSE(resB.found);  // the goal pin belongs to net A
}

TEST_F(EnginesTest, MazeMultiSourceStartsAtTree) {
  using namespace xcvsim;
  MazeRouter maze(graph());
  const auto src = graph().nodeAt({2, 2}, S1_YQ);
  const auto net = fabric_.createNet(src, "tree");
  // First route far east; then a second sink near the far end should
  // branch from the existing tree, not from the source.
  const auto far = graph().nodeAt({2, 14}, S0F1);
  const NodeId starts1[] = {src};
  const auto res1 = maze.route(fabric_, net, starts1, far, opts_);
  ASSERT_TRUE(res1.found);
  std::vector<NodeId> tree{src};
  for (const auto e : res1.edges) {
    fabric_.turnOn(e, net);
    tree.push_back(graph().edge(e).to);
  }
  const auto near = graph().nodeAt({3, 13}, S0F1);
  const auto res2 = maze.route(fabric_, net, tree, near, opts_);
  ASSERT_TRUE(res2.found);
  // The branch is short: it did not re-route the 12-column trunk.
  EXPECT_LT(res2.edges.size(), res1.edges.size());
  // And its first edge leaves from a tree node other than the source.
  EXPECT_NE(graph().edgeSource(res2.edges.front()), src);
}

TEST_F(EnginesTest, MazeGoalAlreadyInTreeIsEmptyChain) {
  using namespace xcvsim;
  MazeRouter maze(graph());
  const auto src = graph().nodeAt({2, 2}, S1_YQ);
  const auto net = fabric_.createNet(src, "t");
  const NodeId starts[] = {src};
  const auto res = maze.route(fabric_, net, starts, src, opts_);
  EXPECT_TRUE(res.found);
  EXPECT_TRUE(res.edges.empty());
}

TEST_F(EnginesTest, MazeVisitBudgetBounds) {
  using namespace xcvsim;
  MazeRouter maze(graph());
  opts_.maxMazeVisits = 3;
  const auto src = graph().nodeAt({2, 2}, S1_YQ);
  const auto net = fabric_.createNet(src, "t");
  const NodeId starts[] = {src};
  const auto res = maze.route(fabric_, net, starts,
                              graph().nodeAt({14, 20}, S0F1), opts_);
  EXPECT_FALSE(res.found);
  EXPECT_LE(res.visited, 5u);
}

TEST_F(EnginesTest, FailingMazeSearchIsAllocationFree) {
#if !JRTEST_COUNTS_ALLOCS
  GTEST_SKIP() << "allocation counter unavailable under sanitizers";
#endif
  using namespace xcvsim;
  MazeRouter maze(graph());
  opts_.maxMazeVisits = 5000;
  const auto src = graph().nodeAt({2, 2}, S1_YQ);
  const auto net = fabric_.createNet(src, "t");
  // The goal is another net's source: the search spends its budget.
  const auto goal = graph().nodeAt({14, 20}, S0_YQ);
  fabric_.createNet(goal, "other");
  const NodeId starts[] = {src};
  const SearchResult warm = maze.route(fabric_, net, starts, goal, opts_);
  ASSERT_FALSE(warm.found);
  // The steady state is after growth: the warm search outgrew the node
  // table's first size, and the grown table is reused, not reallocated.
  ASSERT_GT(MazeRouterMutator(maze).tableSlots(),
            MazeRouterMutator::initialTableSlots());
  const uint64_t before = jrtest::threadAllocCalls();
  for (int i = 0; i < 3; ++i) {
    const SearchResult res = maze.route(fabric_, net, starts, goal, opts_);
    EXPECT_FALSE(res.found);
    EXPECT_EQ(res.visited, warm.visited);
  }
  EXPECT_EQ(jrtest::threadAllocCalls(), before)
      << "a search must reuse the router's open list and node table";
}

TEST_F(EnginesTest, MazeVisitsNoNonGoalSinkOnlyNode) {
  using namespace xcvsim;
  const auto src = graph().nodeAt({5, 7}, S1_YQ);
  const auto goal = graph().nodeAt({9, 12}, S0F3);
  const auto net = fabric_.createNet(src, "m");
  // Free CLB inputs near the source: sink-only, and not the goal.
  std::vector<NodeId> leaves;
  for (const LocalWire w : {S0F1, S0F2, S1F3, S1G1}) {
    leaves.push_back(graph().nodeAt({5, 8}, w));
    ASSERT_TRUE(graph().isSinkOnly(leaves.back()));
  }

  // The node table holds every node the search reached.
  MazeRouter maze(graph());
  const NodeId starts[] = {src};
  const SearchResult want = maze.route(fabric_, net, starts, goal, opts_);
  ASSERT_TRUE(want.found);
  const std::vector<NodeId> held = MazeRouterMutator(maze).tableNodes();
  ASSERT_FALSE(held.empty());
  for (const NodeId n : held) {
    EXPECT_TRUE(n == goal || !graph().isSinkOnly(n)) << graph().nodeName(n);
  }
  // Every visit expands a node the table holds.
  EXPECT_LE(want.visited, held.size());

  // Sink-only starts are leaves: they add no visit and change no route.
  std::vector<NodeId> withLeaves = leaves;
  withLeaves.push_back(src);
  const SearchResult got = maze.route(fabric_, net, withLeaves, goal, opts_);
  EXPECT_EQ(got.edges, want.edges);
  EXPECT_EQ(got.visited, want.visited);
  const SearchResult none = maze.route(fabric_, net, leaves, goal, opts_);
  EXPECT_FALSE(none.found);
  EXPECT_EQ(none.visited, 0u);
}

TEST_F(EnginesTest, MazeTableGrowthMatchesFreshRouter) {
  using namespace xcvsim;
  // An admissible, manhattan-guided search across the device reaches
  // far more nodes than the table's first size holds at half load.
  opts_.useLookahead = false;
  opts_.heuristicWeight = 1.0;
  const auto src = graph().nodeAt({2, 2}, S1_YQ);
  const auto goal = graph().nodeAt({14, 22}, S0F1);
  const auto net = fabric_.createNet(src, "far");
  const NodeId starts[] = {src};

  MazeRouter fresh(graph());
  const SearchResult want = fresh.route(fabric_, net, starts, goal, opts_);
  ASSERT_TRUE(want.found);
  ASSERT_GT(MazeRouterMutator(fresh).tableSlots(),
            MazeRouterMutator::initialTableSlots())
      << "the search did not outgrow the table";

  // The same search on a router whose table is already that large: it
  // grows nothing mid-search, and must agree on every edge and visit.
  const SearchResult again = fresh.route(fabric_, net, starts, goal, opts_);
  EXPECT_EQ(again.edges, want.edges);
  EXPECT_EQ(again.visited, want.visited);

  // And a short search after the growth matches a fresh router's.
  const auto near = graph().nodeAt({3, 4}, S0F3);
  MazeRouter other(graph());
  const SearchResult shortWant =
      other.route(fabric_, net, starts, near, opts_);
  const SearchResult shortGot =
      fresh.route(fabric_, net, starts, near, opts_);
  ASSERT_TRUE(shortWant.found);
  EXPECT_EQ(shortGot.edges, shortWant.edges);
  EXPECT_EQ(shortGot.visited, shortWant.visited);
}

TEST_F(EnginesTest, MazeEpochWrapMatchesFreshRouter) {
  using namespace xcvsim;
  const auto srcA = graph().nodeAt({2, 2}, S1_YQ);
  const auto netA = fabric_.createNet(srcA, "a");
  const auto srcB = graph().nodeAt({9, 12}, S0_YQ);
  const auto netB = fabric_.createNet(srcB, "b");
  const auto goalA = graph().nodeAt({6, 9}, S0F3);
  const auto goalB = graph().nodeAt({3, 17}, S1F2);
  const NodeId startsA[] = {srcA};
  const NodeId startsB[] = {srcB};

  MazeRouter fresh(graph());
  const SearchResult wantA = fresh.route(fabric_, netA, startsA, goalA, opts_);
  const SearchResult wantB = fresh.route(fabric_, netB, startsB, goalB, opts_);
  ASSERT_TRUE(wantA.found);
  ASSERT_TRUE(wantB.found);

  // Stamp table slots with early epochs, then jump to the last one: the
  // next search wraps the counter, and neither it nor the one after may
  // mistake a slot left by an earlier search for one it claimed itself
  // (the wrap zeroes every stamp; searches A and B reuse epochs 1 and 2).
  MazeRouter wrapped(graph());
  wrapped.route(fabric_, netA, startsA, goalA, opts_);
  wrapped.route(fabric_, netB, startsB, goalB, opts_);
  MazeRouterMutator(wrapped).setEpoch(std::numeric_limits<uint32_t>::max());
  const SearchResult gotA = wrapped.route(fabric_, netA, startsA, goalA, opts_);
  const SearchResult gotB = wrapped.route(fabric_, netB, startsB, goalB, opts_);
  EXPECT_EQ(MazeRouterMutator(wrapped).epoch(), 2u);
  ASSERT_TRUE(gotA.found);
  ASSERT_TRUE(gotB.found);
  EXPECT_EQ(gotA.edges, wantA.edges);
  EXPECT_EQ(gotA.visited, wantA.visited);
  EXPECT_EQ(gotB.edges, wantB.edges);
  EXPECT_EQ(gotB.visited, wantB.visited);
}

// --- Parameterized displacement sweep ---------------------------------------

struct Disp {
  int dr;
  int dc;
};

class DisplacementSweep : public ::testing::TestWithParam<Disp> {
 protected:
  static const Graph& graph() {
    static Graph g{xcvsim::xcv50()};
    return g;
  }
  static const xcvsim::PipTable& table() {
    static xcvsim::PipTable t{xcvsim::ArchDb{xcvsim::xcv50()}};
    return t;
  }
};

TEST_P(DisplacementSweep, EveryTemplateLandsExactly) {
  const auto [dr, dc] = GetParam();
  const RowCol from{8, 12};
  const RowCol to{static_cast<int16_t>(8 + dr),
                  static_cast<int16_t>(12 + dc)};
  for (const auto& t : templatesFor(xcvsim::xcv50(), from, to, true, true)) {
    int adr = 0, adc = 0;
    bool directional = false;
    for (TemplateValue v : t) {
      adr += xcvsim::templateDRow(v);
      adc += xcvsim::templateDCol(v);
      directional = directional || xcvsim::templateDRow(v) != 0 ||
                    xcvsim::templateDCol(v) != 0;
    }
    if (!directional && (dr != 0 || dc != 0)) {
      // The bare {CLBIN} variant rides a dedicated feedback/direct PIP;
      // its displacement is carried by the PIP, not by template values.
      continue;
    }
    EXPECT_EQ(adr, dr);
    EXPECT_EQ(adc, dc);
  }
}

TEST_P(DisplacementSweep, AutoRouteSucceedsOnBlankFabric) {
  const auto [dr, dc] = GetParam();
  xcvsim::Fabric fabric(graph(), table());
  // Router lives in core; exercise the engines through a maze fallback to
  // keep this suite engine-scoped.
  MazeRouter maze(graph());
  RouterOptions opts;
  const auto src = graph().nodeAt({8, 12}, xcvsim::S1_YQ);
  const auto dst = graph().nodeAt({static_cast<int16_t>(8 + dr),
                                   static_cast<int16_t>(12 + dc)},
                                  xcvsim::S0F1);
  ASSERT_NE(dst, xcvsim::kInvalidNode);
  const auto net = fabric.createNet(src, "sweep");
  const NodeId starts[] = {src};
  const auto res = maze.route(fabric, net, starts, dst, opts);
  EXPECT_TRUE(res.found) << "(" << dr << "," << dc << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DisplacementSweep,
    ::testing::Values(Disp{0, 0}, Disp{0, 1}, Disp{0, -1}, Disp{1, 0},
                      Disp{-1, 0}, Disp{1, 1}, Disp{-2, 3}, Disp{0, 6},
                      Disp{6, 0}, Disp{0, 7}, Disp{5, 5}, Disp{-6, -6},
                      Disp{3, -8}, Disp{7, 11}, Disp{-7, 4}, Disp{2, -10},
                      Disp{6, 6}, Disp{-4, -4}, Disp{1, 10}, Disp{-5, 9}),
    [](const ::testing::TestParamInfo<Disp>& pinfo) {
      const auto sgn = [](int v) {
        return v < 0 ? "m" + std::to_string(-v) : std::to_string(v);
      };
      return "dr" + sgn(pinfo.param.dr) + "_dc" + sgn(pinfo.param.dc);
    });

}  // namespace
}  // namespace jroute
