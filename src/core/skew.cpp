#include "core/skew.h"

#include <algorithm>
#include <array>
#include <unordered_map>
#include <unordered_set>

#include "fabric/timing.h"
#include "fabric/trace.h"
#include "router/search.h"
#include "router/template_engine.h"
#include "router/template_lib.h"

namespace jroute {

using xcvsim::DelayPs;
using xcvsim::kInvalidLocalWire;
using xcvsim::kInvalidNode;
using xcvsim::NodeInfo;
using xcvsim::NodeKind;
using xcvsim::TemplateValue;

namespace {

/// Recover the addressable Pin of a sink node (logic pin or pad output).
Pin pinOf(const xcvsim::Graph& g, NodeId node) {
  const NodeInfo inf = g.info(node);
  return Pin(inf.tile, g.aliasAt(node, inf.tile));
}

/// A zero-displacement rectangle of singles ending with a move in
/// direction `endDir`, so the element that follows can continue in that
/// direction without the forbidden same-channel U-turn.
std::array<TemplateValue, 4> padLoopEndingWith(xcvsim::Dir endDir) {
  using xcvsim::Dir;
  const auto sv = [](Dir d) { return xcvsim::singleValue(d); };
  switch (endDir) {
    case Dir::East: return {sv(Dir::North), sv(Dir::West), sv(Dir::South),
                            sv(Dir::East)};
    case Dir::West: return {sv(Dir::South), sv(Dir::East), sv(Dir::North),
                            sv(Dir::West)};
    case Dir::North: return {sv(Dir::West), sv(Dir::South), sv(Dir::East),
                             sv(Dir::North)};
    case Dir::South: return {sv(Dir::East), sv(Dir::North), sv(Dir::West),
                             sv(Dir::South)};
  }
  return {};
}

/// Direction of travel a template value implies (East for the
/// direction-free values, which never follow a padding loop anyway).
xcvsim::Dir dirOfValue(TemplateValue v) {
  if (xcvsim::templateDRow(v) > 0) return xcvsim::Dir::North;
  if (xcvsim::templateDRow(v) < 0) return xcvsim::Dir::South;
  if (xcvsim::templateDCol(v) < 0) return xcvsim::Dir::West;
  return xcvsim::Dir::East;
}

/// Insert `loops` zero-displacement detours after the OUTMUX element of
/// each candidate template, oriented to flow into the base path. The
/// library lookup writes into `bodies`; the padded copies are the
/// caller's.
std::vector<std::vector<TemplateValue>> paddedTemplates(
    const xcvsim::Graph& g, const Pin& srcPin, const Pin& sinkPin,
    int loops, TemplateBodies& bodies) {
  const bool srcIsOut =
      xcvsim::wireKind(srcPin.wire) == xcvsim::WireKind::SliceOut;
  const bool dstIsIn =
      xcvsim::wireKind(sinkPin.wire) == xcvsim::WireKind::ClbIn;
  std::vector<std::vector<TemplateValue>> out;
  for (const TemplateBodies::Body t : templatesFor(
           g.device(), srcPin.rc, sinkPin.rc, srcIsOut, dstIsIn, bodies)) {
    std::vector<TemplateValue> padded;
    size_t insertAt = 0;
    if (!t.empty() && t[0] == TemplateValue::OUTMUX) {
      padded.push_back(t[0]);
      insertAt = 1;
    }
    if (loops > 0) {
      // Zero-length bodies ({CLBIN} via feedback/direct PIPs) cannot be
      // padded: the dedicated PIP leaves no room for detours.
      if (insertAt >= t.size() ||
          t[insertAt] == TemplateValue::CLBIN) {
        continue;
      }
      const auto loop = padLoopEndingWith(dirOfValue(t[insertAt]));
      for (int i = 0; i < loops; ++i) {
        padded.insert(padded.end(), loop.begin(), loop.end());
      }
    }
    padded.insert(padded.end(), t.begin() + static_cast<long>(insertAt),
                  t.end());
    out.push_back(std::move(padded));
  }
  return out;
}

/// Maze-based padding fallback for congested neighbourhoods where no
/// template fits: route source -> (a free single near a perpendicular
/// waypoint) -> sink. The two-leg shape adds roughly `deficit` of wire
/// delay while staying as flexible as the maze itself.
bool detourViaWaypoint(Router& router, xcvsim::NetId net, NodeId srcNode,
                       const Pin& srcPin, const Pin& sinkPin,
                       DelayPs maxDelay) {
  auto& fabric = router.fabric();
  const auto& g = fabric.graph();
  const auto& dev = g.device();
  const NodeId sinkNode = g.nodeAt(sinkPin.rc, sinkPin.wire);

  // Both legs run on singles (~410 ps per tile), so size the waypoint
  // offset from the slowest sink's total budget: the whole detour path
  // should arrive just under maxDelay.
  constexpr DelayPs kTile = 350 + xcvsim::kPipDelayPs;
  const int baseTiles = manhattan(srcPin.rc, sinkPin.rc);
  const int budgetTiles = static_cast<int>(maxDelay / kTile);
  const int k = std::clamp((budgetTiles - baseTiles) / 2 - 1, 1, 8);
  int wpRow = sinkPin.rc.row + k;
  if (wpRow >= dev.rows) wpRow = sinkPin.rc.row - k;
  if (wpRow < 0) return false;

  // A free single track in the waypoint tile's east (or west) channel.
  NodeId way = kInvalidNode;
  for (const xcvsim::Dir d : {xcvsim::Dir::East, xcvsim::Dir::West}) {
    for (int t = 0; t < xcvsim::kSinglesPerChannel && way == kInvalidNode;
         ++t) {
      const NodeId cand = g.nodeAt(
          {static_cast<int16_t>(wpRow), sinkPin.rc.col}, xcvsim::single(d, t));
      if (cand != kInvalidNode && !fabric.isUsed(cand)) way = cand;
    }
    if (way != kInvalidNode) break;
  }
  if (way == kInvalidNode) return false;

  MazeRouter maze(g);
  RouterOptions opts = router.options();
  opts.mazeSinglesOnly = true;  // calibrated ~410 ps per tile of detour
  const NodeId leg1Starts[] = {srcNode};
  const SearchResult leg1 = maze.route(fabric, net, leg1Starts, way, opts);
  if (!leg1.found) return false;
  std::vector<NodeId> leg2Starts{srcNode};
  for (const xcvsim::EdgeId e : leg1.edges) {
    fabric.turnOn(e, net);
    leg2Starts.push_back(g.edge(e).to);
  }
  // Leg 2 grows from the detour only (not the whole tree) so the added
  // wire stays in series with the branch.
  std::vector<NodeId> fromDetour{way};
  const SearchResult leg2 =
      maze.route(fabric, net, fromDetour, sinkNode, opts);
  if (!leg2.found) {
    // Undo leg 1 and report failure; caller restores plain connectivity.
    for (auto it = leg1.edges.rbegin(); it != leg1.edges.rend(); ++it) {
      fabric.turnOff(*it);
    }
    return false;
  }
  for (const xcvsim::EdgeId e : leg2.edges) fabric.turnOn(e, net);
  // The detour must not become the new critical path: revert on overshoot.
  if (arrivalAt(fabric, sinkNode) > maxDelay) {
    for (auto it = leg2.edges.rbegin(); it != leg2.edges.rend(); ++it) {
      fabric.turnOff(*it);
    }
    for (auto it = leg1.edges.rbegin(); it != leg1.edges.rend(); ++it) {
      fabric.turnOff(*it);
    }
    return false;
  }
  return true;
}

}  // namespace

BalancedReport routeBalanced(Router& router, const EndPoint& source,
                             std::span<const EndPoint> sinks,
                             DelayPs skewTarget, int maxReroutes) {
  auto& fabric = router.fabric();
  const auto& g = fabric.graph();

  // Phase 1: ordinary greedy fanout route.
  router.route(source, sinks);

  const Pin srcPin = source.isPin() ? source.pin() : source.port().pins()[0];
  const NodeId srcNode = g.nodeAt(srcPin.rc, srcPin.wire);
  const xcvsim::NetId net = fabric.netOf(srcNode);

  BalancedReport report;
  xcvsim::NetTiming timing = computeNetTiming(fabric, srcNode);
  report.skewBefore = timing.skew();
  report.skewAfter = report.skewBefore;
  report.maxDelay = timing.maxDelay;

  // Delay of a candidate chain starting at the net source.
  const auto chainDelay = [&](const std::vector<xcvsim::EdgeId>& edges) {
    DelayPs d = g.nodeDelay(srcNode);
    for (const xcvsim::EdgeId e : edges) {
      d += xcvsim::kPipDelayPs + g.nodeDelay(g.edge(e).to);
    }
    return d;
  };

  // Phase 2: equalize by padding the fastest branches. For each branch we
  // measure replacement paths at growing padding depths and keep the
  // slowest chain that does not pass the slowest sink. A branch may be
  // revisited (padding is quantized), but only a few times.
  std::unordered_map<NodeId, int> attempts;
  RouterOptions opts = router.options();
  TemplateBodies bodies;
  while (report.branchesRerouted < maxReroutes &&
         timing.skew() > skewTarget) {
    // Fastest sink that still has attempts left.
    const xcvsim::SinkDelay* fastest = nullptr;
    for (const auto& sd : timing.sinks) {
      if (attempts[sd.sink] >= 3) continue;
      if (!fastest || sd.delay < fastest->delay) fastest = &sd;
    }
    if (!fastest) break;  // every branch processed; skew is what it is
    ++attempts[fastest->sink];
    if (timing.maxDelay - fastest->delay <= skewTarget) continue;

    const Pin sinkPin = pinOf(g, fastest->sink);
    router.reverseUnroute(EndPoint(sinkPin));

    // Candidate replacement chains: every template decomposition (they
    // have naturally different delays — all-singles runs ~3x slower per
    // tile than hexes) at every padding depth. Keep the slowest chain
    // that still arrives no later than the slowest sink.
    std::vector<xcvsim::EdgeId> best;
    DelayPs bestDelay = -1;
    for (int loops = 0; loops <= 6; ++loops) {
      bool anyFit = false;
      for (const auto& tmpl :
           paddedTemplates(g, srcPin, sinkPin, loops, bodies)) {
        const TemplateResult res =
            followTemplate(fabric, srcNode, tmpl, fastest->sink,
                           kInvalidLocalWire, opts);
        if (!res.found) continue;
        anyFit = true;
        const DelayPs d = chainDelay(res.edges);
        if (d <= timing.maxDelay && d > bestDelay) {
          bestDelay = d;
          best = res.edges;
        }
      }
      // Stop adding loops once nothing fits or we are close enough.
      if (!anyFit && loops > 0) break;
      if (bestDelay >= 0 && timing.maxDelay - bestDelay <= skewTarget / 2) {
        break;
      }
    }
    if (!best.empty()) {
      for (const xcvsim::EdgeId e : best) fabric.turnOn(e, net);
      ++report.branchesRerouted;
    } else if (detourViaWaypoint(router, net, srcNode, srcPin, sinkPin,
                                 timing.maxDelay)) {
      ++report.branchesRerouted;
    } else {
      // Nothing fits here; restore plain connectivity and move on.
      router.route(source, EndPoint(sinkPin));
    }
    timing = computeNetTiming(fabric, srcNode);
  }

  report.skewAfter = timing.skew();
  report.maxDelay = timing.maxDelay;
  return report;
}

}  // namespace jroute
