// RRG-layer rules: the routing-resource graph must be bijective with the
// architecture description and structurally usable (no orphans, every
// sink reachable from some signal source).
#include <map>
#include <tuple>
#include <vector>

#include "arch/wires.h"
#include "verify/rules.h"

namespace jrverify {
namespace {

using xcvsim::Edge;
using xcvsim::Graph;
using xcvsim::kInvalidLocalWire;
using xcvsim::kInvalidNode;
using xcvsim::kNumLocalWires;
using xcvsim::NodeInfo;
using xcvsim::NodeKind;
using xcvsim::wireName;

/// Pip identity used for the bijection multiset: source local, tile the
/// target pin lives at (differs from the pip tile only for directs), and
/// target local.
using PipSig = std::tuple<LocalWire, int, int, LocalWire>;

/// rrg-edge-bijection — at every sampled tile, the multiset of graph edges
/// equals the multiset of arch pips (tile pips + direct connects).
void edgeBijection(const ModelView& m, RuleSink& out) {
  size_t& tiles = out.count("tiles");
  size_t& pips = out.count("pips");
  size_t& edges = out.count("edges");
  const Graph& g = *m.graph;
  for (const RowCol rc : sampleTiles(*m.dev)) {
    ++tiles;
    std::map<PipSig, int> want;
    m.tilePips(rc, [&](LocalWire from, LocalWire to) {
      ++want[{from, rc.row, rc.col, to}];
      ++pips;
    });
    m.directs(rc, [&](LocalWire from, RowCol dst, LocalWire to) {
      ++want[{from, dst.row, dst.col, to}];
      ++pips;
    });
    for (LocalWire w = 0; w < kNumLocalWires; ++w) {
      if (!m.existsAt(rc, w)) continue;
      const NodeId n = m.nodeAt(rc, w);
      if (n == kInvalidNode) continue;  // alias rule reports this
      for (const Edge& e : g.out(n)) {
        if (Graph::pipTile(e) != rc) continue;
        if (e.fromLocal != w) continue;
        ++edges;
        // Direct connects are the only pips whose target pin lives at
        // another tile.
        const RowCol dst = g.isDirectConnect(e) ? g.tileOf(e.to) : rc;
        const LocalWire toLocal = g.toLocalOf(e);
        const PipSig sig{e.fromLocal, dst.row, dst.col, toLocal};
        auto it = want.find(sig);
        if (it == want.end() || it->second == 0) {
          out.add(tileName(rc) + " " + wireName(e.fromLocal) + " -> " +
                      wireName(toLocal),
                  "graph edge has no matching arch pip",
                  "Graph::buildOutEdges emitted an edge the ArchDb does "
                  "not advertise; the enumeration is the single "
                  "source of truth");
        } else {
          --it->second;
        }
      }
    }
    for (const auto& [sig, count] : want) {
      if (count == 0) continue;
      out.add(tileName(rc) + " " + wireName(std::get<0>(sig)) + " -> " +
                  wireName(std::get<3>(sig)),
              "arch pip has no matching graph edge (" +
                  std::to_string(count) + " missing)",
              "the graph builder dropped a pip the ArchDb enumerates; "
              "check the node-resolution path in buildOutEdges");
    }
  }
}

/// rrg-alias-roundtrip — (tile, local) -> node -> alias is the identity
/// wherever the arch says the name exists, and resolves to nothing where
/// it does not.
void aliasRoundtrip(const ModelView& m, RuleSink& out) {
  size_t& tiles = out.count("tiles");
  size_t& wires = out.count("wires");
  for (const RowCol rc : sampleTiles(*m.dev)) {
    ++tiles;
    for (LocalWire w = 0; w < kNumLocalWires; ++w) {
      ++wires;
      const NodeId n = m.nodeAt(rc, w);
      if (!m.existsAt(rc, w)) {
        if (n != kInvalidNode) {
          out.add(tileName(rc) + " " + wireName(w),
                  "name resolves to a node but existsAt denies it",
                  "Graph::nodeAt must gate on ArchDb::existsAt");
        }
        continue;
      }
      if (n == kInvalidNode) {
        out.add(tileName(rc) + " " + wireName(w),
                "existing name does not resolve to a node",
                "Graph::nodeAt dropped a wire the ArchDb advertises");
        continue;
      }
      const LocalWire back = m.aliasAt(n, rc);
      if (back != w) {
        out.add(tileName(rc) + " " + wireName(w),
                "aliasAt returns " +
                    (back == kInvalidLocalWire ? std::string("nothing")
                                               : wireName(back)) +
                    " for the node this name resolves to",
                "nodeAt and aliasAt must be inverse at every tap tile");
      }
    }
  }
}

/// True for nodes that inject signals into the fabric.
bool isSource(const NodeInfo& info) {
  return (info.kind == NodeKind::Logic && info.local < xcvsim::kOmuxBase) ||
         info.kind == NodeKind::GclkPad || info.kind == NodeKind::IobIn ||
         info.kind == NodeKind::BramOut;
}

/// True for nodes that consume signals (routing must be able to end here).
bool isSink(const NodeInfo& info) {
  return (info.kind == NodeKind::Logic && info.local >= xcvsim::kClbInBase &&
          info.local < xcvsim::kSingleBase) ||
         info.kind == NodeKind::IobOut || info.kind == NodeKind::BramIn;
}

/// rrg-sink-reachable — every sink pin is reachable from at least one
/// signal source over live edges (full-graph BFS, not sampled).
void sinkReachable(const ModelView& m, RuleSink& out) {
  size_t& nodes = out.count("nodes");
  const Graph& g = *m.graph;
  nodes += g.numNodes();
  std::vector<uint8_t> seen(g.numNodes(), 0);
  std::vector<NodeId> queue;
  for (NodeId n = 0; n < g.numNodes(); ++n) {
    if (isSource(g.info(n))) {
      seen[n] = 1;
      queue.push_back(n);
    }
  }
  size_t head = 0;
  while (head < queue.size()) {
    const NodeId n = queue[head++];
    for (const Edge& e : g.out(n)) {
      if (seen[e.to]) continue;
      if (m.edgeEnabled && !m.edgeEnabled(g.edgeIdOf(n, e))) continue;
      seen[e.to] = 1;
      queue.push_back(e.to);
    }
  }
  for (NodeId n = 0; n < g.numNodes(); ++n) {
    const NodeInfo info = g.info(n);
    if (!isSink(info) || seen[n]) continue;
    out.add(tileName(info.tile) + " " + g.nodeName(n),
            "sink pin unreachable from every source",
            "a missing pip chain isolates this pin; inspect the "
            "patterns feeding its wire class");
  }
}

/// rrg-orphan-node — no node is disconnected on both sides.
void orphanNode(const ModelView& m, RuleSink& out) {
  size_t& nodes = out.count("nodes");
  const Graph& g = *m.graph;
  nodes += g.numNodes();
  const auto report = [&](NodeId n) {
    out.add(tileName(g.info(n).tile) + " " + g.nodeName(n),
            "node has no edges in either direction",
            "an orphan wastes a routing resource and usually means a "
            "pattern was gated out asymmetrically");
  };
  // Count live degrees in one edge sweep.
  std::vector<uint32_t> degree(g.numNodes(), 0);
  for (NodeId n = 0; n < g.numNodes(); ++n) {
    for (const Edge& e : g.out(n)) {
      if (!edgeLive(m, g.edgeIdOf(n, e))) continue;
      ++degree[n];
      ++degree[e.to];
    }
  }
  for (NodeId n = 0; n < g.numNodes(); ++n) {
    if (degree[n] == 0) report(n);
  }
}

}  // namespace

std::span<const VerifyRule> rrgRules() {
  static const VerifyRule rules[] = {
      {"rrg-edge-bijection", "rrg", kError,
       "graph edges and arch pips are the same multiset per tile", nullptr,
       edgeBijection},
      {"rrg-alias-roundtrip", "rrg", kError,
       "nodeAt/aliasAt round-trip wherever existsAt says a name lives",
       nullptr, aliasRoundtrip},
      {"rrg-sink-reachable", "rrg", kError,
       "every input pin is reachable from some source", nullptr,
       sinkReachable},
      {"rrg-orphan-node", "rrg", kError,
       "no node has zero live in-edges and zero live out-edges", nullptr,
       orphanNode},
  };
  return rules;
}

}  // namespace jrverify
