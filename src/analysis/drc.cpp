#include "analysis/drc.h"

#include <cstdlib>
#include <queue>
#include <string>

#include "bitstream/decoder.h"
#include "common/error.h"
#include "obs/trace.h"

namespace jrdrc {

using xcvsim::Edge;
using xcvsim::Graph;
using xcvsim::kInvalidEdge;
using xcvsim::kInvalidNet;
using xcvsim::kInvalidNode;

namespace {

using jrcheck::RuleSink;

/// "R5C5.S0F1 (node 1234, edge 99, net 7)": the wire of `node` (or of
/// `edge`'s target), then whichever ids are valid. "fabric" when the
/// finding has no anchor (a global counter).
std::string at(const Graph& g, NodeId node, EdgeId edge = kInvalidEdge,
               NetId net = kInvalidNet) {
  NodeId anchor = node;
  if (anchor == kInvalidNode && edge != kInvalidEdge) anchor = g.edge(edge).to;
  std::string out = anchor == kInvalidNode ? "fabric" : g.nodeName(anchor);
  std::string ids;
  const auto id = [&](const char* what, uint64_t v) {
    ids += (ids.empty() ? "" : ", ") + std::string(what) + " " +
           std::to_string(v);
  };
  if (node != kInvalidNode) id("node", node);
  if (edge != kInvalidEdge) id("edge", edge);
  if (net != kInvalidNet) id("net", net);
  return ids.empty() ? out : out + " (" + ids + ")";
}

std::string tileName(RowCol rc) {
  return "R" + std::to_string(rc.row) + "C" + std::to_string(rc.col);
}

/// Rule 1 — the paper's section 3.4 guarantee, checked structurally: no
/// segment has more than one ON incoming PIP, and the fabric's recorded
/// driver agrees with the ON in-edge set (net sources have none).
void doubleDrive(const DrcInput& in, RuleSink& out) {
  const Fabric& f = *in.fabric;
  const Graph& g = f.graph();
  // One sweep over the on-PIPs, in ascending id: each node's on in-degree
  // and its lowest-id on in-PIP; every further one is a finding.
  std::vector<uint32_t> onIn(g.numNodes(), 0);
  std::vector<EdgeId> firstOnIn(g.numNodes(), kInvalidEdge);
  for (EdgeId e = f.nextOnEdge(0, g.numEdges()); e < g.numEdges();
       e = f.nextOnEdge(e + 1, g.numEdges())) {
    const NodeId n = g.edge(e).to;
    if (++onIn[n] == 1) {
      firstOnIn[n] = e;
    } else {
      out.add(at(g, n, e, f.netOf(n)),
              "segment has " + std::to_string(onIn[n]) +
                  " simultaneous drivers (bidirectional contention)");
    }
  }
  for (NodeId n = 0; n < g.numNodes(); ++n) {
    const uint32_t drivers = onIn[n];
    const EdgeId firstOn = firstOnIn[n];
    const EdgeId rec = f.driverOf(n);
    if (rec != kInvalidEdge && (!f.edgeOn(rec) || g.edge(rec).to != n)) {
      out.add(at(g, n, rec, f.netOf(n)),
              "recorded driver is not an on-PIP into this segment");
    } else if (drivers == 1 && rec != firstOn) {
      out.add(at(g, n, firstOn, f.netOf(n)),
              "recorded driver disagrees with the on in-PIP");
    } else if (drivers == 0 && rec != kInvalidEdge) {
      out.add(at(g, n, rec, f.netOf(n)),
              "segment records a driver but no in-PIP is on");
    }
    if (f.isUsed(n) && f.netExists(f.netOf(n)) &&
        f.netSource(f.netOf(n)) == n && rec != kInvalidEdge) {
      out.add(at(g, n, rec, f.netOf(n)),
              "net source segment must never acquire a driver");
    }
  }
}

/// Rule 2 — every live net's PIP set forms a tree reachable from its
/// source endpoint: BFS over on-edges from the source must visit exactly
/// the net's claimed segments, all tagged with the net's id.
void netTree(const DrcInput& in, RuleSink& out) {
  const Fabric& f = *in.fabric;
  const Graph& g = f.graph();
  for (NetId id = 0; id < f.netCount(); ++id) {
    if (!f.netExists(id)) continue;
    const NodeId src = f.netSource(id);
    if (f.netOf(src) != id) {
      out.add(at(g, src, kInvalidEdge, id),
              "net source segment is not claimed by its net");
      continue;
    }
    std::vector<uint8_t> seen(g.numNodes(), 0);
    std::queue<NodeId> q;
    q.push(src);
    seen[src] = 1;
    size_t visited = 0;
    while (!q.empty()) {
      const NodeId n = q.front();
      q.pop();
      ++visited;
      if (f.netOf(n) != id) {
        out.add(at(g, n, kInvalidEdge, id),
                "segment reachable from net '" + f.netName(id) +
                    "' is claimed by a different net");
      }
      for (const Edge& ed : g.out(n)) {
        const EdgeId eid = g.edgeIdOf(n, ed);
        if (f.edgeOn(eid) && !seen[ed.to]) {
          seen[ed.to] = 1;
          q.push(ed.to);
        }
      }
    }
    if (visited != f.netSize(id)) {
      out.add(at(g, src, kInvalidEdge, id),
              "net '" + f.netName(id) + "' claims " +
                  std::to_string(f.netSize(id)) + " segments but only " +
                  std::to_string(visited) + " are reachable from its source");
    }
  }
}

/// Rule 3 — no antenna/stub wires: an ON PIP whose endpoints are not both
/// claimed by one live net is a switch the net database cannot see —
/// exactly the kind of silent residue a buggy unroute or rollback leaves.
void antenna(const DrcInput& in, RuleSink& out) {
  const Fabric& f = *in.fabric;
  const Graph& g = f.graph();
  for (EdgeId e = 0; e < g.numEdges(); ++e) {
    if (!f.edgeOn(e)) continue;
    const NodeId u = g.edgeSource(e);
    const NodeId v = g.edge(e).to;
    if (!f.isUsed(u) || !f.isUsed(v)) {
      out.add(at(g, f.isUsed(u) ? v : u, e),
              "on-PIP touches a segment no net claims (antenna)");
    } else if (f.netOf(u) != f.netOf(v)) {
      out.add(at(g, v, e, f.netOf(u)),
              "on-PIP crosses from one net into another");
    } else if (!f.netExists(f.netOf(u))) {
      out.add(at(g, u, e, f.netOf(u)),
              "on-PIP belongs to a dead net (unroute residue)");
    }
  }
}

/// Rule 4 — no orphaned claims: a segment marked in-use must be its net's
/// source, be driven, or drive something; and its net must be live. A
/// claimed-but-idle segment is residue from an incomplete unroute or
/// rollback.
void orphanNode(const DrcInput& in, RuleSink& out) {
  const Fabric& f = *in.fabric;
  const Graph& g = f.graph();
  for (NodeId n = 0; n < g.numNodes(); ++n) {
    if (!f.isUsed(n)) continue;
    const NetId net = f.netOf(n);
    if (!f.netExists(net)) {
      out.add(at(g, n, kInvalidEdge, net), "segment claimed by a dead net");
      continue;
    }
    if (f.netSource(net) == n) continue;  // sources persist by design
    if (f.driverOf(n) == kInvalidEdge && f.onOutCount(n) == 0) {
      out.add(at(g, n, kInvalidEdge, net),
              "claimed segment has neither driver nor on out-PIPs (orphan)");
    }
  }
}

/// Rule 5 — the fabric's O(1) counters (used nodes, on edges, per-node
/// fanout, per-net size, live nets) must match a full recount.
void counters(const DrcInput& in, RuleSink& out) {
  const Fabric& f = *in.fabric;
  const Graph& g = f.graph();
  size_t used = 0, on = 0, live = 0;
  std::vector<size_t> perNet(f.netCount(), 0);
  for (NodeId n = 0; n < g.numNodes(); ++n) {
    if (f.isUsed(n)) {
      ++used;
      if (f.netOf(n) < perNet.size()) ++perNet[f.netOf(n)];
    }
    int outCount = 0;
    for (const Edge& ed : g.out(n)) {
      if (f.edgeOn(g.edgeIdOf(n, ed))) {
        ++outCount;
        ++on;
      }
    }
    if (outCount != f.onOutCount(n)) {
      out.add(at(g, n, kInvalidEdge, f.netOf(n)),
              "fanout counter says " + std::to_string(f.onOutCount(n)) +
                  " but " + std::to_string(outCount) + " out-PIPs are on");
    }
  }
  for (NetId id = 0; id < f.netCount(); ++id) {
    if (!f.netExists(id)) continue;
    ++live;
    if (perNet[id] != f.netSize(id)) {
      out.add(at(g, f.netSource(id), kInvalidEdge, id),
              "net '" + f.netName(id) + "' size counter says " +
                  std::to_string(f.netSize(id)) + " but " +
                  std::to_string(perNet[id]) + " segments carry its id");
    }
  }
  if (used != f.usedNodeCount()) {
    out.add("fabric", "used-node counter says " +
                          std::to_string(f.usedNodeCount()) + " but " +
                          std::to_string(used) + " segments are claimed");
  }
  if (on != f.onEdgeCount()) {
    out.add("fabric", "on-edge counter says " +
                          std::to_string(f.onEdgeCount()) + " but " +
                          std::to_string(on) + " PIPs are on");
  }
  if (live != f.liveNetCount()) {
    out.add("fabric", "live-net counter says " +
                          std::to_string(f.liveNetCount()) + " but " +
                          std::to_string(live) + " nets exist");
  }
}

/// Rule 5b — the one-bit used index agrees with the per-node net table:
/// isUsed(n) exactly when netOf(n) names a net. The searches read only
/// the index, so a stale bit is a phantom obstacle or a missed one.
void usedIndex(const DrcInput& in, RuleSink& out) {
  const Fabric& f = *in.fabric;
  const Graph& g = f.graph();
  for (NodeId n = 0; n < g.numNodes(); ++n) {
    const bool claimed = f.netOf(n) != kInvalidNet;
    if (f.isUsed(n) != claimed) {
      out.add(at(g, n, kInvalidEdge, f.netOf(n)),
              claimed ? "segment carries a net id but its used bit is clear"
                      : "used bit is set but the segment carries no net id");
    }
  }
}

/// Rule 6 — the configuration frames decode back to exactly the on-PIP
/// set: the bitstream always reflects the fabric (write-through fidelity).
void bitstream(const DrcInput& in, RuleSink& out) {
  const Fabric& f = *in.fabric;
  const Graph& g = f.graph();
  const auto pips = xcvsim::decodePips(f.jbits().bitstream());
  if (pips.size() != f.onEdgeCount()) {
    out.add("fabric", "bitstream encodes " + std::to_string(pips.size()) +
                          " PIPs but the fabric has " +
                          std::to_string(f.onEdgeCount()) + " on");
  }
  for (const auto& d : pips) {
    if (d.key.kind == xcvsim::PipKeyKind::GlobalPad) continue;
    NodeId u = kInvalidNode, v = kInvalidNode;
    if (d.key.kind == xcvsim::PipKeyKind::TilePip) {
      u = g.nodeAt(d.tile, d.key.from);
      v = g.nodeAt(d.tile, d.key.to);
    } else {
      const int dc = d.key.kind == xcvsim::PipKeyKind::DirectE ? 1 : -1;
      u = g.nodeAt(d.tile, d.key.from);
      v = g.nodeAt({d.tile.row, static_cast<int16_t>(d.tile.col + dc)},
                   d.key.to);
    }
    const EdgeId e = (u == kInvalidNode || v == kInvalidNode)
                         ? kInvalidEdge
                         : g.findEdge(u, v, d.tile);
    if (e == kInvalidEdge) {
      out.add(u == kInvalidNode ? tileName(d.tile) : at(g, u),
              "bitstream enables a PIP no graph edge describes");
    } else if (!f.edgeOn(e)) {
      out.add(at(g, v, e, f.netOf(u)),
              "bitstream enables a PIP the fabric believes is off");
    }
  }
}

/// Rule 7 — the session-ownership table must agree with the net database:
/// every entry names the source segment of a live net.
void sessionOwnership(const DrcInput& in, RuleSink& out) {
  const Fabric& f = *in.fabric;
  const Graph& g = f.graph();
  for (const auto& [src, session] : *in.netOwners) {
    if (src >= g.numNodes() || !f.isUsed(src)) {
      out.add(src < g.numNodes() ? at(g, src) : "node " + std::to_string(src),
              "session " + std::to_string(session) +
                  " owns a net whose source segment is not in use");
      continue;
    }
    const NetId net = f.netOf(src);
    if (!f.netExists(net) || f.netSource(net) != src) {
      out.add(at(g, src, kInvalidEdge, net),
              "session " + std::to_string(session) +
                  " ownership entry does not name a live net's source");
    }
  }
}

/// Rule 8 — the router's port-connection memory should describe routes
/// that exist: a remembered connection whose source is not routed is
/// either rollback residue (a bug; see Router::Txn's connection mark) or
/// a stale entry after a manual unroute (legitimate, hence a warning).
void connectionMemory(const DrcInput& in, RuleSink& out) {
  const Fabric& f = *in.fabric;
  const Graph& g = f.graph();
  for (const auto& conn : in.router->connections()) {
    const auto pins = conn.source.resolve();
    if (pins.empty()) {
      out.add("router",
              "remembered connection's source port has no bound pins");
      continue;
    }
    const NodeId n = g.nodeAt(pins.front().rc, pins.front().wire);
    if (n == kInvalidNode || !f.isUsed(n)) {
      out.add(n == kInvalidNode ? tileName(pins.front().rc) : at(g, n),
              "remembered connection's source is not routed (stale entry "
              "or rollback residue)");
    }
  }
}

constexpr jrcheck::Severity kError = jrcheck::Severity::kError;

const DrcRule kRules[] = {
    {"double-drive", "", kError,
     "no bidirectional track is driven from both ends; recorded drivers "
     "match the on-PIP set",
     nullptr, doubleDrive},
    {"net-tree", "", kError,
     "every net is a tree of on-PIPs reachable from its source", nullptr,
     netTree},
    {"antenna", "", kError,
     "no on-PIP hangs outside the net database (antenna/stub wires)",
     nullptr, antenna},
    {"orphan-node", "", kError,
     "unroute/rollback leaves no idle claimed segments behind", nullptr,
     orphanNode},
    {"counters", "", kError, "cached usage counters match a full recount",
     nullptr, counters},
    {"used-index", "", kError,
     "the one-bit used index agrees with every segment's net id", nullptr,
     usedIndex},
    {"bitstream", "", kError,
     "decoded configuration frames equal the fabric's on-PIP set",
     [](const DrcInput& in) { return in.checkBitstream; }, bitstream},
    {"session-ownership", "", kError,
     "session ownership entries name live net sources",
     [](const DrcInput& in) { return in.netOwners != nullptr; },
     sessionOwnership},
    {"connection-memory", "", jrcheck::Severity::kWarning,
     "remembered port connections correspond to routed sources",
     [](const DrcInput& in) { return in.router != nullptr; },
     connectionMemory},
};

}  // namespace

std::span<const DrcRule> drcRules() { return kRules; }

DrcReport runDrc(const DrcInput& in) {
  if (in.fabric == nullptr) {
    throw xcvsim::ArgumentError("runDrc: no fabric to analyze");
  }
  JR_TRACE_SCOPE("drc", "run");
  const Graph& g = in.fabric->graph();
  DrcReport report("drc", std::string(g.device().name),
                   {"nets", "nodes", "edges"});
  report.count("nets") = in.fabric->liveNetCount();
  report.count("nodes") = g.numNodes();
  report.count("edges") = g.numEdges();
  jrcheck::runRules(drcRules(), in, report);
  return report;
}

DrcReport runDrc(const Fabric& fabric) {
  DrcInput in;
  in.fabric = &fabric;
  return runDrc(in);
}

bool paranoidEnabled() {
  static const bool enabled = [] {
    const char* v = std::getenv("JROUTE_DRC_PARANOID");
    return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
  }();
  return enabled;
}

void enforce(const DrcInput& in, const char* when) {
  const DrcReport report = runDrc(in);
  if (report.clean()) return;
  // A violation escaping the engine thread terminates the process; the
  // uncaught exception prints this message, report summary included.
  throw xcvsim::JRouteError("DRC failed after " + std::string(when) + ":\n" +
                            report.summary());
}

}  // namespace jrdrc
