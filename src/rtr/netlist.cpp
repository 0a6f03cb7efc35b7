#include "rtr/netlist.h"

#include <istream>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "arch/wires.h"
#include "common/error.h"
#include "fabric/trace.h"

namespace jroute {

using xcvsim::ArgumentError;
using xcvsim::Edge;
using xcvsim::EdgeId;
using xcvsim::Graph;
using xcvsim::kInvalidLocalWire;
using xcvsim::kInvalidNode;
using xcvsim::LocalWire;
using xcvsim::NetId;
using xcvsim::NodeId;
using xcvsim::RowCol;

std::string exportNetlist(const Fabric& fabric) {
  const Graph& g = fabric.graph();
  std::ostringstream os;

  // Enumerate live nets deterministically by scanning node ownership for
  // sources (a source is a used node with no driver).
  std::map<NetId, NodeId> sources;
  for (NodeId n = 0; n < g.numNodes(); ++n) {
    if (fabric.isUsed(n) && fabric.driverOf(n) == xcvsim::kInvalidEdge) {
      sources.emplace(fabric.netOf(n), n);
    }
  }

  for (const auto& [net, src] : sources) {
    const auto srcInfo = g.info(src);
    if (srcInfo.kind == xcvsim::NodeKind::GclkPad) {
      // Global clock pads have no (row, col, wire) address.
      os << "netpad " << fabric.netName(net) << " " << srcInfo.track
         << "  # " << g.nodeName(src) << "\n";
    } else {
      const xcvsim::LocalWire srcWire = g.aliasAt(src, srcInfo.tile);
      os << "net " << fabric.netName(net) << " " << srcInfo.tile.row << " "
         << srcInfo.tile.col << " " << srcWire << "  # "
         << g.nodeName(src) << "\n";
    }
    for (const xcvsim::TraceHop& hop : traceForward(fabric, src)) {
      const Edge& e = g.edge(hop.edge);
      const RowCol rc = Graph::pipTile(e);
      if (e.fromLocal == kInvalidLocalWire) {
        // Global pad driver: re-encode as a pip on the net's pad.
        os << "pad " << g.info(hop.to).track << "\n";
      } else if (g.isDirectConnect(e)) {
        // Destination pin lives in the neighbour tile.
        const RowCol dst = g.tileOf(e.to);
        os << "pipx " << rc.row << " " << rc.col << " " << e.fromLocal
           << " " << dst.row << " " << dst.col << " " << g.toLocalOf(e)
           << "  # " << g.nodeName(hop.from) << " -> "
           << g.nodeName(hop.to) << "\n";
      } else {
        os << "pip " << rc.row << " " << rc.col << " " << e.fromLocal
           << " " << g.toLocalOf(e) << "  # " << g.nodeName(hop.from)
           << " -> " << g.nodeName(hop.to) << "\n";
      }
    }
    os << "end\n";
  }
  return os.str();
}

namespace {

/// Unroute and remove `nets`, leaf-side first so the fabric is consistent
/// at every step.
void removeNets(Fabric& fabric, const std::vector<NetId>& nets) {
  for (const NetId net : nets) {
    const auto hops = xcvsim::traceForward(fabric, fabric.netSource(net));
    for (auto it = hops.rbegin(); it != hops.rend(); ++it) {
      fabric.turnOff(it->edge);
    }
    fabric.removeNet(net);
  }
}

/// Replays the netlist's lines, appending each net it creates to
/// `created` before wiring it.
void importLines(Fabric& fabric, std::istream& is,
                 std::vector<NetId>& created) {
  const Graph& g = fabric.graph();
  NetId current = xcvsim::kInvalidNet;
  std::string line;
  int lineNo = 0;

  const auto fail = [&](const std::string& what) {
    throw ArgumentError("netlist line " + std::to_string(lineNo) + ": " +
                        what);
  };
  // Reads one token through `parse` (parseCoord or parseWire): a row,
  // column or wire id that does not fit its 16-bit field is an error,
  // never a silent wrap onto another tile or wire. False at end of line.
  const auto read = [&](std::istringstream& ls, auto& out, auto parse,
                        const char* what) {
    std::string tok;
    if (!(ls >> tok)) return false;
    const auto v = parse(tok);
    if (!v) fail("bad " + std::string(what) + " '" + tok + "'");
    out = v.value();
    return true;
  };
  const auto readWire = [&](std::istringstream& ls, LocalWire& w) {
    return read(ls, w, xcvsim::parseWire, "wire");
  };
  const auto readPin = [&](std::istringstream& ls, RowCol& rc,
                           LocalWire& w) {
    return read(ls, rc.row, xcvsim::parseCoord, "coordinate") &&
           read(ls, rc.col, xcvsim::parseCoord, "coordinate") &&
           readWire(ls, w);
  };

  while (std::getline(is, line)) {
    ++lineNo;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string cmd;
    if (!(ls >> cmd)) continue;  // blank line

    if (cmd == "net") {
      std::string name;
      RowCol rc;
      LocalWire wire = kInvalidLocalWire;
      if (!(ls >> name) || !readPin(ls, rc, wire)) fail("malformed net");
      const NodeId src = g.nodeAt(rc, wire);
      if (src == kInvalidNode) fail("bad source pin");
      current = fabric.createNet(src, name);
      created.push_back(current);
    } else if (cmd == "netpad") {
      std::string name;
      int k;
      if (!(ls >> name >> k) || k < 0 || k >= xcvsim::kGlobalNets) {
        fail("malformed netpad");
      }
      current = fabric.createNet(g.gclkPad(k), name);
      created.push_back(current);
    } else if (cmd == "pip" || cmd == "pipx") {
      if (current == xcvsim::kInvalidNet) fail("pip outside a net");
      RowCol rc, rc2;
      LocalWire from = kInvalidLocalWire, to = kInvalidLocalWire;
      if (cmd == "pip") {
        if (!readPin(ls, rc, from) || !readWire(ls, to)) fail("malformed pip");
        rc2 = rc;
      } else if (!readPin(ls, rc, from) || !readPin(ls, rc2, to)) {
        fail("malformed pipx");
      }
      const NodeId u = g.nodeAt(rc, from);
      const NodeId v = g.nodeAt(rc2, to);
      if (u == kInvalidNode || v == kInvalidNode) fail("bad pip wires");
      const EdgeId e = g.findEdge(u, v, rc);
      if (e == xcvsim::kInvalidEdge) fail("no such PIP in the fabric");
      fabric.turnOn(e, current);
    } else if (cmd == "pad") {
      if (current == xcvsim::kInvalidNet) fail("pad outside a net");
      int k;
      if (!(ls >> k)) fail("malformed pad");
      if (k < 0 || k >= xcvsim::kGlobalNets) fail("bad pad index");
      const EdgeId e = g.findEdge(g.gclkPad(k), g.gclkNet(k));
      if (e == xcvsim::kInvalidEdge) fail("bad pad index");
      fabric.turnOn(e, current);
    } else if (cmd == "end") {
      current = xcvsim::kInvalidNet;
    } else {
      fail("unknown directive '" + cmd + "'");
    }
  }
}

}  // namespace

int importNetlist(Fabric& fabric, std::istream& is) {
  std::vector<NetId> created;
  try {
    importLines(fabric, is, created);
  } catch (...) {
    removeNets(fabric, created);
    throw;
  }
  return static_cast<int>(created.size());
}

}  // namespace jroute
