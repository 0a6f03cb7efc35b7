#include "fabric/fabric.h"

namespace xcvsim {

Fabric::Fabric(const Graph& graph, const PipTable& table)
    : graph_(&graph), jbits_(graph.device(), table) {
  nodeNet_.assign(graph.numNodes(), kInvalidNet);
  usedBits_.assign((graph.numNodes() + 63) / 64, 0);
  nodeDriver_.assign(graph.numNodes(), kInvalidEdge);
  onOut_.assign(graph.numNodes(), 0);
  onBits_.assign((graph.numEdges() + 63) / 64, 0);
}

NetId Fabric::createNet(NodeId source, std::string name) {
  if (source >= graph_->numNodes()) {
    throw ArgumentError("createNet: invalid source node");
  }
  if (isUsed(source)) {
    throw ContentionError("createNet: source segment already in use", source);
  }
  const NetId id = static_cast<NetId>(nets_.size());
  nets_.push_back({source, 1, true});
  if (!name.empty()) names_.emplace(id, std::move(name));
  setNodeNet(source, id);
  ++usedNodes_;
  ++liveNets_;
  return id;
}

void Fabric::removeNet(NetId net) {
  if (!netExists(net)) throw ArgumentError("removeNet: unknown net");
  NetInfo& info = nets_[net];
  if (info.nodes != 1 || onOut_[info.source] != 0) {
    throw JRouteError("removeNet: net '" + netName(net) +
                      "' is still routed; unroute it first");
  }
  names_.erase(net);
  setNodeNet(info.source, kInvalidNet);
  --usedNodes_;
  info.live = false;
  info.nodes = 0;
  --liveNets_;
}

bool Fabric::netExists(NetId net) const {
  return net < nets_.size() && nets_[net].live;
}

NodeId Fabric::netSource(NetId net) const {
  if (!netExists(net)) throw ArgumentError("netSource: unknown net");
  return nets_[net].source;
}

std::string Fabric::netName(NetId net) const {
  if (!netExists(net)) throw ArgumentError("netName: unknown net");
  const auto it = names_.find(net);
  if (it != names_.end()) return it->second;
  return "net@" + graph_->nodeName(nets_[net].source);
}

size_t Fabric::netSize(NetId net) const {
  if (!netExists(net)) throw ArgumentError("netSize: unknown net");
  return nets_[net].nodes;
}

void Fabric::writeThrough(EdgeId e, bool on) {
  const Edge& ed = graph_->edge(e);
  const RowCol rc = Graph::pipTile(ed);
  if (ed.fromLocal == kInvalidLocalWire) {
    // Global clock pad driver.
    jbits_.setGlobalPad(graph_->info(ed.to).track, on);
    return;
  }
  const LocalWire toLocal = graph_->toLocalOf(ed);
  if (graph_->isDirectConnect(ed)) {
    // The target pin belongs to a horizontal neighbour.
    const Dir toward =
        graph_->tileOf(ed.to).col > rc.col ? Dir::East : Dir::West;
    jbits_.setDirect(rc, toward, ed.fromLocal, toLocal, on);
    return;
  }
  jbits_.setPip(rc, ed.fromLocal, toLocal, on);
}

void Fabric::turnOn(EdgeId e, NetId net) {
  if (e >= graph_->numEdges()) throw ArgumentError("turnOn: invalid edge");
  if (!netExists(net)) throw ArgumentError("turnOn: unknown net");
  const Edge& ed = graph_->edge(e);
  const NodeId u = graph_->edgeSource(e);
  const NodeId v = ed.to;

  if (nodeNet_[u] != net) {
    throw ArgumentError("turnOn: PIP source segment " + graph_->nodeName(u) +
                        " is not part of the net");
  }
  if (edgeOn(e)) return;  // idempotent within the net

  if (nodeNet_[v] != kInvalidNet && nodeNet_[v] != net) {
    throw ContentionError("segment " + graph_->nodeName(v) +
                              " is already in use by net '" +
                              netName(nodeNet_[v]) + "'",
                          v);
  }
  if (nodeDriver_[v] != kInvalidEdge) {
    throw ContentionError("segment " + graph_->nodeName(v) +
                              " already has a driver (bidirectional "
                              "contention)",
                          v);
  }
  if (v == nets_[net].source) {
    throw ContentionError("segment " + graph_->nodeName(v) +
                              " is the net source and cannot be driven",
                          v);
  }

  if (nodeNet_[v] == kInvalidNet) {
    setNodeNet(v, net);
    ++nets_[net].nodes;
    ++usedNodes_;
  }
  nodeDriver_[v] = e;
  onBits_[e >> 6] |= uint64_t{1} << (e & 63);
  ++onOut_[u];
  ++onEdges_;
  writeThrough(e, true);
}

void Fabric::releaseIfIdle(NodeId n) {
  if (nodeNet_[n] == kInvalidNet) return;
  const NetId net = nodeNet_[n];
  if (n == nets_[net].source) return;  // sources persist until removeNet
  if (nodeDriver_[n] == kInvalidEdge && onOut_[n] == 0) {
    setNodeNet(n, kInvalidNet);
    --nets_[net].nodes;
    --usedNodes_;
  }
}

void Fabric::turnOff(EdgeId e) {
  if (e >= graph_->numEdges()) throw ArgumentError("turnOff: invalid edge");
  if (!edgeOn(e)) {
    throw ArgumentError("turnOff: PIP is not on");
  }
  const NodeId u = graph_->edgeSource(e);
  const NodeId v = graph_->edge(e).to;
  onBits_[e >> 6] &= ~(uint64_t{1} << (e & 63));
  --onEdges_;
  --onOut_[u];
  nodeDriver_[v] = kInvalidEdge;
  writeThrough(e, false);
  releaseIfIdle(v);
  releaseIfIdle(u);
}

void Fabric::clear() {
  for (NodeId n = 0; n < graph_->numNodes(); ++n) {
    setNodeNet(n, kInvalidNet);
    nodeDriver_[n] = kInvalidEdge;
    onOut_[n] = 0;
  }
  // Turn every on-PIP off in the bitstream as well.
  for (EdgeId e = 0; e < graph_->numEdges(); ++e) {
    if (edgeOn(e)) writeThrough(e, false);
  }
  onBits_.assign(onBits_.size(), 0);
  nets_.clear();
  names_.clear();
  usedNodes_ = 0;
  onEdges_ = 0;
  liveNets_ = 0;
}

}  // namespace xcvsim
