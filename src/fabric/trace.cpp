#include "fabric/trace.h"

#include <algorithm>

namespace xcvsim {

std::vector<TraceHop> traceForward(const Fabric& fabric, NodeId start) {
  std::vector<TraceHop> hops;
  std::vector<NodeId> stack;
  traceForward(fabric, start, hops, stack);
  return hops;
}

void traceForward(const Fabric& fabric, NodeId start,
                  std::vector<TraceHop>& hops, std::vector<NodeId>& stack) {
  const Graph& g = fabric.graph();
  hops.clear();
  stack.assign(1, start);
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    // Ascending edge id within each node, as a plain scan of out(n) would
    // visit them; the word scan just skips the off edges 64 at a time and
    // stops once the node's on-fanout is accounted for (leaves at once).
    const EdgeId end = g.outEnd(n);
    EdgeId e = g.outBegin(n);
    for (int left = fabric.onOutCount(n); left > 0; --left, ++e) {
      e = fabric.nextOnEdge(e, end);
      if (e == end) break;
      const NodeId to = g.edge(e).to;
      hops.push_back({e, n, to});
      stack.push_back(to);
    }
  }
}

std::vector<TraceHop> traceBack(const Fabric& fabric, NodeId sink) {
  const Graph& g = fabric.graph();
  std::vector<TraceHop> hops;
  NodeId n = sink;
  while (true) {
    const EdgeId d = fabric.driverOf(n);
    if (d == kInvalidEdge) break;
    const NodeId src = g.edgeSource(d);
    hops.push_back({d, src, n});
    n = src;
  }
  std::reverse(hops.begin(), hops.end());
  return hops;
}

std::vector<NodeId> netSinks(const Fabric& fabric, NodeId start) {
  std::vector<NodeId> sinks;
  if (fabric.onOutCount(start) == 0) {
    return sinks;  // a bare source has no sinks yet
  }
  for (const TraceHop& hop : traceForward(fabric, start)) {
    if (fabric.onOutCount(hop.to) == 0) sinks.push_back(hop.to);
  }
  return sinks;
}

}  // namespace xcvsim
