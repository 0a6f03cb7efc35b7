// Net tracing over live fabric state — the substrate for the paper's
// trace()/reverseTrace() debugging calls (section 3.5) and for the
// unrouter (section 3.3).
#pragma once

#include <vector>

#include "fabric/fabric.h"

namespace xcvsim {

/// One hop of a traced net.
struct TraceHop {
  EdgeId edge = kInvalidEdge;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
};

/// Forward trace: every on-PIP reachable from `start` within its net, in
/// DFS preorder. "A JRoute call traces a source to all of its sinks. The
/// entire net is returned for the trace."
std::vector<TraceHop> traceForward(const Fabric& fabric, NodeId start);

/// traceForward into caller-owned buffers, reused across calls: `hops`
/// receives the trace, `stack` is the DFS's scratch.
void traceForward(const Fabric& fabric, NodeId start,
                  std::vector<TraceHop>& hops, std::vector<NodeId>& stack);

/// Reverse trace: the driver chain from `sink` back to the net source, in
/// source-to-sink order. "A sink is traced back to its source. Only the
/// net that leads to the sink is returned."
std::vector<TraceHop> traceBack(const Fabric& fabric, NodeId sink);

/// Leaves of the net tree rooted at `start` (nodes with no on out-edges) —
/// the sinks of the net.
std::vector<NodeId> netSinks(const Fabric& fabric, NodeId start);

}  // namespace xcvsim
