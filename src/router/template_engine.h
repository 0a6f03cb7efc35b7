// The recursive template follower of section 3.1:
//
//   "The router begins at the start wire, then goes through each wire that
//    it drives, as defined in the architecture class, and checks first if
//    the wire's template value matches the template value specified by the
//    user. If so, then it checks to make sure the wire is not already in
//    use. A recursive call is made with the new wire as the starting point
//    and the first element of the template removed. The call would fail if
//    there is no combination of resources that are available that follow
//    the template."
//
// Two termination modes are supported: the paper's signature constrains
// only the final *wire id* (any location the template reaches), while the
// auto-router constrains the exact target node.
#pragma once

#include <span>
#include <vector>

#include "fabric/fabric.h"
#include "router/options.h"

namespace jroute {

using xcvsim::EdgeId;
using xcvsim::Fabric;
using xcvsim::LocalWire;
using xcvsim::NodeId;
using xcvsim::TemplateValue;

struct TemplateResult {
  bool found = false;
  std::vector<EdgeId> edges;  // source-side first
  NodeId finalNode = xcvsim::kInvalidNode;
  size_t visited = 0;
  /// Out-edges the walk examined, over every node it expanded.
  size_t scanned = 0;
};

/// Does node `n` answer to local wire name `w` at any of its tap tiles?
bool nodeMatchesWire(const xcvsim::Graph& g, NodeId n, LocalWire w);

/// Follow `tmpl` from `start` (which belongs to `net`). Every intermediate
/// wire must be completely unused. Exactly one of the two constraints is
/// applied: when `requiredTarget` is valid the walk must end on that node;
/// otherwise, when `requiredEndWire` is valid the final node must answer
/// to that wire name somewhere.
TemplateResult followTemplate(const Fabric& fabric, NodeId start,
                              std::span<const TemplateValue> tmpl,
                              NodeId requiredTarget,
                              LocalWire requiredEndWire,
                              const RouterOptions& opts);

}  // namespace jroute
