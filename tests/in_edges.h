// Per-node incoming PIP lists, rebuilt from the forward edges. The graph
// keeps no reverse index; tests that ask "who drives this node" build this
// one with a counting sort over edge(e).to in ascending e, so each node's
// list is in ascending edge id.
#pragma once

#include <span>
#include <vector>

#include "rrg/graph.h"

namespace jrtest {

class InEdges {
 public:
  explicit InEdges(const xcvsim::Graph& g) : off_(g.numNodes() + 1, 0) {
    for (xcvsim::EdgeId e = 0; e < g.numEdges(); ++e) {
      ++off_[g.edge(e).to + 1];
    }
    for (xcvsim::NodeId n = 0; n < g.numNodes(); ++n) off_[n + 1] += off_[n];
    ids_.resize(g.numEdges());
    std::vector<uint32_t> cursor(off_.begin(), off_.end() - 1);
    for (xcvsim::EdgeId e = 0; e < g.numEdges(); ++e) {
      ids_[cursor[g.edge(e).to]++] = e;
    }
  }

  /// Incoming PIP ids of `n`, ascending.
  std::span<const xcvsim::EdgeId> operator()(xcvsim::NodeId n) const {
    return {ids_.data() + off_[n], off_[n + 1] - off_[n]};
  }

 private:
  std::vector<uint32_t> off_;
  std::vector<xcvsim::EdgeId> ids_;
};

}  // namespace jrtest
