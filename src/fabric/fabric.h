// Live device state: which segments belong to which net, which PIPs are
// on, and who drives what.
//
// This is the layer that implements the paper's section 3.4 guarantee:
//
//   "The Virtex architecture has bi-directional routing resources. This
//    means that the track can be driven at either end, leading to the
//    possibility of contention. The router makes sure that this situation
//    does not occur, and therefore protects the device. An exception is
//    thrown in cases where the user tries to make connections that create
//    contention."
//
// Every turnOn() is validated: the driven segment must be free (or an
// undriven member of the same net), and a segment can never acquire a
// second driver — which is exactly the both-ends-driven hazard on
// bidirectional singles, hexes, and long lines. Every state change is
// written through the JBits layer into the configuration frames, so the
// bitstream always reflects the fabric.
#pragma once

#include <bit>
#include <string>
#include <unordered_map>
#include <vector>

#include "bitstream/jbits.h"
#include "common/error.h"
#include "rrg/graph.h"

namespace xcvsim {

class Fabric {
 public:
  Fabric(const Graph& graph, const PipTable& table);

  const Graph& graph() const { return *graph_; }
  JBits& jbits() { return jbits_; }
  const JBits& jbits() const { return jbits_; }

  // --- Net lifecycle --------------------------------------------------------

  /// Register a new net driven from `source` (a slice output pin or a
  /// global clock pad). The source node is claimed for the net. A net
  /// created without a name is called "net@<source node name>".
  NetId createNet(NodeId source, std::string name = {});

  /// Remove a fully unrouted net (only its source node may remain claimed).
  void removeNet(NetId net);

  bool netExists(NetId net) const;
  NodeId netSource(NetId net) const;
  /// The explicit name given to createNet, else "net@<source>" (built on
  /// demand, so unnamed nets store no string).
  std::string netName(NetId net) const;
  /// Number of segments currently claimed by the net (including source).
  size_t netSize(NetId net) const;

  // --- PIP switching --------------------------------------------------------

  /// Turn on a PIP as part of `net`. Throws ContentionError when the driven
  /// segment is in use by another net, already has a driver, or is a net
  /// source; throws ArgumentError when the edge's own source segment does
  /// not belong to `net`. Idempotent for an already-on edge of the net.
  void turnOn(EdgeId e, NetId net);

  /// Turn off an on PIP. The driven segment loses its driver; each
  /// endpoint is released from its net once it has neither driver nor
  /// remaining on out-edges (net sources are never released).
  void turnOff(EdgeId e);

  // --- Queries --------------------------------------------------------------

  bool edgeOn(EdgeId e) const {
    return (onBits_[e >> 6] >> (e & 63)) & 1;
  }
  /// The first on edge in [lo, hi), or hi when there is none. Scans the
  /// on-bits a 64-edge word at a time.
  EdgeId nextOnEdge(EdgeId lo, EdgeId hi) const {
    while (lo < hi) {
      const uint64_t word = onBits_[lo >> 6] >> (lo & 63);
      if (word != 0) {
        const EdgeId e = lo + static_cast<EdgeId>(std::countr_zero(word));
        return e < hi ? e : hi;
      }
      lo = (lo | 63) + 1;
    }
    return hi;
  }
  /// The paper's ison(row, col, wire): is this segment in use by any net?
  /// Reads the one-bit used index, not the 4-byte net table, so a search
  /// that tests thousands of segments stays in cache.
  bool isUsed(NodeId n) const { return (usedBits_[n >> 6] >> (n & 63)) & 1; }
  NetId netOf(NodeId n) const { return nodeNet_[n]; }
  /// Incoming on-edge driving `n`; kInvalidEdge for free nodes and sources.
  EdgeId driverOf(NodeId n) const { return nodeDriver_[n]; }
  /// Number of on out-edges of `n` (its fanout within its net).
  int onOutCount(NodeId n) const { return onOut_[n]; }

  size_t usedNodeCount() const { return usedNodes_; }
  size_t onEdgeCount() const { return onEdges_; }
  size_t liveNetCount() const { return liveNets_; }
  /// Exclusive upper bound of net ids ever created. Ids below it may name
  /// dead nets — filter with netExists(). Lets offline analysis iterate
  /// the net database without a separate registry.
  size_t netCount() const { return nets_.size(); }

  /// Reset to a blank device (all nets gone, bitstream cleared).
  void clear();

 private:
  // Kept for every net ever created (ids are never reused), so it holds
  // no name: explicit names live in names_ and die with their net.
  struct NetInfo {
    NodeId source = kInvalidNode;
    uint32_t nodes = 0;
    bool live = false;
  };

  // Test-only backdoor (see below). Production code never mutates fabric
  // state except through turnOn/turnOff/createNet/removeNet.
  friend class FabricMutator;

  void writeThrough(EdgeId e, bool on);
  void releaseIfIdle(NodeId n);
  /// The only writer of nodeNet_: keeps the used index in step with it.
  void setNodeNet(NodeId n, NetId net) {
    nodeNet_[n] = net;
    const uint64_t bit = uint64_t{1} << (n & 63);
    if (net != kInvalidNet) {
      usedBits_[n >> 6] |= bit;
    } else {
      usedBits_[n >> 6] &= ~bit;
    }
  }

  const Graph* graph_;
  JBits jbits_;
  std::vector<NetId> nodeNet_;
  std::vector<uint64_t> usedBits_;  // bit n set iff nodeNet_[n] is a net
  std::vector<EdgeId> nodeDriver_;
  std::vector<uint16_t> onOut_;
  std::vector<uint64_t> onBits_;
  std::vector<NetInfo> nets_;
  std::unordered_map<NetId, std::string> names_;  // live named nets only
  size_t usedNodes_ = 0;
  size_t onEdges_ = 0;
  size_t liveNets_ = 0;
};

/// TEST-ONLY raw access to fabric internals, used by the DRC mutation
/// harness (tests/drc_test.cpp) to seed invariant violations the public
/// API is designed to make impossible — an analyzer that has never seen a
/// violation proves nothing. None of these maintain bookkeeping or write
/// through to the bitstream; that is the point.
class FabricMutator {
 public:
  explicit FabricMutator(Fabric& f) : f_(&f) {}

  /// Flip the raw on-bit of an edge; no counters, no write-through.
  void setEdgeOnBit(EdgeId e, bool on) {
    if (on) {
      f_->onBits_[e >> 6] |= uint64_t{1} << (e & 63);
    } else {
      f_->onBits_[e >> 6] &= ~(uint64_t{1} << (e & 63));
    }
  }
  void setNodeNet(NodeId n, NetId net) { f_->setNodeNet(n, net); }
  /// Flip only the used-index bit of `n`, so it disagrees with netOf(n).
  void setUsedBit(NodeId n, bool used) {
    if (used) {
      f_->usedBits_[n >> 6] |= uint64_t{1} << (n & 63);
    } else {
      f_->usedBits_[n >> 6] &= ~(uint64_t{1} << (n & 63));
    }
  }
  void setNodeDriver(NodeId n, EdgeId e) { f_->nodeDriver_[n] = e; }
  void setOnOut(NodeId n, uint16_t count) { f_->onOut_[n] = count; }
  void setUsedNodes(size_t v) { f_->usedNodes_ = v; }
  void setOnEdges(size_t v) { f_->onEdges_ = v; }
  void setNetNodes(NetId net, size_t v) {
    f_->nets_[net].nodes = static_cast<uint32_t>(v);
  }
  size_t usedNodes() const { return f_->usedNodes_; }
  size_t onEdges() const { return f_->onEdges_; }
  size_t netNodes(NetId net) const { return f_->nets_[net].nodes; }
  /// Live nets holding an explicit name.
  size_t namedNets() const { return f_->names_.size(); }

 private:
  Fabric* f_;
};

}  // namespace xcvsim
