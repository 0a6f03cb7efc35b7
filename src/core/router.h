// The JRoute API.
//
// All six routing calls of section 3.1 (single PIP, explicit path,
// template-guided, auto point-to-point, auto fanout, bus), the unrouter of
// section 3.3 (forward and reverse), the contention query of section 3.4
// (isOn), and the debug traces of section 3.5. Ports (section 3.2) are
// accepted anywhere an EndPoint is: the router translates them to their
// bound pin lists and remembers every port-involving connection so cores
// can be replaced at run time and reconnected automatically. A Router::Txn
// makes any sequence of these calls all-or-nothing.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "core/endpoint.h"
#include "core/path.h"
#include "fabric/fabric.h"
#include "fabric/trace.h"
#include "router/options.h"
#include "router/search.h"
#include "router/template_lib.h"

namespace jroute {

using xcvsim::Fabric;
using xcvsim::NetId;
using xcvsim::NodeId;

/// Result of trace(): the entire net reachable from a source.
struct NetTrace {
  NodeId source = xcvsim::kInvalidNode;
  std::vector<xcvsim::TraceHop> hops;
  std::vector<NodeId> sinks;
};

/// May this node originate a net (slice output, global clock source, I/O
/// pad input buffer, or BRAM data output)? Shared by the router's netFor
/// and the service planner's plan-time validation.
bool canDriveNet(const xcvsim::Graph& g, NodeId n);

/// The pins of `sinks` (ports expanded), nearest to `source` first: the
/// order in which the auto-router and the service planner route a net's
/// sinks. Ties keep their given order.
std::vector<Pin> sinkPinsNearestFirst(const Pin& source,
                                      std::span<const EndPoint> sinks);

class Router {
 public:
  explicit Router(Fabric& fabric, RouterOptions opts = {});

  // --- Levels of control (section 3.1) --------------------------------------

  /// Turn on the connection between `from` and `to` in CLB (row, col).
  void route(int row, int col, LocalWire from, LocalWire to);

  /// Single PIP between two pins; also covers the dedicated direct
  /// connects, whose endpoints live in adjacent tiles.
  void routePip(const Pin& from, const Pin& to);

  /// Turn on all connections named by an explicit path.
  void route(const Path& path);

  /// Follow a template from `start`; the walk must end on a wire named
  /// `endWire` (at whatever tile the template reaches).
  void route(const Pin& start, LocalWire endWire, const Template& tmpl);

  /// Auto-route source to sink (predefined templates first, maze
  /// fallback). Ports resolve to their pin lists.
  void route(const EndPoint& source, const EndPoint& sink);

  /// Auto-route a source to several sinks, nearest first, reusing the
  /// already-routed tree for each subsequent sink.
  void route(const EndPoint& source, std::span<const EndPoint> sinks);

  /// Bus routing: sources[i] -> sinks[i], reusing the successful shape of
  /// the previous bit as a template for the next (regular designs route
  /// regularly). Throws on the first unroutable bit; bits already routed
  /// stay routed.
  void route(std::span<const EndPoint> sources,
             std::span<const EndPoint> sinks);

  /// Lenient bus routing: unroutable bits are skipped instead of throwing.
  /// Returns the number of bits that could not be routed.
  int tryRouteBus(std::span<const EndPoint> sources,
                  std::span<const EndPoint> sinks);

  /// Turn on a pre-planned edge chain as part of `net`, with the same
  /// rollback-on-failure and journaling as the built-in engines. This is
  /// the commit path of the routing service: plans computed concurrently
  /// against a frozen fabric are applied here, serially.
  void commitChain(std::span<const EdgeId> chain, NetId net);

  // --- Unrouter (section 3.3) ------------------------------------------------

  /// Forward unroute: free the entire net driven from `source`.
  void unroute(const EndPoint& source);

  /// Forward unroute from a node in use: free everything it drives, and
  /// the net itself when `node` is the net's source. The routing service
  /// addresses its nets by source node.
  void unrouteNode(NodeId node);

  /// Reverse unroute: free only the branch feeding `sink`, stopping at the
  /// first segment that still drives other branches.
  void reverseUnroute(const EndPoint& sink);

  // --- Contention (section 3.4) ----------------------------------------------

  /// Is the wire in CLB (row, col) currently in use?
  bool isOn(int row, int col, LocalWire wire) const;

  // --- Debug (section 3.5) ----------------------------------------------------

  /// Trace a source to all of its sinks; the entire net is returned.
  NetTrace trace(const EndPoint& source) const;

  /// Trace a sink back to its source; only that branch is returned.
  std::vector<xcvsim::TraceHop> reverseTrace(const EndPoint& sink) const;

  // --- Port-connection memory (sections 3.2-3.3) -------------------------------

  struct Connection {
    EndPoint source;
    std::vector<EndPoint> sinks;
  };

  /// Every port-involving connection made through this router.
  const std::vector<Connection>& connections() const { return connections_; }

  /// Re-execute every remembered connection that touches `port` (after a
  /// core replace/relocate has re-bound the port's pins).
  void rerouteConnectionsOf(const Port& port);

  /// Remember a port connection that was routed outside this router (e.g.
  /// through a routing-service session) so reconfigure/relocate can
  /// restore it. No-op unless an endpoint involves a port.
  void rememberConnection(const EndPoint& source, const EndPoint& sink) {
    recordConnection(source, std::span<const EndPoint>(&sink, 1));
  }

  // --- Transactions -------------------------------------------------------------

  /// All-or-nothing scope over this router's calls. While a Txn is open
  /// the router journals every durable effect of every call: each PIP it
  /// turned on, each net it created, and the port-connection count at
  /// open. A partial chain a failing call already undid never reaches the
  /// journal. Calls keep throwing as usual; rollback() undoes the journal
  /// newest first and leaves the fabric bit-identical to its state at
  /// open. This is how the paper's exception-on-contention (section 3.4)
  /// becomes the routing service's clean rejection. A Txn destroyed
  /// without commit() rolls back.
  class Txn {
   public:
    /// Throws JRouteError when `router` already has an open txn.
    explicit Txn(Router& router);
    ~Txn() { rollback(); }
    Txn(const Txn&) = delete;
    Txn& operator=(const Txn&) = delete;

    /// Keep everything done under the txn and close it.
    void commit();
    /// Undo everything done under the txn and close it. No-op once closed.
    void rollback();
    bool active() const { return active_; }

    /// PIPs turned on for `net` under this txn so far.
    size_t pipsOf(NetId net) const;
    /// Nets created under this txn so far, in creation order.
    const std::vector<NetId>& createdNets() const {
      return router_->journal_.nets;
    }

   private:
    void close();

    Router* router_;
    bool active_ = true;
  };

  // --- Infrastructure -----------------------------------------------------------

  /// Net driving `source`, created when the source is not routed yet:
  /// the routing service's commit path opens nets for planned chains.
  NetId ensureNet(const EndPoint& source);

  Fabric& fabric() { return *fabric_; }
  const Fabric& fabric() const { return *fabric_; }
  RouterOptions& options() { return opts_; }
  const RouteStats& stats() const { return stats_; }
  void resetStats() { stats_ = RouteStats{}; }

 private:
  /// Resolve a pin to its RRG node; throws ArgumentError for bad names.
  NodeId pinNode(const Pin& pin) const;
  /// Net owning `srcNode`, created on first use for driver-capable pins.
  NetId netFor(NodeId srcNode);
  void turnOnChain(std::span<const EdgeId> chain, NetId net);
  /// Route one sink of a net: the shared sink search (router/
  /// sink_search.h), then commit; `treeNodes` is the current net tree.
  void routeSink(NetId net, NodeId srcNode, const Pin& srcPin,
                 const Pin& sinkPin, std::vector<NodeId>& treeNodes,
                 bool tryTemplates,
                 const std::vector<xcvsim::TemplateValue>* hint,
                 std::vector<xcvsim::TemplateValue>* shapeOut);
  void recordConnection(const EndPoint& source,
                        std::span<const EndPoint> sinks);
  /// Shared body of the auto p2p and fanout calls (levels 4-5); the
  /// public overloads only differ in which API-level telemetry counter
  /// they bump.
  void routeAuto(const EndPoint& source, std::span<const EndPoint> sinks);
  /// The net's tree, source first, into scratch_.tree (returned).
  std::vector<NodeId>& treeOf(NetId net);
  int routeBusImpl(std::span<const EndPoint> sources,
                   std::span<const EndPoint> sinks, bool lenient);

  /// Drop every connection remembered after the first `mark`.
  void truncateConnections(size_t mark) {
    if (mark < connections_.size()) connections_.resize(mark);
  }

  /// The open Txn's journal. Closed, nothing is journaled.
  struct Journal {
    bool open = false;
    std::vector<std::pair<EdgeId, NetId>> pips;  // application order
    std::vector<NetId> nets;                     // creation order
    size_t connMark = 0;  // connections_.size() at open
  };

  /// Buffers reused across calls, as the journal's are.
  struct Scratch {
    std::vector<NodeId> tree;            // treeOf
    std::vector<xcvsim::TraceHop> hops;  // treeOf, unrouteNode
    std::vector<NodeId> stack;           // their traceForward's DFS
    std::vector<bool> fresh;             // turnOnChain
    TemplateBodies bodies;               // the sink search's library
  };

  Fabric* fabric_;
  RouterOptions opts_;
  MazeRouter maze_;
  RouteStats stats_;
  std::vector<Connection> connections_;
  Journal journal_;
  Scratch scratch_;
  bool recording_ = true;
};

}  // namespace jroute
