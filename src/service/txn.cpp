#include "service/txn.h"

#include <utility>

#include "analysis/drc.h"
#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace jrsvc {

namespace {

struct TxnMetrics {
  jrobs::Counter& commits = jrobs::registry().counter("txn.commits");
  jrobs::Counter& rollbacks = jrobs::registry().counter("txn.rollbacks");
  jrobs::Histogram& paranoidUs =
      jrobs::registry().histogram("txn.drc_paranoid_us");
};

TxnMetrics& txnMetrics() {
  static TxnMetrics m;
  return m;
}

/// JROUTE_DRC_PARANOID: cross-check the fabric against the static rule
/// set at every txn resolution point. The bitstream decode is skipped
/// here (it is O(config size)); the service's per-batch pass covers it.
void paranoidCheck(Router& router, const char* when) {
  if (!jrdrc::paranoidEnabled()) return;
  JR_TRACE_SCOPE("txn", "drc.paranoid");
  const uint64_t t0 = jrobs::nowNs();
  jrdrc::DrcInput in;
  in.fabric = &router.fabric();
  in.router = &router;
  in.checkBitstream = false;
  jrdrc::enforce(in, when);
  txnMetrics().paranoidUs.record((jrobs::nowNs() - t0) / 1000);
}

}  // namespace

RouteTxn::RouteTxn(Router& router)
    : router_(&router),
      prev_(router.setObserver(this)),
      connMark_(router.connectionCount()) {}

RouteTxn::~RouteTxn() {
  if (active_) rollback();
}

void RouteTxn::route(const EndPoint& source, const EndPoint& sink) {
  router_->route(source, sink);
}

void RouteTxn::route(const EndPoint& source, std::span<const EndPoint> sinks) {
  router_->route(source, sinks);
}

void RouteTxn::routeBus(std::span<const EndPoint> sources,
                        std::span<const EndPoint> sinks) {
  router_->route(sources, sinks);
}

NetId RouteTxn::ensureNet(const EndPoint& source, std::string name) {
  return router_->ensureNet(source, std::move(name));
}

void RouteTxn::commitChain(std::span<const EdgeId> chain, NetId net) {
  router_->commitChain(chain, net);
}

void RouteTxn::commit() {
  detach();
  ons_.clear();
  nets_.clear();
  txnMetrics().commits.add();
  paranoidCheck(*router_, "txn commit");
}

void RouteTxn::rollback() {
  detach();
  jrobs::flightRecorder().note("txn", "rollback", ons_.size(), nets_.size());
  xcvsim::Fabric& fabric = router_->fabric();
  // Chains were applied source-side first, so reverse order is leaf-first
  // within every chain and detaches later branches before the trunks they
  // hang from.
  for (auto it = ons_.rbegin(); it != ons_.rend(); ++it) {
    fabric.turnOff(it->first);
  }
  ons_.clear();
  // With all staged PIPs off, each staged net is back to its bare source.
  for (auto it = nets_.rbegin(); it != nets_.rend(); ++it) {
    fabric.removeNet(*it);
  }
  nets_.clear();
  // Port-connection memory: forget connections recorded under this txn.
  router_->truncateConnections(connMark_);
  txnMetrics().rollbacks.add();
  paranoidCheck(*router_, "txn rollback");
}

void RouteTxn::detach() {
  if (!active_) return;
  active_ = false;
  router_->setObserver(prev_);
}

void RouteTxn::netCreated(NetId net, NodeId source) {
  nets_.push_back(net);
  if (prev_) prev_->netCreated(net, source);
}

void RouteTxn::pipTurnedOn(EdgeId e, NetId net) {
  ons_.emplace_back(e, net);
  if (prev_) prev_->pipTurnedOn(e, net);
}

size_t RouteTxn::stagedPipsFor(NetId net) const {
  size_t n = 0;
  for (const auto& [e, owner] : ons_) {
    (void)e;
    if (owner == net) ++n;
  }
  return n;
}

}  // namespace jrsvc
