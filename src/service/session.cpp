#include "service/session.h"

#include <utility>

#include "common/error.h"
#include "service/service.h"

namespace jrsvc {

std::future<RouteResult> Session::submit(Op op, std::vector<EndPoint> sources,
                                         std::vector<EndPoint> sinks,
                                         Clock::time_point deadline) {
  if (svc_ == nullptr) {
    // Closed or default-constructed: there is no service to queue on.
    RouteResult res;
    res.outcome = Outcome::kRejected;
    res.reason = Reject::kBadArgument;
    res.detail = "invalid session";
    std::promise<RouteResult> p;
    p.set_value(std::move(res));
    return p.get_future();
  }
  return svc_->submit(op, id_, std::move(sources), std::move(sinks),
                      deadline);
}

std::future<RouteResult> Session::routeAsync(const EndPoint& source,
                                             const EndPoint& sink,
                                             Clock::time_point deadline) {
  return submit(Op::kRouteP2P, {source}, {sink}, deadline);
}

std::future<RouteResult> Session::fanoutAsync(const EndPoint& source,
                                              std::vector<EndPoint> sinks,
                                              Clock::time_point deadline) {
  return submit(Op::kRouteFanout, {source}, std::move(sinks), deadline);
}

std::future<RouteResult> Session::busAsync(std::vector<EndPoint> sources,
                                           std::vector<EndPoint> sinks,
                                           Clock::time_point deadline) {
  return submit(Op::kRouteBus, std::move(sources), std::move(sinks),
                deadline);
}

std::future<RouteResult> Session::unrouteAsync(const EndPoint& source,
                                               Clock::time_point deadline) {
  return submit(Op::kUnroute, {source}, {}, deadline);
}

RouteResult Session::route(const EndPoint& source, const EndPoint& sink) {
  return routeAsync(source, sink).get();
}

RouteResult Session::fanout(const EndPoint& source,
                            std::vector<EndPoint> sinks) {
  return fanoutAsync(source, std::move(sinks)).get();
}

RouteResult Session::bus(std::vector<EndPoint> sources,
                         std::vector<EndPoint> sinks) {
  return busAsync(std::move(sources), std::move(sinks)).get();
}

RouteResult Session::unroute(const EndPoint& source) {
  return unrouteAsync(source).get();
}

void Session::connect(std::span<const EndPoint> sources,
                      std::span<const EndPoint> sinks) {
  const RouteResult res =
      bus(std::vector<EndPoint>(sources.begin(), sources.end()),
          std::vector<EndPoint>(sinks.begin(), sinks.end()));
  if (res.ok()) return;
  switch (res.reason) {
    case Reject::kContention:
      throw xcvsim::ContentionError(res.detail, res.contendedNode);
    case Reject::kUnroutable:
      throw xcvsim::UnroutableError(res.detail);
    default:
      throw xcvsim::JRouteError("service rejected bus (" +
                                std::string(rejectName(res.reason)) +
                                "): " + res.detail);
  }
}

std::vector<xcvsim::NodeId> Session::ownedNets() const {
  if (svc_ == nullptr) return {};
  return svc_->netsOf(id_);
}

}  // namespace jrsvc
