// Client handle onto the routing service.
//
// Each session owns the nets it routes: the service tags every accepted
// net with the session id, and only the owning session may extend or
// unroute it — a second client touching the net gets Rejected{kNotOwner}
// instead of corrupting state it does not control. Sessions are cheap
// value handles; all state lives in the service.
#pragma once

#include <future>
#include <span>
#include <vector>

#include "service/request.h"

namespace jrsvc {

using jroute::EndPoint;

class RoutingService;

class Session {
 public:
  Session() = default;

  uint64_t id() const { return id_; }
  bool valid() const { return svc_ != nullptr; }
  RoutingService& service() const { return *svc_; }

  // --- Asynchronous submissions ----------------------------------------------
  // Enqueue and return immediately; the future resolves when the engine
  // processes the request (Rejected{kOverloaded} resolves at once, and so
  // does Rejected{kBadArgument} on a closed or default-constructed
  // session).

  std::future<RouteResult> routeAsync(const EndPoint& source,
                                      const EndPoint& sink,
                                      Clock::time_point deadline = {});
  std::future<RouteResult> fanoutAsync(const EndPoint& source,
                                       std::vector<EndPoint> sinks,
                                       Clock::time_point deadline = {});
  std::future<RouteResult> busAsync(std::vector<EndPoint> sources,
                                    std::vector<EndPoint> sinks,
                                    Clock::time_point deadline = {});
  std::future<RouteResult> unrouteAsync(const EndPoint& source,
                                        Clock::time_point deadline = {});

  // --- Synchronous sugar -------------------------------------------------------

  RouteResult route(const EndPoint& source, const EndPoint& sink);
  RouteResult fanout(const EndPoint& source, std::vector<EndPoint> sinks);
  RouteResult bus(std::vector<EndPoint> sources, std::vector<EndPoint> sinks);
  RouteResult unroute(const EndPoint& source);

  /// Bus-connect with the raw router's contract: throws ContentionError
  /// (naming the contested wire) / UnroutableError / JRouteError on
  /// rejection. This is what lets
  /// RtrManager route its port groups through a session unchanged.
  void connect(std::span<const EndPoint> sources,
               std::span<const EndPoint> sinks);

  /// Net sources this session currently owns (none once closed).
  std::vector<xcvsim::NodeId> ownedNets() const;

 private:
  friend class RoutingService;
  Session(RoutingService& svc, uint64_t id) : svc_(&svc), id_(id) {}
  std::future<RouteResult> submit(Op op, std::vector<EndPoint> sources,
                                  std::vector<EndPoint> sinks,
                                  Clock::time_point deadline);

  RoutingService* svc_ = nullptr;
  uint64_t id_ = 0;
};

}  // namespace jrsvc
