// E5 — section 3.1's bus call and its regularity claim:
//
//   "As a convenience, the user does not need to write a Java loop to
//    connect each one. ... Using a template can also take advantage of
//    regularity which would occur, for example, when connecting each
//    output bit of an adder to an input of another core."
//
// Sweeps bus width and routes the same aligned stage-to-stage bus two
// ways: the bus call (which reuses the previous bit's shape as a
// template) and a per-bit loop of independent auto routes. Reports wall
// time and search effort.
#include <cstdio>

#include "bench/bench_util.h"
#include "workload/generators.h"

using namespace jroute;
using namespace xcvsim;

int main() {
  jrbench::Device& dev = jrbench::sharedDevice(xcv300());
  std::printf("E5: bus call (shape reuse) vs per-bit loop (XCV300, stage "
              "span 7 columns)\n\n");
  std::printf("%6s | %10s %12s %9s %5s | %10s %12s %9s %5s\n", "width",
              "bus ms", "visits", "attempts", "fail", "loop ms", "visits",
              "attempts", "fail");
  for (const int w : {4, 8, 16, 32, 64}) {
    const workload::Bus bus = workload::makeBus(xcv300(), w, 7, static_cast<uint64_t>(500 + w));

    std::vector<EndPoint> srcs, sinks;
    for (const Pin& p : bus.srcs) srcs.push_back(EndPoint(p));
    for (const Pin& p : bus.sinks) sinks.push_back(EndPoint(p));

    // (a) one lenient bus call with shape reuse across bits.
    dev.fabric.clear();
    Router busRouter(dev.fabric);
    int busFailed = 0;
    const double busMs = 1e3 * jrbench::secondsOf([&] {
      busFailed = busRouter.tryRouteBus(std::span<const EndPoint>(srcs),
                                        std::span<const EndPoint>(sinks));
    });
    const uint64_t busVisits =
        busRouter.stats().templateVisits + busRouter.stats().mazeVisits;
    const uint64_t busAttempts = busRouter.stats().templateAttempts;

    // (b) a user-written per-bit loop of plain auto routes.
    dev.fabric.clear();
    Router loopRouter(dev.fabric);
    int loopFailed = 0;
    const double loopMs = 1e3 * jrbench::secondsOf([&] {
      for (int i = 0; i < w; ++i) {
        try {
          loopRouter.route(srcs[static_cast<size_t>(i)],
                           sinks[static_cast<size_t>(i)]);
        } catch (const xcvsim::JRouteError&) {
          ++loopFailed;
        }
      }
    });
    const uint64_t loopVisits =
        loopRouter.stats().templateVisits + loopRouter.stats().mazeVisits;
    const uint64_t loopAttempts = loopRouter.stats().templateAttempts;

    std::printf("%6d | %10.2f %12llu %9llu %5d | %10.2f %12llu %9llu %5d\n",
                w, busMs, static_cast<unsigned long long>(busVisits),
                static_cast<unsigned long long>(busAttempts), busFailed,
                loopMs, static_cast<unsigned long long>(loopVisits),
                static_cast<unsigned long long>(loopAttempts), loopFailed);
  }
  std::printf("\nclaim check: one bus call replaces the hand-written "
              "per-bit loop at equal cost, reusing the previous bit's "
              "shape wherever the fabric stays regular.\n");
  return 0;
}
