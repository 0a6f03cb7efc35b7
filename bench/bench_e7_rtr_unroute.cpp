// E7 — section 3.3: the unrouter and run-time core replacement.
//
//   "Run-time reconfiguration requires an unrouter. ... The core can be
//    removed, unrouted, and replaced with a new constant multiplier
//    without having to specify connections again."
//
// Measures the constant-multiplier swap cycle (full structural replace vs
// LUT-only update, with partial-reconfiguration frame counts), then the
// cost of unroute (whole net) and reverseUnroute (single branch) as a
// function of fanout.
#include <cstdio>

#include "bench/bench_util.h"
#include "bitstream/packets.h"
#include "cores/const_adder.h"
#include "cores/kcm.h"
#include "rtr/manager.h"
#include "workload/generators.h"

using namespace jroute;
using namespace xcvsim;

int main() {
  jrbench::Device& dev = jrbench::sharedDevice(xcv50());
  std::printf("E7: RTR unroute / replace costs (XCV50)\n\n");

  // --- The constant-multiplier swap scenario.
  dev.fabric.clear();
  Router router(dev.fabric);
  RtrManager mgr(router);
  Kcm mult(8, 3);
  ConstAdder adder(8, 1);
  const double setupMs = 1e3 * jrbench::secondsOf([&] {
    mgr.install(mult, {4, 4});
    mgr.install(adder, {4, 10});
    mgr.connect(mult, Kcm::kOutGroup, adder, ConstAdder::kInGroup);
  });
  std::printf("system bring-up (2 cores + 8-bit bus): %.2f ms, %zu PIPs\n",
              setupMs, dev.fabric.onEdgeCount());

  dev.fabric.jbits().bitstream().clearDirty();
  const double replaceMs = 1e3 * jrbench::secondsOf([&] {
    mult.setConstant(router, 7);
    mgr.reconfigure(mult);
  });
  const size_t replaceFrames = dev.fabric.jbits().bitstream().dirtyFrames().size();

  dev.fabric.jbits().bitstream().clearDirty();
  const double lutMs =
      1e3 * jrbench::secondsOf([&] { mult.setConstant(router, 11); });
  const size_t lutFrames = dev.fabric.jbits().bitstream().dirtyFrames().size();

  std::printf("constant swap, full replace : %8.2f ms, %3zu frames\n",
              replaceMs, replaceFrames);
  std::printf("constant swap, LUT-only     : %8.2f ms, %3zu frames "
              "(%.0fx fewer)\n",
              lutMs, lutFrames,
              static_cast<double>(replaceFrames) /
                  static_cast<double>(lutFrames ? lutFrames : 1));

  // --- Unroute scaling with fanout.
  std::printf("\n%6s | %12s %12s | %14s\n", "fanout", "unroute us",
              "route us", "revUnroute us");
  for (const int k : {2, 4, 8, 16, 32}) {
    const auto nets = workload::makeFanout(xcv50(), 4, k, 6, static_cast<uint64_t>(900 + k));
    double routeUs = 0, unrouteUs = 0, revUs = 0;
    for (const auto& net : nets) {
      dev.fabric.clear();
      Router r(dev.fabric);
      std::vector<EndPoint> sinks;
      for (const Pin& p : net.sinks) sinks.push_back(EndPoint(p));
      routeUs += 1e6 * jrbench::secondsOf([&] {
        r.route(EndPoint(net.src), std::span<const EndPoint>(sinks));
      });
      // Reverse-unroute one branch, then forward-unroute the rest.
      revUs += 1e6 * jrbench::secondsOf(
          [&] { r.reverseUnroute(EndPoint(net.sinks.back())); });
      unrouteUs +=
          1e6 * jrbench::secondsOf([&] { r.unroute(EndPoint(net.src)); });
    }
    std::printf("%6d | %12.1f %12.1f | %14.1f\n", k, unrouteUs / 4,
                routeUs / 4, revUs / 4);
  }
  std::printf("\nclaim check: unrouting is far cheaper than routing, and "
              "reverseUnroute touches only one branch.\n");
  return 0;
}
