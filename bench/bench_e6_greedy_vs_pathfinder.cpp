// E6 — the paper's central positioning claim (section 3.1):
//
//   "Each of the auto-routing calls described above use greedy routing
//    algorithms. This was chosen because of the designs that are
//    targeted. Structured and regular designs often have simple and
//    regular routing. Also, in an RTR environment, global routing
//    followed by detailed routing would not be efficient. ... In an RTR
//    environment traditional routing algorithms require too much time."
//
// Routes the same seeded net list with JRoute's greedy one-pass router
// and with the PathFinder-style negotiated-congestion baseline (the
// traditional quality-driven approach of reference [6]). Expected shape:
// greedy is one to two orders of magnitude faster; PathFinder wins on
// wirelength because it optimizes globally across iterations.
#include <cstdio>

#include "bench/bench_util.h"
#include "baseline/pathfinder.h"
#include "workload/generators.h"

using namespace jroute;
using namespace xcvsim;

int main() {
  jrbench::Device& dev = jrbench::sharedDevice(xcv300());
  std::printf("E6: JRoute greedy vs PathFinder baseline (XCV300, mixed "
              "p2p + fanout-4 workload)\n\n");
  std::printf("%6s | %10s %8s %10s | %10s %6s %10s | %8s %8s\n", "nets",
              "jr_ms", "fail", "jr_wires", "pf_ms", "iters", "pf_wires",
              "speedup", "wl_cost");
  for (const int n : {25, 50, 100, 200}) {
    const int nFan = n / 3;
    const int nP2p = n - nFan;
    const auto mixed = workload::makeMixed(xcv300(), nP2p, nFan, 4, 24,
                                           /*seed=*/static_cast<uint64_t>(600 + n));
    const auto& p2p = mixed.p2p;
    const auto& fan = mixed.fanout;

    // --- JRoute greedy: route in arrival order, no rip-up.
    dev.fabric.clear();
    Router router(dev.fabric);
    int failed = 0;
    const double jrMs = 1e3 * jrbench::secondsOf([&] {
      for (const auto& net : p2p) {
        try {
          router.route(EndPoint(net.src), EndPoint(net.sink));
        } catch (const xcvsim::JRouteError&) {
          ++failed;
        }
      }
      for (const auto& net : fan) {
        std::vector<EndPoint> sinks;
        for (const Pin& p : net.sinks) sinks.push_back(EndPoint(p));
        try {
          router.route(EndPoint(net.src), std::span<const EndPoint>(sinks));
        } catch (const xcvsim::JRouteError&) {
          ++failed;
        }
      }
    });
    const size_t jrWires = dev.fabric.usedNodeCount();

    // --- PathFinder: batch negotiated congestion over the same nets.
    auto pfNets = workload::toPfNets(dev.graph, std::span(p2p));
    const auto pfFan = workload::toPfNets(dev.graph, std::span(fan));
    pfNets.insert(pfNets.end(), pfFan.begin(), pfFan.end());
    baseline::PathFinderRouter pf(dev.graph);
    baseline::PathFinderResult pfRes;
    const double pfMs =
        1e3 * jrbench::secondsOf([&] { pfRes = pf.routeAll(pfNets); });

    std::printf("%6d | %10.1f %8d %10zu | %10.1f %6d %10zu | %7.1fx %7.2fx\n",
                n, jrMs, failed, jrWires, pfMs, pfRes.iterations,
                pfRes.wirelength, pfMs / (jrMs > 0 ? jrMs : 1e-9),
                static_cast<double>(jrWires) /
                    static_cast<double>(pfRes.wirelength ? pfRes.wirelength
                                                         : 1));
    jrbench::JsonWriter j;
    j.kv("bench", std::string("e6_greedy_vs_pathfinder"))
        .kv("nets", static_cast<uint64_t>(n))
        .kv("jroute_ms", jrMs)
        .kv("jroute_failed", static_cast<uint64_t>(failed))
        .kv("jroute_wires", static_cast<uint64_t>(jrWires))
        .kv("pathfinder_ms", pfMs)
        .kv("pathfinder_iters", static_cast<uint64_t>(pfRes.iterations))
        .kv("pathfinder_wires", static_cast<uint64_t>(pfRes.wirelength))
        .kv("speedup", pfMs / (jrMs > 0 ? jrMs : 1e-9));
    jrbench::appendRunRecord(j);
  }
  std::printf("\nclaim check: greedy run-time routing is dramatically "
              "faster; the quality gap (wl_cost > 1) is the price, which "
              "the paper accepts for non-critical nets.\n");
  return 0;
}
