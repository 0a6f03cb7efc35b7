// E4 — section 3.1's fanout-routing claim:
//
//   "This call should be used instead of connecting each sink
//    individually, since it minimizes the routing resources used. Each
//    sink gets routed in order of increasing distance from the source.
//    For each sink, the router attempts to reuse the previous paths as
//    much as possible."
//
// Sweeps fanout k and compares the multi-sink call's resource usage
// against the sum of k independent point-to-point routes of the same
// sinks (each measured alone on a scratch fabric — the cost a router
// without tree reuse would pay).
#include <cstdio>

#include "bench/bench_util.h"
#include "workload/generators.h"

using namespace jroute;
using namespace xcvsim;

int main() {
  jrbench::Device& dev = jrbench::sharedDevice(xcv300());
  constexpr int kNetsPerRow = 8;

  std::printf("E4: fanout call vs individual sink routing (XCV300, %d "
              "nets/row, bbox radius 8)\n\n",
              kNetsPerRow);
  std::printf("%6s | %14s %12s | %14s | %8s\n", "fanout", "tree wires",
              "call ms", "indep wires", "saving");
  for (const int k : {2, 4, 8, 16, 32}) {
    const auto nets =
        workload::makeFanout(xcv300(), kNetsPerRow, k, 8, /*seed=*/static_cast<uint64_t>(40 + k));

    // (a) The fanout call: route all sinks of each net in one call.
    dev.fabric.clear();
    Router router(dev.fabric);
    size_t treeWires = 0;
    double callMs = 0;
    for (const auto& net : nets) {
      std::vector<EndPoint> sinks;
      for (const Pin& p : net.sinks) sinks.push_back(EndPoint(p));
      callMs += 1e3 * jrbench::secondsOf([&] {
        router.route(EndPoint(net.src), std::span<const EndPoint>(sinks));
      });
      const auto srcNode = dev.graph.nodeAt(net.src.rc, net.src.wire);
      treeWires += dev.fabric.netSize(dev.fabric.netOf(srcNode));
    }

    // (b) Each sink routed alone on a blank fabric: the resource bill
    //     without any reuse.
    size_t indepWires = 0;
    for (const auto& net : nets) {
      for (const Pin& sink : net.sinks) {
        dev.fabric.clear();
        Router solo(dev.fabric);
        solo.route(EndPoint(net.src), EndPoint(sink));
        const auto srcNode = dev.graph.nodeAt(net.src.rc, net.src.wire);
        indepWires += dev.fabric.netSize(dev.fabric.netOf(srcNode)) - 1;
      }
    }
    indepWires += kNetsPerRow;  // count each source once, like the tree

    std::printf("%6d | %14zu %12.2f | %14zu | %7.2fx\n", k, treeWires,
                callMs, indepWires,
                static_cast<double>(indepWires) /
                    static_cast<double>(treeWires));
  }
  std::printf("\nclaim check: the saving factor grows with fanout — the "
              "shared tree amortizes the trunk.\n");
  return 0;
}
