// The paper's run-time reconfiguration showcase (section 3.3):
//
//   "consider a constant multiplier. The system connects it to the
//    circuit and later requires a new constant. The core can be removed,
//    unrouted, and replaced with a new constant multiplier without having
//    to specify connections again."
//
// Demonstrates both replacement strategies and sizes their partial
// reconfiguration cost in frames:
//   (a) full structural replace: remove -> rebuild -> auto-reconnect
//   (b) LUT-only update: setConstant rewrites truth tables in place
#include <cstdio>

#include "analysis/drc.h"
#include "bitstream/packets.h"
#include "cores/const_adder.h"
#include "cores/kcm.h"
#include "rtr/manager.h"

using namespace jroute;
using namespace xcvsim;

int main() {
  Graph graph(xcv50());
  PipTable table{ArchDb{xcv50()}};
  Fabric fabric(graph, table);
  Router router(fabric);
  RtrManager mgr(router);

  Kcm mult(8, 3);
  ConstAdder adder(8, 1);
  mgr.install(mult, {4, 4});
  mgr.install(adder, {4, 10});
  mgr.connect(mult, Kcm::kOutGroup, adder, ConstAdder::kInGroup);
  std::printf("system up: x*3 + 1, %zu PIPs on\n", fabric.onEdgeCount());

  // --- (a) full replace: the constant becomes 7 and the core is rebuilt.
  fabric.jbits().bitstream().clearDirty();
  mult.setConstant(router, 7);
  mgr.reconfigure(mult);
  const auto framesFull = dirtyPackets(fabric.jbits().bitstream());
  std::printf("full replace to x*7: connections restored automatically, "
              "%zu frames reconfigured\n",
              framesFull.size());

  // --- (b) LUT-only update: the constant becomes 11; routing untouched.
  fabric.jbits().bitstream().clearDirty();
  mult.setConstant(router, 11);
  const auto framesLut = dirtyPackets(fabric.jbits().bitstream());
  std::printf("LUT-only update to x*11: %zu frames reconfigured "
              "(%.1fx smaller)\n",
              framesLut.size(),
              framesLut.empty()
                  ? 0.0
                  : static_cast<double>(framesFull.size()) /
                        static_cast<double>(framesLut.size()));

  // The adder still sees every multiplier output.
  size_t connected = 0;
  for (Port* p : adder.getPorts(ConstAdder::kInGroup)) {
    const Pin& pin = p->pins()[0];
    connected += router.isOn(pin.rc.row, pin.rc.col, pin.wire) ? 1u : 0u;
  }
  std::printf("adder inputs still connected: %zu/8\n", connected);

  // --- relocation: move the multiplier 8 rows north and reconnect.
  mgr.relocate(mult, {12, 4});
  std::printf("relocated multiplier to R12C4; connections follow\n");
  const jrdrc::DrcReport drc = jrdrc::runDrc(fabric);
  std::printf("%s", drc.summary().c_str());
  return drc.clean() ? 0 : 1;
}
