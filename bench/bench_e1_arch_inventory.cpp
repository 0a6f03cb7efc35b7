// E1 — Fig. 1 / section 2: the Virtex routing fabric inventory, and the
// section 5 family range (16x24 .. 64x96).
//
// Regenerates the architecture figure as numbers: per-CLB resource counts
// exactly as the paper states them, then the whole device family with
// routing-graph size, build time, and memory, plus the build time of the
// PIP-to-bit table — the two layers of device model a run-time router has
// to stand up before it can touch a single PIP.
#include <cstdio>

#include "arch/patterns.h"
#include "bench/bench_util.h"

using namespace xcvsim;

int main() {
  std::printf("E1: Virtex fabric inventory (paper section 2 / figure 1)\n\n");

  // Per-tile constants, as stated in the paper.
  std::printf("per-CLB routing resources (paper's claim -> model):\n");
  std::printf("  single lines per direction      24 -> %d\n",
              kSinglesPerChannel);
  std::printf("  hex lines drivable per direction 12 -> %d\n", kHexTracks);
  std::printf("  hex span (tiles)                  6 -> %d\n", kHexSpan);
  std::printf("  long lines per row/column        12 -> %d\n", kLongTracks);
  std::printf("  long-line access period           6 -> %d\n",
              kLongAccessPeriod);
  std::printf("  dedicated global clock nets       4 -> %d\n", kGlobalNets);
  std::printf("  (future work, implemented) IOBs per boundary tile: %d; "
              "BRAM columns: %d, %d ports/edge tile, %d bits/block\n",
              kIobsPerTile, kBramColumns, kBramPinsPerTile,
              kBramBitsPerBlock);

  // Verify the driver rules hold at an interior tile by classification.
  ArchDb db(xcv300());
  int byKind[8][8] = {};
  db.forEachTilePip({16, 24}, [&](LocalWire f, LocalWire t) {
    byKind[static_cast<int>(wireKind(f))][static_cast<int>(wireKind(t))]++;
  });
  std::printf("\ninterior-tile PIP census (XCV300 R16C24):\n");
  const char* names[] = {"SliceOut", "Omux", "ClbIn", "Single",
                         "Hex",      "Long", "Gclk"};
  for (int f = 0; f < 7; ++f) {
    for (int t = 0; t < 7; ++t) {
      if (byKind[f][t]) {
        std::printf("  %-8s -> %-8s : %4d PIPs\n", names[f], names[t],
                    byKind[f][t]);
      }
    }
  }

  // The family sweep: graph size, build time, memory; PipTable build time.
  std::printf("\ndevice family (paper section 5: 16x24 .. 64x96):\n");
  std::printf("%-9s %5s %5s %12s %12s %10s %10s %10s\n", "device", "rows",
              "cols", "wires", "PIPs", "build(s)", "mem(MB)", "table(s)");
  for (const DeviceSpec& spec : deviceFamily()) {
    std::unique_ptr<Graph> g;
    const double secs =
        jrbench::secondsOf([&] { g = std::make_unique<Graph>(spec); });
    std::unique_ptr<PipTable> table;
    const double tableSecs = jrbench::secondsOf(
        [&] { table = std::make_unique<PipTable>(g->arch()); });
    std::printf("%-9s %5d %5d %12u %12u %10.2f %10.1f %10.3f\n",
                std::string(spec.name).c_str(), spec.rows, spec.cols,
                g->numNodes(), g->numEdges(), secs,
                static_cast<double>(g->memoryBytes()) / (1 << 20), tableSecs);
  }
  return 0;
}
