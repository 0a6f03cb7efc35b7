// Layer microbenchmarks: one router layer at a time, on the benchmark's
// own device state, so a change to one layer is measured without the
// rest of the request path around it.
//
// Maze layer — the later-sink searches of auto fanout (section 3.1:
// "each sink … in order of increasing distance from the source",
// reusing the net tree). The XCV1000 fabric is warmed by the session
// stream's first 1800 events, as perfbench warms it. Each fanout of the
// next events is then routed on that fabric: its nearest sink through the
// Router, every later sink by one timed MazeRouter search from the net
// tree, whose chain is turned on before the next sink. The net is
// unrouted afterwards, so every iteration replays the same searches on
// the same fabric. Reported per search: µs (manual time) and visits.
//
//   build/bench/bench_layers [--benchmark_repetitions=5]
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <vector>

#include "bench/bench_util.h"
#include "fabric/trace.h"
#include "lookahead/lookahead.h"
#include "router/search.h"
#include "workload/session_stream.h"

using namespace jroute;
using namespace xcvsim;

namespace {

constexpr size_t kWarmupEvents = 1800;
constexpr size_t kWindowEvents = 3000;

/// One fanout of the window: its source and its sinks, nearest first.
struct Fanout {
  Pin src;
  std::vector<Pin> sinks;
};

/// The XCV1000 fabric after the warm-up, and the window's fanouts.
struct MazeLayer {
  jrbench::Device& dev = jrbench::sharedDevice(xcv1000());
  Router router{dev.fabric};
  std::vector<Fanout> fanouts;

  MazeLayer() {
    dev.fabric.clear();
    workload::SessionStream stream(dev.graph.device(), {});
    for (size_t i = 0; i < kWarmupEvents; ++i) apply(stream.next());
    for (size_t i = 0; i < kWindowEvents; ++i) {
      workload::StreamEvent ev = stream.next();
      if (ev.op != workload::StreamOp::kFanout) continue;
      const Pin src = ev.srcs[0];
      std::stable_sort(ev.sinks.begin(), ev.sinks.end(),
                       [&](const Pin& a, const Pin& b) {
                         return manhattan(src.rc, a.rc) <
                                manhattan(src.rc, b.rc);
                       });
      fanouts.push_back({src, std::move(ev.sinks)});
    }
  }

  NodeId node(const Pin& p) const { return dev.graph.nodeAt(p.rc, p.wire); }

  /// Replays one warm-up event on the Router. Session ownership is not
  /// modelled: an unroute frees whichever net holds the source.
  void apply(const workload::StreamEvent& ev) {
    const auto unroute = [&](const Pin& src) {
      if (dev.fabric.isUsed(node(src))) router.unroute(EndPoint(src));
    };
    const auto route = [&] {
      std::vector<Pin> fresh;
      for (const Pin& src : ev.srcs) {
        if (!dev.fabric.isUsed(node(src))) fresh.push_back(src);
      }
      const std::vector<EndPoint> srcs(ev.srcs.begin(), ev.srcs.end());
      const std::vector<EndPoint> sinks(ev.sinks.begin(), ev.sinks.end());
      try {
        if (ev.op == workload::StreamOp::kBus) {
          router.route(std::span<const EndPoint>(srcs),
                       std::span<const EndPoint>(sinks));
        } else {
          router.route(srcs[0], std::span<const EndPoint>(sinks));
        }
      } catch (const std::exception&) {
        for (const Pin& src : fresh) unroute(src);
      }
    };
    switch (ev.op) {
      case workload::StreamOp::kUnroute:
        for (const Pin& src : ev.srcs) unroute(src);
        break;
      case workload::StreamOp::kReconnect:
        unroute(ev.srcs[0]);
        route();
        break;
      default: route(); break;
    }
  }
};

void BM_MazeLaterSinks(benchmark::State& state) {
  static MazeLayer layer;
  Fabric& fabric = layer.dev.fabric;
  const Graph& g = layer.dev.graph;
  RouterOptions opts;
  opts.lookahead = &jrla::Lookahead::forGraph(g);
  MazeRouter maze(g);
  std::vector<NodeId> tree;
  uint64_t searches = 0, visits = 0;
  double total = 0;  // seconds spent searching, over every iteration

  for (auto _ : state) {
    double seconds = 0;
    for (const Fanout& f : layer.fanouts) {
      const NodeId src = layer.node(f.src);
      if (fabric.isUsed(src)) continue;  // the warm-up owns this source
      try {
        layer.router.route(EndPoint(f.src), EndPoint(f.sinks[0]));
      } catch (const std::exception&) {
        if (fabric.isUsed(src)) layer.router.unroute(EndPoint(f.src));
        continue;
      }
      const NetId net = fabric.netOf(src);
      tree.clear();
      tree.push_back(src);
      for (const xcvsim::TraceHop& hop : traceForward(fabric, src)) {
        tree.push_back(hop.to);
      }
      for (size_t k = 1; k < f.sinks.size(); ++k) {
        const NodeId goal = layer.node(f.sinks[k]);
        if (fabric.isUsed(goal)) continue;
        const auto t0 = std::chrono::steady_clock::now();
        const SearchResult r = maze.route(fabric, net, tree, goal, opts);
        benchmark::DoNotOptimize(r);
        seconds += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
        ++searches;
        visits += r.visited;
        if (!r.found) continue;
        for (const EdgeId e : r.edges) {
          fabric.turnOn(e, net);
          tree.push_back(g.edge(e).to);
        }
      }
      layer.router.unroute(EndPoint(f.src));
    }
    state.SetIterationTime(seconds);
    total += seconds;
  }
  const double n = static_cast<double>(std::max<uint64_t>(searches, 1));
  state.counters["searches"] = benchmark::Counter(
      static_cast<double>(searches), benchmark::Counter::kAvgIterations);
  state.counters["visits_per_search"] = static_cast<double>(visits) / n;
  state.counters["us_per_search"] = total * 1e6 / n;
}

BENCHMARK(BM_MazeLaterSinks)->UseManualTime()->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
