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
// Template-walk layer — the library step of section 3.1 ("define a set
// of unique and predefined templates … and try each one"), as the Router
// takes it for a fresh net's first sink. For each fanout of the window
// whose source and nearest sink are free on the warmed fabric, and for
// which the strategy selector picks the library, the library bodies are
// generated once and then walked in library order until one reaches the
// sink. Only the walks are timed, and nothing is turned on. A walk that
// reaches the sink is a hit, every other a miss; reported for each
// apart: µs per walk and out-edges scanned per walk.
//
// Fabric layer — PIP switching with bitstream write-through (section 3.4's
// checked turnOn). Every fanout of the window is routed once on the same
// warmed fabric and its PIPs recorded in turn-on order (tree order from
// the source), then unrouted. Each iteration replays every recorded chain
// on a fresh net: turnOn of each PIP, then turnOff in reverse. Reported:
// ns per PIP flip (manual time over both directions).
//
// Each benchmark runs kRepetitions times and reports only aggregates:
// the median of each counter (us_per_search, hit_us_per_walk,
// ns_per_flip, ...) and its 25th and 75th percentiles (the _p25 / _p75
// rows), so a run carries its own spread.
//
//   build/bench/bench_layers
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "fabric/trace.h"
#include "lookahead/lookahead.h"
#include "router/path_engine.h"
#include "router/search.h"
#include "router/template_engine.h"
#include "router/template_lib.h"
#include "workload/session_stream.h"

using namespace jroute;
using namespace xcvsim;

namespace {

constexpr size_t kWarmupEvents = 1800;
constexpr size_t kWindowEvents = 3000;
constexpr int kRepetitions = 10;

/// The q-quantile of the repetitions, interpolated between ranks.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double p25(const std::vector<double>& v) { return quantile(v, 0.25); }
double p75(const std::vector<double>& v) { return quantile(v, 0.75); }

/// Repeated runs, reported as their median and quartiles.
void repeated(benchmark::internal::Benchmark* b) {
  b->UseManualTime()
      ->Unit(benchmark::kMillisecond)
      ->Repetitions(kRepetitions)
      ->ComputeStatistics("p25", p25)
      ->ComputeStatistics("p75", p75)
      ->ReportAggregatesOnly(true);
}

/// One fanout of the window: its source and its sinks, nearest first.
struct Fanout {
  Pin src;
  std::vector<Pin> sinks;
};

/// One routed fanout: its source and its PIPs in turn-on order.
struct Chain {
  NodeId src;
  std::vector<EdgeId> edges;
};

/// The XCV1000 fabric after the warm-up, the window's fanouts, and the
/// PIP chains of those fanouts as the Router routes them.
struct WarmLayer {
  jrbench::Device& dev = jrbench::sharedDevice(xcv1000());
  Router router{dev.fabric};
  std::vector<Fanout> fanouts;
  std::vector<Chain> chains;

  static WarmLayer& get() {
    static WarmLayer layer;
    return layer;
  }

  WarmLayer() {
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
    for (const Fanout& f : fanouts) recordChain(f);
  }

  /// Routes `f` whole, records its PIPs, and unroutes it again.
  void recordChain(const Fanout& f) {
    const NodeId src = node(f.src);
    if (dev.fabric.isUsed(src)) return;  // the warm-up owns this source
    const std::vector<EndPoint> sinks(f.sinks.begin(), f.sinks.end());
    try {
      router.route(EndPoint(f.src), std::span<const EndPoint>(sinks));
    } catch (const std::exception&) {
      if (dev.fabric.isUsed(src)) router.unroute(EndPoint(f.src));
      return;
    }
    Chain c{src, {}};
    for (const xcvsim::TraceHop& hop : traceForward(dev.fabric, src)) {
      c.edges.push_back(hop.edge);
    }
    router.unroute(EndPoint(f.src));
    chains.push_back(std::move(c));
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
  WarmLayer& layer = WarmLayer::get();
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

BENCHMARK(BM_MazeLaterSinks)->Apply(repeated);

void BM_TemplateWalk(benchmark::State& state) {
  WarmLayer& layer = WarmLayer::get();
  const Fabric& fabric = layer.dev.fabric;
  const Graph& g = layer.dev.graph;
  RouterOptions opts;
  opts.lookahead = &jrla::Lookahead::forGraph(g);
  TemplateBodies bodies;
  // Index 0 counts the misses, 1 the hits.
  uint64_t walks[2] = {0, 0}, scanned[2] = {0, 0};
  double total[2] = {0, 0};  // seconds spent walking, over every iteration

  for (auto _ : state) {
    double seconds = 0;
    for (const Fanout& f : layer.fanouts) {
      const Pin& sinkPin = f.sinks[0];
      const NodeId src = layer.node(f.src);
      const NodeId sink = layer.node(sinkPin);
      if (fabric.isUsed(src) || fabric.isUsed(sink)) continue;
      if (selectStrategy(g, src, sink, opts).strategy != Strategy::kTemplate) {
        continue;
      }
      templatesFor(g.device(), f.src.rc, sinkPin.rc,
                   wireKind(f.src.wire) == WireKind::SliceOut,
                   wireKind(sinkPin.wire) == WireKind::ClbIn, bodies);
      for (const TemplateBodies::Body body : bodies) {
        const auto t0 = std::chrono::steady_clock::now();
        const TemplateResult r =
            followTemplate(fabric, src, body, sink, kInvalidLocalWire, opts);
        benchmark::DoNotOptimize(r);
        const double dt = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        const int hit = r.found ? 1 : 0;
        ++walks[hit];
        scanned[hit] += r.scanned;
        total[hit] += dt;
        seconds += dt;
        if (r.found) break;
      }
    }
    state.SetIterationTime(seconds);
  }
  for (const int hit : {0, 1}) {
    const std::string kind = hit ? "hit" : "miss";
    const double n = static_cast<double>(std::max<uint64_t>(walks[hit], 1));
    state.counters[kind + "_walks"] =
        benchmark::Counter(static_cast<double>(walks[hit]),
                           benchmark::Counter::kAvgIterations);
    state.counters[kind + "_us_per_walk"] = total[hit] * 1e6 / n;
    state.counters[kind + "_edges_per_walk"] =
        static_cast<double>(scanned[hit]) / n;
  }
}

BENCHMARK(BM_TemplateWalk)->Apply(repeated);

void BM_FabricToggle(benchmark::State& state) {
  WarmLayer& layer = WarmLayer::get();
  Fabric& fabric = layer.dev.fabric;
  uint64_t flips = 0;
  double total = 0;  // seconds spent switching, over every iteration

  for (auto _ : state) {
    double seconds = 0;
    for (const Chain& c : layer.chains) {
      const NetId net = fabric.createNet(c.src);
      const auto t0 = std::chrono::steady_clock::now();
      for (const EdgeId e : c.edges) fabric.turnOn(e, net);
      for (auto e = c.edges.rbegin(); e != c.edges.rend(); ++e) {
        fabric.turnOff(*e);
      }
      seconds += std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
      fabric.removeNet(net);
      flips += 2 * c.edges.size();
    }
    benchmark::ClobberMemory();
    state.SetIterationTime(seconds);
    total += seconds;
  }
  const double n = static_cast<double>(std::max<uint64_t>(flips, 1));
  state.counters["flips"] = benchmark::Counter(
      static_cast<double>(flips), benchmark::Counter::kAvgIterations);
  state.counters["ns_per_flip"] = total * 1e9 / n;
}

BENCHMARK(BM_FabricToggle)->Apply(repeated);

}  // namespace

BENCHMARK_MAIN();
