#include "router/sink_search.h"

#include <utility>

#include "arch/wires.h"
#include "obs/metrics.h"
#include "router/template_engine.h"
#include "router/template_lib.h"

namespace jroute {

using xcvsim::Graph;
using xcvsim::kInvalidLocalWire;
using xcvsim::WireKind;
using xcvsim::wireKind;

namespace {

jrobs::Counter& shapeReuseCounter() {
  static jrobs::Counter& c =
      jrobs::registry().counter("router.bus.shape_reuse_hits");
  return c;
}

}  // namespace

SinkRoute searchSink(const Fabric& fabric, MazeRouter& maze,
                     const RouterOptions& opts, const SinkQuery& q,
                     RouteStats& stats) {
  const Graph& g = fabric.graph();
  SinkRoute out;
  const auto follow = [&](std::span<const TemplateValue> tmpl) {
    ++stats.templateAttempts;
    TemplateResult res =
        followTemplate(fabric, q.source, tmpl, q.sink, kInvalidLocalWire, opts);
    stats.templateVisits += res.visited;
    if (!res.found) return false;
    ++stats.templateHits;
    out.found = true;
    out.method = RouteMethod::LibTemplate;
    out.edges = std::move(res.edges);
    return true;
  };
  // The strategy selector picks the mechanism that fits the request
  // before any search runs (the legacy ordering when no lookahead is
  // resolved); library and long-line bodies fall through to the maze.
  const auto library = [&] {
    if (!q.tryLibrary) return false;
    const Strategy strategy =
        selectStrategy(g, q.source, q.sink, opts).strategy;
    switch (strategy) {
      case Strategy::kTemplate: ++stats.selTemplate; break;
      case Strategy::kLongLine: ++stats.selLongLine; break;
      case Strategy::kMaze: ++stats.selMaze; break;
    }
    if (strategy == Strategy::kMaze) return false;
    const bool longLine = strategy == Strategy::kLongLine;
    const bool srcIsOutput = wireKind(q.sourceWire) == WireKind::SliceOut;
    const bool dstIsInput = wireKind(q.sinkWire) == WireKind::ClbIn;
    const auto bodies =
        longLine ? longTemplatesFor(g.device(), q.sourceTile, q.sinkTile,
                                    srcIsOutput, dstIsInput)
                 : templatesFor(g.device(), q.sourceTile, q.sinkTile,
                                srcIsOutput, dstIsInput);
    for (const auto& body : bodies) {
      if (follow(body)) {
        if (longLine) ++stats.longTemplateHits;
        return true;
      }
    }
    return false;
  };

  if (q.hint && !q.hint->empty() && follow(*q.hint)) {
    ++stats.shapeReuseHits;
    shapeReuseCounter().add();
  } else if (!library()) {
    ++stats.mazeRuns;
    SearchResult res = maze.route(fabric, q.net, q.tree, q.sink, opts);
    stats.mazeVisits += res.visited;
    if (!res.found) return out;
    out.found = true;
    out.method = RouteMethod::Maze;
    out.edges = std::move(res.edges);
  }
  if (q.exportShape && out.method != RouteMethod::Maze) {
    out.shape.reserve(out.edges.size());
    for (const EdgeId e : out.edges) {
      out.shape.push_back(g.templateValueOf(g.edge(e).to, g.edge(e)));
    }
  }
  return out;
}

}  // namespace jroute
