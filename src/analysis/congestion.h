// Fabric occupancy heatmaps: where is the routed design dense?
//
// This module shows where the committed design *lives*. It walks a frozen
// Fabric, maps every in-use segment to its representative tile
// (Graph::positionOf — segment midpoint, same heuristic the maze cost
// function uses), and buckets the counts into a Heatmap. Long lines
// and globals thus count once, at their midpoint, rather than smearing
// across their whole span — the map answers "which switch-box regions
// are crowded", not "how many tiles can see a wire".
//
// Not telemetry: this is an offline analysis over fabric state, like the
// DRC, so it works identically with JROUTE_NO_TELEMETRY. jrsh `heatmap`
// renders it; RoutingService::snapshotMetrics() publishes per-region
// occupancy gauges from it (those gauges ARE telemetry and vanish in the
// stub build).
#pragma once

#include "fabric/fabric.h"
#include "obs/heatmap.h"

namespace jrdrc {

/// Per-region count of in-use RRG nodes, cells of cellRows x cellCols
/// tiles. Deterministic for a given fabric state.
jrobs::Heatmap occupancyHeatmap(const xcvsim::Fabric& fabric,
                                int cellRows = 4, int cellCols = 4);

}  // namespace jrdrc
