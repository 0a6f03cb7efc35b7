// Fabric congestion observability: tile-region heatmaps.
//
// Aggregate counters cannot say *where* a design is dense. A Heatmap is
// a plain grid of per-region values with ASCII and JSON renderers; its
// one producer is live fabric occupancy (jrdrc::occupancyHeatmap in
// analysis/congestion.h), rendered by jrsh `heatmap [json]` and
// RoutingService::occupancy. It is data plus rendering, so it works in
// both telemetry build modes, and no registry gauge mirrors its cells.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace jrobs {

/// A rendered-or-renderable grid of per-region values, row-major.
/// gridRows x gridCols cells, each covering cellRows x cellCols fabric
/// tiles (the last row/column of cells may cover a partial span).
struct Heatmap {
  std::string title;
  int gridRows = 0;
  int gridCols = 0;
  int cellRows = 1;
  int cellCols = 1;
  std::vector<uint64_t> values;

  uint64_t at(int r, int c) const {
    return values[static_cast<size_t>(r) * static_cast<size_t>(gridCols) +
                  static_cast<size_t>(c)];
  }
  uint64_t maxValue() const;
  uint64_t total() const;

  /// Shade-character rendering (` .:-=+*#%@` scaled to the max cell),
  /// with a legend line. Deterministic for a given grid.
  std::string ascii() const;
  /// {"heatmap":{"title":...,"grid_rows":...,"cells":[[...],...]}}
  std::string json() const;
};

}  // namespace jrobs
