// Fabric congestion observability: tile-region heatmaps.
//
// Parallel routers live or die by hotspots — a handful of switch-box
// regions absorb most of the claim contention, and aggregate counters
// can't say *where*. This module gives congestion a spatial axis:
//
//  - Heatmap: a plain grid-of-values with ASCII and JSON renderers,
//    produced either from live fabric occupancy (see
//    jrdrc::occupancyHeatmap in analysis/congestion.h) or from the
//    claim-conflict accumulator below. Works in both build modes — it is
//    just data plus rendering.
//  - CongestionGrid: a fixed array of relaxed atomics the planner bumps
//    when a claim race is lost, bucketing fabric tiles into cells of
//    cellRows x cellCols. One relaxed add per conflict; conflicts are
//    already the slow path.
//
// Both heatmaps are their own surface — jrsh `heatmap [conflicts]
// [json]` and RoutingService::{occupancy,claimConflicts} — and no
// registry gauge mirrors their cells.
//
// With JROUTE_NO_TELEMETRY the grid never configures (adds vanish,
// snapshots are empty) while Heatmap itself keeps working so jrsh
// `heatmap` — a read of fabric state, not telemetry — stays available.
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

/// Thread-safe spatial accumulator over fabric tiles. configure() maps
/// a device's rows x cols onto a coarse cell grid; add() is a relaxed
/// atomic increment on the cell containing a tile. Reconfiguring with
/// the same geometry just zeroes the cells; a new geometry swaps in a
/// fresh cell array and retires the old one until the grid's destructor
/// runs, so concurrent adders never touch freed memory.
class CongestionGrid {
 public:
  CongestionGrid();
  ~CongestionGrid();
  CongestionGrid(const CongestionGrid&) = delete;
  CongestionGrid& operator=(const CongestionGrid&) = delete;

  void configure(int fabricRows, int fabricCols, int cellRows = 4,
                 int cellCols = 4);
  bool configured() const;

  /// Bump the cell containing fabric tile (row, col). No-op before
  /// configure() or for out-of-range tiles.
  void add(int row, int col, uint64_t n = 1);

  void reset();

  /// Detached copy for rendering/publishing. Empty before configure().
  Heatmap snapshot(const std::string& title) const;

 private:
  struct Impl;
  Impl* impl_;
};

/// The process-global claim-conflict accumulator the planner bumps and
/// the routing service configures/publishes.
CongestionGrid& claimConflictGrid();

}  // namespace jrobs
