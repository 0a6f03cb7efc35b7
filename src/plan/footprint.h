// jrplan — static claim-footprint analysis for pending routing requests.
//
// A *claim footprint* is a conservative over-approximation of every
// routing-resource node a request's plan could claim, expressed as a set
// of region-grid cells. The mapping node → cell is a pure function of the
// node (its representative position tile), so two requests with disjoint
// cell sets can never claim the same node. The jrverify rule
// template-footprint-consistent holds the extractor to that contract:
// every wire a template replay steps through must lie inside the
// footprint extracted for its pin pair. See DESIGN.md §18.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "arch/device.h"
#include "arch/template_value.h"
#include "common/types.h"
#include "core/endpoint.h"
#include "router/options.h"
#include "rrg/graph.h"

namespace xcvsim {
class Fabric;
}

namespace jrplan {

using jroute::Pin;
using xcvsim::DeviceSpec;
using xcvsim::Graph;
using xcvsim::NodeId;
using xcvsim::RowCol;

/// Fixed-pitch grid of square tile regions covering a device; it keys
/// the footprint bitsets.
class RegionGrid {
 public:
  static constexpr int kCellTiles = 4;  ///< region edge length, in tiles

  RegionGrid() = default;
  RegionGrid(int rows, int cols)
      : rows_(rows),
        cols_(cols),
        cellsPerRow_((cols + kCellTiles - 1) / kCellTiles),
        cellRows_((rows + kCellTiles - 1) / kCellTiles) {}

  explicit RegionGrid(const DeviceSpec& dev) : RegionGrid(dev.rows, dev.cols) {}

  int numCells() const { return cellsPerRow_ * cellRows_; }
  int rows() const { return rows_; }
  int cols() const { return cols_; }

  /// Cell index of a tile. Out-of-device tiles clamp to the edge cell so
  /// callers can feed nominal template walk positions without bounds
  /// checks (the walk itself is bounds-verified elsewhere, tpl-bounds).
  int cellOf(RowCol rc) const {
    int r = rc.row < 0 ? 0 : (rc.row >= rows_ ? rows_ - 1 : rc.row);
    int c = rc.col < 0 ? 0 : (rc.col >= cols_ ? cols_ - 1 : rc.col);
    return (r / kCellTiles) * cellsPerRow_ + (c / kCellTiles);
  }

  friend bool operator==(const RegionGrid&, const RegionGrid&) = default;

 private:
  int rows_ = 0;
  int cols_ = 0;
  int cellsPerRow_ = 0;
  int cellRows_ = 0;
};

/// A set of region cells plus a soundness flag. `sound == false` means
/// the extractor could not bound the request (unresolvable pin,
/// lookahead-unreachable sink, unknown net), so its cell set proves
/// nothing.
class Footprint {
 public:
  Footprint() = default;
  explicit Footprint(const RegionGrid& grid)
      : grid_(grid), bits_((static_cast<size_t>(grid.numCells()) + 63) / 64) {}

  bool sound() const { return sound_; }
  void markUnsound() { sound_ = false; }
  const RegionGrid& grid() const { return grid_; }

  void addCell(int cell) {
    bits_[static_cast<size_t>(cell) >> 6] |= uint64_t{1} << (cell & 63);
  }
  void addTile(RowCol rc) { addCell(grid_.cellOf(rc)); }

  /// Every cell touched by the inclusive tile rectangle [a, b].
  void addTileRect(RowCol a, RowCol b);

  bool containsCell(int cell) const {
    return (bits_[static_cast<size_t>(cell) >> 6] >>
            (cell & 63)) & uint64_t{1};
  }
  bool containsTile(RowCol rc) const { return containsCell(grid_.cellOf(rc)); }

  /// Does the plan filter admit node `n`? True iff the node's
  /// representative position tile falls in a contained cell.
  bool allowsNode(const Graph& g, NodeId n) const {
    return containsTile(g.positionOf(n));
  }

  bool intersects(const Footprint& other) const;
  void unite(const Footprint& other);
  size_t cellCount() const;

  /// Sorted contained cell indices (deterministic JSON / test output).
  std::vector<int> cells() const;

 private:
  RegionGrid grid_;
  std::vector<uint64_t> bits_;
  bool sound_ = true;
};

/// Request kinds jrplan understands — mirrors the service ops plus the
/// workload stream's reconnect (unroute srcs[0], route srcs[0]→sinks[0]).
enum class SpecOp : uint8_t { kP2P, kFanout, kBus, kUnroute, kReconnect };

const char* specOpName(SpecOp op);

/// A request reduced to what footprint extraction needs: the op and the
/// physical pins. The linter builds them from scripts and streams.
struct RouteSpec {
  SpecOp op = SpecOp::kP2P;
  std::vector<Pin> srcs;
  std::vector<Pin> sinks;
};

/// Extracts conservative claim footprints from RouteSpecs against a
/// frozen fabric. One extractor per device/graph; cheap to call per
/// request (template-library lookups + a bbox sweep).
class FootprintExtractor {
 public:
  /// Seams for the mutation-liveness tests (plan_test.cpp): each hook
  /// replaces one ingredient of extraction so a test can prove that
  /// ingredient is live (corrupting it must break the over-approximation
  /// property or the jrverify rule). Production code never overrides.
  struct Hooks {
    std::function<std::vector<std::vector<xcvsim::TemplateValue>>(
        RowCol, RowCol)> templates;
    std::function<std::vector<std::vector<xcvsim::TemplateValue>>(
        RowCol, RowCol)> longTemplates;
    std::function<std::vector<NodeId>(NodeId)> netNodes;  ///< src → tree
    int corridorMargin = 2;  ///< tiles added around the maze bbox
  };

  FootprintExtractor(const Graph& g, const xcvsim::Fabric& fabric,
                     jroute::RouterOptions opts = {});

  const RegionGrid& grid() const { return grid_; }
  Hooks& hooks() { return hooks_; }

  /// Footprint of one request. Never throws: anything unexpected flags
  /// the footprint unsound instead.
  Footprint extract(const RouteSpec& spec) const;

  /// Footprint of one source→sink pair (the jrverify
  /// template-footprint-consistent rule checks template replays against
  /// exactly this).
  Footprint extractPair(Pin src, Pin sink) const;

 private:
  void addRoutePair(Footprint& fp, Pin src, Pin sink) const;
  void addNet(Footprint& fp, Pin src) const;
  void addTemplateWalk(Footprint& fp, RowCol from,
                       const std::vector<xcvsim::TemplateValue>& tmpl) const;

  const Graph* g_;
  const xcvsim::Fabric* fabric_;
  jroute::RouterOptions opts_;
  RegionGrid grid_;
  Hooks hooks_;
  /// Cells holding long-line strip midpoints, per row / per column:
  /// positionOf(LongH) is the strip midpoint tile, which can lie far
  /// outside a route's bbox, so whenever a pair could plausibly ride a
  /// long line the footprint must include these cells.
  std::vector<std::vector<int>> longRowCells_;  // [row] → cells
  std::vector<std::vector<int>> longColCells_;  // [col] → cells
};

}  // namespace jrplan
