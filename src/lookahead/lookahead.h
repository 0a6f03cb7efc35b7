// Router lookahead: a precomputed, admissible remaining-cost map.
//
// E3 and E13 show the structural weakness of the manhattan heuristic: a
// per-tile rate is either loose (admissible but breadth-blind at long
// range) or a lie (the default 2x weighting). VTR's router_lookahead_map
// points at the fix — precompute, per device, what the segment hierarchy
// can actually deliver over a given displacement, and use *that* as the
// heuristic.
//
// The map exploits the fabric's periodic pattern structure. Every RRG
// edge u -> v is projected onto an abstract move
//
//     (class(u), class(v), pos(v) - pos(u))  at cost  kPipDelayPs + delay(v)
//
// where class is the node's NodeKind and pos its heuristic position
// (Graph::positionOf). Because the switch patterns are modular in the
// tile coordinates, the distinct moves number in the hundreds, not the
// millions: the projection collapses every translated copy of a pattern
// into one move. A single backward multi-source Dijkstra over the state
// space (class, drow, dcol) — displacement measured to the goal — then
// yields, for every wire class at every displacement, the cheapest cost
// any abstract move sequence can achieve. Every *real* path projects onto
// an equal-cost abstract path ending exactly at displacement (0,0), so
// the table is a consistent, admissible lower bound on true remaining
// route cost, independent of the goal's class and of any search-time
// restrictions (obstacles, claim filters) which only raise real costs.
//
// The chip-wide clock classes (Gclk, GclkPad) are "hubs": their heuristic
// position is a meaningless anchor, and projecting their edges positionally
// would add one distinct move per tile (the dominant cost of the whole
// build). Each hub class instead collapses to a single position-less state
// with a scalar remaining-cost bound — a quotient of the abstract graph,
// so estimates only get looser (never inadmissible) on clock paths.
//
// Two tables are built: kFull (all moves) and kNoLongs (moves into long
// lines removed), mirroring RouterOptions::useLongLines and the skew
// balancer's singles-only searches; both stay admissible for their
// restricted search. Entries are quantized to uint16 with a per-table
// quantum, rounding *down* so quantization preserves admissibility. The
// whole structure is immutable after construction and shared read-only
// across engine threads via the per-device process cache (forGraph).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "rrg/graph.h"

namespace jrla {

using xcvsim::DelayPs;
using xcvsim::Graph;
using xcvsim::NodeId;

class Lookahead {
 public:
  /// Which wire set the estimate may assume, mirroring the maze filters.
  enum class Mode : uint8_t { kFull, kNoLongs };

  /// Sentinel for "no abstract path exists": since every real path
  /// projects onto an abstract one, the real search cannot succeed either
  /// and the node can be pruned outright.
  static constexpr DelayPs kUnreachable = DelayPs{1} << 40;

  /// Build both tables for a graph (one edge sweep + two Dijkstras).
  explicit Lookahead(const Graph& g);

  /// Admissible lower bound on the remaining route cost from `from` to
  /// `to`, two nodes of `g` (any graph of this table's device: node kind
  /// and position come from `g`, not from the graph the table was built
  /// from, which the per-device cache may outlive). Returns kUnreachable
  /// when provably no path exists. The global clock classes (Gclk,
  /// GclkPad) are chip-wide: as sources they use a position-less scalar
  /// bound, as goals the estimate degrades to 0.
  DelayPs estimate(const Graph& g, NodeId from, NodeId to, Mode mode) const {
    const Table& t = mode == Mode::kFull ? full_ : noLongs_;
    const auto toClass = static_cast<uint8_t>(g.kindOf(to));
    const auto fromClass = static_cast<uint8_t>(g.kindOf(from));
    // A hub goal sits everywhere at once: no positional bound applies.
    if (isHubClass(toClass)) return 0;
    if (isHubClass(fromClass)) return t.hubDist[fromClass];
    const xcvsim::RowCol pf = g.positionOf(from);
    const xcvsim::RowCol pt = g.positionOf(to);
    const int dRow = pt.row - pf.row;
    const int dCol = pt.col - pf.col;
    if (!inDomain(dRow, dCol)) return 0;  // defensive; 0 stays admissible
    const uint16_t q = t.cost[stateIndex(fromClass, dRow, dCol)];
    if (q == kUnreachableStored) return kUnreachable;
    return static_cast<DelayPs>(q) * t.quantum;
  }

  struct Stats {
    double buildMs = 0;       ///< wall time of the constructor
    size_t moveCount = 0;     ///< deduplicated abstract moves
    size_t states = 0;        ///< (class, drow, dcol) states per table
    size_t tableBytes = 0;    ///< both tables, quantized
    DelayPs quantumFull = 1;  ///< ps per stored unit, kFull table
    DelayPs quantumNoLongs = 1;
    DelayPs maxFiniteFull = 0;  ///< largest finite estimate, kFull
    DelayPs maxFiniteNoLongs = 0;
    int rowSpan = 0;  ///< displacement domain extent (rows)
    int colSpan = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Human/machine renderings for `jrsh lookahead [json]`.
  std::string statsText() const;
  std::string statsJson() const;

  /// Process-wide per-device cache: built once on first request, shared
  /// read-only afterwards. The graph only keys by device name; any graph
  /// of the same device yields the same table, and the table keeps no
  /// reference to the graph it was built from.
  static const Lookahead& forGraph(const Graph& g);

 private:
  static constexpr uint16_t kUnreachableStored = 0xFFFF;

  /// Chip-wide classes with no meaningful heuristic position. Collapsed
  /// to one position-less state each (see the header comment).
  static bool isHubClass(uint8_t c) {
    return c == static_cast<uint8_t>(xcvsim::NodeKind::Gclk) ||
           c == static_cast<uint8_t>(xcvsim::NodeKind::GclkPad);
  }

  struct Table {
    std::vector<uint16_t> cost;  ///< 0xFFFF = unreachable
    DelayPs quantum = 1;
    /// Position-less remaining-cost bound per hub (chip-wide) class.
    std::array<DelayPs, 16> hubDist{};
  };

  size_t stateIndex(int classIdx, int dRow, int dCol) const {
    return (static_cast<size_t>(classIdx) * static_cast<size_t>(rowSpan_) +
            static_cast<size_t>(dRow - minDRow_)) *
               static_cast<size_t>(colSpan_) +
           static_cast<size_t>(dCol - minDCol_);
  }
  bool inDomain(int dRow, int dCol) const {
    return dRow >= minDRow_ && dRow <= maxDRow_ && dCol >= minDCol_ &&
           dCol <= maxDCol_;
  }

  std::string device_;
  int minDRow_ = 0, maxDRow_ = 0, minDCol_ = 0, maxDCol_ = 0;
  int rowSpan_ = 0, colSpan_ = 0;
  Table full_;
  Table noLongs_;
  Stats stats_;
};

}  // namespace jrla
