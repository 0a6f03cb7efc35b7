// Router configuration and statistics.
//
// The paper stresses that "the JRoute API is independent of the algorithms
// used to implement it"; these options select between the initial
// algorithms it describes (predefined templates with a maze fallback,
// greedy distance-ordered fanout) and expose the knobs the experiments
// ablate (long-line usage for E8, template-first for E3).
#pragma once

#include <cstddef>
#include <cstdint>

namespace jrla {
class Lookahead;
}

namespace jroute {

struct RouterOptions {
  /// Allow the maze router to use long lines (experiment E8 ablates this).
  bool useLongLines = true;
  /// Auto point-to-point tries a small library of predefined templates
  /// before falling back to the maze router (experiment E3 ablates this).
  bool templateFirst = true;
  /// Manhattan distance beyond which the template library is skipped:
  /// long templates rarely fit intact (every wire along the exact shape
  /// must be free), and a failed attempt costs more than the weighted
  /// maze — experiment E3 locates the crossover near 16 tiles.
  int templateMaxDistance = 16;
  /// Node-visit budget for one template-following attempt. A template
  /// that actually fits is satisfied greedily in a few hundred visits;
  /// a larger budget only makes doomed attempts thrash longer before the
  /// maze fallback takes over.
  size_t maxTemplateVisits = 2500;
  /// Node-visit budget for one maze search before declaring unroutable.
  /// A visit is one node expanded (popped and its out-edges relaxed), or
  /// the goal reached. Sink-only nodes other than the goal never enter
  /// the open list, so they cost no visit (MazeRouter::route).
  size_t maxMazeVisits = 2000000;
  /// Restrict the maze to single-length lines (no hexes or longs). Used
  /// by the skew balancer, whose delay-padding detours must add a
  /// predictable ~410 ps per tile.
  bool mazeSinglesOnly = false;
  /// Weight on the A* distance heuristic. 1.0 is admissible (shortest
  /// delay path); larger values trade bounded path-quality loss for much
  /// less search — the right trade for a run-time router. The admissible
  /// bound is loose (a chip-spanning long line costs ~13 ps/tile), so
  /// weighting recovers most of the wasted exploration.
  ///
  /// Consulted by the legacy manhattan heuristic (useLookahead off) and as
  /// the per-tile rate of the weighted lookahead's greedy floor (below).
  double heuristicWeight = 2.0;
  /// Use the precomputed per-device lookahead table (src/lookahead) as the
  /// maze heuristic and for per-request strategy selection. The Router
  /// and Planner resolve `lookahead` from the process-wide per-device
  /// cache when this is set and the pointer is null.
  bool useLookahead = true;
  /// Resolved lookahead table; read-only, shared across threads. Null
  /// with useLookahead set means "resolve lazily via forGraph".
  const jrla::Lookahead* lookahead = nullptr;
  /// Weight on the lookahead heuristic. The table is admissible, so 1.0
  /// gives delay-optimal paths; the default trades bounded suboptimality
  /// for speed, like heuristicWeight does for the legacy heuristic. Any
  /// weight above 1.0 also enables a greedy floor — max(weighted estimate,
  /// legacy manhattan rate) — because the admissible estimate for far
  /// goals is long-line-dominated and too flat to focus the search alone.
  double lookaheadWeight = 2.0;
};

/// Which mechanism satisfied the most recent routing call.
enum class RouteMethod : uint8_t {
  None,
  DirectPip,     // route(row, col, from, to)
  Path,          // route(Path)
  UserTemplate,  // route(pin, endWire, template)
  LibTemplate,   // auto route satisfied by a predefined template
  Maze,          // auto route satisfied by the maze fallback
  Reuse,         // sink was already connected to the net
};

/// Cumulative counters, reset with RouteStats{} assignment.
struct RouteStats {
  uint64_t pipsTurnedOn = 0;
  uint64_t pipsTurnedOff = 0;
  uint64_t routesCompleted = 0;
  uint64_t routesFailed = 0;
  uint64_t templateAttempts = 0;
  uint64_t templateHits = 0;
  /// Subset of templateHits satisfied by a bus shape hint (the previous
  /// bit's shape refit, Router::routeSink) rather than the library.
  uint64_t shapeReuseHits = 0;
  uint64_t templateVisits = 0;
  uint64_t mazeRuns = 0;
  uint64_t mazeVisits = 0;
  /// Subset of templateHits satisfied by a long-line composition template
  /// (strategy selector picked the long-line path and it fit).
  uint64_t longTemplateHits = 0;
  /// Strategy-selector decisions (lookahead-driven pre-search choice).
  uint64_t selTemplate = 0;
  uint64_t selLongLine = 0;
  uint64_t selMaze = 0;
  RouteMethod lastMethod = RouteMethod::None;
};

}  // namespace jroute
