// Per-net provenance: why does this net look the way it does?
//
// The paper's debug story (trace/reverseTrace, the BoardScope use case)
// explains a routed design *structurally* — which wires a net occupies.
// The telemetry registry (obs/metrics.h) answers *aggregate* questions —
// how many maze runs, p99 latency. Provenance adds the question a
// debugging user asks next: "how was net N found?" — who requested it,
// which API level, which engine satisfied it (template hit / bus
// shape-hint reuse / maze / mixed), how much search it cost, how many
// PIPs it holds, its enqueue-to-commit latency, and its txn/DRC outcome.
//
// The facts are a few ids and codes per net, kept as plain data in the
// routing service's own net table (RoutingService::provenance, one entry
// per live net, erased with the net). NetProvenance is the view rendered
// from such an entry at lookup: jrsh prints it as `why <net>` and
// `explain last`, and a contention rejection's contendedNode leads to
// the holding net's view. It is service state, not telemetry, so it
// exists in both build modes.
#pragma once

#include <cstdint>
#include <string>

namespace jrobs {

/// One committed net's routing history, as rendered for a reader.
struct NetProvenance {
  uint64_t netSource = 0;  ///< RRG node id of the net's source wire.
  std::string netName;
  uint64_t requestId = 0;  ///< 0 = routed outside the service.
  uint64_t sessionId = 0;
  std::string op;         ///< API level: "p2p", "fanout", "bus", "unroute".
  std::string algorithm;  ///< "template" | "shape-hint" | "maze" | "mixed" | "reuse".
  /// Lookahead strategy-selector verdict for the request's sinks:
  /// "template" | "long-line" | "maze" | "mixed" | "off" (selector not
  /// consulted — lookahead disabled or no sink reached selection).
  std::string selector = "off";
  bool parallel = false;  ///< Planned in the batch's parallel phase?
  uint64_t pips = 0;      ///< PIPs durably turned on for this net.
  uint64_t sinks = 0;     ///< Sink pins routed by the committing request.
  uint64_t searchVisits = 0;   ///< Template + maze nodes visited.
  uint64_t latencyUs = 0;      ///< Enqueue-to-commit span stamps.
  std::string txn = "committed";   ///< Records only exist for commits.
  std::string drc = "unchecked";   ///< "pass" when the paranoid DRC ran clean.
  uint64_t updates = 0;  ///< Times a later request extended this net.
  uint64_t seq = 0;      ///< Commit sequence within its service.

  /// Multi-line human rendering (jrsh `why <net>`).
  std::string text() const;
  /// Single JSON object (jrsh `why ... json`).
  std::string json() const;
};

/// Which engine satisfied a route, from per-request search counters.
/// Precedence: any maze involvement beside template work is "mixed";
/// pure maze is "maze"; a bus shape-hint refit is "shape-hint"; library
/// or user templates are "template"; no search at all is "reuse" (every
/// sink was already on the net).
const char* classifyAlgorithm(uint64_t templateHits, uint64_t mazeRuns,
                              uint64_t shapeReuseHits);

/// What the lookahead strategy selector decided for a request, from the
/// per-request selector counters. One decision kind across every sink
/// names it; several kinds is "mixed"; no decisions at all is "off".
const char* classifySelector(uint64_t selTemplate, uint64_t selLongLine,
                             uint64_t selMaze);

}  // namespace jrobs
