// Per-net provenance: why does this net look the way it does?
//
// The paper's debug story (trace/reverseTrace, the BoardScope use case)
// explains a routed design *structurally* — which wires a net occupies.
// The telemetry registry (obs/metrics.h) answers *aggregate* questions —
// how many maze runs, p99 latency. Neither can answer the question a
// debugging user actually asks: "why does net N look like this?" This
// module is that layer: every net committed through the routing service
// leaves one structured record — who requested it, which API level, which
// engine satisfied it (template hit / bus shape-hint reuse / maze /
// mixed), how much search it cost, how many PIPs it holds, its
// enqueue-to-commit latency, and its txn/DRC outcome. jrsh surfaces the
// store as `why <net>` and `explain last`; the flight recorder embeds the
// offending net's record in its anomaly bundles.
//
// Concurrency: records are assembled by the engine thread at commit time
// (never on the search hot path), so the store uses a plain mutex. The
// store is bounded — oldest records are evicted FIFO by commit sequence —
// and keyed by the net's source node, so a net has at most one record at
// any time (a later request extending the net overwrites the record and
// bumps `updates`); unrouting the net forgets it.
//
// With JROUTE_NO_TELEMETRY record() drops the record, so lookups return
// nothing and the JSON export is an empty list. NetProvenance itself (a
// plain struct with renderers) works in both modes, so call sites never
// #ifdef.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace jrobs {

/// One committed net's routing history.
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
  uint64_t seq = 0;      ///< Commit sequence, stamped by the store.

  /// Multi-line human rendering (jrsh `why <net>`).
  std::string text() const;
  /// Single JSON object (flight-recorder bundles, jrsh `why ... json`).
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

/// Bounded provenance store keyed by net source node.
class ProvenanceStore {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  explicit ProvenanceStore(size_t capacity = kDefaultCapacity);
  ~ProvenanceStore();
  ProvenanceStore(const ProvenanceStore&) = delete;
  ProvenanceStore& operator=(const ProvenanceStore&) = delete;

  /// Insert (or merge into) the record for `rec.netSource`. A record that
  /// already exists for the source is overwritten with the new request's
  /// view and its `updates` count carried forward + 1. Stamps `seq`.
  void record(NetProvenance rec);

  /// Record for the net driven from `netSource`, if retained.
  std::optional<NetProvenance> find(uint64_t netSource) const;

  /// Most recently committed record (jrsh `explain last`).
  std::optional<NetProvenance> last() const;

  /// Forget the record for an unrouted net. No-op when absent.
  void forget(uint64_t netSource);

  size_t size() const;
  void clear();

  /// {"provenance":[{...},...]} in commit order, oldest first.
  std::string json() const;

 private:
  struct Impl;
  Impl* impl_;
};

/// The process-global store the routing service records into.
ProvenanceStore& provenance();

}  // namespace jrobs
