// Fabric DRC: a static invariant analyzer for routed designs.
//
// The paper's API makes run-time promises in prose — "a track is never
// driven from both ends" (section 3.4), "unroute leaves no residue"
// (section 3.3) — and the fabric/router/service layers each enforce their
// slice of them inline. This module is the offline counterpart: it takes a
// frozen Fabric (plus, optionally, the router's port-connection memory and
// the service's session-ownership table) and verifies the full invariant
// set after the fact, the way a commercial flow leans on static
// design-rule checking to validate a router's output rather than trusting
// its bookkeeping.
//
// Structure: every rule is a jrcheck::Rule<DrcInput> table entry (stable
// id, severity, one-line description, and the views it needs). Findings
// anchor in `entity` to the wire, node, edge and net that violate the
// rule ("R5C5.S0F1 (node 1234, net 7)") and land in the checkers' shared
// report (src/check), which renders as text or JSON. runDrc() executes
// the catalogue; enforce() throws on errors and is what the
// JROUTE_DRC_PARANOID mode calls after every transaction commit/rollback
// and after every engine batch, turning the whole test suite and the
// benches into a continuous cross-check of the concurrent engine against
// the rules.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "check/check.h"
#include "core/router.h"
#include "fabric/fabric.h"

namespace jrdrc {

using xcvsim::EdgeId;
using xcvsim::Fabric;
using xcvsim::NetId;
using xcvsim::NodeId;
using xcvsim::RowCol;

/// Everything a DRC run may inspect. Only `fabric` is required; the other
/// views widen the rule set when present (the service supplies all of
/// them, the raw-router path supplies fabric + router).
struct DrcInput {
  const Fabric* fabric = nullptr;
  /// Port-connection memory to cross-check against routed state.
  const jroute::Router* router = nullptr;
  /// Session-ownership table: net source node -> owning session id.
  const std::vector<std::pair<NodeId, uint64_t>>* netOwners = nullptr;
  /// Decode the configuration frames and cross-check them against the
  /// on-PIP set. O(config size); the paranoid per-txn path disables it
  /// and leaves it to the per-batch pass.
  bool checkBitstream = true;
};

using DrcReport = jrcheck::Report;
using DrcRule = jrcheck::Rule<DrcInput>;

/// The rule catalogue, in run order.
std::span<const DrcRule> drcRules();

/// Run every applicable rule over `in`.
DrcReport runDrc(const DrcInput& in);
/// Fabric-only convenience (no router/ownership rules).
DrcReport runDrc(const Fabric& fabric);

/// True when the JROUTE_DRC_PARANOID environment variable is set to a
/// non-empty value other than "0". Read once per process.
bool paranoidEnabled();

/// Run the DRC and throw xcvsim::JRouteError naming `when` if any
/// error-severity finding is found. The paranoid-mode hook.
void enforce(const DrcInput& in, const char* when);

}  // namespace jrdrc
