// Fabric DRC: a static invariant analyzer for routed designs.
//
// The paper's API makes run-time promises in prose — "a track is never
// driven from both ends" (section 3.4), "unroute leaves no residue"
// (section 3.3) — and the fabric/router/service layers each enforce their
// slice of them inline. This module is the offline counterpart: it takes a
// frozen Fabric (plus, optionally, the router's port-connection memory,
// the service's session-ownership table, and a claim-map probe) and
// verifies the full invariant set after the fact, the way a commercial
// flow leans on static design-rule checking to validate a router's output
// rather than trusting its bookkeeping.
//
// Structure: every rule is a Checker with a stable id, a severity, and a
// one-line description; checkers append Violations (tile coords + wire
// names, so a failure is actionable) to a DrcReport that renders as text
// or JSON. runDrc() executes the registry; enforce() throws on errors and
// is what the JROUTE_DRC_PARANOID mode calls after every transaction
// commit/rollback and after every engine batch, turning the whole test
// suite and the benches into a continuous cross-check of the concurrent
// engine against the rules.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/router.h"
#include "fabric/fabric.h"

namespace jrdrc {

using xcvsim::EdgeId;
using xcvsim::Fabric;
using xcvsim::NetId;
using xcvsim::NodeId;
using xcvsim::RowCol;

enum class Severity : uint8_t { kError, kWarning };

const char* severityName(Severity s);

/// One rule failure, anchored to the fabric location that violates it.
struct Violation {
  std::string checker;  // id of the rule that fired
  Severity severity = Severity::kError;
  std::string message;
  NodeId node = xcvsim::kInvalidNode;  // offending segment, if any
  EdgeId edge = xcvsim::kInvalidEdge;  // offending PIP, if any
  NetId net = xcvsim::kInvalidNet;     // net involved, if any
  RowCol tile{};                       // anchor tile of node/edge
  std::string wire;                    // debug name of the anchor wire
};

/// Everything a DRC run may inspect. Only `fabric` is required; the other
/// views widen the rule set when present (the service supplies all of
/// them, the raw-router path supplies fabric + router).
struct DrcInput {
  const Fabric* fabric = nullptr;
  /// Port-connection memory to cross-check against routed state.
  const jroute::Router* router = nullptr;
  /// Session-ownership table: net source node -> owning session id.
  const std::vector<std::pair<NodeId, uint64_t>>* netOwners = nullptr;
  /// Claim-map probe (0 = unclaimed). At engine quiescence every node
  /// must be unclaimed; non-null enables the claim-residue rule.
  std::function<uint32_t(NodeId)> claimOwner;
  /// Decode the configuration frames and cross-check them against the
  /// on-PIP set. O(config size); the paranoid per-txn path disables it
  /// and leaves it to the per-batch pass.
  bool checkBitstream = true;
};

struct DrcReport {
  std::vector<Violation> violations;
  std::vector<std::string> checkersRun;
  size_t nodesScanned = 0;
  size_t edgesScanned = 0;
  size_t netsScanned = 0;

  size_t errorCount() const;
  size_t warningCount() const;
  /// No error-severity violations (warnings do not fail a design).
  bool clean() const { return errorCount() == 0; }
  bool firedChecker(std::string_view id) const;

  /// Human-readable multi-line report.
  std::string summary() const;
  /// Machine-readable single-object JSON.
  std::string json() const;
};

/// One design rule. Checkers are stateless singletons; run() appends any
/// violations it finds to the report.
class Checker {
 public:
  virtual ~Checker() = default;
  virtual const char* id() const = 0;
  virtual Severity severity() const = 0;
  virtual const char* description() const = 0;
  /// Does this rule apply given the views present in `in`?
  virtual bool applicable(const DrcInput& in) const {
    (void)in;
    return true;
  }
  virtual void run(const DrcInput& in, DrcReport& out) const = 0;
};

/// The rule registry, in catalogue order.
const std::vector<const Checker*>& allCheckers();
const Checker* checkerById(std::string_view id);

/// Run every applicable checker over `in`.
DrcReport runDrc(const DrcInput& in);
/// Fabric-only convenience (no router/ownership/claim rules).
DrcReport runDrc(const Fabric& fabric);

/// True when the JROUTE_DRC_PARANOID environment variable is set to a
/// non-empty value other than "0". Read once per process.
bool paranoidEnabled();

/// Run the DRC and throw xcvsim::JRouteError naming `when` if any
/// error-severity violation is found. The paranoid-mode hook.
void enforce(const DrcInput& in, const char* when);

}  // namespace jrdrc
