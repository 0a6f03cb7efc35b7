// jrverify: a static analyzer for the routing *model*.
//
// The paper's architecture-independence story rests on the correctness of
// the architecture description class — wire ids, lengths, directions,
// drives/driven-by relations, template values — yet a corrupt wire table
// or an illegal template-library entry would otherwise only surface as a
// mysterious maze-search failure deep in the service. The runtime DRC
// (src/analysis) audits fabric *state* after routing; this module is its
// compile-time counterpart, the way VTR's check_rr_graph validates the
// routing-resource graph before any router runs. It checks five layers:
//
//   arch       the description class is self-consistent (pip symmetry,
//              wire geometry, pattern ranges, the paper's driver-class
//              matrix, template-value classification)
//   rrg        the graph is bijective with the description, every sink is
//              reachable, no node is orphaned
//   template   every generated template replays to a legal contention-free
//              path on a clean fabric and stays in-bounds at device edges
//   bitstream  the PIP table round-trips through encode/decode and no two
//              logical PIPs share a configuration bit
//   lookahead  the router's precomputed cost map (src/lookahead) is an
//              admissible lower bound on true shortest-path delay
//
// Rules are jrcheck::Rule<ModelView> table entries whose group is their
// layer, and they report into one jrcheck::Report (src/check). They run
// against a ModelView — a bundle of hookable accessors that default to
// the real model. The mutation harness (tests/verify_test.cpp)
// overrides exactly one hook per rule to prove the rule live, mirroring
// the FabricMutator pattern of the runtime DRC tests.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "arch/arch_db.h"
#include "arch/device.h"
#include "bitstream/bitstream.h"
#include "bitstream/decoder.h"
#include "bitstream/pip_table.h"
#include "check/check.h"
#include "common/types.h"
#include "fabric/fabric.h"
#include "rrg/graph.h"

namespace jrverify {

using xcvsim::DelayPs;
using xcvsim::DeviceSpec;
using xcvsim::EdgeId;
using xcvsim::LocalWire;
using xcvsim::NodeId;
using xcvsim::RowCol;
using xcvsim::TemplateValue;

/// The model under verification: backing objects plus hookable accessors.
/// Defaults (makeModelView) delegate to the real model; the mutation
/// harness replaces one hook to seed a corruption.
struct ModelView {
  const DeviceSpec* dev = nullptr;
  const xcvsim::Graph* graph = nullptr;
  const xcvsim::PipTable* table = nullptr;
  xcvsim::Fabric* fabric = nullptr;  // clean scratch fabric for replay

  // --- arch layer ---
  std::function<xcvsim::WireInfo(LocalWire)> wireInfo;
  std::function<bool(RowCol, LocalWire)> existsAt;
  std::function<void(RowCol, const std::function<void(LocalWire, LocalWire)>&)>
      tilePips;
  std::function<void(RowCol,
                     const std::function<void(LocalWire, RowCol, LocalWire)>&)>
      directs;
  std::function<std::vector<LocalWire>(RowCol, LocalWire)> drives;
  std::function<std::vector<LocalWire>(RowCol, LocalWire)> drivenBy;
  std::function<bool(RowCol, LocalWire, LocalWire)> canDrive;

  // --- rrg layer ---
  std::function<NodeId(RowCol, LocalWire)> nodeAt;
  std::function<LocalWire(NodeId, RowCol)> aliasAt;
  /// Template value of a PIP's target, as the template walk reads it: the
  /// value stored in the edge.
  std::function<TemplateValue(NodeId, const xcvsim::Edge&)> templateValue;
  /// Null means "every graph edge is live" (the fast path); the mutation
  /// harness installs a filter to sever edges without rebuilding a graph.
  std::function<bool(EdgeId)> edgeEnabled;

  // --- template layer ---
  std::function<std::vector<std::vector<TemplateValue>>(RowCol, RowCol)>
      templates;

  // --- lookahead layer ---
  /// Remaining-delay estimate from node to node (defaults to the shared
  /// per-device jrla::Lookahead in full mode).
  std::function<DelayPs(NodeId, NodeId)> lookaheadEstimate;

  // --- bitstream layer ---
  std::function<int(const xcvsim::PipKey&)> slotOf;
  std::function<xcvsim::PipKey(int)> keyAt;
  std::function<int()> bitsPerTileRow;
  std::function<std::vector<xcvsim::DecodedPip>(const xcvsim::Bitstream&)>
      decode;
};

/// View with every hook bound to the real model objects.
ModelView makeModelView(const xcvsim::Graph& graph,
                        const xcvsim::PipTable& table,
                        xcvsim::Fabric& fabric);

/// Representative tiles for the sampled rules: all four corners, edge
/// midpoints, an interior block, and tiles at both phases of the long-line
/// access period. Deterministic for a given device.
std::vector<RowCol> sampleTiles(const DeviceSpec& dev);

using VerifyRule = jrcheck::Rule<ModelView>;

/// The rule catalogue, in run order (groups arch, rrg, template,
/// bitstream, lookahead).
std::span<const VerifyRule> verifyRules();

/// Run every rule over the view.
jrcheck::Report runVerify(const ModelView& m);

}  // namespace jrverify
