#include "verify/verify.h"

#include <memory>

#include "common/error.h"
#include "lookahead/lookahead.h"
#include "obs/trace.h"
#include "router/template_lib.h"
#include "verify/rules.h"

namespace jrverify {

using xcvsim::ArchDb;
using xcvsim::Bitstream;
using xcvsim::Edge;
using xcvsim::Fabric;
using xcvsim::Graph;
using xcvsim::PipKey;
using xcvsim::PipTable;

std::string tileName(RowCol rc) {
  return "(" + std::to_string(rc.row) + "," + std::to_string(rc.col) + ")";
}

std::vector<RowCol> sampleTiles(const DeviceSpec& dev) {
  const auto rc = [](int r, int c) {
    return RowCol{static_cast<int16_t>(r), static_cast<int16_t>(c)};
  };
  const int lr = dev.rows - 1;
  const int lc = dev.cols - 1;
  const std::vector<RowCol> wanted = {
      // Corners and the inner ring next to them: edge-gated resources.
      rc(0, 0), rc(0, lc), rc(lr, 0), rc(lr, lc), rc(1, 1), rc(lr - 1, lc - 1),
      // Edge midpoints: the IOB ring couples in here.
      rc(0, dev.cols / 2), rc(lr, dev.cols / 2), rc(dev.rows / 2, 0),
      rc(dev.rows / 2, lc),
      // Interior block.
      rc(dev.rows / 2, dev.cols / 2), rc(dev.rows / 2 + 1, dev.cols / 2 + 1),
      // Both phases of the long-line access period.
      rc(6, 6), rc(6, 7), rc(7, 6), rc(9, 11),
  };
  std::vector<RowCol> out;
  for (const RowCol t : wanted) {
    if (!dev.contains(t)) continue;
    bool dup = false;
    for (const RowCol have : out) dup = dup || have == t;
    if (!dup) out.push_back(t);
  }
  return out;
}

ModelView makeModelView(const Graph& graph, const PipTable& table,
                        Fabric& fabric) {
  ModelView m;
  m.dev = &graph.device();
  m.graph = &graph;
  m.table = &table;
  m.fabric = &fabric;
  const ArchDb* arch = &graph.arch();
  const Graph* g = &graph;
  const PipTable* t = &table;
  const DeviceSpec* dev = m.dev;

  m.wireInfo = [arch](LocalWire w) { return arch->wireInfo(w); };
  m.existsAt = [arch](RowCol rc, LocalWire w) { return arch->existsAt(rc, w); };
  m.tilePips = [arch](RowCol rc,
                      const std::function<void(LocalWire, LocalWire)>& cb) {
    arch->forEachTilePip(rc, cb);
  };
  m.directs = [arch](RowCol rc,
                     const std::function<void(LocalWire, RowCol, LocalWire)>&
                         cb) { arch->forEachDirectConnect(rc, cb); };
  m.drives = [arch](RowCol rc, LocalWire w) { return arch->drives(rc, w); };
  m.drivenBy = [arch](RowCol rc, LocalWire w) {
    return arch->drivenBy(rc, w);
  };
  m.canDrive = [arch](RowCol rc, LocalWire from, LocalWire to) {
    return arch->canDrive(rc, from, to);
  };
  m.nodeAt = [g](RowCol rc, LocalWire w) { return g->nodeAt(rc, w); };
  m.aliasAt = [g](NodeId n, RowCol rc) { return g->aliasAt(n, rc); };
  m.templateValue = [](NodeId, const Edge& e) { return e.templateValue(); };
  auto bodies = std::make_shared<jroute::TemplateBodies>();
  m.templates = [dev, bodies](RowCol from, RowCol to) {
    std::vector<std::vector<TemplateValue>> out;
    for (const jroute::TemplateBodies::Body body :
         jroute::templatesFor(*dev, from, to, true, true, *bodies)) {
      out.emplace_back(body.begin(), body.end());
    }
    return out;
  };
  const jrla::Lookahead* la = &jrla::Lookahead::forGraph(graph);
  m.lookaheadEstimate = [la, g](NodeId from, NodeId to) {
    return la->estimate(*g, from, to, jrla::Lookahead::Mode::kFull);
  };
  m.slotOf = [t](const PipKey& key) { return t->slotOf(key); };
  m.keyAt = [t](int slot) { return t->keyAt(slot); };
  m.bitsPerTileRow = [t]() { return t->bitsPerTileRow(); };
  m.decode = [](const Bitstream& bs) { return xcvsim::decodePips(bs); };
  return m;
}

std::span<const VerifyRule> verifyRules() {
  static const std::vector<VerifyRule> rules = [] {
    std::vector<VerifyRule> all;
    for (const auto layer : {archRules(), rrgRules(), templateRules(),
                             bitstreamRules(), lookaheadRules()}) {
      all.insert(all.end(), layer.begin(), layer.end());
    }
    return all;
  }();
  return rules;
}

jrcheck::Report runVerify(const ModelView& m) {
  if (m.dev == nullptr || m.graph == nullptr || m.table == nullptr ||
      m.fabric == nullptr) {
    throw xcvsim::ArgumentError("runVerify: incomplete model view");
  }
  JR_TRACE_SCOPE("verify", "run");
  jrcheck::Report report(
      "verify", std::string(m.dev->name),
      {"tiles", "wires", "pips", "nodes", "edges", "templates", "slots"});
  jrcheck::runRules(verifyRules(), m, report);
  return report;
}

}  // namespace jrverify
