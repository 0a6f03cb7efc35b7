#include "verify/verify.h"

#include <chrono>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "lookahead/lookahead.h"
#include "obs/jsonutil.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "router/template_lib.h"
#include "verify/rules.h"

namespace jrverify {

using xcvsim::ArchDb;
using xcvsim::Bitstream;
using xcvsim::DecodedPip;
using xcvsim::Edge;
using xcvsim::Fabric;
using xcvsim::Graph;
using xcvsim::PipKey;
using xcvsim::PipTable;
using xcvsim::WireInfo;

const char* layerName(Layer layer) {
  switch (layer) {
    case Layer::kArch: return "arch";
    case Layer::kRrg: return "rrg";
    case Layer::kTemplate: return "template";
    case Layer::kBitstream: return "bitstream";
    case Layer::kLookahead: return "lookahead";
  }
  return "?";
}

void addFinding(const Rule& rule, VerifyReport& out, std::string entity,
                std::string message, std::string hint) {
  size_t already = 0;
  for (const Finding& f : out.findings) {
    if (f.rule == rule.id()) ++already;
  }
  if (already >= kMaxFindingsPerRule) return;
  Finding f;
  f.rule = rule.id();
  f.layer = rule.layer();
  f.entity = std::move(entity);
  f.message = std::move(message);
  f.hint = std::move(hint);
  out.findings.push_back(std::move(f));
}

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
  m.templateValue = [g](NodeId n, const Edge& e) {
    return g->templateValueOf(n, e);
  };
  m.templates = [dev](RowCol from, RowCol to) {
    return jroute::templatesFor(*dev, from, to, true, true);
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

const std::vector<const Rule*>& allRules() {
  static const std::vector<const Rule*> rules = [] {
    std::vector<const Rule*> all;
    for (const auto& layer : {archRules(), rrgRules(), templateRules(),
                              bitstreamRules(), lookaheadRules()}) {
      all.insert(all.end(), layer.begin(), layer.end());
    }
    return all;
  }();
  return rules;
}

const Rule* ruleById(std::string_view id) {
  for (const Rule* r : allRules()) {
    if (id == r->id()) return r;
  }
  return nullptr;
}

VerifyReport runVerify(const ModelView& m) {
  if (m.dev == nullptr || m.graph == nullptr || m.table == nullptr ||
      m.fabric == nullptr) {
    throw xcvsim::ArgumentError("runVerify: incomplete model view");
  }
  JR_TRACE_SCOPE("verify", "run");
  jrobs::registry().counter("verify.runs").add();
  VerifyReport report;
  report.device = std::string(m.dev->name);
  const auto t0 = std::chrono::steady_clock::now();
  for (const Rule* r : allRules()) {
    report.rulesRun.push_back(r->id());
    const size_t before = report.findings.size();
    const uint64_t r0 = jrobs::Tracer::instance().nowNs();
    r->run(m, report);
    const uint64_t r1 = jrobs::Tracer::instance().nowNs();
    const std::string rule = std::string("verify.rule.") + r->id();
    jrobs::registry().histogram(rule + ".runtime_us").record((r1 - r0) / 1000);
    jrobs::registry()
        .counter(rule + ".findings")
        .add(report.findings.size() - before);
  }
  const auto t1 = std::chrono::steady_clock::now();
  report.verifyUs =
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count();
  return report;
}

VerifyReport verifyDevice(const DeviceSpec& dev) {
  const auto t0 = std::chrono::steady_clock::now();
  const Graph graph(dev);
  const PipTable table(graph.arch());
  Fabric fabric(graph, table);
  const auto t1 = std::chrono::steady_clock::now();
  const ModelView m = makeModelView(graph, table, fabric);
  VerifyReport report = runVerify(m);
  report.buildUs =
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count();
  return report;
}

bool VerifyReport::firedRule(std::string_view id) const {
  for (const Finding& f : findings) {
    if (f.rule == id) return true;
  }
  return false;
}

std::string VerifyReport::summary() const {
  std::ostringstream os;
  os << "jrverify " << device << ": " << rulesRun.size() << " rules over "
     << tilesSampled << " tiles, " << wiresChecked << " wires, "
     << pipsChecked << " pips, " << nodesChecked << " nodes, "
     << edgesChecked << " edges, " << templatesChecked << " templates, "
     << slotsChecked << " slots: ";
  if (findings.empty()) {
    os << "clean\n";
    return os.str();
  }
  os << findings.size() << " finding(s)\n";
  for (const Finding& f : findings) {
    os << "  [" << layerName(f.layer) << "] " << f.rule << " @ " << f.entity
       << ": " << f.message << "\n      hint: " << f.hint << "\n";
  }
  return os.str();
}

std::string VerifyReport::json() const {
  std::ostringstream os;
  os << "{" << jrobs::jsonKv("device", device)
     << ",\"clean\":" << (clean() ? "true" : "false")
     << ",\"findings_total\":" << findings.size() << ",\"rules\":[";
  for (size_t i = 0; i < rulesRun.size(); ++i) {
    if (i > 0) os << ',';
    os << '"' << jrobs::jsonEscape(rulesRun[i]) << '"';
  }
  os << "],\"checked\":{\"tiles\":" << tilesSampled
     << ",\"wires\":" << wiresChecked << ",\"pips\":" << pipsChecked
     << ",\"nodes\":" << nodesChecked << ",\"edges\":" << edgesChecked
     << ",\"templates\":" << templatesChecked << ",\"slots\":" << slotsChecked
     << "},\"build_us\":" << buildUs << ",\"verify_us\":" << verifyUs
     << ",\"findings\":[";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i > 0) os << ',';
    os << "{" << jrobs::jsonKv("rule", f.rule) << ','
       << jrobs::jsonKv("layer", layerName(f.layer)) << ','
       << jrobs::jsonKv("entity", f.entity) << ','
       << jrobs::jsonKv("message", f.message) << ','
       << jrobs::jsonKv("hint", f.hint) << '}';
  }
  os << "]}";
  return os.str();
}

}  // namespace jrverify
