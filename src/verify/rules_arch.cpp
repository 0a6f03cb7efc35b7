// Arch-layer rules: the architecture description class is checked against
// itself — its enumeration, query, and classification views must agree.
#include <algorithm>
#include <map>
#include <set>

#include "arch/wires.h"
#include "verify/rules.h"

namespace jrverify {
namespace {

using xcvsim::Dir;
using xcvsim::Edge;
using xcvsim::hexValue;
using xcvsim::isClockPin;
using xcvsim::isValidWire;
using xcvsim::kHexSpan;
using xcvsim::kNumLocalWires;
using xcvsim::singleValue;
using xcvsim::WireInfo;
using xcvsim::WireKind;
using xcvsim::wireKind;
using xcvsim::wireName;

/// Wires sampled per tile for the O(wires x enumeration) symmetry rule:
/// a stratified slice of every kind (full coverage would re-enumerate the
/// ~2900 tile pips once per wire and blow the <2s budget on XCV1000).
std::vector<LocalWire> sampleWires(const ModelView& m, RowCol rc) {
  using namespace xcvsim;
  const LocalWire wanted[] = {
      sliceOut(0), sliceOut(5), omux(0),   omux(3),
      clbIn(0),    clbIn(13),   single(Dir::East, 0),
      single(Dir::West, 5),     single(Dir::North, 11),
      single(Dir::South, 23),   hex(Dir::East, HexTap::Beg, 4),
      hex(Dir::East, HexTap::Mid, 3),     hex(Dir::West, HexTap::End, 2),
      hex(Dir::North, HexTap::Beg, 7),    hex(Dir::South, HexTap::Mid, 11),
      longH(3),    longV(8),    gclk(1),   iobIn(1),
      iobOut(2),   bramDo(1),   bramDi(2), bramAd(3),
  };
  std::vector<LocalWire> out;
  for (const LocalWire w : wanted) {
    if (m.existsAt(rc, w)) out.push_back(w);
  }
  return out;
}

/// arch-pip-symmetry — drives()/drivenBy() must be the exact forward and
/// reverse adjacency of forEachTilePip(), and canDrive() must agree.
void pipSymmetry(const ModelView& m, RuleSink& out) {
  size_t& tiles = out.count("tiles");
  size_t& wires = out.count("wires");
  size_t& pips = out.count("pips");
  for (const RowCol rc : sampleTiles(*m.dev)) {
    ++tiles;
    std::map<LocalWire, std::vector<LocalWire>> fwd, rev;
    m.tilePips(rc, [&](LocalWire from, LocalWire to) {
      fwd[from].push_back(to);
      rev[to].push_back(from);
      ++pips;
    });
    int canDriveBudget = 8;
    for (const LocalWire w : sampleWires(m, rc)) {
      ++wires;
      auto got = m.drives(rc, w);
      auto want = fwd[w];
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      if (got != want) {
        out.add(tileName(rc) + " " + wireName(w),
                "drives() lists " + std::to_string(got.size()) +
                    " targets but the pip enumeration has " +
                    std::to_string(want.size()),
                "ArchDb::drives must mirror forEachTilePip exactly; "
                "check the pattern rules in arch_db.cpp");
      }
      auto gotIn = m.drivenBy(rc, w);
      auto wantIn = rev[w];
      std::sort(gotIn.begin(), gotIn.end());
      std::sort(wantIn.begin(), wantIn.end());
      if (gotIn != wantIn) {
        out.add(tileName(rc) + " " + wireName(w),
                "drivenBy() lists " + std::to_string(gotIn.size()) +
                    " drivers but the pip enumeration has " +
                    std::to_string(wantIn.size()),
                "ArchDb::drivenBy must mirror forEachTilePip exactly; "
                "check the pattern rules in arch_db.cpp");
      }
      for (const LocalWire to : want) {
        if (canDriveBudget-- <= 0) break;
        if (!m.canDrive(rc, w, to)) {
          out.add(tileName(rc) + " " + wireName(w),
                  "canDrive denies the enumerated pip -> " + wireName(to),
                  "ArchDb::canDrive must accept every pip that "
                  "forEachTilePip emits");
        }
      }
    }
  }
}

/// arch-wire-geometry — every wire's kind/index/length description matches
/// the structural layout of the local id space.
void wireGeometry(const ModelView& m, RuleSink& out) {
  size_t& wires = out.count("wires");
  const DeviceSpec& dev = *m.dev;
  for (LocalWire w = 0; w < kNumLocalWires; ++w) {
    ++wires;
    const WireInfo info = m.wireInfo(w);
    const WireKind kind = wireKind(w);
    if (info.kind != kind) {
      out.add(wireName(w),
              "wireInfo reports the wrong kind",
              "wireInfo(w).kind must equal wireKind(w)");
      continue;
    }
    if (info.index != xcvsim::wireIndex(w)) {
      out.add(wireName(w),
              "wireInfo index " + std::to_string(info.index) +
                  " disagrees with wireIndex " +
                  std::to_string(xcvsim::wireIndex(w)),
              "wireInfo(w).index must equal wireIndex(w)");
    }
    int wantLength = 0;
    switch (kind) {
      case WireKind::Single: wantLength = 1; break;
      case WireKind::Hex: wantLength = kHexSpan; break;
      case WireKind::Long:
        wantLength = (w < xcvsim::kLongVBase ? dev.cols : dev.rows) - 1;
        break;
      case WireKind::Gclk: wantLength = dev.rows + dev.cols; break;
      default: wantLength = 0; break;  // pins, OMUX, IOB, BRAM ports
    }
    if (info.length != wantLength) {
      out.add(wireName(w),
              "length " + std::to_string(info.length) + " should be " +
                  std::to_string(wantLength),
              "singles span 1 tile, hexes kHexSpan, longs the full "
              "row/column, pins 0; fix ArchDb::wireInfo");
    }
  }
}

/// arch-pattern-range — every pip the patterns emit uses valid wire ids
/// that exist at the tiles involved (no dangling ids in patterns.cpp).
void patternRange(const ModelView& m, RuleSink& out) {
  size_t& tiles = out.count("tiles");
  size_t& pips = out.count("pips");
  for (const RowCol rc : sampleTiles(*m.dev)) {
    ++tiles;
    m.tilePips(rc, [&](LocalWire from, LocalWire to) {
      ++pips;
      if (!isValidWire(from) || !isValidWire(to)) {
        out.add(tileName(rc) + " pip " + std::to_string(from) + " -> " +
                    std::to_string(to),
                "pip references an out-of-range wire id",
                "a pattern in patterns.cpp emits an id outside "
                "[0, kNumLocalWires)");
        return;
      }
      if (from == to) {
        out.add(tileName(rc) + " " + wireName(from),
                "self-loop pip", "a pattern maps a wire onto itself");
      }
      for (const LocalWire w : {from, to}) {
        if (!m.existsAt(rc, w)) {
          out.add(tileName(rc) + " " + wireName(w),
                  "pip references a wire that does not exist here",
                  "the pattern must be gated on ArchDb::existsAt "
                  "(edge channels and long access tiles)");
        }
      }
    });
    m.directs(rc, [&](LocalWire from, RowCol dst, LocalWire to) {
      ++pips;
      if (!m.dev->contains(dst)) {
        out.add(tileName(rc) + " direct -> " + tileName(dst),
                "direct connect targets a tile outside the device",
                "forEachDirectConnect must clip at the array edge");
        return;
      }
      if (!m.existsAt(rc, from) || !m.existsAt(dst, to)) {
        out.add(tileName(rc) + " " + wireName(from) + " -> " +
                    tileName(dst) + " " + wireName(to),
                "direct connect references a missing wire",
                "direct connects join slice outputs to neighbour "
                "CLB inputs; both pins must exist");
      }
    });
  }
}

/// The paper's driver-class matrix: may a `from` wire drive a `to` one?
bool driverAllowed(WireKind from, WireKind to, LocalWire toWire) {
  switch (from) {
    case WireKind::SliceOut:
      return to == WireKind::Omux || to == WireKind::ClbIn;  // feedback
    case WireKind::Omux:
      return to == WireKind::Single || to == WireKind::Hex ||
             to == WireKind::Long;
    case WireKind::Long:
      return to == WireKind::Hex;
    case WireKind::Hex:
      return to == WireKind::Single || to == WireKind::Hex;
    case WireKind::Single:
      return to == WireKind::ClbIn || to == WireKind::Single ||
             to == WireKind::Long || to == WireKind::IobOut ||
             to == WireKind::BramIn;
    case WireKind::Gclk:
      return to == WireKind::ClbIn && isClockPin(toWire);
    case WireKind::IobIn:
    case WireKind::BramOut:
      return to == WireKind::Single;
    default:
      return false;  // ClbIn, IobOut, BramIn never drive anything
  }
}

/// arch-driver-class — every pip obeys the paper's driver-class matrix
/// ("logic block outputs drive all length interconnects, longs can drive
/// hexes only, hexes drive singles and other hexes, ...").
void driverClass(const ModelView& m, RuleSink& out) {
  size_t& tiles = out.count("tiles");
  size_t& pips = out.count("pips");
  for (const RowCol rc : sampleTiles(*m.dev)) {
    ++tiles;
    m.tilePips(rc, [&](LocalWire from, LocalWire to) {
      ++pips;
      if (!isValidWire(from) || !isValidWire(to)) return;  // range rule
      if (driverAllowed(wireKind(from), wireKind(to), to)) return;
      out.add(tileName(rc) + " " + wireName(from) + " -> " + wireName(to),
              "pip crosses wire classes the switch matrix never joins",
              "section 2's driver rules; compare against the "
              "rule table in arch_db.cpp");
    });
  }
}

/// The template value edge `e`, driven from tile `rc`, must advertise.
TemplateValue expectedValue(const xcvsim::Graph& g, RowCol rc,
                            const Edge& e) {
  const LocalWire toLocal = g.toLocalOf(e);
  switch (wireKind(toLocal)) {
    case WireKind::Omux: return TemplateValue::OUTMUX;
    case WireKind::ClbIn: return TemplateValue::CLBIN;
    case WireKind::Single: return singleValue(g.travelDir(e.to, rc));
    case WireKind::Hex: return hexValue(g.travelDir(e.to, rc));
    case WireKind::Long:
      return toLocal < xcvsim::kLongVBase ? TemplateValue::LONGH
                                          : TemplateValue::LONGV;
    case WireKind::Gclk: return TemplateValue::GCLKNET;
    case WireKind::IobOut: return TemplateValue::IOPAD;
    case WireKind::BramIn: return TemplateValue::BRAMPORT;
    default: return TemplateValue::OUTMUX;  // unreachable as a target
  }
}

/// arch-template-class — the template value advertised for every graph
/// edge resolves to the class and travel direction of the target wire.
void templateClass(const ModelView& m, RuleSink& out) {
  size_t& tiles = out.count("tiles");
  size_t& edges = out.count("edges");
  const xcvsim::Graph& g = *m.graph;
  for (const RowCol rc : sampleTiles(*m.dev)) {
    ++tiles;
    for (LocalWire w = 0; w < kNumLocalWires; ++w) {
      if (!m.existsAt(rc, w)) continue;
      const NodeId n = m.nodeAt(rc, w);
      if (n == xcvsim::kInvalidNode) continue;  // alias rule's business
      for (const Edge& e : g.out(n)) {
        if (xcvsim::Graph::pipTile(e) != rc) continue;
        ++edges;
        const TemplateValue tv = m.templateValue(e.to, e);
        const TemplateValue want = expectedValue(g, rc, e);
        if (tv != want) {
          out.add(tileName(rc) + " " + wireName(e.fromLocal) + " -> " +
                      wireName(g.toLocalOf(e)),
                  std::string("template value ") +
                      std::string(xcvsim::templateValueName(tv)) +
                      " should be " +
                      std::string(xcvsim::templateValueName(want)),
                  "the value the graph build stores in each edge must "
                  "classify by target wire kind with travel direction "
                  "resolved from the driving tile");
        }
      }
    }
  }
}

}  // namespace

std::span<const VerifyRule> archRules() {
  static const VerifyRule rules[] = {
      {"arch-pip-symmetry", "arch", kError,
       "drives/drivenBy/canDrive agree with the tile-pip enumeration",
       nullptr, pipSymmetry},
      {"arch-wire-geometry", "arch", kError,
       "wire kind/index/length descriptions match the id-space layout",
       nullptr, wireGeometry},
      {"arch-pattern-range", "arch", kError,
       "pattern-emitted pips reference wires that exist at their tiles",
       nullptr, patternRange},
      {"arch-driver-class", "arch", kError,
       "every pip obeys the paper's wire-class driver matrix", nullptr,
       driverClass},
      {"arch-template-class", "arch", kError,
       "edge template values match the target wire's class + direction",
       nullptr, templateClass},
  };
  return rules;
}

}  // namespace jrverify
