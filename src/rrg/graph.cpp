#include "rrg/graph.h"

#include <algorithm>

#include "arch/patterns.h"
#include "arch/tile_patterns.h"
#include "common/error.h"

namespace xcvsim {
namespace {

constexpr NodeId kLogicPerTile = kSingleBase;  // locals [0,42) are logic
constexpr int kTracks1 = kSinglesPerChannel;
constexpr int kTracks6 = kHexTracks;

int tapOffsetOf(HexTap tap) {
  switch (tap) {
    case HexTap::Beg: return 0;
    case HexTap::Mid: return kHexMid;
    case HexTap::End: return kHexSpan;
  }
  return 0;
}

/// Template value of the wire named `w` at the tile a PIP enters it from,
/// as Graph::templateValueOf derives it: a single's or hex's alias at that
/// tile names the end it is entered at, which fixes its direction of
/// travel. A logic pin's alias is its local id.
TemplateValue entryValue(LocalWire w) {
  switch (wireKind(w)) {
    case WireKind::Omux:
      return TemplateValue::OUTMUX;
    case WireKind::SliceOut:
    case WireKind::ClbIn:
      return TemplateValue::CLBIN;
    case WireKind::Single:
      return singleValue(wireDir(w));
    case WireKind::Hex:
      return hexValue(wireHexTap(w) == HexTap::Beg ? wireDir(w)
                                                   : opposite(wireDir(w)));
    case WireKind::Long:
      return w < kLongVBase ? TemplateValue::LONGH : TemplateValue::LONGV;
    case WireKind::Gclk:
      return TemplateValue::GCLKNET;
    case WireKind::IobIn:
    case WireKind::IobOut:
      return TemplateValue::IOPAD;
    case WireKind::BramOut:
    case WireKind::BramIn:
      return TemplateValue::BRAMPORT;
  }
  return TemplateValue::CLBIN;
}

}  // namespace

Graph::Graph(const DeviceSpec& dev) : dev_(dev), arch_(dev) {
  if (dev.rows <= kHexSpan || dev.cols <= kHexSpan) {
    throw ArgumentError("device too small for hex lines");
  }
  // Edge::tileRow/tileCol are 8-bit.
  if (dev.rows > 255 || dev.cols > 255) {
    throw ArgumentError("device too large for the edge tile fields");
  }
  assignRanges();
  if (numNodes_ > (NodeId{1} << kEdgeNodeBits)) {
    throw ArgumentError("device too large for the edge target field");
  }
  buildAffineAliases();
  buildNodeTable();
  buildOutEdges();
}

void Graph::assignRanges() {
  const NodeId H = static_cast<NodeId>(dev_.rows);
  const NodeId W = static_cast<NodeId>(dev_.cols);
  NodeId n = H * W * kLogicPerTile;
  hSingleBase_ = n;
  n += H * (W - 1) * kTracks1;
  vSingleBase_ = n;
  n += (H - 1) * W * kTracks1;
  hexEBase_ = n;
  n += H * (W - kHexSpan) * kTracks6;
  hexWBase_ = n;
  n += H * (W - kHexSpan) * kTracks6;
  hexNBase_ = n;
  n += (H - kHexSpan) * W * kTracks6;
  hexSBase_ = n;
  n += (H - kHexSpan) * W * kTracks6;
  longHBase_ = n;
  n += H * kLongTracks;
  longVBase_ = n;
  n += W * kLongTracks;
  gclkBase_ = n;
  n += kGlobalNets;
  gclkPadBase_ = n;
  n += kGlobalNets;
  iobInBase_ = n;
  n += static_cast<NodeId>(numBoundaryTiles() * kIobsPerTile);
  iobOutBase_ = n;
  n += static_cast<NodeId>(numBoundaryTiles() * kIobsPerTile);
  // BRAM port pins: 2 edge columns x H tiles x (DO: 4) and (DI+AD: 8).
  bramOutBase_ = n;
  n += static_cast<NodeId>(kBramColumns * dev_.rows * kBramPinsPerTile);
  bramInBase_ = n;
  n += static_cast<NodeId>(kBramColumns * dev_.rows * 2 * kBramPinsPerTile);
  numNodes_ = n;
}

int Graph::numBoundaryTiles() const {
  return 2 * dev_.cols + 2 * (dev_.rows - 2);
}

int Graph::perimeterIndex(RowCol rc) const {
  const int H = dev_.rows, W = dev_.cols;
  if (!dev_.contains(rc)) return -1;
  if (rc.row == 0) return rc.col;
  if (rc.row == H - 1) return W + rc.col;
  if (rc.col == 0) return 2 * W + (rc.row - 1);
  if (rc.col == W - 1) return 2 * W + (H - 2) + (rc.row - 1);
  return -1;
}

void Graph::buildAffineAliases() {
  const int W = dev_.cols;
  const auto set = [&](LocalWire w, NodeId base, int k, int a, int b) {
    affine_[w] = {static_cast<int64_t>(base) + k, a, b};
  };
  for (LocalWire w = 0; w < kSingleBase; ++w) {
    set(w, 0, w, W * kSingleBase, kSingleBase);
  }
  // A single's node is its channel, numbered by the tile at its west
  // (south) end; a West (South) alias names the channel one tile back.
  for (int t = 0; t < kTracks1; ++t) {
    const int row = (W - 1) * kTracks1;
    set(single(Dir::East, t), hSingleBase_, t, row, kTracks1);
    set(single(Dir::West, t), hSingleBase_, t - kTracks1, row, kTracks1);
    set(single(Dir::North, t), vSingleBase_, t, W * kTracks1, kTracks1);
    set(single(Dir::South, t), vSingleBase_, t - W * kTracks1, W * kTracks1,
        kTracks1);
  }
  // A hex's node is its origin's cell, (orow - rs) * stride + (ocol - cs),
  // where the origin is `off` tiles upstream of the tap.
  for (const Dir d : {Dir::East, Dir::West, Dir::North, Dir::South}) {
    const bool horiz = d == Dir::East || d == Dir::West;
    const int stride = horiz ? W - kHexSpan : W;
    const int rs = d == Dir::South ? kHexSpan : 0;
    const int cs = d == Dir::West ? kHexSpan : 0;
    const NodeId base = d == Dir::East    ? hexEBase_
                        : d == Dir::West  ? hexWBase_
                        : d == Dir::North ? hexNBase_
                                          : hexSBase_;
    for (const HexTap tap : {HexTap::Beg, HexTap::Mid, HexTap::End}) {
      const int off = tapOffsetOf(tap);
      const int cell =
          (-off * dirDRow(d) - rs) * stride - off * dirDCol(d) - cs;
      for (int t = 0; t < kTracks6; ++t) {
        set(hex(d, tap, t), base, cell * kTracks6 + t, stride * kTracks6,
            kTracks6);
      }
    }
  }
  for (int t = 0; t < kLongTracks; ++t) {
    set(longH(t), longHBase_, t, kLongTracks, 0);
    set(longV(t), longVBase_, t, 0, kLongTracks);
  }
  for (int k = 0; k < kGlobalNets; ++k) set(gclk(k), gclkBase_, k, 0, 0);
}

NodeId Graph::nodeAt(RowCol rc, LocalWire w) const {
  const int H = dev_.rows, W = dev_.cols;
  const int r = rc.row, c = rc.col;
  if (r < 0 || r >= H || c < 0 || c >= W || !isValidWire(w)) {
    return kInvalidNode;
  }
  const auto onDevice = [&](int row, int col) {
    return row >= 0 && row < H && col >= 0 && col < W;
  };
  if (w < kSingleBase) return affineAt(w, rc);
  // Singles and hexes, the common case, read direction and tap straight
  // from the wire id's layout (wires.h): direction-major, then tap, then
  // track.
  if (w < kHexBase) {
    // The track's other end must be on the device.
    const Dir d = static_cast<Dir>((w - kSingleBase) / kTracks1);
    if (!onDevice(r + dirDRow(d), c + dirDCol(d))) return kInvalidNode;
    return affineAt(w, rc);
  }
  if (w < kLongHBase) {
    // The segment's origin and far end must both be on the device.
    const int i = w - kHexBase;
    const Dir d = static_cast<Dir>(i / (3 * kTracks6));
    const int off = tapOffsetOf(static_cast<HexTap>((i / kTracks6) % 3));
    const int orow = r - off * dirDRow(d);
    const int ocol = c - off * dirDCol(d);
    const int erow = orow + kHexSpan * dirDRow(d);
    const int ecol = ocol + kHexSpan * dirDCol(d);
    if (!onDevice(orow, ocol) || !onDevice(erow, ecol)) return kInvalidNode;
    return affineAt(w, rc);
  }
  switch (wireKind(w)) {
    case WireKind::Long: {
      const int along = w < kLongVBase ? c : r;
      if (!longAccessibleAt(wireIndex(w), along)) return kInvalidNode;
      return affineAt(w, rc);
    }
    case WireKind::Gclk:
      return affineAt(w, rc);
    case WireKind::IobIn:
    case WireKind::IobOut: {
      const int p = perimeterIndex(rc);
      if (p < 0) return kInvalidNode;
      const NodeId base =
          wireKind(w) == WireKind::IobIn ? iobInBase_ : iobOutBase_;
      return base + static_cast<NodeId>(p * kIobsPerTile + wireIndex(w));
    }
    case WireKind::BramOut: {
      if (!isBramTile(dev_, rc)) return kInvalidNode;
      const int side = rc.col == 0 ? 0 : 1;
      return bramOutBase_ +
             static_cast<NodeId>((side * H + r) * kBramPinsPerTile +
                                 wireIndex(w));
    }
    case WireKind::BramIn: {
      if (!isBramTile(dev_, rc)) return kInvalidNode;
      const int side = rc.col == 0 ? 0 : 1;
      return bramInBase_ +
             static_cast<NodeId>((side * H + r) * 2 * kBramPinsPerTile +
                                 wireIndex(w));
    }
    default:
      return kInvalidNode;
  }
}

NodeInfo Graph::info(NodeId n) const {
  const int W = dev_.cols;
  NodeInfo inf{};
  if (n < hSingleBase_) {
    const NodeId tile = n / kLogicPerTile;
    inf.kind = NodeKind::Logic;
    inf.local = static_cast<LocalWire>(n % kLogicPerTile);
    inf.tile = {static_cast<int16_t>(tile / static_cast<NodeId>(W)),
                static_cast<int16_t>(tile % static_cast<NodeId>(W))};
    inf.track = inf.local;
    return inf;
  }
  if (n < vSingleBase_) {
    const NodeId i = n - hSingleBase_;
    inf.kind = NodeKind::SingleH;
    inf.track = static_cast<int>(i % kTracks1);
    const NodeId chan = i / kTracks1;
    inf.tile = {static_cast<int16_t>(chan / static_cast<NodeId>(W - 1)),
                static_cast<int16_t>(chan % static_cast<NodeId>(W - 1))};
    return inf;
  }
  if (n < hexEBase_) {
    const NodeId i = n - vSingleBase_;
    inf.kind = NodeKind::SingleV;
    inf.track = static_cast<int>(i % kTracks1);
    const NodeId chan = i / kTracks1;
    inf.tile = {static_cast<int16_t>(chan / static_cast<NodeId>(W)),
                static_cast<int16_t>(chan % static_cast<NodeId>(W))};
    return inf;
  }
  const auto decodeHexH = [&](NodeId base, NodeKind kind, int originShift) {
    const NodeId i = n - base;
    inf.kind = kind;
    inf.track = static_cast<int>(i % kTracks6);
    const NodeId cell = i / kTracks6;
    inf.tile = {
        static_cast<int16_t>(cell / static_cast<NodeId>(W - kHexSpan)),
        static_cast<int16_t>(cell % static_cast<NodeId>(W - kHexSpan) +
                             static_cast<NodeId>(originShift))};
  };
  const auto decodeHexV = [&](NodeId base, NodeKind kind, int originShift) {
    const NodeId i = n - base;
    inf.kind = kind;
    inf.track = static_cast<int>(i % kTracks6);
    const NodeId cell = i / kTracks6;
    inf.tile = {static_cast<int16_t>(cell / static_cast<NodeId>(W) +
                                     static_cast<NodeId>(originShift)),
                static_cast<int16_t>(cell % static_cast<NodeId>(W))};
  };
  if (n < hexWBase_) {
    decodeHexH(hexEBase_, NodeKind::HexE, 0);
    return inf;
  }
  if (n < hexNBase_) {
    decodeHexH(hexWBase_, NodeKind::HexW, kHexSpan);
    return inf;
  }
  if (n < hexSBase_) {
    decodeHexV(hexNBase_, NodeKind::HexN, 0);
    return inf;
  }
  if (n < longHBase_) {
    decodeHexV(hexSBase_, NodeKind::HexS, kHexSpan);
    return inf;
  }
  if (n < longVBase_) {
    const NodeId i = n - longHBase_;
    inf.kind = NodeKind::LongH;
    inf.track = static_cast<int>(i % kLongTracks);
    inf.tile = {static_cast<int16_t>(i / kLongTracks), 0};
    return inf;
  }
  if (n < gclkBase_) {
    const NodeId i = n - longVBase_;
    inf.kind = NodeKind::LongV;
    inf.track = static_cast<int>(i % kLongTracks);
    inf.tile = {0, static_cast<int16_t>(i / kLongTracks)};
    return inf;
  }
  if (n < gclkPadBase_) {
    inf.kind = NodeKind::Gclk;
    inf.track = static_cast<int>(n - gclkBase_);
    inf.tile = {0, 0};
    return inf;
  }
  if (n < iobInBase_) {
    inf.kind = NodeKind::GclkPad;
    inf.track = static_cast<int>(n - gclkPadBase_);
    inf.tile = {0, 0};
    return inf;
  }
  if (n < bramOutBase_) {
    const bool isIn = n < iobOutBase_;
    const NodeId i = n - (isIn ? iobInBase_ : iobOutBase_);
    inf.kind = isIn ? NodeKind::IobIn : NodeKind::IobOut;
    inf.track = static_cast<int>(i % kIobsPerTile);
    // Invert the perimeter numbering back to the boundary tile.
    const int H = dev_.rows;
    const int p = static_cast<int>(i / kIobsPerTile);
    if (p < W) {
      inf.tile = {0, static_cast<int16_t>(p)};
    } else if (p < 2 * W) {
      inf.tile = {static_cast<int16_t>(H - 1), static_cast<int16_t>(p - W)};
    } else if (p < 2 * W + (H - 2)) {
      inf.tile = {static_cast<int16_t>(p - 2 * W + 1), 0};
    } else {
      inf.tile = {static_cast<int16_t>(p - 2 * W - (H - 2) + 1),
                  static_cast<int16_t>(W - 1)};
    }
    return inf;
  }
  if (n < numNodes_) {
    const bool isOut = n < bramInBase_;
    const NodeId i = n - (isOut ? bramOutBase_ : bramInBase_);
    const int per = isOut ? kBramPinsPerTile : 2 * kBramPinsPerTile;
    inf.kind = isOut ? NodeKind::BramOut : NodeKind::BramIn;
    inf.track = static_cast<int>(i) % per;
    const int cell = static_cast<int>(i) / per;
    const int side = cell / dev_.rows;
    inf.tile = {static_cast<int16_t>(cell % dev_.rows),
                static_cast<int16_t>(side == 0 ? 0 : W - 1)};
    return inf;
  }
  throw ArgumentError("node id out of range: " + std::to_string(n));
}

LocalWire Graph::aliasAt(NodeId n, RowCol rc) const {
  const NodeInfo inf = info(n);
  switch (inf.kind) {
    case NodeKind::Logic:
      return rc == inf.tile ? inf.local : kInvalidLocalWire;
    case NodeKind::SingleH:
      if (rc == inf.tile) return single(Dir::East, inf.track);
      if (rc.row == inf.tile.row && rc.col == inf.tile.col + 1) {
        return single(Dir::West, inf.track);
      }
      return kInvalidLocalWire;
    case NodeKind::SingleV:
      if (rc == inf.tile) return single(Dir::North, inf.track);
      if (rc.col == inf.tile.col && rc.row == inf.tile.row + 1) {
        return single(Dir::South, inf.track);
      }
      return kInvalidLocalWire;
    case NodeKind::HexE:
    case NodeKind::HexW:
    case NodeKind::HexN:
    case NodeKind::HexS: {
      const Dir d = inf.kind == NodeKind::HexE   ? Dir::East
                    : inf.kind == NodeKind::HexW ? Dir::West
                    : inf.kind == NodeKind::HexN ? Dir::North
                                                 : Dir::South;
      const int dr = rc.row - inf.tile.row;
      const int dc = rc.col - inf.tile.col;
      const int along = dr * dirDRow(d) + dc * dirDCol(d);
      const int cross = dr * dirDCol(d) + dc * dirDRow(d);
      if (cross != 0) return kInvalidLocalWire;
      if (along == 0) return hex(d, HexTap::Beg, inf.track);
      if (along == kHexMid) return hex(d, HexTap::Mid, inf.track);
      if (along == kHexSpan) return hex(d, HexTap::End, inf.track);
      return kInvalidLocalWire;
    }
    case NodeKind::LongH:
      if (rc.row == inf.tile.row && longAccessibleAt(inf.track, rc.col)) {
        return longH(inf.track);
      }
      return kInvalidLocalWire;
    case NodeKind::LongV:
      if (rc.col == inf.tile.col && longAccessibleAt(inf.track, rc.row)) {
        return longV(inf.track);
      }
      return kInvalidLocalWire;
    case NodeKind::Gclk:
      return dev_.contains(rc) ? gclk(inf.track) : kInvalidLocalWire;
    case NodeKind::GclkPad:
      return kInvalidLocalWire;
    case NodeKind::IobIn:
      return rc == inf.tile ? iobIn(inf.track) : kInvalidLocalWire;
    case NodeKind::IobOut:
      return rc == inf.tile ? iobOut(inf.track) : kInvalidLocalWire;
    case NodeKind::BramOut:
      return rc == inf.tile ? bramDo(inf.track) : kInvalidLocalWire;
    case NodeKind::BramIn:
      if (rc != inf.tile) return kInvalidLocalWire;
      return inf.track < kBramPinsPerTile
                 ? bramDi(inf.track)
                 : bramAd(inf.track - kBramPinsPerTile);
  }
  return kInvalidLocalWire;
}

std::vector<RowCol> Graph::tapsOf(NodeId n) const {
  const NodeInfo inf = info(n);
  std::vector<RowCol> taps;
  switch (inf.kind) {
    case NodeKind::Logic:
      taps.push_back(inf.tile);
      break;
    case NodeKind::SingleH:
      taps.push_back(inf.tile);
      taps.push_back({inf.tile.row, static_cast<int16_t>(inf.tile.col + 1)});
      break;
    case NodeKind::SingleV:
      taps.push_back(inf.tile);
      taps.push_back({static_cast<int16_t>(inf.tile.row + 1), inf.tile.col});
      break;
    case NodeKind::HexE:
    case NodeKind::HexW:
    case NodeKind::HexN:
    case NodeKind::HexS: {
      const Dir d = inf.kind == NodeKind::HexE   ? Dir::East
                    : inf.kind == NodeKind::HexW ? Dir::West
                    : inf.kind == NodeKind::HexN ? Dir::North
                                                 : Dir::South;
      for (int off : {0, kHexMid, kHexSpan}) {
        taps.push_back({static_cast<int16_t>(inf.tile.row + off * dirDRow(d)),
                        static_cast<int16_t>(inf.tile.col + off * dirDCol(d))});
      }
      break;
    }
    case NodeKind::LongH:
      for (int c = 0; c < dev_.cols; ++c) {
        if (longAccessibleAt(inf.track, c)) {
          taps.push_back({inf.tile.row, static_cast<int16_t>(c)});
        }
      }
      break;
    case NodeKind::LongV:
      for (int r = 0; r < dev_.rows; ++r) {
        if (longAccessibleAt(inf.track, r)) {
          taps.push_back({static_cast<int16_t>(r), inf.tile.col});
        }
      }
      break;
    case NodeKind::Gclk:
    case NodeKind::GclkPad:
      break;  // addressable everywhere / nowhere
    case NodeKind::IobIn:
    case NodeKind::IobOut:
    case NodeKind::BramOut:
    case NodeKind::BramIn:
      taps.push_back(inf.tile);
      break;
  }
  return taps;
}

void Graph::buildNodeTable() {
  kind_.resize(numNodes_);
  tile_.resize(numNodes_);
  for (NodeId n = 0; n < numNodes_; ++n) {
    const NodeInfo inf = info(n);
    kind_[n] = inf.kind;
    tile_[n] = inf.tile;
  }
}

void Graph::buildOutEdges() {
  // Same-tile PIPs come from the tile's class pattern, one source-wire
  // group at a time; the source node is resolved once per group. An edge
  // stores its target, tile and source alias, and the target's template
  // value, read from a per-alias table by the name the PIP gives the
  // target; edgeSource and toLocalOf derive the rest.
  outOff_.assign(numNodes_ + 1, 0);
  const TilePatterns patterns(arch_);
  const auto resolve = [](NodeId n) {
    if (n == kInvalidNode) {
      throw JRouteError("PIP enumeration produced an unresolvable alias");
    }
    return n;
  };
  // Calls group(rc, fromNode, g) per (tile, source wire) group and
  // pip(from, to, rc, f, t) per direct connect and global pad PIP, in edge
  // order; `t` is the target's name at its own tile.
  const auto forAllPips = [&](auto&& group, auto&& pip) {
    for (int16_t r = 0; r < dev_.rows; ++r) {
      for (int16_t c = 0; c < dev_.cols; ++c) {
        const RowCol rc{r, c};
        for (const PipGroup& g : patterns.groups(patterns.classOf(rc))) {
          group(rc, resolve(nodeAt(rc, g.from)), g);
        }
        arch_.forEachDirectConnect(
            rc, [&](LocalWire f, RowCol dst, LocalWire t) {
              pip(resolve(nodeAt(rc, f)), resolve(nodeAt(dst, t)), rc, f, t);
            });
      }
    }
    for (int k = 0; k < kGlobalNets; ++k) {
      pip(gclkPad(k), gclkNet(k), RowCol{0, 0}, kInvalidLocalWire, gclk(k));
    }
  };

  // Pass 1: out-degree per node.
  forAllPips(
      [&](RowCol, NodeId from, const PipGroup& g) {
        outOff_[from + 1] += g.size();
      },
      [&](NodeId from, NodeId, RowCol, LocalWire, LocalWire) {
        ++outOff_[from + 1];
      });

  for (NodeId i = 0; i < numNodes_; ++i) outOff_[i + 1] += outOff_[i];
  const EdgeId numE = outOff_[numNodes_];
  edges_.resize(numE);

  // Pass 2: fill, using a moving cursor per node.
  std::array<uint32_t, kNumLocalWires> valueOf{};
  for (LocalWire w = 0; w < kNumLocalWires; ++w) {
    valueOf[w] = static_cast<uint32_t>(entryValue(w));
  }
  std::vector<uint32_t> cursor(outOff_.begin(), outOff_.end() - 1);
  const auto put = [&](NodeId from, NodeId to, RowCol rc, LocalWire f,
                       LocalWire t) {
    constexpr NodeId kToMask = (NodeId{1} << kEdgeNodeBits) - 1;
    edges_[cursor[from]++] =
        Edge{to & kToMask, valueOf[t] & 0xFu, static_cast<uint8_t>(rc.row),
             static_cast<uint8_t>(rc.col), f};
  };
  forAllPips(
      [&](RowCol rc, NodeId from, const PipGroup& g) {
        for (const LocalPip& p : patterns.pips(g)) {
          put(from, resolve(nodeAt(rc, p.to)), rc, p.from, p.to);
        }
      },
      put);

  sinkOnly_.assign((numNodes_ + 63) / 64, 0);
  for (NodeId n = 0; n < numNodes_; ++n) {
    if (outOff_[n] == outOff_[n + 1]) {
      sinkOnly_[n >> 6] |= uint64_t{1} << (n & 63);
    }
  }
}

EdgeId Graph::findEdge(NodeId from, NodeId to, RowCol rc) const {
  const auto o = out(from);
  for (const Edge& e : o) {
    if (e.to == to && pipTile(e) == rc) {
      return static_cast<EdgeId>(&e - edges_.data());
    }
  }
  return kInvalidEdge;
}

EdgeId Graph::findEdge(NodeId from, NodeId to) const {
  for (const Edge& e : out(from)) {
    if (e.to == to) return static_cast<EdgeId>(&e - edges_.data());
  }
  return kInvalidEdge;
}

void Graph::throwNoTravelDir() {
  throw ArgumentError("travelDir: node has no direction of travel");
}

std::string Graph::nodeName(NodeId n) const {
  const NodeInfo inf = info(n);
  const std::string loc = "R" + std::to_string(inf.tile.row) + "C" +
                          std::to_string(inf.tile.col) + ".";
  switch (inf.kind) {
    case NodeKind::Logic:
      return loc + wireName(inf.local);
    case NodeKind::SingleH:
      return loc + wireName(single(Dir::East, inf.track));
    case NodeKind::SingleV:
      return loc + wireName(single(Dir::North, inf.track));
    case NodeKind::HexE:
      return loc + wireName(hex(Dir::East, HexTap::Beg, inf.track));
    case NodeKind::HexW:
      return loc + wireName(hex(Dir::West, HexTap::Beg, inf.track));
    case NodeKind::HexN:
      return loc + wireName(hex(Dir::North, HexTap::Beg, inf.track));
    case NodeKind::HexS:
      return loc + wireName(hex(Dir::South, HexTap::Beg, inf.track));
    case NodeKind::LongH:
      return "R" + std::to_string(inf.tile.row) + "." +
             wireName(longH(inf.track));
    case NodeKind::LongV:
      return "C" + std::to_string(inf.tile.col) + "." +
             wireName(longV(inf.track));
    case NodeKind::Gclk:
      return wireName(gclk(inf.track));
    case NodeKind::GclkPad:
      return "GCLKPAD[" + std::to_string(inf.track) + "]";
    case NodeKind::IobIn:
      return loc + wireName(iobIn(inf.track));
    case NodeKind::IobOut:
      return loc + wireName(iobOut(inf.track));
    case NodeKind::BramOut:
      return loc + wireName(bramDo(inf.track));
    case NodeKind::BramIn:
      return loc + wireName(inf.track < kBramPinsPerTile
                                ? bramDi(inf.track)
                                : bramAd(inf.track - kBramPinsPerTile));
  }
  return "?";
}

size_t Graph::memoryBytes() const {
  return edges_.size() * sizeof(Edge) + outOff_.size() * sizeof(uint32_t) +
         kind_.size() * sizeof(NodeKind) + tile_.size() * sizeof(RowCol) +
         sinkOnly_.size() * sizeof(uint64_t) + sizeof(affine_);
}

}  // namespace xcvsim
