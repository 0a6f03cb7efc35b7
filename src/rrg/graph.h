// The routing-resource graph (RRG): canonical physical wire segments and
// the programmable interconnect points (PIPs) between them.
//
// Every physical segment is ONE node, however many tiles it is visible
// from: the single track between (5,7) and (5,8) is a single node that the
// per-tile namespace addresses as SingleEast[5]@(5,7) and
// SingleWest[5]@(5,8). Edges are directed PIPs; a bidirectional track
// simply has incoming edges at both of its end GRMs. Each edge remembers
// the tile whose switch box implements it, which (a) gives the bitstream a
// frame address and (b) lets the template engine compute the direction of
// travel.
//
// An edge stores its target, its tile, the source's alias there and the
// target's template value (8 bytes). The source node (edgeSource) and the
// target's alias (toLocalOf) are derived from them; there is no reverse
// index. The template value is derivable too (templateValueOf), but the
// template walk tests it on every out-edge it scans, so it is stored.
//
// Node id layout (contiguous ranges, O(1) in both directions):
//   logic pins        tile-major; local ids 0..41 coincide with arch ids
//   horiz singles     (row, chanCol in [0,W-1), track)
//   vert singles      (chanRow in [0,H-1), col, track)
//   hexes E/W/N/S     (row/col, origin along axis, track); not clamped at
//                     device edges, so origins keep the full 6-tile span
//   long lines        (row, track) and (col, track)
//   global nets       4 chip-wide nodes + 4 pad driver nodes
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "arch/arch_db.h"
#include "arch/template_value.h"
#include "common/types.h"

namespace xcvsim {

/// Physical classification of an RRG node.
enum class NodeKind : uint8_t {
  Logic,    // slice output, OMUX line, or CLB input pin of one tile
  SingleH,  // horizontal single-length track
  SingleV,  // vertical single-length track
  HexE,     // hex with origin driving east
  HexW,
  HexN,
  HexS,
  LongH,    // horizontal long line (full row)
  LongV,    // vertical long line (full column)
  Gclk,     // dedicated global clock net (chip-wide)
  GclkPad,  // driver pad of one global clock net
  IobIn,    // I/O block pad input buffer (drives the fabric)
  IobOut,   // I/O block pad output buffer (driven by the fabric)
  BramOut,  // block-RAM data output (drives the fabric)
  BramIn,   // block-RAM data/address input (driven by the fabric)
};

/// Decoded identity of a node.
struct NodeInfo {
  NodeKind kind;
  RowCol tile;       // logic: owning tile; segments: origin/anchor tile
  int track = 0;     // track / pin index
  LocalWire local = kInvalidLocalWire;  // logic nodes: the arch local id
};

/// Bits of Edge::to. Under the 255-row/column limit a device has about
/// 9M nodes, far below 2^28.
inline constexpr int kEdgeNodeBits = 28;

/// One directed PIP. Its source and the target's alias are derived
/// (Graph::edgeSource, Graph::toLocalOf); the target's template value
/// takes the top 4 bits of the target's word.
struct Edge {
  NodeId to : kEdgeNodeBits;
  uint32_t toValue : 4;  // TemplateValue of `to` entered through this PIP
  uint8_t tileRow;       // tile whose switch box implements this PIP
  uint8_t tileCol;
  LocalWire fromLocal;   // alias of the source node at that tile; invalid
                         // only for the global clock pad drivers

  /// Template value of the target when entered through this PIP, the
  /// value Graph::templateValueOf derives, stored at build.
  TemplateValue templateValue() const {
    return static_cast<TemplateValue>(toValue);
  }
};
static_assert(sizeof(Edge) == 8, "an edge is 8 bytes");
static_assert(kNumTemplateValues <= 16, "a template value fits 4 bits");

class Graph {
 public:
  /// Build the full RRG for a device. The ArchDb is the only source of PIP
  /// existence, so graph and description cannot diverge.
  explicit Graph(const DeviceSpec& dev);

  const DeviceSpec& device() const { return dev_; }
  const ArchDb& arch() const { return arch_; }

  NodeId numNodes() const { return numNodes_; }
  EdgeId numEdges() const { return static_cast<EdgeId>(edges_.size()); }

  /// Resolve a (tile, local wire) address to its canonical node, or
  /// kInvalidNode when the name does not exist at that tile.
  NodeId nodeAt(RowCol rc, LocalWire w) const;

  /// Decode a node id.
  NodeInfo info(NodeId n) const;

  /// Local alias of node `n` at tile `rc`, or kInvalidLocalWire when the
  /// node is not addressable there.
  LocalWire aliasAt(NodeId n, RowCol rc) const;

  /// Tiles at which node `n` is addressable (tap points). Logic nodes have
  /// one; singles two; hexes three; long lines every access tile; globals
  /// every tile (reported as the empty span, query aliasAt directly).
  std::vector<RowCol> tapsOf(NodeId n) const;

  /// Kind of node `n`, read from the per-node table (no id decode).
  NodeKind kindOf(NodeId n) const { return kind_[n]; }
  /// Owning/origin tile of node `n` (info(n).tile), from the same table.
  RowCol tileOf(NodeId n) const { return tile_[n]; }

  /// Representative tile for distance heuristics (segment midpoint).
  RowCol positionOf(NodeId n) const {
    const RowCol t = tile_[n];
    switch (kind_[n]) {
      case NodeKind::HexE:
        return {t.row, static_cast<int16_t>(t.col + kHexMid)};
      case NodeKind::HexW:
        return {t.row, static_cast<int16_t>(t.col - kHexMid)};
      case NodeKind::HexN:
        return {static_cast<int16_t>(t.row + kHexMid), t.col};
      case NodeKind::HexS:
        return {static_cast<int16_t>(t.row - kHexMid), t.col};
      case NodeKind::LongH:
        return {t.row, static_cast<int16_t>(dev_.cols / 2)};
      case NodeKind::LongV:
        return {static_cast<int16_t>(dev_.rows / 2), t.col};
      default:
        return t;
    }
  }

  /// Outgoing PIPs of `n`.
  std::span<const Edge> out(NodeId n) const {
    return {edges_.data() + outOff_[n], outOff_[n + 1] - outOff_[n]};
  }

  /// True when `n` drives no PIP (a CLB or block-RAM input, an IOB
  /// output): a route can only end on it. One bit per node, built with the
  /// edges, so a search reads it without touching the edge offsets.
  bool isSinkOnly(NodeId n) const {
    return (sinkOnly_[n >> 6] >> (n & 63)) & 1;
  }

  /// The ids of out(n) are the contiguous range [outBegin(n), outEnd(n)).
  EdgeId outBegin(NodeId n) const { return outOff_[n]; }
  EdgeId outEnd(NodeId n) const { return outOff_[n + 1]; }

  /// The edge record for an edge id.
  const Edge& edge(EdgeId e) const { return edges_[e]; }

  /// Tile whose switch box implements `e`.
  static RowCol pipTile(const Edge& e) {
    return {static_cast<int16_t>(e.tileRow), static_cast<int16_t>(e.tileCol)};
  }

  /// Source node of an edge: the node its fromLocal names at its tile. A
  /// global clock pad driver has no alias; its source is the pad of the
  /// net it drives.
  NodeId edgeSource(EdgeId e) const {
    const Edge& ed = edges_[e];
    // The alias exists at the edge's tile, so nodeAt's existence checks
    // are skipped for every wire with an affine address.
    if (ed.fromLocal < kIobInBase) return affineAt(ed.fromLocal, pipTile(ed));
    if (ed.fromLocal == kInvalidLocalWire) {
      return gclkPadBase_ + (ed.to - gclkBase_);
    }
    return nodeAt(pipTile(ed), ed.fromLocal);  // IOB and block-RAM pins
  }

  /// Alias of the target of `e` at its pip tile, the name the bitstream
  /// writes. A logic target (a direct connect's neighbour pin included)
  /// carries its local id in its node id.
  LocalWire toLocalOf(const Edge& e) const {
    if (kind_[e.to] == NodeKind::Logic) {
      return static_cast<LocalWire>(e.to % kSingleBase);
    }
    return aliasAt(e.to, pipTile(e));
  }

  /// True for a direct connect: the target is a logic pin of another tile.
  bool isDirectConnect(const Edge& e) const {
    return kind_[e.to] == NodeKind::Logic && tile_[e.to] != pipTile(e);
  }

  /// Find an edge from -> to implemented at tile rc; kInvalidEdge if none.
  EdgeId findEdge(NodeId from, NodeId to, RowCol rc) const;

  /// Find any edge from -> to; kInvalidEdge if none.
  EdgeId findEdge(NodeId from, NodeId to) const;

  /// Edge id of the PIP record `e` within out(edgeSource).
  EdgeId edgeIdOf(NodeId from, const Edge& e) const {
    return static_cast<EdgeId>(&e - edges_.data() + 0 * from);
  }

  /// Direction a signal travels on segment `n` when driven from tile
  /// `fromTile`. Only meaningful for singles and hexes.
  Dir travelDir(NodeId n, RowCol fromTile) const {
    const bool atOrigin = fromTile == tile_[n];
    switch (kind_[n]) {
      case NodeKind::SingleH:
      case NodeKind::HexE:
        return atOrigin ? Dir::East : Dir::West;
      case NodeKind::SingleV:
      case NodeKind::HexN:
        return atOrigin ? Dir::North : Dir::South;
      case NodeKind::HexW:
        return atOrigin ? Dir::West : Dir::East;
      case NodeKind::HexS:
        return atOrigin ? Dir::South : Dir::North;
      default:
        throwNoTravelDir();
    }
  }

  /// Template value of node `n` when entered through edge `e` (the
  /// paper's direction-x-resource classification, direction of travel
  /// resolved for bidirectional resources). The reference derivation: the
  /// build stores the same value in every edge from a per-alias table,
  /// and routing reads that (Edge::templateValue).
  TemplateValue templateValueOf(NodeId n, const Edge& e) const {
    const RowCol entry = pipTile(e);
    switch (kind_[n]) {
      case NodeKind::Logic: {
        // Logic ids are tile-major with the arch local id as remainder.
        const NodeId local = n % kSingleBase;
        return local >= kOmuxBase && local < kClbInBase
                   ? TemplateValue::OUTMUX
                   : TemplateValue::CLBIN;
      }
      case NodeKind::SingleH:
      case NodeKind::SingleV:
        return singleValue(travelDir(n, entry));
      case NodeKind::HexE:
      case NodeKind::HexW:
      case NodeKind::HexN:
      case NodeKind::HexS:
        return hexValue(travelDir(n, entry));
      case NodeKind::LongH:
        return TemplateValue::LONGH;
      case NodeKind::LongV:
        return TemplateValue::LONGV;
      case NodeKind::Gclk:
      case NodeKind::GclkPad:
        return TemplateValue::GCLKNET;
      case NodeKind::IobIn:
      case NodeKind::IobOut:
        return TemplateValue::IOPAD;
      case NodeKind::BramOut:
      case NodeKind::BramIn:
        return TemplateValue::BRAMPORT;
    }
    return TemplateValue::CLBIN;
  }

  /// Debug name, e.g. "R5C7.SingleEast[5]" (canonical alias).
  std::string nodeName(NodeId n) const;

  /// Intrinsic signal delay of a node (fabric timing model).
  DelayPs nodeDelay(NodeId n) const {
    return kKindDelay[static_cast<size_t>(kind_[n])];
  }

  /// Approximate memory footprint of the graph in bytes.
  size_t memoryBytes() const;

  // Range bases, exposed for white-box tests.
  NodeId logicBase() const { return 0; }
  NodeId hSingleBase() const { return hSingleBase_; }
  NodeId vSingleBase() const { return vSingleBase_; }
  NodeId gclkBase() const { return gclkBase_; }
  NodeId gclkPadBase() const { return gclkPadBase_; }

  /// The pad node driving global net k.
  NodeId gclkPad(int k) const { return gclkPadBase_ + static_cast<NodeId>(k); }
  /// The chip-wide global net node k.
  NodeId gclkNet(int k) const { return gclkBase_ + static_cast<NodeId>(k); }

  /// Perimeter index of a boundary tile (0 .. numBoundaryTiles), used to
  /// number the I/O ring; -1 for interior tiles.
  int perimeterIndex(RowCol rc) const;
  /// Number of tiles carrying I/O blocks.
  int numBoundaryTiles() const;

 private:
  // Nominal Virtex-class interconnect delays per NodeKind; the timing
  // model only needs relative magnitudes (single < hex < long) to be
  // realistic. Block-RAM ports are a port register, IOBs a pad buffer.
  static constexpr DelayPs kKindDelay[] = {
      80,    // Logic
      350,   // SingleH
      350,   // SingleV
      700,   // HexE
      700,   // HexW
      700,   // HexN
      700,   // HexS
      1200,  // LongH
      1200,  // LongV
      900,   // Gclk
      0,     // GclkPad
      600,   // IobIn
      600,   // IobOut
      800,   // BramOut
      800,   // BramIn
  };

  [[noreturn]] static void throwNoTravelDir();

  /// Node of local wire `w` at tile `rc`, for a logic, single, hex, long or
  /// global wire that exists there: affine in (row, col). IOB and block-RAM
  /// pins are numbered around the perimeter and have no such form.
  NodeId affineAt(LocalWire w, RowCol rc) const {
    const Affine& m = affine_[w];
    return static_cast<NodeId>(m.k + int64_t{rc.row} * m.a +
                               int64_t{rc.col} * m.b);
  }

  void assignRanges();
  void buildAffineAliases();
  void buildNodeTable();
  void buildOutEdges();

  DeviceSpec dev_;
  ArchDb arch_;

  // Range bases (see header comment).
  NodeId hSingleBase_ = 0, vSingleBase_ = 0;
  NodeId hexEBase_ = 0, hexWBase_ = 0, hexNBase_ = 0, hexSBase_ = 0;
  NodeId longHBase_ = 0, longVBase_ = 0;
  NodeId gclkBase_ = 0, gclkPadBase_ = 0;
  NodeId iobInBase_ = 0, iobOutBase_ = 0;
  NodeId bramOutBase_ = 0, bramInBase_ = 0;
  NodeId numNodes_ = 0;

  // nodeAt's address arithmetic, per local wire: node = k + row*a + col*b
  // wherever the wire exists (see affineAt).
  struct Affine {
    int64_t k = 0;
    int32_t a = 0, b = 0;
  };
  std::array<Affine, kNumLocalWires> affine_{};

  // Per-node kind and tile, decoded once so the hot paths (template walk,
  // maze, lookahead) never repeat info()'s chain of divisions.
  std::vector<NodeKind> kind_;
  std::vector<RowCol> tile_;

  std::vector<Edge> edges_;       // grouped by source node (CSR payload)
  std::vector<uint32_t> outOff_;  // numNodes_+1 offsets into edges_
  std::vector<uint64_t> sinkOnly_;  // isSinkOnly, one bit per node
};

}  // namespace xcvsim
