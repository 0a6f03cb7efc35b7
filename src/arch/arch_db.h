// The architecture description class of the paper (section 3):
//
//   "There is a Java class in which all of the architecture information is
//    held. In this class each wire is defined by a unique integer. Also in
//    this class the possible template values are defined, along with which
//    template value each wire can be classified under. ... Also in this
//    Java class is a description of each wire, including how long it is,
//    its direction, which wires can drive it, and which wires it can
//    drive."
//
// ArchDb answers exactly those queries for one device, and additionally is
// the single source of truth for PIP existence: the routing-resource graph
// builder enumerates PIPs through forEachTilePip()/forEachDirectConnect()
// (the former once per tile class, see tile_patterns.h), so the graph and
// the description can never diverge.
#pragma once

#include <functional>
#include <vector>

#include "arch/device.h"
#include "arch/template_value.h"
#include "arch/wires.h"
#include "common/types.h"

namespace xcvsim {

/// Static description of one local wire (device-independent part).
struct WireInfo {
  WireKind kind;
  int index;   // track / pin / OUT number within its range
  int length;  // tiles spanned end to end (0 for pins, device-dep for longs)
};

class ArchDb {
 public:
  explicit ArchDb(const DeviceSpec& dev) : dev_(dev) {}

  const DeviceSpec& device() const { return dev_; }

  /// Description of a wire: kind, index, length.
  WireInfo wireInfo(LocalWire w) const;

  /// Does local name `w` denote an existing resource at tile `rc`?
  /// (Channel and hex names near device edges, and long-line names away
  /// from access tiles, do not.)
  bool existsAt(RowCol rc, LocalWire w) const;

  /// Origin tile of the hex segment named by hex alias `w` at `rc`.
  /// Precondition: wireKind(w) == Hex and existsAt(rc, w).
  RowCol hexOrigin(RowCol rc, LocalWire w) const;

  /// Enumerate every same-tile PIP at `rc` as (from, to) local-wire pairs.
  /// Direct connects (which cross tiles) are not included; see
  /// forEachDirectConnect.
  void forEachTilePip(
      RowCol rc, const std::function<void(LocalWire, LocalWire)>& cb) const;

  /// Enumerate the dedicated direct-connect PIPs whose source output pin is
  /// at `rc`: (fromLocal, destination tile, toLocal).
  void forEachDirectConnect(
      RowCol rc,
      const std::function<void(LocalWire, RowCol, LocalWire)>& cb) const;

  /// Same-tile PIP legality: may `from` drive `to` at tile `rc`?
  bool canDrive(RowCol rc, LocalWire from, LocalWire to) const;

  /// All wires `w` can drive at `rc` (same tile), the paper's
  /// "which wires it can drive".
  std::vector<LocalWire> drives(RowCol rc, LocalWire w) const;

  /// All wires that can drive `w` at `rc`, the paper's
  /// "which wires can drive it".
  std::vector<LocalWire> drivenBy(RowCol rc, LocalWire w) const;

 private:
  DeviceSpec dev_;
};

}  // namespace xcvsim
