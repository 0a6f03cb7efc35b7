// Pins, Ports, and EndPoints — the addressing vocabulary of the JRoute API.
//
// "An EndPoint is either a Pin, defined by a row, column, and wire, or a
// Port... To the user there is no distinction between a physical pin,
// defined as location and wire, and a logical port as they are both
// derived from the EndPoint class." (sections 3.1-3.2)
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/types.h"

namespace jroute {

using xcvsim::LocalWire;
using xcvsim::RowCol;

/// A physical pin: a wire at a specific row and column.
struct Pin {
  RowCol rc;
  LocalWire wire = xcvsim::kInvalidLocalWire;

  Pin() = default;
  Pin(int row, int col, LocalWire w)
      : rc{static_cast<int16_t>(row), static_cast<int16_t>(col)}, wire(w) {}
  Pin(RowCol loc, LocalWire w) : rc(loc), wire(w) {}

  friend bool operator==(const Pin&, const Pin&) = default;
};

/// Whether a port is a signal producer or consumer for its core.
enum class PortDir : uint8_t { Output, Input };

/// A port: a virtual pin providing an input or output point to a core.
/// Cores bind ports to their internal physical pins; the router translates
/// a port to its pin list when it encounters one. Ports carry their group
/// name (every port must be in a group, section 3.2).
class Port {
 public:
  Port(std::string name, PortDir dir, std::string group)
      : name_(std::move(name)), dir_(dir), group_(std::move(group)) {}

  const std::string& name() const { return name_; }
  PortDir dir() const { return dir_; }
  const std::string& group() const { return group_; }

  /// Bind an internal pin. Output ports bind exactly one driving pin;
  /// input ports may bind several sinks.
  void bindPin(Pin pin) { pins_.push_back(pin); }
  void clearPins() { pins_.clear(); }
  const std::vector<Pin>& pins() const { return pins_; }

  /// Relocate all bound pins by a tile offset (core relocation support).
  void relocate(int dRow, int dCol) {
    for (Pin& p : pins_) {
      p.rc.row = static_cast<int16_t>(p.rc.row + dRow);
      p.rc.col = static_cast<int16_t>(p.rc.col + dCol);
    }
  }

 private:
  std::string name_;
  PortDir dir_;
  std::string group_;
  std::vector<Pin> pins_;
};

/// Either a Pin or a Port. Ports are referenced, not owned: the core that
/// defined the port keeps it alive for as long as routes mention it.
class EndPoint {
 public:
  EndPoint() = default;
  EndPoint(Pin pin) : pin_(pin) {}  // NOLINT: implicit by design, like the paper
  EndPoint(Port& port) : port_(&port) {}  // NOLINT

  bool isPin() const { return port_ == nullptr; }
  bool isPort() const { return port_ != nullptr; }

  const Pin& pin() const { return pin_; }
  Port& port() const { return *port_; }

  /// The physical pins this endpoint stands for: itself for a Pin, the
  /// bound pin list for a Port. A view: valid while this endpoint lives
  /// and, for a Port, until its pins are rebound.
  std::span<const Pin> resolve() const {
    if (isPin()) return {&pin_, 1};
    return port_->pins();
  }

  friend bool operator==(const EndPoint& a, const EndPoint& b) {
    return a.port_ == b.port_ && (a.port_ != nullptr || a.pin_ == b.pin_);
  }

 private:
  Pin pin_{};
  Port* port_ = nullptr;
};

}  // namespace jroute
