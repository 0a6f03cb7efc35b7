// jrplan workload linter: static semantic checks over a request stream
// before it runs. A 10^5-request jrload session or a scripted jrsh
// session can carry defects — unrouting a net that was never routed,
// claiming a sink twice, reconnecting a missing core, touching another
// session's net — that only surface as rejects deep into the run. The
// linter interprets the stream symbolically (net ownership, sink usage,
// teardown history) and reports deterministic findings through the
// checkers' shared findings model (src/check): each rule is a
// jrcheck::Rule<LintStep> run once per event, and every finding's
// entity names the request index ("request 12 (3,3,S1_YQ)").
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "arch/device.h"
#include "check/check.h"
#include "core/endpoint.h"

namespace jrplan {

using jroute::Pin;

/// Request kinds jrplan understands — mirrors the service ops plus the
/// workload stream's reconnect (unroute srcs[0], route srcs[0]→sinks[0]).
enum class SpecOp : uint8_t { kP2P, kFanout, kBus, kUnroute, kReconnect };

const char* specOpName(SpecOp op);

/// A request reduced to what the linter needs: the op and the physical
/// pins. The linter builds them from scripts and streams.
struct RouteSpec {
  SpecOp op = SpecOp::kP2P;
  std::vector<Pin> srcs;
  std::vector<Pin> sinks;
};

/// One event of the linted stream: a session-tagged RouteSpec plus where
/// it came from ("line 12", "event 4081") for the report.
struct LintEvent {
  std::string session;
  RouteSpec spec;
  std::string origin;
};

/// Symbolic interpreter state threaded through the stream. Rules read
/// it; the interpreter (lintEvents) updates it after each event, only
/// for the effects the service would actually accept (a route event
/// all or nothing, as the service's RouteTxn commits it).
class LintState {
 public:
  struct NetState {
    std::string session;
    std::vector<uint64_t> sinks;
  };

  static uint64_t pinKey(const Pin& p) {
    return (static_cast<uint64_t>(static_cast<uint16_t>(p.rc.row)) << 32) |
           (static_cast<uint64_t>(static_cast<uint16_t>(p.rc.col)) << 16) |
           p.wire;
  }

  std::unordered_map<uint64_t, NetState> live;       ///< src pin → net
  std::unordered_map<uint64_t, uint64_t> usedSinks;  ///< sink pin → src pin
  std::unordered_set<uint64_t> everRouted;           ///< src pins, all time
};

/// What a lint rule sees: one event, its index in the stream, and the
/// interpreter state before it.
struct LintStep {
  const xcvsim::DeviceSpec& dev;
  const LintState& state;
  const LintEvent& event;
  int index;
};

using LintRule = jrcheck::Rule<LintStep>;

/// The rule catalogue, in run order.
std::span<const LintRule> lintRules();

/// Lint a stream of events against a device. Deterministic: same input,
/// same findings in the same order.
jrcheck::Report lintEvents(const xcvsim::DeviceSpec& dev,
                           const std::vector<LintEvent>& events);

std::string pinName(const Pin& p);

}  // namespace jrplan
