#include "plan/lint.h"

#include <algorithm>
#include <sstream>

#include "arch/wires.h"

namespace jrplan {

using xcvsim::DeviceSpec;
using xcvsim::kNumLocalWires;

const char* specOpName(SpecOp op) {
  switch (op) {
    case SpecOp::kP2P: return "p2p";
    case SpecOp::kFanout: return "fanout";
    case SpecOp::kBus: return "bus";
    case SpecOp::kUnroute: return "unroute";
    case SpecOp::kReconnect: return "reconnect";
  }
  return "?";
}

namespace {

using jrcheck::RuleSink;
using jrcheck::Severity;

/// "request 12 (3,3,S1_YQ)": the event index, then what the finding is
/// about (a pin, or the event's origin).
std::string at(const LintStep& s, const std::string& what) {
  return "request " + std::to_string(s.index) + " " + what;
}

bool pinOk(const DeviceSpec& dev, const Pin& p) {
  return dev.contains(p.rc) && p.wire < kNumLocalWires;
}

Pin pinFromKey(uint64_t key) {
  return Pin(static_cast<int16_t>((key >> 32) & 0xFFFF),
             static_cast<int16_t>((key >> 16) & 0xFFFF),
             static_cast<xcvsim::LocalWire>(key & 0xFFFF));
}

/// The (src, sink) net pairs an event asks for, in service order.
std::vector<std::pair<Pin, Pin>> routePairs(const RouteSpec& s) {
  std::vector<std::pair<Pin, Pin>> pairs;
  switch (s.op) {
    case SpecOp::kP2P:
    case SpecOp::kFanout:
      if (s.srcs.empty()) break;
      for (const Pin& sink : s.sinks) pairs.emplace_back(s.srcs[0], sink);
      break;
    case SpecOp::kBus: {
      const size_t n = std::min(s.srcs.size(), s.sinks.size());
      for (size_t i = 0; i < n; ++i) pairs.emplace_back(s.srcs[i], s.sinks[i]);
      break;
    }
    case SpecOp::kUnroute:
      break;
    case SpecOp::kReconnect:
      if (!s.srcs.empty() && !s.sinks.empty()) {
        pairs.emplace_back(s.srcs[0], s.sinks[0]);
      }
      break;
  }
  return pairs;
}

// ---- rules ----------------------------------------------------------

void checkMalformed(const LintStep& st, RuleSink& out) {
  const DeviceSpec& dev = st.dev;
  const RouteSpec& s = st.event.spec;
  const std::string request = at(st, "(" + st.event.origin + ")");
  if (s.srcs.empty()) {
    out.add(request,
            std::string(specOpName(s.op)) + " request has no source pins",
            "every request needs at least one source");
    return;
  }
  if (s.op != SpecOp::kUnroute && s.sinks.empty()) {
    out.add(request,
            std::string(specOpName(s.op)) + " request has no sink pins",
            "route requests need a sink for every net");
  }
  if (s.op == SpecOp::kBus && s.srcs.size() != s.sinks.size()) {
    out.add(request,
            "bus width mismatch: " + std::to_string(s.srcs.size()) +
                " sources vs " + std::to_string(s.sinks.size()) + " sinks",
            "a bus routes srcs[i] -> sinks[i]; widths must match");
  }
  auto checkPin = [&](const Pin& p, const char* role) {
    if (!dev.contains(p.rc)) {
      out.add(at(st, pinName(p)),
              std::string(role) + " pin is outside the " +
                  std::string(dev.name) + " tile grid",
              "device is " + std::to_string(dev.rows) + "x" +
                  std::to_string(dev.cols) + " tiles");
    } else if (p.wire >= kNumLocalWires) {
      out.add(at(st, pinName(p)),
              std::string(role) + " pin has an invalid local wire id",
              "wire ids are 0.." + std::to_string(kNumLocalWires - 1));
    }
  };
  for (const Pin& p : s.srcs) checkPin(p, "source");
  for (const Pin& p : s.sinks) checkPin(p, "sink");
}

void checkDoubleClaim(const LintStep& st, RuleSink& out) {
  // Claiming a sink pin that another net already drives. Same-session
  // collisions are warnings — scripts provoke them deliberately (the
  // anomaly smoke) and the service handles them with one clean reject —
  // while cross-session collisions are errors: one session's workload
  // silently degrades another's.
  std::unordered_map<uint64_t, uint64_t> localSinks;
  for (const auto& [src, sink] : routePairs(st.event.spec)) {
    if (!pinOk(st.dev, src) || !pinOk(st.dev, sink)) continue;
    const uint64_t srcKey = LintState::pinKey(src);
    const uint64_t sinkKey = LintState::pinKey(sink);
    const auto used = st.state.usedSinks.find(sinkKey);
    if (used != st.state.usedSinks.end() && used->second != srcKey) {
      const auto net = st.state.live.find(used->second);
      const std::string owner =
          net != st.state.live.end() ? net->second.session : "?";
      const bool sameSession = owner == st.event.session;
      out.add(sameSession ? Severity::kWarning : Severity::kError,
              at(st, pinName(sink)),
              "sink is already driven by " + owner + "'s net at " +
                  pinName(pinFromKey(used->second)),
              sameSession ? "the service will reject this route with a "
                            "contention anomaly"
                          : "pick a free sink or unroute the owner first");
    }
    const auto local = localSinks.find(sinkKey);
    if (local != localSinks.end() && local->second != srcKey) {
      out.add(at(st, pinName(sink)),
              "two nets of this request target the same sink",
              "bus/fanout sinks must be distinct per net");
    }
    localSinks.emplace(sinkKey, srcKey);
  }
}

void checkNotOwner(const LintStep& st, RuleSink& out) {
  auto check = [&](const Pin& src, const char* what) {
    if (!pinOk(st.dev, src)) return;
    const auto it = st.state.live.find(LintState::pinKey(src));
    if (it != st.state.live.end() && it->second.session != st.event.session) {
      out.add(at(st, pinName(src)),
              std::string(what) + " a net owned by " + it->second.session,
              "sessions may only touch nets they routed");
    }
  };
  const RouteSpec& spec = st.event.spec;
  switch (spec.op) {
    case SpecOp::kUnroute:
      for (const Pin& src : spec.srcs) check(src, "unroutes");
      break;
    case SpecOp::kReconnect:
      if (!spec.srcs.empty()) check(spec.srcs[0], "reconnects");
      break;
    default: {
      std::unordered_set<uint64_t> seen;
      for (const auto& pair : routePairs(spec)) {
        if (pinOk(st.dev, pair.first) &&
            seen.insert(LintState::pinKey(pair.first)).second) {
          check(pair.first, "extends");
        }
      }
      break;
    }
  }
}

void checkUnrouteDead(const LintStep& st, RuleSink& out) {
  if (st.event.spec.op != SpecOp::kUnroute) return;
  for (const Pin& src : st.event.spec.srcs) {
    if (!pinOk(st.dev, src)) continue;
    const uint64_t key = LintState::pinKey(src);
    if (st.state.live.count(key)) continue;
    const bool torn = st.state.everRouted.count(key) != 0;
    out.add(at(st, pinName(src)),
            torn ? "unroute of a net that was already torn down"
                 : "unroute of a net that was never routed",
            torn ? "drop the duplicate unroute"
                 : "route the net before unrouting it");
  }
}

void checkReconnectMissing(const LintStep& st, RuleSink& out) {
  const RouteSpec& spec = st.event.spec;
  if (spec.op != SpecOp::kReconnect || spec.srcs.empty()) return;
  const Pin& src = spec.srcs[0];
  if (!pinOk(st.dev, src)) return;
  if (st.state.live.count(LintState::pinKey(src))) return;
  out.add(at(st, pinName(src)),
          "reconnect of a core output that drives no net",
          "reconnect tears down and re-routes an existing net; route it "
          "first");
}

const LintRule kRules[] = {
    {"lint-malformed", "", Severity::kError,
     "requests are structurally valid: sources, sinks, bus widths, pins "
     "on the device",
     nullptr, checkMalformed},
    {"lint-double-claim", "", Severity::kError,
     "no sink pin is claimed by two nets (same-session collisions warn, "
     "cross-session collisions fail)",
     nullptr, checkDoubleClaim},
    {"lint-not-owner", "", Severity::kError,
     "sessions only extend, unroute, or reconnect nets they own", nullptr,
     checkNotOwner},
    {"lint-unroute-dead", "", Severity::kError,
     "unroutes target a currently routed net", nullptr, checkUnrouteDead},
    {"lint-reconnect-missing", "", Severity::kError,
     "reconnects target an existing net/core output", nullptr,
     checkReconnectMissing},
};

/// Interpreter transition: apply only the effects the service would
/// accept, so one early defect does not cascade into spurious findings
/// downstream. A route event is all-or-nothing, as the service's RouteTxn
/// is: one refused pair (a pin off the device, another session's net, a
/// sink another net drives, two nets of the event on one sink) and none
/// of its pairs is applied.
void apply(const DeviceSpec& dev, LintState& st, const LintEvent& ev) {
  auto unrouteOne = [&](const Pin& src) {
    if (!pinOk(dev, src)) return;
    const auto it = st.live.find(LintState::pinKey(src));
    if (it == st.live.end() || it->second.session != ev.session) return;
    for (uint64_t sinkKey : it->second.sinks) st.usedSinks.erase(sinkKey);
    st.live.erase(it);
  };
  if (ev.spec.op == SpecOp::kUnroute) {
    for (const Pin& src : ev.spec.srcs) unrouteOne(src);
    return;
  }
  if (ev.spec.op == SpecOp::kReconnect && !ev.spec.srcs.empty()) {
    unrouteOne(ev.spec.srcs[0]);
  }
  const auto pairs = routePairs(ev.spec);
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto& [src, sink] = pairs[i];
    if (!pinOk(dev, src) || !pinOk(dev, sink)) return;
    const uint64_t srcKey = LintState::pinKey(src);
    const uint64_t sinkKey = LintState::pinKey(sink);
    const auto owner = st.live.find(srcKey);
    if (owner != st.live.end() && owner->second.session != ev.session) return;
    const auto used = st.usedSinks.find(sinkKey);
    if (used != st.usedSinks.end() && used->second != srcKey) return;
    for (size_t j = 0; j < i; ++j) {
      if (pairs[j].second == sink && pairs[j].first != src) return;
    }
  }
  for (const auto& [src, sink] : pairs) {
    const uint64_t srcKey = LintState::pinKey(src);
    const uint64_t sinkKey = LintState::pinKey(sink);
    if (st.usedSinks.count(sinkKey)) continue;  // already routed: idempotent
    LintState::NetState& net = st.live[srcKey];
    if (net.session.empty()) net.session = ev.session;
    net.sinks.push_back(sinkKey);
    st.usedSinks.emplace(sinkKey, srcKey);
    st.everRouted.insert(srcKey);
  }
}

}  // namespace

std::string pinName(const Pin& p) {
  std::ostringstream os;
  os << '(' << p.rc.row << ',' << p.rc.col << ',';
  if (p.wire < kNumLocalWires) {
    os << xcvsim::wireName(p.wire);
  } else {
    os << 'w' << p.wire;
  }
  os << ')';
  return os.str();
}

std::span<const LintRule> lintRules() { return kRules; }

jrcheck::Report lintEvents(const xcvsim::DeviceSpec& dev,
                           const std::vector<LintEvent>& events) {
  jrcheck::Report report("lint", std::string(dev.name), {"events"});
  jrcheck::Runner<LintStep> runner(lintRules(), report);
  LintState st;
  for (size_t i = 0; i < events.size(); ++i) {
    runner.step(LintStep{dev, st, events[i], static_cast<int>(i)});
    apply(dev, st, events[i]);
  }
  runner.finish();
  report.count("events") = events.size();
  return report;
}

}  // namespace jrplan
