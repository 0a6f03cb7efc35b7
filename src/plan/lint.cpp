#include "plan/lint.h"

#include <algorithm>
#include <sstream>

#include "arch/wires.h"
#include "obs/jsonutil.h"

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

/// Mirrors jrverify's cap: a systemic defect in a 10^5-event stream
/// would otherwise drown the report in one rule's findings.
constexpr size_t kMaxFindingsPerRule = 8;

void addFinding(const LintRule& rule, LintReport& out, Severity sev,
                int request, std::string entity, std::string message,
                std::string hint) {
  size_t count = 0;
  for (const Finding& f : out.findings) {
    if (f.rule == rule.id) ++count;
  }
  if (count >= kMaxFindingsPerRule) return;
  out.findings.push_back(Finding{rule.id, sev, request, std::move(entity),
                                 std::move(message), std::move(hint)});
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

extern const LintRule kMalformed;
extern const LintRule kDoubleClaim;
extern const LintRule kNotOwner;
extern const LintRule kUnrouteDead;
extern const LintRule kReconnectMissing;

void checkMalformed(const DeviceSpec& dev, const LintState&,
                    const LintEvent& ev, int idx, LintReport& out) {
  const RouteSpec& s = ev.spec;
  if (s.srcs.empty()) {
    addFinding(kMalformed, out, Severity::kError, idx, ev.origin,
               std::string(specOpName(s.op)) + " request has no source pins",
               "every request needs at least one source");
    return;
  }
  if (s.op != SpecOp::kUnroute && s.sinks.empty()) {
    addFinding(kMalformed, out, Severity::kError, idx, ev.origin,
               std::string(specOpName(s.op)) + " request has no sink pins",
               "route requests need a sink for every net");
  }
  if (s.op == SpecOp::kBus && s.srcs.size() != s.sinks.size()) {
    addFinding(kMalformed, out, Severity::kError, idx, ev.origin,
               "bus width mismatch: " + std::to_string(s.srcs.size()) +
                   " sources vs " + std::to_string(s.sinks.size()) + " sinks",
               "a bus routes srcs[i] -> sinks[i]; widths must match");
  }
  auto checkPin = [&](const Pin& p, const char* role) {
    if (!dev.contains(p.rc)) {
      addFinding(kMalformed, out, Severity::kError, idx, pinName(p),
                 std::string(role) + " pin is outside the " +
                     std::string(dev.name) + " tile grid",
                 "device is " + std::to_string(dev.rows) + "x" +
                     std::to_string(dev.cols) + " tiles");
    } else if (p.wire >= kNumLocalWires) {
      addFinding(kMalformed, out, Severity::kError, idx, pinName(p),
                 std::string(role) + " pin has an invalid local wire id",
                 "wire ids are 0.." + std::to_string(kNumLocalWires - 1));
    }
  };
  for (const Pin& p : s.srcs) checkPin(p, "source");
  for (const Pin& p : s.sinks) checkPin(p, "sink");
}

void checkDoubleClaim(const DeviceSpec& dev, const LintState& st,
                      const LintEvent& ev, int idx, LintReport& out) {
  // Claiming a sink pin that another net already drives. Same-session
  // collisions are warnings — scripts provoke them deliberately (the
  // anomaly smoke) and the service handles them with one clean reject —
  // while cross-session collisions are errors: one session's workload
  // silently degrades another's.
  std::unordered_map<uint64_t, uint64_t> localSinks;
  for (const auto& [src, sink] : routePairs(ev.spec)) {
    if (!pinOk(dev, src) || !pinOk(dev, sink)) continue;
    const uint64_t srcKey = LintState::pinKey(src);
    const uint64_t sinkKey = LintState::pinKey(sink);
    const auto used = st.usedSinks.find(sinkKey);
    if (used != st.usedSinks.end() && used->second != srcKey) {
      const auto net = st.live.find(used->second);
      const std::string owner =
          net != st.live.end() ? net->second.session : "?";
      const bool sameSession = owner == ev.session;
      addFinding(kDoubleClaim, out,
                 sameSession ? Severity::kWarning : Severity::kError, idx,
                 pinName(sink),
                 "sink is already driven by " + owner + "'s net at " +
                     pinName(pinFromKey(used->second)),
                 sameSession ? "the service will reject this route with a "
                               "contention anomaly"
                             : "pick a free sink or unroute the owner first");
    }
    const auto local = localSinks.find(sinkKey);
    if (local != localSinks.end() && local->second != srcKey) {
      addFinding(kDoubleClaim, out, Severity::kError, idx, pinName(sink),
                 "two nets of this request target the same sink",
                 "bus/fanout sinks must be distinct per net");
    }
    localSinks.emplace(sinkKey, srcKey);
  }
}

void checkNotOwner(const DeviceSpec& dev, const LintState& st,
                   const LintEvent& ev, int idx, LintReport& out) {
  auto check = [&](const Pin& src, const char* what) {
    if (!pinOk(dev, src)) return;
    const auto it = st.live.find(LintState::pinKey(src));
    if (it != st.live.end() && it->second.session != ev.session) {
      addFinding(kNotOwner, out, Severity::kError, idx, pinName(src),
                 std::string(what) + " a net owned by " + it->second.session,
                 "sessions may only touch nets they routed");
    }
  };
  switch (ev.spec.op) {
    case SpecOp::kUnroute:
      for (const Pin& src : ev.spec.srcs) check(src, "unroutes");
      break;
    case SpecOp::kReconnect:
      if (!ev.spec.srcs.empty()) check(ev.spec.srcs[0], "reconnects");
      break;
    default: {
      std::unordered_set<uint64_t> seen;
      for (const auto& pair : routePairs(ev.spec)) {
        if (pinOk(dev, pair.first) &&
            seen.insert(LintState::pinKey(pair.first)).second) {
          check(pair.first, "extends");
        }
      }
      break;
    }
  }
}

void checkUnrouteDead(const DeviceSpec& dev, const LintState& st,
                      const LintEvent& ev, int idx, LintReport& out) {
  if (ev.spec.op != SpecOp::kUnroute) return;
  for (const Pin& src : ev.spec.srcs) {
    if (!pinOk(dev, src)) continue;
    const uint64_t key = LintState::pinKey(src);
    if (st.live.count(key)) continue;
    const bool torn = st.everRouted.count(key) != 0;
    addFinding(kUnrouteDead, out, Severity::kError, idx, pinName(src),
               torn ? "unroute of a net that was already torn down"
                    : "unroute of a net that was never routed",
               torn ? "drop the duplicate unroute"
                    : "route the net before unrouting it");
  }
}

void checkReconnectMissing(const DeviceSpec& dev, const LintState& st,
                           const LintEvent& ev, int idx, LintReport& out) {
  if (ev.spec.op != SpecOp::kReconnect || ev.spec.srcs.empty()) return;
  const Pin& src = ev.spec.srcs[0];
  if (!pinOk(dev, src)) return;
  if (st.live.count(LintState::pinKey(src))) return;
  addFinding(kReconnectMissing, out, Severity::kError, idx, pinName(src),
             "reconnect of a core output that drives no net",
             "reconnect tears down and re-routes an existing net; route "
             "it first");
}

const LintRule kMalformed = {
    "lint-malformed",
    "requests are structurally valid: sources, sinks, bus widths, pins "
    "on the device",
    checkMalformed};
const LintRule kDoubleClaim = {
    "lint-double-claim",
    "no sink pin is claimed by two nets (same-session collisions warn, "
    "cross-session collisions fail)",
    checkDoubleClaim};
const LintRule kNotOwner = {
    "lint-not-owner",
    "sessions only extend, unroute, or reconnect nets they own",
    checkNotOwner};
const LintRule kUnrouteDead = {
    "lint-unroute-dead",
    "unroutes target a currently routed net",
    checkUnrouteDead};
const LintRule kReconnectMissing = {
    "lint-reconnect-missing",
    "reconnects target an existing net/core output",
    checkReconnectMissing};

/// Interpreter transition: apply only the effects the service would
/// accept, so one early defect does not cascade into spurious findings
/// downstream.
void apply(const DeviceSpec& dev, LintState& st, const LintEvent& ev) {
  auto routeOne = [&](const Pin& src, const Pin& sink) {
    if (!pinOk(dev, src) || !pinOk(dev, sink)) return;
    const uint64_t srcKey = LintState::pinKey(src);
    const uint64_t sinkKey = LintState::pinKey(sink);
    const auto owner = st.live.find(srcKey);
    if (owner != st.live.end() && owner->second.session != ev.session) return;
    const auto used = st.usedSinks.find(sinkKey);
    if (used != st.usedSinks.end()) return;  // reject or idempotent reuse
    LintState::NetState& net = st.live[srcKey];
    if (net.session.empty()) net.session = ev.session;
    net.sinks.push_back(sinkKey);
    st.usedSinks.emplace(sinkKey, srcKey);
    st.everRouted.insert(srcKey);
  };
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
  for (const auto& [src, sink] : routePairs(ev.spec)) routeOne(src, sink);
}

}  // namespace

const char* severityName(Severity s) {
  return s == Severity::kError ? "error" : "warning";
}

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

size_t LintReport::errors() const {
  return static_cast<size_t>(
      std::count_if(findings.begin(), findings.end(), [](const Finding& f) {
        return f.severity == Severity::kError;
      }));
}

size_t LintReport::warnings() const { return findings.size() - errors(); }

bool LintReport::firedRule(const std::string& id) const {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == id; });
}

std::string LintReport::summary() const {
  std::ostringstream os;
  os << "lint: " << eventsChecked << " event(s), " << errors()
     << " error(s), " << warnings() << " warning(s)\n";
  for (const Finding& f : findings) {
    os << "  " << severityName(f.severity) << '[' << f.rule << "] request "
       << f.request << ' ' << f.entity << ": " << f.message;
    if (!f.hint.empty()) os << " — " << f.hint;
    os << '\n';
  }
  return os.str();
}

std::string LintReport::json() const {
  using jrobs::jsonKv;
  std::ostringstream os;
  os << "{\"lint\":{\"events\":" << eventsChecked
     << ",\"errors\":" << errors() << ",\"warnings\":" << warnings()
     << ",\"findings\":[";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i) os << ',';
    os << '{' << jsonKv("rule", f.rule) << ','
       << jsonKv("severity", severityName(f.severity))
       << ",\"request\":" << f.request << ',' << jsonKv("entity", f.entity)
       << ',' << jsonKv("message", f.message) << ','
       << jsonKv("hint", f.hint) << '}';
  }
  os << "]}}";
  return os.str();
}

const std::vector<const LintRule*>& allLintRules() {
  static const std::vector<const LintRule*> rules = {
      &kMalformed, &kDoubleClaim, &kNotOwner, &kUnrouteDead,
      &kReconnectMissing};
  return rules;
}

LintReport lintEvents(const xcvsim::DeviceSpec& dev,
                      const std::vector<LintEvent>& events) {
  LintReport out;
  LintState st;
  for (const LintRule* r : allLintRules()) out.rulesRun.push_back(r->id);
  for (size_t i = 0; i < events.size(); ++i) {
    for (const LintRule* r : allLintRules()) {
      r->check(dev, st, events[i], static_cast<int>(i), out);
    }
    apply(dev, st, events[i]);
  }
  out.eventsChecked = events.size();
  return out;
}

}  // namespace jrplan
