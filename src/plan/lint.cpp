#include "plan/lint.h"

#include <algorithm>
#include <future>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "arch/arch_db.h"
#include "arch/wires.h"
#include "bitstream/pip_table.h"
#include "common/error.h"
#include "fabric/fabric.h"
#include "rrg/graph.h"
#include "service/service.h"

namespace jrplan {

using jrcheck::Severity;
using jroute::EndPoint;
using jroute::Pin;
using jrsvc::Op;
using jrsvc::Reject;
using jrsvc::RouteResult;
using workload::StreamOp;
using xcvsim::LocalWire;
using xcvsim::RowCol;

namespace {

constexpr RuleInfo kRules[] = {
    {"lint-malformed", "the script parses and names a known device",
     "fix the script syntax"},
    {"bad-argument",
     "the engine accepts every request: pins on the device, matching bus "
     "widths, unroutes of routed nets",
     "route a net before unrouting it, and keep pins on the device"},
    {"not-owner", "sessions extend and unroute only the nets they routed",
     "sessions may only touch nets they routed"},
    {"contention",
     "no route wants a wire another net holds (an error when another "
     "session's net holds it, a warning within one session)",
     "pick a free sink, or unroute the net holding it first"},
    {"unroutable", "the engine finds a path for every route (a warning)",
     "spread the sinks, or free wires near them first"},
};

bool readPin(std::istringstream& ls, Pin& out, std::string& err) {
  std::string r, c, w;
  if (!(ls >> r >> c >> w)) {
    err = "expected <row> <col> <wire>";
    return false;
  }
  const std::optional<int16_t> row = xcvsim::parseCoord(r);
  const std::optional<int16_t> col = xcvsim::parseCoord(c);
  if (!row || !col) {
    err = "bad coordinate '" + (row ? c : r) + "'";
    return false;
  }
  const std::optional<LocalWire> wire = xcvsim::parseWire(w);
  if (!wire) {
    err = "unknown wire '" + w + "'";
    return false;
  }
  out = Pin(RowCol{*row, *col}, *wire);
  return true;
}

}  // namespace

std::span<const RuleInfo> ruleCatalogue() { return kRules; }

jrcheck::Report dryRun(const xcvsim::DeviceSpec& dev,
                       const std::vector<Event>& events) {
  const xcvsim::Graph graph(dev);
  const xcvsim::PipTable table(xcvsim::ArchDb{dev});
  xcvsim::Fabric fabric(graph, table);
  jrsvc::ServiceOptions opts;
  opts.manualPump = true;  // no engine thread: batches follow submission
  opts.planThreads = 1;
  opts.drcParanoid = false;
  jrsvc::RoutingService svc(fabric, opts);
  std::unordered_map<uint32_t, jrsvc::Session> sessions;

  jrcheck::Report report("lint", std::string(dev.name), {"events"});
  for (const RuleInfo& r : kRules) report.rulesRun.emplace_back(r.id);
  // A contended wire held by one of the requesting session's own nets.
  const auto ownWire = [&](xcvsim::NodeId node, uint64_t session) {
    if (node == xcvsim::kInvalidNode || !fabric.isUsed(node)) return false;
    const std::vector<xcvsim::NodeId> mine = svc.netsOf(session);
    return std::ranges::find(mine, fabric.netSource(fabric.netOf(node))) !=
           mine.end();
  };

  for (size_t i = 0; i < events.size(); ++i) {
    const workload::StreamEvent& ev = events[i].event;
    const auto [it, fresh] = sessions.try_emplace(ev.session);
    if (fresh) it->second = svc.openSession();
    const uint64_t session = it->second.id();
    const std::vector<EndPoint> srcs(ev.srcs.begin(), ev.srcs.end());
    const std::vector<EndPoint> sinks(ev.sinks.begin(), ev.sinks.end());
    std::vector<std::future<RouteResult>> pending;
    const auto submit = [&](Op op, std::vector<EndPoint> from,
                            std::vector<EndPoint> to) {
      pending.push_back(svc.submit(op, session, std::move(from), std::move(to)));
    };
    // Run the queued requests and report each rejection.
    const auto settle = [&] {
      while (svc.pumpOnce() > 0) {
      }
      for (std::future<RouteResult>& f : pending) {
        const RouteResult res = f.get();
        if (res.ok()) continue;
        const bool warn =
            res.reason == Reject::kUnroutable ||
            (res.reason == Reject::kContention &&
             ownWire(res.contendedNode, session));
        const char* rule = jrsvc::rejectName(res.reason);
        const auto info =
            std::ranges::find(kRules, std::string_view(rule), &RuleInfo::id);
        report.add({rule, warn ? Severity::kWarning : Severity::kError,
                    "request " + std::to_string(i) + " (" +
                        events[i].origin + ")",
                    res.detail, info != std::end(kRules) ? info->hint : ""});
      }
      pending.clear();
    };
    switch (ev.op) {
      case StreamOp::kP2P: submit(Op::kRouteP2P, srcs, sinks); break;
      case StreamOp::kFanout: submit(Op::kRouteFanout, srcs, sinks); break;
      case StreamOp::kBus: submit(Op::kRouteBus, srcs, sinks); break;
      case StreamOp::kUnroute:
        for (const EndPoint& src : srcs) submit(Op::kUnroute, {src}, {});
        break;
      case StreamOp::kReconnect:
        submit(Op::kUnroute, srcs, {});
        settle();
        submit(Op::kRouteP2P, srcs, sinks);
        break;
    }
    settle();
  }
  report.count("events") = events.size();
  return report;
}

ScriptWorkload parseScript(std::istream& in) {
  ScriptWorkload out;
  std::string line;
  int lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    std::istringstream ls(line);
    std::string cmd;
    if (!(ls >> cmd) || cmd[0] == '#') continue;
    Event ev{{}, "line " + std::to_string(lineNo)};  // the shell's session
    int sinks = 0;
    if (cmd == "device") {
      ls >> out.device;
      continue;
    } else if (cmd == "auto") {
      ev.event.op = StreamOp::kP2P;
      sinks = 1;
    } else if (cmd == "fanout") {
      ev.event.op = StreamOp::kFanout;
    } else if (cmd == "unroute") {
      ev.event.op = StreamOp::kUnroute;
    } else {
      continue;  // every other command is net-neutral
    }
    Pin pin;
    std::string err;
    bool ok = readPin(ls, pin, err);
    ev.event.srcs = {pin};
    if (ok && ev.event.op == StreamOp::kFanout && !(ls >> sinks)) {
      err = "expected <n> after the source pin";
      ok = false;
    }
    for (int i = 0; ok && i < sinks; ++i) {
      ok = readPin(ls, pin, err);
      ev.event.sinks.push_back(pin);
    }
    if (ok) {
      out.events.push_back(std::move(ev));
    } else {
      out.parseErrors.emplace_back(ev.origin, cmd + ": " + err);
    }
  }
  return out;
}

jrcheck::Report lintScript(std::istream& in) {
  const ScriptWorkload wl = parseScript(in);
  const std::string device = wl.device.empty() ? "XCV50" : wl.device;
  const xcvsim::DeviceSpec* dev = nullptr;
  try {
    dev = &xcvsim::deviceByName(device);
  } catch (const xcvsim::ArgumentError&) {
  }
  jrcheck::Report rep = dev != nullptr
                            ? dryRun(*dev, wl.events)
                            : jrcheck::Report("lint", device, {"events"});
  if (dev == nullptr) {
    rep.add({"lint-malformed", Severity::kError, device, "unknown device",
             "see `device` in jrsh help"});
  }
  for (const auto& [origin, error] : wl.parseErrors) {
    rep.add({"lint-malformed", Severity::kError, origin, error,
             kRules[0].hint});
  }
  return rep;
}

}  // namespace jrplan
