#include "plan/lint_script.h"

#include <optional>
#include <sstream>

#include "arch/device.h"
#include "arch/wires.h"
#include "common/error.h"

namespace jrplan {

using xcvsim::LocalWire;

namespace {

bool readPin(std::istringstream& ls, Pin& out, std::string& err) {
  int r = 0;
  int c = 0;
  std::string w;
  if (!(ls >> r >> c >> w)) {
    err = "expected <row> <col> <wire>";
    return false;
  }
  const std::optional<LocalWire> wire = xcvsim::parseWire(w);
  if (!wire) {
    err = "unknown wire '" + w + "'";
    return false;
  }
  out = Pin(r, c, *wire);
  return true;
}

}  // namespace

ScriptWorkload parseScript(std::istream& in) {
  ScriptWorkload out;
  std::string line;
  int lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    std::istringstream ls(line);
    std::string cmd;
    if (!(ls >> cmd) || cmd[0] == '#') continue;
    const std::string origin = "line " + std::to_string(lineNo);
    auto fail = [&](const std::string& why) {
      out.parseErrors.emplace_back(origin, cmd + ": " + why);
    };
    LintEvent ev;
    ev.session = "shell";
    ev.origin = origin;
    std::string err;
    if (cmd == "device") {
      ls >> out.device;
    } else if (cmd == "auto") {
      Pin src;
      Pin sink;
      if (!readPin(ls, src, err) || !readPin(ls, sink, err)) {
        fail(err);
        continue;
      }
      ev.spec.op = SpecOp::kP2P;
      ev.spec.srcs = {src};
      ev.spec.sinks = {sink};
      out.events.push_back(std::move(ev));
    } else if (cmd == "fanout") {
      Pin src;
      int n = 0;
      if (!readPin(ls, src, err) || !(ls >> n)) {
        fail(err.empty() ? "expected <n> after the source pin" : err);
        continue;
      }
      ev.spec.op = SpecOp::kFanout;
      ev.spec.srcs = {src};
      bool ok = true;
      for (int i = 0; i < n; ++i) {
        Pin sink;
        if (!readPin(ls, sink, err)) {
          fail(err);
          ok = false;
          break;
        }
        ev.spec.sinks.push_back(sink);
      }
      if (ok) out.events.push_back(std::move(ev));
    } else if (cmd == "unroute") {
      Pin src;
      if (!readPin(ls, src, err)) {
        fail(err);
        continue;
      }
      ev.spec.op = SpecOp::kUnroute;
      ev.spec.srcs = {src};
      out.events.push_back(std::move(ev));
    }
    // Every other command is net-neutral for lint purposes.
  }
  return out;
}

jrcheck::Report lintScript(std::istream& in) {
  const ScriptWorkload wl = parseScript(in);
  const std::string device = wl.device.empty() ? "XCV50" : wl.device;
  const auto malformed = [](std::string entity, std::string message,
                            std::string hint) {
    return jrcheck::Finding{"lint-malformed", jrcheck::Severity::kError,
                            std::move(entity), std::move(message),
                            std::move(hint)};
  };
  jrcheck::Report rep("lint", device, {"events"});
  try {
    rep = lintEvents(xcvsim::deviceByName(device), wl.events);
  } catch (const xcvsim::ArgumentError&) {
    rep.add(malformed(device, "unknown device", "see `device` in jrsh help"));
  }
  for (const auto& [origin, error] : wl.parseErrors) {
    rep.add(malformed(origin, error, "fix the script syntax"));
  }
  return rep;
}

}  // namespace jrplan
