// jrsh — an interactive/scripted shell over the JRoute API.
//
// The paper's section 1: "Since JRoute is an API, it allows users to
// build tools based on it. These can range from debugging tools to
// extensions that increase functionality." This is such a tool: a routing
// shell that drives every API level from text commands, for bring-up
// scripts and interactive poking.
//
//   $ ./jrsh               # read commands from stdin
//   $ ./jrsh script.jr     # run a script
//
// `help` lists every command; the dispatch table below is the single
// source of truth for names, usage, and one-line summaries, and
// scripts/check_jrsh_help.sh keeps README.md in sync with it.
#include <cctype>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>

#include "analysis/congestion.h"
#include "analysis/drc.h"
#include "bitstream/bitfile.h"
#include "core/router.h"
#include "lookahead/lookahead.h"
#include "obs/flightrec.h"
#include "obs/heatmap.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/slo.h"
#include "obs/spans.h"
#include "obs/trace.h"
#include "rtr/boardscope.h"
#include "rtr/netlist.h"
#include "rtr/report.h"
#include "service/service.h"
#include "verify/verify.h"

using namespace jroute;
using namespace xcvsim;

namespace {

struct Session {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<PipTable> table;
  std::unique_ptr<Fabric> fabric;
  std::unique_ptr<Router> router;
  std::unique_ptr<jrsvc::RoutingService> svc;
  jrsvc::Session client;

  void open(const std::string& name) {
    if (svc) {
      svc->stop();
      svc.reset();
      client = {};
    }
    const DeviceSpec& dev = deviceByName(name);
    graph = std::make_unique<Graph>(dev);
    table = std::make_unique<PipTable>(ArchDb{dev});
    fabric = std::make_unique<Fabric>(*graph, *table);
    router = std::make_unique<Router>(*fabric);
    std::cout << "device " << name << ": " << graph->numNodes()
              << " wires, " << graph->numEdges() << " PIPs\n";
  }

  bool ready() const { return router != nullptr; }
};

/// Print a service outcome in the shell's one-line idiom.
void report(const jrsvc::RouteResult& res, const char* verb) {
  if (res.ok()) {
    std::cout << verb << (res.routedInParallel ? " (parallel)" : " (serial)")
              << "\n";
  } else {
    std::cout << "rejected (" << jrsvc::rejectName(res.reason) << ")"
              << (res.detail.empty() ? "" : ": " + res.detail) << "\n";
  }
}

LocalWire lookupWire(const std::string& token) {
  if (const std::optional<LocalWire> w = parseWire(token)) return *w;
  throw ArgumentError("unknown wire '" + token + "'");
}

/// The `[json]` mode word of a command: true for "json", false when
/// absent; anything else is an error rather than silent text.
bool jsonMode(const std::string& word, const char* cmd) {
  if (word.empty()) return false;
  if (word == "json") return true;
  throw ArgumentError("unknown " + std::string(cmd) + " mode '" + word +
                      "' (try json)");
}

/// Read and check the optional trailing `[json]` word.
bool readJsonMode(std::istringstream& ls, const char* cmd) {
  std::string word;
  ls >> word;
  return jsonMode(word, cmd);
}

int16_t toCoord(const std::string& token) {
  if (const std::optional<int16_t> v = parseCoord(token)) return *v;
  throw ArgumentError("bad coordinate '" + token + "'");
}

Pin readPin(std::istringstream& ls) {
  std::string r, c, w;
  if (!(ls >> r >> c >> w)) throw ArgumentError("expected <row> <col> <wire>");
  return Pin(RowCol{toCoord(r), toCoord(c)}, lookupWire(w));
}

/// One shell command. `fn` returns false to leave the shell.
struct Command {
  const char* name;
  const char* usage;    // argument grammar, "" if none
  const char* summary;  // one line, shown by `help`
  bool needsDevice;     // gate on `device <NAME>` having run
  bool (*fn)(Session& s, std::istringstream& ls);
};

std::span<const Command> commandTable();

bool cmdDevice(Session& s, std::istringstream& ls) {
  std::string name;
  ls >> name;
  s.open(name);
  return true;
}

bool cmdWire(Session&, std::istringstream& ls) {
  std::string name;
  ls >> name;
  std::cout << name << " = " << lookupWire(name) << "\n";
  return true;
}

bool cmdStats(Session& s, std::istringstream& ls) {
  // Process-wide telemetry; going through the service refreshes its
  // live gauges (queue depth) first.
  std::string word;
  ls >> word;
  if (word == "reset") {
    // Reset scopes a measurement: zero the registry AND drop captured
    // trace events, provenance records, flight-recorder events and the
    // span aggregates, so everything observed afterwards belongs to the
    // next run. The tracer's enabled flag and the flight recorder's
    // arming are left alone, and the SLO objective stays installed (only
    // its windows and totals restart).
    jrobs::registry().reset();
    jrobs::Tracer::instance().clear();
    jrobs::provenance().clear();
    jrobs::flightRecorder().clear();
    jrobs::spanAggregator().reset();
    jrobs::sloMonitor().reset();
    std::cout << "stats reset\n";
    return true;
  }
  const bool json = jsonMode(word, "stats");
  const jrobs::MetricsSnapshot snap =
      s.svc ? s.svc->snapshotMetrics() : jrobs::registry().snapshot();
  std::cout << (json ? snap.json() + "\n" : snap.text());
  return true;
}

bool cmdSpans(Session&, std::istringstream& ls) {
  const bool json = readJsonMode(ls, "spans");
  const jrobs::SpanAttribution attr = jrobs::spanAggregator().report();
  std::cout << (json ? attr.json() + "\n" : attr.text());
  return true;
}

bool cmdSlo(Session&, std::istringstream& ls) {
  std::string arg;
  ls >> arg;
  if (arg == "set") {
    std::string spec;
    if (!(ls >> spec)) {
      throw ArgumentError("slo set latency_us=<N>[,target=<F>][,burn=<F>]");
    }
    jrobs::SloConfig cfg;
    std::string err;
    if (!jrobs::SloConfig::parse(spec, &cfg, &err)) {
      throw ArgumentError("slo set: " + err);
    }
    cfg.enabled = true;
    jrobs::sloMonitor().configure(cfg);
    std::cout << "slo " << cfg.describe() << "\n";
    return true;
  }
  if (arg == "off") {
    jrobs::sloMonitor().configure(jrobs::SloConfig{});
    std::cout << "slo disabled\n";
    return true;
  }
  if (arg == "reset") {
    jrobs::sloMonitor().reset();
    std::cout << "slo reset\n";
    return true;
  }
  const bool json = jsonMode(arg, "slo");
  const jrobs::SloReport rep = jrobs::sloMonitor().report();
  std::cout << (json ? rep.json() + "\n" : rep.text());
  return true;
}

bool cmdTrace(Session& s, std::istringstream& ls) {
  // `trace start|stop|dump <file>` drives the event tracer; a numeric
  // first argument keeps the original net-print meaning.
  std::string arg;
  if (!(ls >> arg)) throw ArgumentError("trace start|stop|dump|<pin>");
  if (arg == "start") {
    jrobs::Tracer::instance().start();
    std::cout << "tracing"
              << (jrobs::compiledIn() ? "\n" : " (telemetry compiled out)\n");
    return true;
  }
  if (arg == "stop") {
    jrobs::Tracer::instance().stop();
    std::cout << "trace stopped (" << jrobs::Tracer::instance().eventCount()
              << " events)\n";
    return true;
  }
  if (arg == "dump") {
    std::string file;
    if (!(ls >> file)) throw ArgumentError("trace dump <file>");
    std::string err;
    if (!jrobs::dumpTrace(file, &err)) throw ArgumentError(err);
    std::cout << "wrote " << file << " ("
              << jrobs::Tracer::instance().eventCount() << " events, "
              << jrobs::Tracer::instance().droppedCount() << " dropped)\n";
    return true;
  }
  if (!s.ready()) throw ArgumentError("run 'device <NAME>' first");
  if (!std::isdigit(static_cast<unsigned char>(arg[0])) && arg[0] != '-') {
    throw ArgumentError("trace start|stop|dump|<row> <col> <wire>");
  }
  std::string c, w;
  if (!(ls >> c >> w)) throw ArgumentError("expected <row> <col> <wire>");
  const Pin p(RowCol{toCoord(arg), toCoord(c)}, lookupWire(w));
  std::cout << renderNet(*s.router, EndPoint(p));
  return true;
}

bool cmdFlightrec(Session&, std::istringstream& ls) {
  std::string mode;
  if (!(ls >> mode)) throw ArgumentError("flightrec arm <dir>|off|status");
  jrobs::FlightRecorder& fr = jrobs::flightRecorder();
  if (mode == "arm") {
    std::string dir;
    if (!(ls >> dir)) throw ArgumentError("flightrec arm <dir>");
    fr.arm(dir);
    std::cout << "flight recorder armed -> " << dir
              << (jrobs::compiledIn() ? "\n" : " (telemetry compiled out)\n");
  } else if (mode == "off") {
    fr.disarm();
    std::cout << "flight recorder disarmed\n";
  } else if (mode == "status") {
    std::cout << "flight recorder "
              << (fr.armed() ? "armed -> " + fr.dir() : "disarmed") << " ("
              << fr.eventCount() << " events, " << fr.anomalyCount()
              << " anomalies)\n";
  } else {
    throw ArgumentError("flightrec arm <dir>|off|status");
  }
  return true;
}

bool cmdRoute(Session& s, std::istringstream& ls) {
  std::string r, c, f, t;
  if (!(ls >> r >> c >> f >> t)) throw ArgumentError("route args");
  s.router->route(toCoord(r), toCoord(c), lookupWire(f), lookupWire(t));
  std::cout << "on\n";
  return true;
}

bool cmdAuto(Session& s, std::istringstream& ls) {
  const Pin a = readPin(ls);
  const Pin b = readPin(ls);
  if (s.svc) {
    report(s.client.route(EndPoint(a), EndPoint(b)), "routed");
  } else {
    s.router->route(EndPoint(a), EndPoint(b));
    std::cout << "routed ("
              << (s.router->stats().lastMethod == RouteMethod::Maze
                      ? "maze"
                      : "template")
              << ")\n";
  }
  return true;
}

bool cmdFanout(Session& s, std::istringstream& ls) {
  const Pin src = readPin(ls);
  int n;
  if (!(ls >> n)) throw ArgumentError("fanout count");
  std::vector<EndPoint> sinks;
  for (int i = 0; i < n; ++i) sinks.push_back(EndPoint(readPin(ls)));
  if (s.svc) {
    report(s.client.fanout(EndPoint(src), std::move(sinks)), "routed");
  } else {
    s.router->route(EndPoint(src), std::span<const EndPoint>(sinks));
    std::cout << "routed " << n << " sinks\n";
  }
  return true;
}

bool cmdUnroute(Session& s, std::istringstream& ls) {
  if (s.svc) {
    report(s.client.unroute(EndPoint(readPin(ls))), "freed");
  } else {
    s.router->unroute(EndPoint(readPin(ls)));
    std::cout << "freed\n";
  }
  return true;
}

bool cmdRev(Session& s, std::istringstream& ls) {
  s.router->reverseUnroute(EndPoint(readPin(ls)));
  std::cout << "branch freed\n";
  return true;
}

bool cmdIson(Session& s, std::istringstream& ls) {
  const Pin p = readPin(ls);
  std::cout << (s.router->isOn(p.rc.row, p.rc.col, p.wire) ? "yes" : "no")
            << "\n";
  return true;
}

bool cmdService(Session& s, std::istringstream& ls) {
  std::string mode;
  ls >> mode;
  if (mode == "on") {
    if (!s.svc) {
      s.svc = std::make_unique<jrsvc::RoutingService>(*s.fabric);
      s.client = s.svc->openSession();
    }
    std::cout << "service on (session " << s.client.id() << ")\n";
  } else if (mode == "off") {
    if (s.svc) {
      // Keep the session's nets on the fabric; just stop the engine.
      s.svc->closeSession(s.client, /*unrouteOwned=*/false);
      s.svc->stop();
      s.svc.reset();
    }
    std::cout << "service off\n";
  } else if (mode == "stats") {
    if (!s.svc) throw ArgumentError("service is off");
    // The service's outcome counts live only here (no registry mirror).
    const jrsvc::ServiceStats st = s.svc->stats();
    std::cout << "submitted " << st.submitted << "  accepted "
              << st.accepted << "  rejected " << st.rejected << " (overloaded "
              << st.overloaded << ", deadline " << st.deadlineExpired
              << ", contention " << st.contention << ", unroutable "
              << st.unroutable << ")  batches " << st.batches
              << "  parallel " << st.parallelPlanned << "  serial "
              << st.serialRouted << "  fallbacks " << st.planFallbacks
              << "\n";
  } else {
    throw ArgumentError("service on|off|stats");
  }
  return true;
}

void printReport(const jrcheck::Report& rep, bool json) {
  std::cout << (json ? rep.json() + "\n" : rep.summary());
}

bool cmdDrc(Session& s, std::istringstream& ls) {
  const bool json = readJsonMode(ls, "drc");
  if (s.svc) {
    // Service on: the analyzer sees every view — the engine's router,
    // the session-ownership table, and the bitstream.
    printReport(s.svc->runDrc(), json);
    return true;
  }
  jrdrc::DrcInput in;
  in.fabric = s.fabric.get();
  in.router = s.router.get();
  printReport(jrdrc::runDrc(in), json);
  return true;
}

bool cmdVerify(Session& s, std::istringstream& ls) {
  // Static model verification (jrverify): checks the architecture
  // description, graph, template library, and slot table of the open
  // device — not the routed design. The replay rule needs a clean
  // fabric, so it runs against a scratch one, never the session's.
  const bool json = readJsonMode(ls, "verify");
  Fabric scratch(*s.graph, *s.table);
  printReport(
      jrverify::runVerify(jrverify::makeModelView(*s.graph, *s.table, scratch)),
      json);
  return true;
}

bool cmdLookahead(Session& s, std::istringstream& ls) {
  // The per-device routing lookahead (src/lookahead): build cost, table
  // shape, quantization. Resolving it here warms the process-wide cache
  // the Router and Planner share, so this is also a bring-up primitive.
  const bool json = readJsonMode(ls, "lookahead");
  const jrla::Lookahead& la = jrla::Lookahead::forGraph(*s.graph);
  std::cout << (json ? la.statsJson() + "\n" : la.statsText());
  return true;
}

bool cmdWhy(Session& s, std::istringstream& ls) {
  // Provenance of the net occupying a wire: which request routed it,
  // through which engine, at what cost. `why <pin> json` for machines.
  const Pin p = readPin(ls);
  const bool json = readJsonMode(ls, "why");
  const NodeId n = s.graph->nodeAt(p.rc, p.wire);
  if (n == kInvalidNode) throw ArgumentError("pin names no wire");
  if (!s.fabric->isUsed(n)) {
    std::cout << s.graph->nodeName(n) << " is not routed\n";
    return true;
  }
  const NodeId src = s.fabric->netSource(s.fabric->netOf(n));
  const auto rec = jrobs::provenance().find(src);
  if (!rec) {
    std::cout << "no provenance for net '"
              << s.fabric->netName(s.fabric->netOf(n)) << "'"
              << (jrobs::compiledIn()
                      ? " (routed outside the service, or record evicted)\n"
                      : " (telemetry compiled out)\n");
    return true;
  }
  std::cout << (json ? rec->json() + "\n" : rec->text());
  return true;
}

bool cmdExplain(Session&, std::istringstream& ls) {
  std::string what;
  ls >> what;
  if (what != "last") throw ArgumentError("explain last [json]");
  const bool json = readJsonMode(ls, "explain");
  const auto rec = jrobs::provenance().last();
  if (!rec) {
    std::cout << "no provenance records"
              << (jrobs::compiledIn() ? "\n" : " (telemetry compiled out)\n");
    return true;
  }
  std::cout << (json ? rec->json() + "\n" : rec->text());
  return true;
}

bool cmdHeatmap(Session& s, std::istringstream& ls) {
  // Committed-design density per 4x4-tile region.
  const bool json = readJsonMode(ls, "heatmap");
  const jrobs::Heatmap h =
      s.svc ? s.svc->occupancy() : jrdrc::occupancyHeatmap(*s.fabric);
  std::cout << (json ? h.json() + "\n" : h.ascii());
  return true;
}

bool cmdMap(Session& s, std::istringstream&) {
  std::cout << renderUsageMap(*s.fabric);
  return true;
}

bool cmdUtil(Session& s, std::istringstream&) {
  std::cout << computeUtilization(*s.fabric).toString();
  return true;
}

bool cmdNets(Session& s, std::istringstream&) {
  std::cout << netSummary(*s.fabric);
  return true;
}

bool cmdSave(Session& s, std::istringstream& ls) {
  std::string file;
  ls >> file;
  std::ofstream os(file, std::ios::binary);
  writeBitfile(os, s.fabric->jbits().bitstream(), "jrsh");
  std::cout << "wrote " << file << "\n";
  return true;
}

bool cmdNetlist(Session& s, std::istringstream& ls) {
  std::string file;
  ls >> file;
  std::ofstream os(file);
  os << exportNetlist(*s.fabric);
  std::cout << "wrote " << file << "\n";
  return true;
}

bool cmdHelp(Session&, std::istringstream&) {
  for (const Command& c : commandTable()) {
    std::string lhs = c.name;
    if (c.usage[0] != '\0') lhs += std::string(" ") + c.usage;
    std::printf("  %-42s %s\n", lhs.c_str(), c.summary);
  }
  return true;
}

bool cmdQuit(Session&, std::istringstream&) { return false; }

/// The dispatch table — single source of truth for the command set.
std::span<const Command> commandTable() {
  static const Command kCommands[] = {
      {"device", "<NAME>", "bring up a family member (XCV50..XCV1000)",
       false, cmdDevice},
      {"wire", "<NAME>", "look up a wire id by name", false, cmdWire},
      {"route", "<r> <c> <from> <to>", "level 1: turn on a single PIP",
       true, cmdRoute},
      {"auto", "<r> <c> <wire>  <r> <c> <wire>", "auto point-to-point route",
       true, cmdAuto},
      {"fanout", "<r> <c> <wire> <n> {<r> <c> <wire>}...",
       "route one source to n sinks", true, cmdFanout},
      {"unroute", "<r> <c> <wire>", "forward unroute from a source",
       true, cmdUnroute},
      {"rev", "<r> <c> <wire>", "reverse unroute a sink branch",
       true, cmdRev},
      {"ison", "<r> <c> <wire>", "is this wire part of a routed net?",
       true, cmdIson},
      {"trace", "start|stop|dump <file>|<r> <c> <wire>",
       "event tracer (Chrome JSON), or print the net at a pin",
       false, cmdTrace},
      {"map", "", "ASCII occupancy map", true, cmdMap},
      {"util", "", "utilization report", true, cmdUtil},
      {"nets", "", "list routed nets", true, cmdNets},
      {"save", "<file>", "write the configuration as a bitfile",
       true, cmdSave},
      {"netlist", "<file>", "export the routed design as a netlist",
       true, cmdNetlist},
      {"service", "on|off|stats", "drive routes through the concurrent "
       "routing service", true, cmdService},
      {"drc", "[json]", "run the design-rule checker over the current "
       "design", true, cmdDrc},
      {"verify", "[json]", "statically verify the device model "
       "(arch/rrg/template/bitstream/lookahead rules)", true, cmdVerify},
      {"lookahead", "[json]", "per-device routing lookahead: build cost "
       "and table shape", true, cmdLookahead},
      {"stats", "[json|reset]", "telemetry registry snapshot; reset also "
       "clears rings, spans, and SLO windows", false, cmdStats},
      {"spans", "[json]", "request-lifecycle span attribution: where the "
       "milliseconds went", false, cmdSpans},
      {"slo", "[json|set <k=v,..>|off|reset]", "latency SLO burn-rate "
       "monitor: report or (re)configure the objective", false, cmdSlo},
      {"why", "<r> <c> <wire> [json]", "provenance of the net holding a "
       "wire: who routed it, how", true, cmdWhy},
      {"explain", "last [json]", "provenance of the newest commit",
       true, cmdExplain},
      {"heatmap", "[json]", "per-region occupancy map", true, cmdHeatmap},
      {"flightrec", "arm <dir>|off|status", "anomaly flight recorder",
       false, cmdFlightrec},
      {"help", "", "this list", false, cmdHelp},
      {"quit", "", "leave the shell (alias: exit)", false, cmdQuit},
  };
  return kCommands;
}

bool handle(Session& s, const std::string& line) {
  std::istringstream ls(line);
  std::string cmd;
  if (!(ls >> cmd) || cmd[0] == '#') return true;
  if (cmd == "exit") cmd = "quit";

  for (const Command& c : commandTable()) {
    if (cmd != c.name) continue;
    if (c.needsDevice && !s.ready()) {
      throw ArgumentError("run 'device <NAME>' first");
    }
    return c.fn(s, ls);
  }
  throw ArgumentError("unknown command '" + cmd + "' (try 'help')");
}

}  // namespace

int main(int argc, char** argv) {
  std::ifstream scriptFile;
  std::istream* in = &std::cin;
  if (argc > 1) {
    scriptFile.open(argv[1]);
    if (!scriptFile) {
      std::cerr << "cannot open " << argv[1] << "\n";
      return 1;
    }
    in = &scriptFile;
  }

  Session session;
  std::string line;
  while (std::getline(*in, line)) {
    try {
      if (!handle(session, line)) break;
    } catch (const std::exception& e) {
      std::cout << "error: " << e.what() << "\n";
      if (in != &std::cin) return 1;  // scripts fail fast
    }
  }
  return 0;
}
