// jrplan's workload check: a dry run through the engine itself.
//
// A 10^5-request jrload stream or a scripted jrsh session can carry
// defects — unrouting a net that was never routed, touching another
// session's net, asking for a sink another net drives — that surface
// only as rejections deep into a run. dryRun() replays the workload on a
// scratch fabric through a RoutingService in its deterministic mode (no
// engine thread, one planner) and reports every rejection in the
// checkers' shared report (src/check). The engine's admission checks and
// its all-or-nothing Router::Txn commit are the rules, written once;
// nothing here models them, so the report predicts the engine exactly.
#pragma once

#include <istream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "arch/device.h"
#include "check/check.h"
#include "workload/session_stream.h"

namespace jrplan {

/// One event of the checked workload and where it came from ("line 12",
/// "event 4081"), for the report.
struct Event {
  workload::StreamEvent event;
  std::string origin;
};

/// One rule a report can carry: an engine rejection reason
/// (jrsvc::rejectName) or the script front end's lint-malformed.
struct RuleInfo {
  const char* id;
  const char* description;
  const char* hint;
};

/// The rules, in listing order; every report lists them as run.
std::span<const RuleInfo> ruleCatalogue();

/// Replay `events` in order on a blank fabric of `dev`, one engine
/// session per event session, each event's requests resolved before the
/// next event is submitted (a reconnect's unroute before its route).
/// Each rejection is one finding: rule jrsvc::rejectName(reason), entity
/// "request <event index> (<origin>)", message RouteResult::detail.
/// Unroutable routes, and contention for a wire the same session's net
/// holds, are warnings; every other rejection is an error.
/// Deterministic: same input, same findings in the same order.
jrcheck::Report dryRun(const xcvsim::DeviceSpec& dev,
                       const std::vector<Event>& events);

/// A jrsh `.jr` script's workload: its device / auto / fanout / unroute
/// commands as events of one session, the shell's. Every other command
/// is net-neutral and ignored.
struct ScriptWorkload {
  std::string device;         ///< from the `device` command, "" if none
  std::vector<Event> events;  ///< net-level commands, in order
  /// (origin "line N", what failed to parse), in script order.
  std::vector<std::pair<std::string, std::string>> parseErrors;
};

/// Parse a jrsh script. Tokens that do not parse (bad wire name, a row
/// or column outside 16 bits, short argument list) are reported in
/// parseErrors and the command skipped.
ScriptWorkload parseScript(std::istream& in);

/// Parse, then dry-run the events on the script's device (default
/// XCV50). Parse errors and an unknown device surface as lint-malformed
/// errors (under the same per-rule cap), so callers get one report.
jrcheck::Report lintScript(std::istream& in);

}  // namespace jrplan
