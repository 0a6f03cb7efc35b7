// jrsh script front-end for the workload linter: parses the net-level
// commands of a `.jr` script (device / auto / fanout / unroute) into
// lint events so a scripted session can be checked before it runs.
// Non-net commands (telemetry, reports, service toggles) are ignored.
#pragma once

#include <istream>
#include <string>
#include <utility>
#include <vector>

#include "plan/lint.h"

namespace jrplan {

struct ScriptWorkload {
  std::string device;              ///< from the `device` command, "" if none
  std::vector<LintEvent> events;   ///< net-level commands, in order
  /// (origin "line N", what failed to parse), in script order.
  std::vector<std::pair<std::string, std::string>> parseErrors;
};

/// Parse a jrsh script. Tokens that do not parse (bad wire name, short
/// argument list) are reported in parseErrors and the command skipped.
ScriptWorkload parseScript(std::istream& in);

/// Convenience: parse + lint. Parse errors and an unknown device surface
/// as lint-malformed findings (under the same per-rule cap) so callers
/// get one report.
jrcheck::Report lintScript(std::istream& in);

}  // namespace jrplan
