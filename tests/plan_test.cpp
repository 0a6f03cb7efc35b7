// Tests for jrplan: the workload check is a dry run through the routing
// engine, so each test seeds a workload defect and sees the engine's
// rejection come back as a finding of the right rule and severity.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "arch/wires.h"
#include "json_validator.h"
#include "plan/lint.h"

namespace jrplan {
namespace {

using jroute::Pin;
using workload::StreamOp;
using xcvsim::clbIn;
using xcvsim::S1_YQ;

// --- Dry run ---------------------------------------------------------------------

Event mkEvent(uint32_t session, StreamOp op, std::vector<Pin> srcs,
              std::vector<Pin> sinks, std::string origin = "t") {
  Event ev;
  ev.event.session = session;
  ev.event.op = op;
  ev.event.srcs = std::move(srcs);
  ev.event.sinks = std::move(sinks);
  ev.origin = std::move(origin);
  return ev;
}

const xcvsim::DeviceSpec& dev50() { return xcvsim::xcv50(); }

TEST(PlanLintTest, CleanStreamHasNoFindings) {
  const std::vector<Event> events{
      mkEvent(0, StreamOp::kP2P, {Pin(3, 3, S1_YQ)}, {Pin(4, 5, clbIn(2))}),
      mkEvent(0, StreamOp::kFanout, {Pin(6, 6, S1_YQ)},
              {Pin(7, 8, clbIn(1)), Pin(5, 7, clbIn(2))}),
      mkEvent(1, StreamOp::kBus, {Pin(10, 3, S1_YQ), Pin(11, 3, S1_YQ)},
              {Pin(10, 6, clbIn(2)), Pin(11, 6, clbIn(2))}),
      mkEvent(0, StreamOp::kReconnect, {Pin(3, 3, S1_YQ)},
              {Pin(4, 6, clbIn(3))}),
      mkEvent(0, StreamOp::kUnroute, {Pin(3, 3, S1_YQ)}, {}),
      mkEvent(1, StreamOp::kUnroute, {Pin(10, 3, S1_YQ), Pin(11, 3, S1_YQ)},
              {}),
  };
  const jrcheck::Report rep = dryRun(dev50(), events);
  EXPECT_TRUE(rep.findings.empty()) << rep.summary();
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.count("events"), events.size());
  EXPECT_EQ(rep.rulesRun.size(), ruleCatalogue().size());
}

TEST(PlanLintMutationTest, MalformedFires) {
  // Requests the engine refuses before routing anything.
  const std::vector<Event> events{
      mkEvent(0, StreamOp::kP2P, {}, {Pin(4, 5, clbIn(2))}),
      mkEvent(0, StreamOp::kP2P, {Pin(3, 3, S1_YQ)}, {}),
      mkEvent(0, StreamOp::kBus, {Pin(3, 3, S1_YQ), Pin(4, 3, S1_YQ)},
              {Pin(3, 6, clbIn(1))}),
      mkEvent(0, StreamOp::kP2P, {Pin(99, 99, S1_YQ)},
              {Pin(4, 5, clbIn(2))}),
  };
  const jrcheck::Report rep = dryRun(dev50(), events);
  EXPECT_TRUE(rep.fired("bad-argument")) << rep.summary();
  EXPECT_EQ(rep.errorCount(), 4u) << rep.summary();
  EXPECT_EQ(rep.findings.size(), 4u);
}

TEST(PlanLintMutationTest, DoubleClaimFires) {
  const Pin sink(4, 5, clbIn(2));
  const std::vector<Event> events{
      mkEvent(0, StreamOp::kP2P, {Pin(3, 3, S1_YQ)}, {sink}),
      // Same session: a warning (the anomaly-smoke pattern).
      mkEvent(0, StreamOp::kP2P, {Pin(6, 6, S1_YQ)}, {sink}),
      // Another session: an error.
      mkEvent(1, StreamOp::kP2P, {Pin(8, 8, S1_YQ)}, {sink}),
  };
  const jrcheck::Report rep = dryRun(dev50(), events);
  ASSERT_EQ(rep.findings.size(), 2u) << rep.summary();
  EXPECT_EQ(rep.findings[0].rule, "contention");
  EXPECT_EQ(rep.findings[0].severity, jrcheck::Severity::kWarning);
  EXPECT_EQ(rep.findings[0].entity, "request 1 (t)");
  EXPECT_EQ(rep.findings[1].rule, "contention");
  EXPECT_EQ(rep.findings[1].severity, jrcheck::Severity::kError);
  EXPECT_EQ(rep.findings[1].entity, "request 2 (t)");
}

TEST(PlanLintMutationTest, NotOwnerFires) {
  // Another session may neither unroute nor extend session 0's net.
  const std::vector<Event> events{
      mkEvent(0, StreamOp::kP2P, {Pin(3, 3, S1_YQ)}, {Pin(4, 5, clbIn(2))}),
      mkEvent(1, StreamOp::kUnroute, {Pin(3, 3, S1_YQ)}, {}),
      mkEvent(1, StreamOp::kFanout, {Pin(3, 3, S1_YQ)},
              {Pin(5, 6, clbIn(3))}),
  };
  const jrcheck::Report rep = dryRun(dev50(), events);
  ASSERT_EQ(rep.findings.size(), 2u) << rep.summary();
  for (const jrcheck::Finding& f : rep.findings) {
    EXPECT_EQ(f.rule, "not-owner");
    EXPECT_EQ(f.severity, jrcheck::Severity::kError);
  }
}

TEST(PlanLintMutationTest, UnrouteDeadFires) {
  const std::vector<Event> events{
      // Never routed.
      mkEvent(0, StreamOp::kUnroute, {Pin(3, 3, S1_YQ)}, {}),
      // Routed, torn down, then unrouted again.
      mkEvent(0, StreamOp::kP2P, {Pin(6, 6, S1_YQ)}, {Pin(7, 8, clbIn(1))}),
      mkEvent(0, StreamOp::kUnroute, {Pin(6, 6, S1_YQ)}, {}),
      mkEvent(0, StreamOp::kUnroute, {Pin(6, 6, S1_YQ)}, {}),
  };
  const jrcheck::Report rep = dryRun(dev50(), events);
  ASSERT_EQ(rep.findings.size(), 2u) << rep.summary();
  EXPECT_EQ(rep.findings[0].rule, "bad-argument");
  EXPECT_EQ(rep.findings[0].entity, "request 0 (t)");
  EXPECT_EQ(rep.findings[1].entity, "request 3 (t)");
  EXPECT_EQ(rep.errorCount(), 2u);
}

TEST(PlanLintMutationTest, ReconnectMissingFires) {
  // The reconnect's unroute finds no net; its route then goes ahead.
  const std::vector<Event> events{
      mkEvent(0, StreamOp::kReconnect, {Pin(3, 3, S1_YQ)},
              {Pin(4, 5, clbIn(2))}),
      mkEvent(0, StreamOp::kUnroute, {Pin(3, 3, S1_YQ)}, {}),
  };
  const jrcheck::Report rep = dryRun(dev50(), events);
  ASSERT_EQ(rep.findings.size(), 1u) << rep.summary();
  EXPECT_EQ(rep.findings[0].rule, "bad-argument");
  EXPECT_EQ(rep.findings[0].entity, "request 0 (t)");
}

TEST(PlanLintMutationTest, UnroutableWarns) {
  // A CLK pin is driven only by the global clock nets: no general
  // routing reaches it.
  const std::vector<Event> events{
      mkEvent(0, StreamOp::kP2P, {Pin(3, 3, S1_YQ)},
              {Pin(4, 5, xcvsim::S0CLK)}),
  };
  const jrcheck::Report rep = dryRun(dev50(), events);
  ASSERT_EQ(rep.findings.size(), 1u) << rep.summary();
  EXPECT_EQ(rep.findings[0].rule, "unroutable");
  EXPECT_EQ(rep.findings[0].severity, jrcheck::Severity::kWarning);
  EXPECT_TRUE(rep.clean());
}

TEST(PlanLintMutationTest, EveryLintRuleHasALivenessProof) {
  // The rules each *Fires / UnroutableWarns test above (and the script
  // tests' lint-malformed) sees fire.
  const std::set<std::string> proven{"lint-malformed", "bad-argument",
                                     "not-owner", "contention",
                                     "unroutable"};
  std::set<std::string> catalogue;
  for (const RuleInfo& r : ruleCatalogue()) {
    EXPECT_TRUE(catalogue.insert(r.id).second) << "duplicate rule " << r.id;
    EXPECT_TRUE(proven.count(r.id)) << "rule " << r.id << " has no proof";
  }
  for (const std::string& id : proven) {
    EXPECT_TRUE(catalogue.count(id)) << "proven rule " << id
                                     << " is not in the catalogue";
  }
}

TEST(PlanLintTest, FindingsArePerRuleCapped) {
  std::vector<Event> events;
  for (int i = 0; i < 20; ++i) {
    events.push_back(mkEvent(0, StreamOp::kP2P, {}, {Pin(4, 5, clbIn(2))}));
  }
  const jrcheck::Report rep = dryRun(dev50(), events);
  EXPECT_EQ(rep.findings.size(), jrcheck::kMaxFindingsPerRule);
  EXPECT_TRUE(rep.fired("bad-argument"));
}

TEST(PlanLintTest, RefusedRouteAppliesNoneOfItsPairs) {
  // The engine rolls a fanout back whole when one sink is taken, so the
  // fanout's free sink is never routed and the unroute after it finds no
  // net.
  std::istringstream in(
      "device XCV50\n"
      "auto 3 3 S0_Y 5 5 S0F1\n"
      "fanout 3 4 S1_YQ 2 6 6 S0F1 5 5 S0F1\n"
      "unroute 3 4 S1_YQ\n");
  const jrcheck::Report rep = lintScript(in);
  ASSERT_EQ(rep.findings.size(), 2u) << rep.summary();
  EXPECT_EQ(rep.findings[0].rule, "contention");
  EXPECT_EQ(rep.findings[0].severity, jrcheck::Severity::kWarning);
  EXPECT_EQ(rep.findings[1].rule, "bad-argument");
  EXPECT_EQ(rep.findings[1].entity, "request 2 (line 4)");
  EXPECT_EQ(rep.errorCount(), 1u);
}

TEST(PlanLintTest, GoldenJsonRendersExactlyAndValidates) {
  const std::vector<Event> events{
      mkEvent(0, StreamOp::kUnroute, {Pin(3, 3, S1_YQ)}, {}),
  };
  const jrcheck::Report rep = dryRun(dev50(), events);
  const std::string expected =
      "{\"schema\":1,\"tool\":\"lint\",\"device\":\"XCV50\","
      "\"clean\":false,\"errors\":1,\"warnings\":0,\"rules\":["
      "\"lint-malformed\",\"bad-argument\",\"not-owner\","
      "\"contention\",\"unroutable\"],"
      "\"checked\":{\"events\":1},\"findings\":["
      "{\"rule\":\"bad-argument\",\"severity\":\"error\","
      "\"entity\":\"request 0 (t)\","
      "\"message\":\"R3C3.S1_YQ is not routed\","
      "\"hint\":\"route a net before unrouting it, and keep pins on the "
      "device\"}]}";
  EXPECT_EQ(rep.json(), expected);
  EXPECT_TRUE(jrtest::validJson(rep.json()));
  // Same workload, same report: the dry run is deterministic.
  EXPECT_EQ(dryRun(dev50(), events).json(), rep.json());
}

// --- Script front end ------------------------------------------------------------

TEST(PlanLintScriptTest, ParsesNetCommandsAndIgnoresTheRest) {
  std::istringstream in(
      "# comment\n"
      "device XCV50\n"
      "stats\n"
      "auto 3 3 S1_YQ 4 5 S0F3\n"
      "fanout 6 6 S1_YQ 2 7 8 S0F2 5 7 S0F3\n"
      "unroute 3 3 S1_YQ\n");
  const ScriptWorkload wl = parseScript(in);
  EXPECT_EQ(wl.device, "XCV50");
  EXPECT_TRUE(wl.parseErrors.empty());
  ASSERT_EQ(wl.events.size(), 3u);
  EXPECT_EQ(wl.events[0].event.op, StreamOp::kP2P);
  EXPECT_EQ(wl.events[1].event.op, StreamOp::kFanout);
  EXPECT_EQ(wl.events[1].event.sinks.size(), 2u);
  EXPECT_EQ(wl.events[2].event.op, StreamOp::kUnroute);
  EXPECT_EQ(wl.events[0].origin, "line 4");
}

TEST(PlanLintScriptTest, ParseErrorSurfacesAsMalformedFinding) {
  std::istringstream in("auto 3 3 NO_SUCH_WIRE 4 5 S0F3\n");
  const jrcheck::Report rep = lintScript(in);
  EXPECT_TRUE(rep.fired("lint-malformed"));
  EXPECT_GE(rep.errorCount(), 1u);
}

TEST(PlanLintScriptTest, ParseErrorsShareTheRuleCap) {
  std::string script;
  for (int i = 0; i < 20; ++i) script += "auto 3 3 NOPE 4 5 S0F3\n";
  std::istringstream in(script);
  const jrcheck::Report rep = lintScript(in);
  EXPECT_EQ(rep.findings.size(), jrcheck::kMaxFindingsPerRule);
}

TEST(PlanLintScriptTest, ParseErrorNamesItsLineOnce) {
  std::istringstream in("device XCV50\nauto 3 3 NOPE 4 5 S0F3\n");
  const jrcheck::Report rep = lintScript(in);
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_EQ(rep.findings[0].entity, "line 2");
  EXPECT_EQ(rep.findings[0].message, "auto: unknown wire 'NOPE'");
}

TEST(PlanLintScriptTest, NumericWireIdThatOverflowsIsAParseError) {
  // Too big for an int, and too big for a LocalWire: neither may crash
  // the parser or wrap around to a real wire.
  std::istringstream in(
      "auto 3 3 99999999999 4 5 S0F3\n"
      "auto 3 3 65600 4 5 S0F3\n");
  const jrcheck::Report rep = lintScript(in);
  ASSERT_EQ(rep.findings.size(), 2u) << rep.summary();
  EXPECT_EQ(rep.findings[0].message, "auto: unknown wire '99999999999'");
  EXPECT_EQ(rep.findings[1].entity, "line 2");
}

TEST(PlanLintScriptTest, RowOrColumnThatOverflowsIsAParseError) {
  // 65539 wraps to 3 in a 16-bit row: the script must not route from
  // R3C3 in its place.
  std::istringstream in(
      "device XCV50\n"
      "auto 65539 3 S1_YQ 4 5 S0F3\n"
      "auto 3 3 S1_YQ 4 -70000 S0F3\n");
  const jrcheck::Report rep = lintScript(in);
  ASSERT_EQ(rep.findings.size(), 2u) << rep.summary();
  EXPECT_EQ(rep.findings[0].rule, "lint-malformed");
  EXPECT_EQ(rep.findings[0].entity, "line 2");
  EXPECT_EQ(rep.findings[0].message, "auto: bad coordinate '65539'");
  EXPECT_EQ(rep.findings[1].message, "auto: bad coordinate '-70000'");
}

TEST(PlanLintScriptTest, UnknownDeviceIsMalformed) {
  std::istringstream in("device XCV9999\nauto 3 3 S1_YQ 4 5 S0F3\n");
  const jrcheck::Report rep = lintScript(in);
  EXPECT_TRUE(rep.fired("lint-malformed"));
  EXPECT_FALSE(rep.clean());
}

TEST(PlanLintScriptTest, CleanScriptLintsClean) {
  std::istringstream in(
      "device XCV50\n"
      "auto 3 3 S1_YQ 4 5 S0F3\n"
      "unroute 3 3 S1_YQ\n");
  const jrcheck::Report rep = lintScript(in);
  EXPECT_TRUE(rep.clean()) << rep.summary();
  EXPECT_TRUE(rep.findings.empty());
}

}  // namespace
}  // namespace jrplan
