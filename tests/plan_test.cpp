// Tests for jrplan: the workload linter, with a mutation harness proving
// every rule live.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "arch/wires.h"
#include "json_validator.h"
#include "plan/lint.h"
#include "plan/lint_script.h"
#include "rule_liveness.h"

namespace jrplan {
namespace {

using xcvsim::clbIn;
using xcvsim::S1_YQ;

// --- Workload linter -------------------------------------------------------------

LintEvent mkEvent(std::string session, SpecOp op, std::vector<Pin> srcs,
                  std::vector<Pin> sinks, std::string origin = "t") {
  LintEvent ev;
  ev.session = std::move(session);
  ev.origin = std::move(origin);
  ev.spec.op = op;
  ev.spec.srcs = std::move(srcs);
  ev.spec.sinks = std::move(sinks);
  return ev;
}

const xcvsim::DeviceSpec& dev50() { return xcvsim::xcv50(); }

TEST(PlanLintTest, CleanStreamHasNoFindings) {
  const std::vector<LintEvent> events{
      mkEvent("a", SpecOp::kP2P, {Pin(3, 3, S1_YQ)}, {Pin(4, 5, clbIn(2))}),
      mkEvent("a", SpecOp::kFanout, {Pin(6, 6, S1_YQ)},
              {Pin(7, 8, clbIn(1)), Pin(5, 7, clbIn(2))}),
      mkEvent("b", SpecOp::kBus, {Pin(10, 3, S1_YQ), Pin(11, 3, S1_YQ)},
              {Pin(10, 6, clbIn(2)), Pin(11, 6, clbIn(2))}),
      mkEvent("a", SpecOp::kReconnect, {Pin(3, 3, S1_YQ)},
              {Pin(4, 6, clbIn(3))}),
      mkEvent("a", SpecOp::kUnroute, {Pin(3, 3, S1_YQ)}, {}),
  };
  const jrcheck::Report rep = lintEvents(dev50(), events);
  EXPECT_TRUE(rep.findings.empty()) << rep.summary();
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.count("events"), events.size());
  EXPECT_EQ(rep.rulesRun.size(), lintRules().size());
}

TEST(PlanLintMutationTest, MalformedFires) {
  const std::vector<LintEvent> events{
      mkEvent("a", SpecOp::kP2P, {}, {Pin(4, 5, clbIn(2))}),
      mkEvent("a", SpecOp::kP2P, {Pin(3, 3, S1_YQ)}, {}),
      mkEvent("a", SpecOp::kBus, {Pin(3, 3, S1_YQ), Pin(4, 3, S1_YQ)},
              {Pin(3, 6, clbIn(1))}),
      mkEvent("a", SpecOp::kP2P, {Pin(99, 99, S1_YQ)},
              {Pin(4, 5, clbIn(2))}),
  };
  const jrcheck::Report rep = lintEvents(dev50(), events);
  EXPECT_TRUE(rep.fired("lint-malformed"));
  EXPECT_GE(rep.errorCount(), 4u);
}

TEST(PlanLintMutationTest, DoubleClaimFires) {
  const Pin sink(4, 5, clbIn(2));
  const std::vector<LintEvent> events{
      mkEvent("a", SpecOp::kP2P, {Pin(3, 3, S1_YQ)}, {sink}),
      // Same session: warning (the anomaly-smoke pattern).
      mkEvent("a", SpecOp::kP2P, {Pin(6, 6, S1_YQ)}, {sink}),
      // Cross-session: error.
      mkEvent("b", SpecOp::kP2P, {Pin(8, 8, S1_YQ)}, {sink}),
  };
  const jrcheck::Report rep = lintEvents(dev50(), events);
  EXPECT_TRUE(rep.fired("lint-double-claim"));
  EXPECT_EQ(rep.warningCount(), 1u);
  EXPECT_EQ(rep.errorCount(), 1u);
}

TEST(PlanLintMutationTest, NotOwnerFires) {
  const std::vector<LintEvent> events{
      mkEvent("a", SpecOp::kP2P, {Pin(3, 3, S1_YQ)}, {Pin(4, 5, clbIn(2))}),
      mkEvent("b", SpecOp::kUnroute, {Pin(3, 3, S1_YQ)}, {}),
      mkEvent("b", SpecOp::kFanout, {Pin(3, 3, S1_YQ)},
              {Pin(5, 6, clbIn(3))}),
  };
  const jrcheck::Report rep = lintEvents(dev50(), events);
  EXPECT_TRUE(rep.fired("lint-not-owner"));
  EXPECT_GE(rep.errorCount(), 2u);
}

TEST(PlanLintMutationTest, UnrouteDeadFires) {
  const std::vector<LintEvent> events{
      // Never routed.
      mkEvent("a", SpecOp::kUnroute, {Pin(3, 3, S1_YQ)}, {}),
      // Routed, torn down, then unrouted again.
      mkEvent("a", SpecOp::kP2P, {Pin(6, 6, S1_YQ)}, {Pin(7, 8, clbIn(1))}),
      mkEvent("a", SpecOp::kUnroute, {Pin(6, 6, S1_YQ)}, {}),
      mkEvent("a", SpecOp::kUnroute, {Pin(6, 6, S1_YQ)}, {}),
  };
  const jrcheck::Report rep = lintEvents(dev50(), events);
  EXPECT_TRUE(rep.fired("lint-unroute-dead"));
  EXPECT_EQ(rep.errorCount(), 2u);
}

TEST(PlanLintMutationTest, ReconnectMissingFires) {
  const std::vector<LintEvent> events{
      mkEvent("a", SpecOp::kReconnect, {Pin(3, 3, S1_YQ)},
              {Pin(4, 5, clbIn(2))}),
  };
  const jrcheck::Report rep = lintEvents(dev50(), events);
  EXPECT_TRUE(rep.fired("lint-reconnect-missing"));
  EXPECT_EQ(rep.errorCount(), 1u);
}

TEST(PlanLintMutationTest, EveryLintRuleHasALivenessProof) {
  jrtest::expectEveryRuleProven(
      lintRules(), {"lint-malformed", "lint-double-claim", "lint-not-owner",
                    "lint-unroute-dead", "lint-reconnect-missing"});
}

TEST(PlanLintTest, FindingsArePerRuleCapped) {
  std::vector<LintEvent> events;
  for (int i = 0; i < 20; ++i) {
    events.push_back(mkEvent("a", SpecOp::kP2P, {}, {Pin(4, 5, clbIn(2))}));
  }
  const jrcheck::Report rep = lintEvents(dev50(), events);
  size_t malformed = 0;
  for (const jrcheck::Finding& f : rep.findings) {
    if (f.rule == "lint-malformed") ++malformed;
  }
  EXPECT_EQ(malformed, 8u);  // kMaxFindingsPerRule
}

TEST(PlanLintTest, RefusedRouteAppliesNoneOfItsPairs) {
  // The service rolls a fanout back whole when one sink is taken, so the
  // fanout's free sink never gets routed and the unroute after it finds
  // no net. The interpreter must follow suit and not route the free pair.
  std::istringstream in(
      "device XCV50\n"
      "auto 3 3 S0_Y 5 5 S0F1\n"
      "fanout 3 4 S1_YQ 2 6 6 S0F1 5 5 S0F1\n"
      "unroute 3 4 S1_YQ\n");
  const jrcheck::Report rep = lintScript(in);
  bool unrouteDead = false;
  for (const jrcheck::Finding& f : rep.findings) {
    unrouteDead = unrouteDead || (f.rule == "lint-unroute-dead" &&
                                  f.entity == "request 2 (3,4,S1_YQ)");
  }
  EXPECT_TRUE(unrouteDead) << rep.summary();
  EXPECT_TRUE(rep.fired("lint-double-claim")) << rep.summary();
  EXPECT_EQ(rep.errorCount(), 1u) << rep.summary();
}

TEST(PlanLintTest, GoldenJsonRendersExactlyAndValidates) {
  const std::vector<LintEvent> events{
      mkEvent("a", SpecOp::kUnroute, {Pin(3, 3, S1_YQ)}, {}),
  };
  const jrcheck::Report rep = lintEvents(dev50(), events);
  const std::string expected =
      "{\"schema\":1,\"tool\":\"lint\",\"device\":\"XCV50\","
      "\"clean\":false,\"errors\":1,\"warnings\":0,\"rules\":["
      "\"lint-malformed\",\"lint-double-claim\",\"lint-not-owner\","
      "\"lint-unroute-dead\",\"lint-reconnect-missing\"],"
      "\"checked\":{\"events\":1},\"findings\":["
      "{\"rule\":\"lint-unroute-dead\",\"severity\":\"error\","
      "\"entity\":\"request 0 (3,3,S1_YQ)\","
      "\"message\":\"unroute of a net that was never routed\","
      "\"hint\":\"route the net before unrouting it\"}]}";
  EXPECT_EQ(rep.json(), expected);
  EXPECT_TRUE(jrtest::validJson(rep.json()));
  // Same stream, same report — the linter is deterministic.
  EXPECT_EQ(lintEvents(dev50(), events).json(), rep.json());
}

// --- Script front-end ------------------------------------------------------------

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
  EXPECT_EQ(wl.events[0].spec.op, SpecOp::kP2P);
  EXPECT_EQ(wl.events[1].spec.op, SpecOp::kFanout);
  EXPECT_EQ(wl.events[1].spec.sinks.size(), 2u);
  EXPECT_EQ(wl.events[2].spec.op, SpecOp::kUnroute);
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
