// Tests for the checkers' shared findings model (src/check): the report's
// per-rule cap, coverage counts, renderers and runRules' bookkeeping.
// The three checkers' own suites prove their rules; this one proves the
// machinery they share.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "check/check.h"
#include "json_validator.h"
#include "obs/metrics.h"

namespace jrcheck {
namespace {

/// A toy checker: the input is the number of findings each rule adds.
struct Toy {
  int findings = 0;
  bool optional = false;
};

void addN(const Toy& in, RuleSink& out) {
  ++out.count("items");
  for (int i = 0; i < in.findings; ++i) {
    out.add("item " + std::to_string(i), "bad \"item\"", "fix it");
  }
}

void warnOnce(const Toy&, RuleSink& out) { out.add("toy", "suspicious"); }

const Rule<Toy> kToyRules[] = {
    {"toy-errors", "toys", Severity::kError, "adds the requested findings",
     nullptr, addN},
    {"toy-warning", "toys", Severity::kWarning, "warns when asked",
     [](const Toy& in) { return in.optional; }, warnOnce},
};

Report runToy(const Toy& in) {
  Report rep("toy", "XCV50", {"items"});
  runRules<Toy>(kToyRules, in, rep);
  return rep;
}

TEST(CheckReportTest, CleanRunListsApplicableRulesAndCounts) {
  const Report rep = runToy(Toy{});
  EXPECT_TRUE(rep.clean());
  EXPECT_TRUE(rep.findings.empty());
  ASSERT_EQ(rep.rulesRun.size(), 1u);  // toy-warning does not apply
  EXPECT_EQ(rep.rulesRun[0], "toy-errors");
  EXPECT_EQ(rep.count("items"), 1u);
  EXPECT_EQ(rep.summary(), "toy XCV50: 1 rules over 1 items: clean\n");
}

TEST(CheckReportTest, AddKeepsAtMostTheCapPerRule) {
  const Report rep = runToy(Toy{20, true});
  EXPECT_EQ(rep.errorCount(), kMaxFindingsPerRule);
  EXPECT_EQ(rep.warningCount(), 1u);
  EXPECT_TRUE(rep.fired("toy-errors"));
  EXPECT_TRUE(rep.fired("toy-warning"));
  EXPECT_FALSE(rep.fired("toy-none"));
  EXPECT_FALSE(rep.clean());
}

TEST(CheckReportTest, WarningsAloneStayClean) {
  const Report rep = runToy(Toy{0, true});
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.warningCount(), 1u);
}

TEST(CheckReportTest, UndeclaredCoverageCountThrows) {
  Report rep("toy", "", {"items"});
  EXPECT_THROW(rep.count("widgets"), std::invalid_argument);
}

TEST(CheckReportTest, JsonCarriesSchemaToolAndEscapedFindings) {
  const Report rep = runToy(Toy{1, false});
  const std::string json = rep.json();
  EXPECT_TRUE(jrtest::validJson(json)) << json;
  EXPECT_EQ(json.rfind("{\"schema\":1,\"tool\":\"toy\",\"device\":\"XCV50\"",
                       0),
            0u)
      << json;
  EXPECT_NE(json.find("\"checked\":{\"items\":1}"), std::string::npos);
  EXPECT_NE(json.find("\"message\":\"bad \\\"item\\\"\""), std::string::npos);
  EXPECT_TRUE(jrtest::validJson(runToy(Toy{}).json()));
}

TEST(CheckReportTest, SummaryListsEachFindingWithItsHint) {
  const std::string text = runToy(Toy{1, true}).summary();
  EXPECT_NE(text.find("1 error(s), 1 warning(s)"), std::string::npos) << text;
  EXPECT_NE(text.find("  [error] toy-errors @ item 0: bad \"item\"\n"
                      "      hint: fix it\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("  [warning] toy-warning @ toy: suspicious\n"),
            std::string::npos)
      << text;
}

TEST(CheckReportTest, RunRecordsEachApplicableRuleOnce) {
  jrobs::MetricsRegistry& reg = jrobs::registry();
  const auto value = [&](const char* name) {
    return reg.counter(name).value();
  };
  const uint64_t runs = value("toy.runs");
  const uint64_t errors = value("toy.rule.toy-errors.findings");
  const uint64_t warnings = value("toy.rule.toy-warning.findings");
  const Report rep = runToy(Toy{3, false});
  EXPECT_EQ(rep.rulesRun, std::vector<std::string>{"toy-errors"});
  EXPECT_EQ(rep.count("items"), 1u);
  if (jrobs::compiledIn()) {
    EXPECT_EQ(value("toy.runs"), runs + 1);
    EXPECT_EQ(value("toy.rule.toy-errors.findings"), errors + 3);
    // A rule that does not apply records nothing.
    EXPECT_EQ(value("toy.rule.toy-warning.findings"), warnings);
  }
}

TEST(CheckReportTest, ExitStatusIsTheErrorCountCappedAt125) {
  EXPECT_EQ(exitStatus(0), 0);
  EXPECT_EQ(exitStatus(7), 7);
  EXPECT_EQ(exitStatus(125), 125);
  EXPECT_EQ(exitStatus(100000), 125);
}

}  // namespace
}  // namespace jrcheck
