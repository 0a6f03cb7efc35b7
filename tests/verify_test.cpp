// jrverify tests: the clean shipped model passes every rule, and — the
// part that keeps the verifier honest — an ArchMutator seeds exactly one
// model corruption per rule through the ModelView hooks and asserts that
// rule fires. A rule nothing can trigger is dead weight; this mirrors the
// FabricMutator harness that proves the runtime DRC's rules live
// (drc_test.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "arch/wires.h"
#include "bitstream/decoder.h"
#include "json_validator.h"
#include "lookahead/lookahead.h"
#include "rule_liveness.h"
#include "verify/verify.h"

namespace {

using jrverify::makeModelView;
using jrverify::ModelView;
using jrverify::runVerify;
using xcvsim::clbIn;
using xcvsim::Dir;
using xcvsim::Graph;
using xcvsim::hex;
using xcvsim::HexTap;
using xcvsim::LocalWire;
using xcvsim::NodeId;
using xcvsim::PipKey;
using xcvsim::PipKeyKind;
using xcvsim::PipTable;
using xcvsim::RowCol;
using xcvsim::single;
using xcvsim::sliceOut;
using xcvsim::TemplateValue;

/// One XCV50 model, built once and shared read-only by every test.
struct SharedModel {
  Graph graph{xcvsim::xcv50()};
  PipTable table{graph.arch()};
  xcvsim::Fabric fabric{graph, table};
};

SharedModel& model() {
  static SharedModel* m = new SharedModel();
  return *m;
}

/// Mutation harness: starts from the all-real view and lets each test
/// corrupt exactly one accessor before running the verifier.
class ArchMutator {
 public:
  ArchMutator() : view_(makeModelView(model().graph, model().table,
                                      model().fabric)) {}

  ModelView& view() { return view_; }

  jrcheck::Report run() { return runVerify(view_); }

 private:
  ModelView view_;
};

TEST(VerifyTest, CleanModelPasses) {
  ArchMutator m;
  const jrcheck::Report rep = m.run();
  EXPECT_TRUE(rep.clean()) << rep.summary();
  EXPECT_EQ(rep.rulesRun.size(), jrverify::verifyRules().size());
  EXPECT_GT(rep.count("pips"), 0u);
  EXPECT_GT(rep.count("templates"), 0u);
  EXPECT_GT(rep.count("slots"), 0u);
}

TEST(VerifyTest, CatalogueHasAllLayersAndUniqueIds) {
  const auto rules = jrverify::verifyRules();
  EXPECT_GE(rules.size(), 12u);
  std::set<std::string> ids;
  std::set<std::string> layers;
  for (const jrverify::VerifyRule& r : rules) {
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate id " << r.id;
    layers.insert(r.group);
    EXPECT_EQ(&r, jrcheck::findRule(rules, r.id));
  }
  EXPECT_EQ(layers.size(), 5u);
  EXPECT_EQ(jrcheck::findRule(rules, "no-such-rule"), nullptr);
}

TEST(VerifyTest, VerifyDeviceIsCleanOnXcv50) {
  // A fresh model, not the shared one: the device verifies from scratch.
  const Graph graph(xcvsim::xcv50());
  const PipTable table(graph.arch());
  xcvsim::Fabric fabric(graph, table);
  const jrcheck::Report rep = runVerify(makeModelView(graph, table, fabric));
  EXPECT_TRUE(rep.clean()) << rep.summary();
  EXPECT_EQ(rep.device, "XCV50");
  EXPECT_EQ(rep.rulesRun.size(), jrverify::verifyRules().size());
}

TEST(VerifyTest, JsonReportIsValidAndCarriesFindings) {
  // Corrupt one accessor so the JSON path exercises a non-empty findings
  // array, then validate against the shared RFC 8259 grammar.
  ArchMutator m;
  const auto realInfo = m.view().wireInfo;
  m.view().wireInfo = [realInfo](LocalWire w) {
    auto info = realInfo(w);
    if (w == single(Dir::East, 0)) info.length = 3;
    return info;
  };
  const jrcheck::Report rep = m.run();
  ASSERT_FALSE(rep.clean());
  const std::string json = rep.json();
  EXPECT_TRUE(jrtest::JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"device\":\"XCV50\""), std::string::npos);
  EXPECT_NE(json.find("\"clean\":false"), std::string::npos);
  EXPECT_NE(json.find("arch-wire-geometry"), std::string::npos);
  EXPECT_NE(json.find("\"hint\":"), std::string::npos);
  // The clean report must be valid JSON too.
  ArchMutator clean;
  EXPECT_TRUE(jrtest::JsonValidator(clean.run().json()).valid());
}

TEST(VerifyTest, SummaryNamesTheRuleAndEntity) {
  ArchMutator m;
  const auto realInfo = m.view().wireInfo;
  m.view().wireInfo = [realInfo](LocalWire w) {
    auto info = realInfo(w);
    if (w == single(Dir::East, 0)) info.length = 3;
    return info;
  };
  const std::string text = m.run().summary();
  EXPECT_NE(text.find("arch-wire-geometry"), std::string::npos) << text;
  EXPECT_NE(text.find("hint:"), std::string::npos) << text;
}

// ---- one mutation per rule: every rule must be live --------------------

TEST(VerifyMutationTest, PipSymmetryFiresOnDroppedDrivesEntry) {
  ArchMutator m;
  const auto real = m.view().drives;
  m.view().drives = [real](RowCol rc, LocalWire w) {
    auto out = real(rc, w);
    if (!out.empty()) out.pop_back();
    return out;
  };
  EXPECT_TRUE(m.run().fired("arch-pip-symmetry"));
}

TEST(VerifyMutationTest, WireGeometryFiresOnWrongLength) {
  ArchMutator m;
  const auto real = m.view().wireInfo;
  m.view().wireInfo = [real](LocalWire w) {
    auto info = real(w);
    if (w == single(Dir::East, 0)) info.length = 3;
    return info;
  };
  EXPECT_TRUE(m.run().fired("arch-wire-geometry"));
}

TEST(VerifyMutationTest, PatternRangeFiresOnSelfLoopPip) {
  ArchMutator m;
  const auto real = m.view().tilePips;
  m.view().tilePips = [real](RowCol rc, const auto& cb) {
    real(rc, cb);
    cb(sliceOut(0), sliceOut(0));
  };
  EXPECT_TRUE(m.run().fired("arch-pattern-range"));
}

TEST(VerifyMutationTest, DriverClassFiresOnSingleDrivingHex) {
  ArchMutator m;
  const auto real = m.view().tilePips;
  m.view().tilePips = [real](RowCol rc, const auto& cb) {
    real(rc, cb);
    // The paper's matrix: singles never drive hexes (hexes must lead).
    cb(single(Dir::East, 0), hex(Dir::East, HexTap::Beg, 0));
  };
  EXPECT_TRUE(m.run().fired("arch-driver-class"));
}

TEST(VerifyMutationTest, TemplateClassFiresOnMisclassifiedEdge) {
  ArchMutator m;
  m.view().templateValue = [](NodeId, const xcvsim::Edge&) {
    return TemplateValue::IOPAD;
  };
  EXPECT_TRUE(m.run().fired("arch-template-class"));
}

TEST(VerifyMutationTest, EdgeBijectionFiresOnSuppressedArchPip) {
  ArchMutator m;
  const auto real = m.view().tilePips;
  m.view().tilePips = [real](RowCol rc, const auto& cb) {
    bool skipped = false;
    real(rc, [&](LocalWire f, LocalWire t) {
      if (!skipped) {
        skipped = true;  // the graph edge for this pip is now unmatched
        return;
      }
      cb(f, t);
    });
  };
  EXPECT_TRUE(m.run().fired("rrg-edge-bijection"));
}

TEST(VerifyMutationTest, AliasRoundtripFiresOnBrokenAlias) {
  ArchMutator m;
  m.view().aliasAt = [](NodeId, RowCol) { return xcvsim::kInvalidLocalWire; };
  EXPECT_TRUE(m.run().fired("rrg-alias-roundtrip"));
}

TEST(VerifyMutationTest, SinkReachableFiresOnSeveredInputPin) {
  ArchMutator m;
  const Graph& g = model().graph;
  const NodeId target = g.nodeAt(RowCol{8, 12}, clbIn(0));
  ASSERT_NE(target, xcvsim::kInvalidNode);
  m.view().edgeEnabled = [&g, target](xcvsim::EdgeId e) {
    return g.edge(e).to != target;
  };
  EXPECT_TRUE(m.run().fired("rrg-sink-reachable"));
}

TEST(VerifyMutationTest, OrphanNodeFiresOnFullySeveredNode) {
  ArchMutator m;
  const Graph& g = model().graph;
  const NodeId target = g.nodeAt(RowCol{8, 12}, single(Dir::East, 5));
  ASSERT_NE(target, xcvsim::kInvalidNode);
  m.view().edgeEnabled = [&g, target](xcvsim::EdgeId e) {
    return g.edge(e).to != target && g.edgeSource(e) != target;
  };
  EXPECT_TRUE(m.run().fired("rrg-orphan-node"));
}

TEST(VerifyMutationTest, TemplateDisplacementFiresOnPaddedTemplate) {
  ArchMutator m;
  const auto real = m.view().templates;
  m.view().templates = [real](RowCol from, RowCol to) {
    auto out = real(from, to);
    for (auto& t : out) t.push_back(TemplateValue::EAST1);
    return out;
  };
  EXPECT_TRUE(m.run().fired("tpl-displacement"));
}

TEST(VerifyMutationTest, TemplateBoundsFiresOnWalkOffTheArray) {
  ArchMutator m;
  m.view().templates = [](RowCol, RowCol) {
    // 8 eastward hexes = +48 columns: off every shipped device.
    std::vector<TemplateValue> t{TemplateValue::OUTMUX};
    for (int i = 0; i < 8; ++i) t.push_back(TemplateValue::EAST6);
    t.push_back(TemplateValue::CLBIN);
    return std::vector<std::vector<TemplateValue>>{t};
  };
  EXPECT_TRUE(m.run().fired("tpl-bounds"));
}

TEST(VerifyMutationTest, TemplateReplayFiresOnHexIntoClbIn) {
  ArchMutator m;
  m.view().templates = [](RowCol, RowCol) {
    // Hexes never drive CLB inputs; this can never replay anywhere.
    return std::vector<std::vector<TemplateValue>>{
        {TemplateValue::OUTMUX, TemplateValue::EAST6, TemplateValue::CLBIN}};
  };
  EXPECT_TRUE(m.run().fired("tpl-replay"));
}

TEST(VerifyMutationTest, SlotRoundtripFiresOnSwappedSlots) {
  ArchMutator m;
  const auto real = m.view().keyAt;
  m.view().keyAt = [real](int slot) {
    if (slot == 0) return real(1);
    if (slot == 1) return real(0);
    return real(slot);
  };
  EXPECT_TRUE(m.run().fired("bit-slot-roundtrip"));
}

TEST(VerifyMutationTest, KeyCoverageFiresOnUnmappedGlobalPad) {
  ArchMutator m;
  const auto real = m.view().slotOf;
  m.view().slotOf = [real](const PipKey& key) {
    if (key.kind == PipKeyKind::GlobalPad) return -1;
    return real(key);
  };
  EXPECT_TRUE(m.run().fired("bit-key-coverage"));
}

TEST(VerifyMutationTest, NoAliasingFiresOnFrameCapacityOverflow) {
  ArchMutator m;
  m.view().bitsPerTileRow = []() { return 1; };
  EXPECT_TRUE(m.run().fired("bit-no-aliasing"));
}

TEST(VerifyMutationTest, NoAliasingFiresOnDuplicateKey) {
  ArchMutator m;
  const auto real = m.view().keyAt;
  m.view().keyAt = [real](int slot) {
    return real(slot == 1 ? 0 : slot);
  };
  EXPECT_TRUE(m.run().fired("bit-no-aliasing"));
}

TEST(VerifyMutationTest, EncodeDecodeFiresOnDroppedDecodeEntry) {
  ArchMutator m;
  const auto real = m.view().decode;
  m.view().decode = [real](const xcvsim::Bitstream& bs) {
    auto out = real(bs);
    if (!out.empty()) out.erase(out.begin());
    return out;
  };
  EXPECT_TRUE(m.run().fired("bit-encode-decode"));
}

TEST(VerifyMutationTest, LookaheadAdmissibleFiresOnInflatedEstimate) {
  ArchMutator m;
  const auto real = m.view().lookaheadEstimate;
  m.view().lookaheadEstimate = [real](NodeId from, NodeId to) {
    // A constant pad breaks the lower-bound contract for near pairs.
    return real(from, to) + 5000;
  };
  EXPECT_TRUE(m.run().fired("lookahead-admissible"));
}

TEST(VerifyMutationTest, LookaheadAdmissibleFiresOnSpuriousUnreachable) {
  ArchMutator m;
  m.view().lookaheadEstimate = [](NodeId, NodeId) {
    return jrla::Lookahead::kUnreachable;
  };
  EXPECT_TRUE(m.run().fired("lookahead-admissible"));
}

TEST(VerifyMutationTest, EveryRuleHasALivenessProof) {
  jrtest::expectEveryRuleProven(
      jrverify::verifyRules(),
      {"arch-pip-symmetry", "arch-wire-geometry", "arch-pattern-range",
       "arch-driver-class", "arch-template-class", "rrg-edge-bijection",
       "rrg-alias-roundtrip", "rrg-sink-reachable", "rrg-orphan-node",
       "tpl-displacement", "tpl-bounds", "tpl-replay", "bit-slot-roundtrip",
       "bit-key-coverage", "bit-no-aliasing", "bit-encode-decode",
       "lookahead-admissible"});
}

}  // namespace
