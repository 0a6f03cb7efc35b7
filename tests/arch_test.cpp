// Unit tests for the architecture description layer: local wire namespace,
// template values, device family, sparse patterns, and ArchDb queries.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "arch/arch_db.h"
#include "arch/patterns.h"
#include "arch/template_value.h"
#include "arch/tile_patterns.h"
#include "arch/wires.h"
#include "common/error.h"

namespace xcvsim {
namespace {

TEST(Wires, KindRangesArePartition) {
  int counts[16] = {};
  for (LocalWire w = 0; w < kNumLocalWires; ++w) {
    counts[static_cast<int>(wireKind(w))]++;
  }
  EXPECT_EQ(counts[static_cast<int>(WireKind::SliceOut)], kSliceOutputs);
  EXPECT_EQ(counts[static_cast<int>(WireKind::Omux)], kOutWires);
  EXPECT_EQ(counts[static_cast<int>(WireKind::ClbIn)], kClbInputs);
  EXPECT_EQ(counts[static_cast<int>(WireKind::Single)],
            4 * kSinglesPerChannel);
  EXPECT_EQ(counts[static_cast<int>(WireKind::Hex)], 4 * 3 * kHexTracks);
  EXPECT_EQ(counts[static_cast<int>(WireKind::Long)], 2 * kLongTracks);
  EXPECT_EQ(counts[static_cast<int>(WireKind::Gclk)], kGlobalNets);
  EXPECT_EQ(counts[static_cast<int>(WireKind::IobIn)], kIobsPerTile);
  EXPECT_EQ(counts[static_cast<int>(WireKind::IobOut)], kIobsPerTile);
  EXPECT_EQ(counts[static_cast<int>(WireKind::BramOut)], kBramPinsPerTile);
  EXPECT_EQ(counts[static_cast<int>(WireKind::BramIn)],
            2 * kBramPinsPerTile);
}

TEST(Wires, ConstructorsRoundTrip) {
  EXPECT_EQ(wireKind(single(Dir::East, 5)), WireKind::Single);
  EXPECT_EQ(wireDir(single(Dir::East, 5)), Dir::East);
  EXPECT_EQ(wireIndex(single(Dir::East, 5)), 5);

  const LocalWire h = hex(Dir::North, HexTap::Mid, 7);
  EXPECT_EQ(wireKind(h), WireKind::Hex);
  EXPECT_EQ(wireDir(h), Dir::North);
  EXPECT_EQ(wireHexTap(h), HexTap::Mid);
  EXPECT_EQ(wireIndex(h), 7);

  EXPECT_EQ(wireIndex(longH(11)), 11);
  EXPECT_EQ(wireIndex(longV(3)), 3);
  EXPECT_EQ(wireIndex(gclk(2)), 2);
}

TEST(Wires, PaperExampleNames) {
  EXPECT_EQ(wireName(S1_YQ), "S1_YQ");
  EXPECT_EQ(wireName(S0F3), "S0F3");
  EXPECT_EQ(wireName(single(Dir::East, 5)), "SingleEast[5]");
  EXPECT_EQ(wireName(single(Dir::West, 5)), "SingleWest[5]");
  EXPECT_EQ(wireName(single(Dir::North, 0)), "SingleNorth[0]");
  EXPECT_EQ(wireName(omux(1)), "OUT[1]");
  EXPECT_EQ(wireName(hex(Dir::North, HexTap::Beg, 4)), "HexNorth[4]");
}

TEST(Wires, ClockPins) {
  EXPECT_TRUE(isClockPin(S0CLK));
  EXPECT_TRUE(isClockPin(S1CLK));
  EXPECT_FALSE(isClockPin(S0F1));
  EXPECT_FALSE(isClockPin(S1CE));
}

TEST(Wires, Lengths) {
  EXPECT_EQ(wireLength(single(Dir::South, 0)), 1);
  EXPECT_EQ(wireLength(hex(Dir::East, HexTap::Beg, 0)), kHexSpan);
  EXPECT_EQ(wireLength(S0_X), 0);
}

TEST(Wires, InvalidIdThrows) {
  EXPECT_THROW(wireKind(kNumLocalWires), ArgumentError);
  EXPECT_FALSE(isValidWire(kNumLocalWires));
  EXPECT_TRUE(isValidWire(0));
}

TEST(Device, FamilyMatchesPaperRange) {
  // "The array sizes for Virtex range from 16x24 CLBs to 64x96 CLBs."
  const auto fam = deviceFamily();
  ASSERT_FALSE(fam.empty());
  EXPECT_EQ(fam.front().rows, 16);
  EXPECT_EQ(fam.front().cols, 24);
  EXPECT_EQ(fam.back().rows, 64);
  EXPECT_EQ(fam.back().cols, 96);
  for (size_t i = 1; i < fam.size(); ++i) {
    EXPECT_GT(fam[i].tiles(), fam[i - 1].tiles());
  }
}

TEST(Device, LookupByName) {
  EXPECT_EQ(deviceByName("XCV300").rows, 32);
  EXPECT_THROW(deviceByName("XCV9999"), ArgumentError);
}

TEST(TemplateValues, SingleAndHexDirections) {
  EXPECT_EQ(singleValue(Dir::North), TemplateValue::NORTH1);
  EXPECT_EQ(hexValue(Dir::West), TemplateValue::WEST6);
  EXPECT_EQ(templateDCol(TemplateValue::EAST6), 6);
  EXPECT_EQ(templateDRow(TemplateValue::SOUTH1), -1);
  EXPECT_EQ(templateValueName(TemplateValue::OUTMUX), "OUTMUX");
}

TEST(Patterns, NonClockPinSkipsClocks) {
  std::set<int> pins;
  for (int i = 0; i < kSinglesPerChannel; ++i) {
    const int p = nonClockPin(i);
    EXPECT_FALSE(isClockPin(clbIn(p))) << "pin " << p;
    pins.insert(p);
  }
  // Bijection: all 24 non-clock pins are covered.
  EXPECT_EQ(pins.size(), static_cast<size_t>(kClbInputs - 2));
}

TEST(Patterns, TrackMapsStayInRange) {
  for (int o = 0; o < kSliceOutputs; ++o) {
    for (int j : omuxFromOutput(o)) EXPECT_LT(j, kOutWires);
  }
  for (int j = 0; j < kOutWires; ++j) {
    for (int t : singlesFromOut(j)) EXPECT_LT(t, kSinglesPerChannel);
    for (int t : hexFromOut(j)) EXPECT_LT(t, kHexTracks);
  }
  for (int t = 0; t < kHexTracks; ++t) {
    for (int s : singleFromHex(t)) EXPECT_LT(s, kSinglesPerChannel);
    EXPECT_LT(hexTurn(t), kHexTracks);
  }
}

TEST(Patterns, LongAccessEverySixTiles) {
  for (int t = 0; t < kLongTracks; ++t) {
    int count = 0;
    for (int pos = 0; pos < 48; ++pos) {
      if (longAccessibleAt(t, pos)) ++count;
    }
    EXPECT_EQ(count, 48 / kLongAccessPeriod);
  }
}

TEST(Patterns, BidirHexesAreHalfTheTracks) {
  int bidir = 0;
  for (int t = 0; t < kHexTracks; ++t) bidir += hexIsBidir(t) ? 1 : 0;
  EXPECT_EQ(bidir, kHexTracks / 2);
}

class ArchDbTest : public ::testing::Test {
 protected:
  ArchDb db_{xcv50()};
};

TEST_F(ArchDbTest, LogicWiresExistEverywhere) {
  for (int16_t r : {int16_t{0}, int16_t{15}}) {
    for (int16_t c : {int16_t{0}, int16_t{23}}) {
      EXPECT_TRUE(db_.existsAt({r, c}, S0_X));
      EXPECT_TRUE(db_.existsAt({r, c}, omux(7)));
      EXPECT_TRUE(db_.existsAt({r, c}, S1CLK));
      EXPECT_TRUE(db_.existsAt({r, c}, gclk(3)));
    }
  }
}

TEST_F(ArchDbTest, ChannelExistenceAtEdges) {
  // No east channel on the east edge, no west channel on the west edge.
  EXPECT_FALSE(db_.existsAt({5, 23}, single(Dir::East, 0)));
  EXPECT_TRUE(db_.existsAt({5, 22}, single(Dir::East, 0)));
  EXPECT_FALSE(db_.existsAt({5, 0}, single(Dir::West, 0)));
  EXPECT_FALSE(db_.existsAt({0, 5}, single(Dir::South, 0)));
  EXPECT_FALSE(db_.existsAt({15, 5}, single(Dir::North, 0)));
}

TEST_F(ArchDbTest, HexExistenceRespectsSpan) {
  // An east hex starting at column 18 ends exactly at the east edge (23).
  EXPECT_TRUE(db_.existsAt({5, 17}, hex(Dir::East, HexTap::Beg, 0)));
  EXPECT_FALSE(db_.existsAt({5, 18}, hex(Dir::East, HexTap::Beg, 0)));
  // The END alias of that hex sits six columns east of its origin.
  EXPECT_TRUE(db_.existsAt({5, 23}, hex(Dir::East, HexTap::End, 0)));
  // MID aliases need the origin three tiles upstream.
  EXPECT_TRUE(db_.existsAt({5, 3}, hex(Dir::East, HexTap::Mid, 0)));
  EXPECT_FALSE(db_.existsAt({5, 2}, hex(Dir::East, HexTap::Mid, 0)));
}

TEST_F(ArchDbTest, HexOrigin) {
  EXPECT_EQ(db_.hexOrigin({5, 9}, hex(Dir::East, HexTap::Mid, 3)),
            (RowCol{5, 6}));
  EXPECT_EQ(db_.hexOrigin({5, 9}, hex(Dir::West, HexTap::End, 3)),
            (RowCol{5, 15}));
  EXPECT_EQ(db_.hexOrigin({9, 5}, hex(Dir::North, HexTap::Beg, 3)),
            (RowCol{9, 5}));
}

TEST_F(ArchDbTest, LongAccessPositions) {
  EXPECT_TRUE(db_.existsAt({3, 0}, longH(0)));
  EXPECT_TRUE(db_.existsAt({3, 6}, longH(0)));
  EXPECT_FALSE(db_.existsAt({3, 1}, longH(0)));
  EXPECT_TRUE(db_.existsAt({6, 3}, longV(0)));
  EXPECT_FALSE(db_.existsAt({1, 3}, longV(0)));
}

TEST_F(ArchDbTest, DriverRulesAreRespected) {
  const RowCol rc{8, 12};  // interior tile
  db_.forEachTilePip(rc, [&](LocalWire f, LocalWire t) {
    const WireKind fk = wireKind(f);
    const WireKind tk = wireKind(t);
    switch (fk) {
      case WireKind::SliceOut:
        EXPECT_TRUE(tk == WireKind::Omux || tk == WireKind::ClbIn);
        break;
      case WireKind::Omux:
        // "Logic block outputs drive all length interconnects."
        EXPECT_TRUE(tk == WireKind::Single || tk == WireKind::Hex ||
                    tk == WireKind::Long);
        break;
      case WireKind::Long:
        // "longs can drive hexes only"
        EXPECT_EQ(tk, WireKind::Hex);
        break;
      case WireKind::Hex:
        // "hexes drive singles and other hexes"
        EXPECT_TRUE(tk == WireKind::Single || tk == WireKind::Hex);
        break;
      case WireKind::Single:
        // "singles drive logic block inputs, vertical long lines, and
        //  other singles"
        EXPECT_TRUE(tk == WireKind::ClbIn || tk == WireKind::Single ||
                    (tk == WireKind::Long && t >= kLongVBase));
        break;
      case WireKind::Gclk:
        EXPECT_TRUE(isClockPin(t));
        break;
      default:
        FAIL() << "unexpected driver kind for " << wireName(f);
    }
  });
}

TEST_F(ArchDbTest, ClockPinsOnlyDrivenByGlobals) {
  const RowCol rc{8, 12};
  for (LocalWire pin : {S0CLK, S1CLK}) {
    for (LocalWire f : db_.drivenBy(rc, pin)) {
      EXPECT_EQ(wireKind(f), WireKind::Gclk) << wireName(f);
    }
    EXPECT_FALSE(db_.drivenBy(rc, pin).empty());
  }
}

TEST_F(ArchDbTest, HexDrivenOnlyAtBegOrBidirEnd) {
  const RowCol rc{8, 12};
  db_.forEachTilePip(rc, [&](LocalWire, LocalWire t) {
    if (wireKind(t) != WireKind::Hex) return;
    const HexTap tap = wireHexTap(t);
    if (tap == HexTap::Mid) {
      FAIL() << "hex driven at MID tap: " << wireName(t);
    }
    if (tap == HexTap::End) {
      EXPECT_TRUE(hexIsBidir(wireIndex(t))) << wireName(t);
    }
  });
}

TEST_F(ArchDbTest, CanDriveMatchesEnumeration) {
  const RowCol rc{4, 4};
  EXPECT_TRUE(db_.canDrive(rc, sliceOut(0), omux(0)));
  EXPECT_FALSE(db_.canDrive(rc, longH(4 % 6), single(Dir::East, 0)));
  // drives()/drivenBy() are consistent with each other.
  for (LocalWire t : db_.drives(rc, omux(3))) {
    const auto back = db_.drivenBy(rc, t);
    EXPECT_NE(std::find(back.begin(), back.end(), omux(3)), back.end());
  }
}

TEST_F(ArchDbTest, EveryNonClockInputReachableFromSomeSingle) {
  const RowCol rc{8, 12};
  for (int p = 0; p < kClbInputs; ++p) {
    if (isClockPin(clbIn(p))) continue;
    bool reachable = false;
    for (LocalWire f : db_.drivenBy(rc, clbIn(p))) {
      if (wireKind(f) == WireKind::Single) reachable = true;
    }
    EXPECT_TRUE(reachable) << "pin " << wireName(clbIn(p));
  }
}

TEST_F(ArchDbTest, DirectConnectsReachHorizontalNeighbours) {
  int east = 0, west = 0;
  db_.forEachDirectConnect({8, 12}, [&](LocalWire f, RowCol dst, LocalWire t) {
    EXPECT_EQ(wireKind(f), WireKind::SliceOut);
    EXPECT_EQ(wireKind(t), WireKind::ClbIn);
    EXPECT_EQ(dst.row, 8);
    if (dst.col == 13) ++east;
    else if (dst.col == 11) ++west;
    else FAIL() << "direct connect to non-adjacent tile";
  });
  EXPECT_GT(east, 0);
  EXPECT_GT(west, 0);
  // West edge tile has only eastward directs.
  db_.forEachDirectConnect({8, 0}, [&](LocalWire, RowCol dst, LocalWire) {
    EXPECT_EQ(dst.col, 1);
  });
}

TEST_F(ArchDbTest, WireInfoLongLinesSpanDevice) {
  EXPECT_EQ(db_.wireInfo(longH(0)).length, xcv50().cols - 1);
  EXPECT_EQ(db_.wireInfo(longV(0)).length, xcv50().rows - 1);
  EXPECT_EQ(db_.wireInfo(single(Dir::East, 3)).length, 1);
}

// The tile-class key is exact: on every tile of every family member, the
// class pattern is the tile's own forEachTilePip enumeration, as a multiset
// and in the order a stable sort by source wire gives it.
TEST(ArchDbTilePatterns, ClassPatternEqualsEveryTilesEnumeration) {
  const auto bySource = [](const LocalPip& a, const LocalPip& b) {
    return a.from < b.from;
  };
  const auto byPip = [](const LocalPip& a, const LocalPip& b) {
    return a.from != b.from ? a.from < b.from : a.to < b.to;
  };
  for (const DeviceSpec& dev : deviceFamily()) {
    const ArchDb db{dev};
    const TilePatterns tp{db};
    std::vector<LocalPip> tile, sortedTile, sortedClass;
    for (int16_t r = 0; r < dev.rows; ++r) {
      for (int16_t c = 0; c < dev.cols; ++c) {
        tile.clear();
        db.forEachTilePip({r, c}, [&](LocalWire f, LocalWire t) {
          tile.push_back({f, t});
        });
        const auto cls = tp.pips(tp.classOf({r, c}));
        sortedTile = tile;
        sortedClass.assign(cls.begin(), cls.end());
        std::sort(sortedTile.begin(), sortedTile.end(), byPip);
        std::sort(sortedClass.begin(), sortedClass.end(), byPip);
        ASSERT_EQ(sortedTile, sortedClass)
            << dev.name << " R" << r << "C" << c << " (multiset)";
        std::stable_sort(tile.begin(), tile.end(), bySource);
        ASSERT_TRUE(std::equal(tile.begin(), tile.end(), cls.begin(),
                               cls.end()))
            << dev.name << " R" << r << "C" << c << " (stable order)";
      }
    }
  }
}

TEST(ArchDbTilePatterns, GroupsPartitionEachClassBySource) {
  const ArchDb db{xcv300()};
  const TilePatterns tp{db};
  for (int cls = 0; cls < tp.numClasses(); ++cls) {
    EXPECT_EQ(tp.classOf(tp.representative(cls)), cls);
    size_t covered = 0;
    int prevFrom = -1;
    for (const PipGroup& g : tp.groups(cls)) {
      EXPECT_GT(static_cast<int>(g.from), prevFrom) << "class " << cls;
      prevFrom = g.from;
      ASSERT_GT(g.size(), 0u);
      for (const LocalPip& p : tp.pips(g)) EXPECT_EQ(p.from, g.from);
      covered += g.size();
    }
    EXPECT_EQ(covered, tp.pips(cls).size()) << "class " << cls;
  }
}

TEST(ArchDbTilePatterns, ClassCountsPerDevice) {
  // Per axis: 6 positions near each edge plus the interior's long-access
  // phases, so 18 x 18 from XCV100 up; XCV50's 16 rows keep only 4 of the
  // 6 interior row phases (16 x 18).
  for (const DeviceSpec& dev : deviceFamily()) {
    const TilePatterns tp{ArchDb{dev}};
    EXPECT_EQ(tp.numClasses(), dev.name == "XCV50" ? 288 : 324) << dev.name;
  }
}

}  // namespace
}  // namespace xcvsim
