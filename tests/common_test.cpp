// Tests for the common module: deterministic RNG, coordinates, errors,
// strict count parsing.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "common/error.h"
#include "common/parse.h"
#include "common/rng.h"
#include "common/types.h"

namespace xcvsim {
namespace {

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.next();
    EXPECT_EQ(va, b.next());
    differs = differs || va != c.next();
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, BelowIsInRangeAndCoversIt) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = rng.below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all residues appear
}

TEST(Rng, IntInIsInclusive) {
  Rng rng(9);
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 3000; ++i) {
    const int v = rng.intIn(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    sawLo = sawLo || v == -3;
    sawHi = sawHi || v == 3;
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Rng, UnitAndChance) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    hits += rng.chance(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(hits, 2500, 250);  // ~25% within loose bounds
}

TEST(Types, ManhattanAndDirections) {
  EXPECT_EQ(manhattan({0, 0}, {3, 4}), 7);
  EXPECT_EQ(manhattan({5, 5}, {5, 5}), 0);
  EXPECT_EQ(manhattan({2, 9}, {7, 1}), 13);
  EXPECT_EQ(opposite(Dir::East), Dir::West);
  EXPECT_EQ(opposite(Dir::North), Dir::South);
  EXPECT_EQ(dirDRow(Dir::North), 1);
  EXPECT_EQ(dirDCol(Dir::West), -1);
  EXPECT_STREQ(dirName(Dir::South), "South");
}

TEST(Errors, HierarchyAndPayload) {
  const ContentionError ce("boom", 42);
  EXPECT_EQ(ce.node(), 42u);
  const JRouteError* base = &ce;
  EXPECT_STREQ(base->what(), "boom");
  // Every error kind is catchable as JRouteError.
  EXPECT_THROW(throw ArgumentError("a"), JRouteError);
  EXPECT_THROW(throw UnroutableError("u"), JRouteError);
  EXPECT_THROW(throw BitstreamError("b"), JRouteError);
}

TEST(ParseCount, AcceptsOnlyDigitsThatFit) {
  EXPECT_EQ(parseCount<uint64_t>("5"), 5u);
  EXPECT_EQ(parseCount<uint64_t>("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parseCount<int>("2147483647"), 2147483647);
  for (const char* bad : {"-1", "+5", " 5", "5 ", "5x", "1.5", "", "x",
                          "18446744073709551616"}) {
    EXPECT_EQ(parseCount<uint64_t>(bad), std::nullopt) << "'" << bad << "'";
  }
  EXPECT_EQ(parseCount<int>("-1"), std::nullopt);
  EXPECT_EQ(parseCount<int>("2147483648"), std::nullopt);
  EXPECT_EQ(parseCount<unsigned>("4294967296"), std::nullopt);
}

}  // namespace
}  // namespace xcvsim
