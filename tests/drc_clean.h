// The one fabric-invariant assertion the tests share. The DRC
// (src/analysis) is the only checker of a fabric's structure — driver
// records, net trees, on-PIPs between nets, fanout and usage counters —
// so a test that wants "this fabric is consistent" asks it:
//
//   EXPECT_TRUE(jrtest::drcClean(fabric));
#pragma once

#include <gtest/gtest.h>

#include "analysis/drc.h"

namespace jrtest {

inline ::testing::AssertionResult drcClean(const xcvsim::Fabric& fabric) {
  const jrdrc::DrcReport report = jrdrc::runDrc(fabric);
  if (report.clean()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << report.summary();
}

}  // namespace jrtest
