// Meta-check shared by the checkers' mutation harnesses (drc_test,
// verify_test): every rule in a catalogue has a liveness proof — a test
// that seeds its defect and sees it fire — and every proven name is
// still a rule. The proven set is collected by hand, so this
// keeps a new rule from shipping without its proof and a deleted rule
// from leaving a stale entry.
#pragma once

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <string>

#include "check/check.h"

namespace jrtest {

template <class Input>
void expectEveryRuleProven(std::span<const jrcheck::Rule<Input>> catalogue,
                           const std::set<std::string>& proven) {
  for (const jrcheck::Rule<Input>& r : catalogue) {
    EXPECT_TRUE(proven.count(r.id)) << "rule " << r.id << " has no proof";
  }
  for (const std::string& id : proven) {
    EXPECT_NE(jrcheck::findRule(catalogue, id), nullptr)
        << "proven rule " << id << " is not in the catalogue";
  }
}

}  // namespace jrtest
