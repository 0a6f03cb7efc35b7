// Internal glue between the rule catalogue files and the registry.
#pragma once

#include <span>
#include <string>

#include "verify/verify.h"

namespace jrverify {

using jrcheck::RuleSink;

/// Each catalogue file's table, one per layer.
std::span<const VerifyRule> archRules();
std::span<const VerifyRule> rrgRules();
std::span<const VerifyRule> templateRules();
std::span<const VerifyRule> bitstreamRules();
std::span<const VerifyRule> lookaheadRules();

/// Every model rule is an error.
inline constexpr jrcheck::Severity kError = jrcheck::Severity::kError;

/// "(r,c)" anchor fragment for entity strings.
std::string tileName(RowCol rc);

/// Is this graph edge live under the view's (optional) edge filter?
inline bool edgeLive(const ModelView& m, EdgeId e) {
  return !m.edgeEnabled || m.edgeEnabled(e);
}

}  // namespace jrverify
