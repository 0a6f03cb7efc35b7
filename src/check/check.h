// One findings model for the three checkers: the fabric DRC (jrdrc,
// src/analysis), the model verifier (jrverify, src/verify) and the
// workload dry run (jrplan, src/plan).
//
// The DRC and jrverify are catalogues of Rule<Input> table entries — id,
// group, severity, one-line description, an optional applicability test
// and a run function — over their own input type (DrcInput, ModelView).
// runRules executes a catalogue over an input into one Report; the dry
// run fills a Report directly from the engine's rejections. The Report
// owns the findings, the rules that ran, the coverage counts, the
// per-rule cap and the only text and JSON renderers. The JSON carries
// "schema":kSchemaVersion so consumers can tell formats apart.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/clock.h"

namespace jrcheck {

enum class Severity : uint8_t { kError, kWarning };

/// Version of Report::json(); bump it when the layout changes.
inline constexpr int kSchemaVersion = 1;

/// Findings kept per rule, so one systemic defect does not drown the
/// report. Report::add drops the rest.
inline constexpr size_t kMaxFindingsPerRule = 8;

/// One rule failure. `entity` anchors it ("R5C5.S0F1 (node 1234, net 7)",
/// "(3,4) SingleEast[5]", "request 12 (3,3,S1_YQ)"); `hint` says where to
/// look or how to fix it, and may be empty.
struct Finding {
  std::string rule;
  Severity severity = Severity::kError;
  std::string entity;
  std::string message;
  std::string hint;
};

/// The result of one checker run.
struct Report {
  /// `tool` prefixes the per-rule metrics and names the report; `device`
  /// is what was checked; `coverage` declares the count names, in render
  /// order, all starting at zero.
  Report(std::string tool, std::string device,
         std::initializer_list<std::string_view> coverage);

  std::string tool;
  std::string device;
  std::vector<Finding> findings;
  std::vector<std::string> rulesRun;
  std::vector<std::pair<std::string, size_t>> coverage;

  /// The declared coverage count `name` (std::invalid_argument if it was
  /// not declared, so references stay valid while rules run).
  size_t& count(std::string_view name);
  size_t count(std::string_view name) const;

  size_t errorCount() const;
  size_t warningCount() const { return findings.size() - errorCount(); }
  /// No error-severity findings (warnings do not fail).
  bool clean() const { return errorCount() == 0; }
  bool fired(std::string_view rule) const;

  /// Append `f` unless its rule already holds kMaxFindingsPerRule.
  void add(Finding f);

  /// Human-readable multi-line report.
  std::string summary() const;
  /// Machine-readable single-object JSON.
  std::string json() const;
};

/// What a running rule writes to: findings stamped with the rule's id and
/// (unless overridden) its severity, and the report's coverage counts.
class RuleSink {
 public:
  RuleSink(Report& report, const char* rule, Severity severity)
      : report_(report), rule_(rule), severity_(severity) {}

  void add(std::string entity, std::string message, std::string hint = {}) {
    add(severity_, std::move(entity), std::move(message), std::move(hint));
  }
  void add(Severity severity, std::string entity, std::string message,
           std::string hint) {
    report_.add(Finding{rule_, severity, std::move(entity),
                        std::move(message), std::move(hint)});
  }
  size_t& count(std::string_view name) { return report_.count(name); }

 private:
  Report& report_;
  const char* rule_;
  Severity severity_;
};

/// One rule, as plain data. `applies` may be null (the rule always runs).
template <class Input>
struct Rule {
  const char* id;
  const char* group;
  Severity severity;
  const char* description;
  bool (*applies)(const Input&);
  void (*run)(const Input&, RuleSink&);
};

template <class Input>
const Rule<Input>* findRule(std::span<const Rule<Input>> rules,
                            std::string_view id) {
  for (const Rule<Input>& r : rules) {
    if (id == r.id) return &r;
  }
  return nullptr;
}

namespace detail {

/// Record one rule's run as `<tool>.rule.<id>.runtime_us` / `.findings`
/// and list it in `report.rulesRun`.
void recordRule(Report& report, const char* id, uint64_t ns,
                size_t findings);
/// Count one run of the catalogue as `<tool>.runs`.
void recordRun(const Report& report);

}  // namespace detail

/// Run every applicable rule once over `in`, in catalogue order.
template <class Input>
void runRules(std::span<const Rule<Input>> rules, const Input& in,
              Report& report) {
  for (const Rule<Input>& r : rules) {
    if (r.applies != nullptr && !r.applies(in)) continue;
    const size_t before = report.findings.size();
    const uint64_t t0 = jrobs::nowNs();
    RuleSink sink(report, r.id, r.severity);
    r.run(in, sink);
    detail::recordRule(report, r.id, jrobs::nowNs() - t0,
                       report.findings.size() - before);
  }
  detail::recordRun(report);
}

/// A checker CLI's exit status: the error count, capped at 125 so it never
/// collides with shell and signal codes. A clean run exits 0.
int exitStatus(size_t errors);

}  // namespace jrcheck
