#include "check/check.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "obs/jsonutil.h"
#include "obs/metrics.h"

namespace jrcheck {

Report::Report(std::string toolName, std::string deviceName,
               std::initializer_list<std::string_view> counts)
    : tool(std::move(toolName)), device(std::move(deviceName)) {
  for (const std::string_view name : counts) coverage.emplace_back(name, 0);
}

namespace {

const char* severityName(Severity s) {
  return s == Severity::kError ? "error" : "warning";
}

template <class R>
auto& countIn(R& report, std::string_view name) {
  for (auto& entry : report.coverage) {
    if (entry.first == name) return entry.second;
  }
  throw std::invalid_argument(report.tool +
                              " report declares no coverage count '" +
                              std::string(name) + "'");
}

}  // namespace

size_t& Report::count(std::string_view name) { return countIn(*this, name); }

size_t Report::count(std::string_view name) const {
  return countIn(*this, name);
}

size_t Report::errorCount() const {
  return static_cast<size_t>(
      std::count_if(findings.begin(), findings.end(), [](const Finding& f) {
        return f.severity == Severity::kError;
      }));
}

bool Report::fired(std::string_view rule) const {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

void Report::add(Finding f) {
  const auto already =
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& have) { return have.rule == f.rule; });
  if (static_cast<size_t>(already) >= kMaxFindingsPerRule) return;
  findings.push_back(std::move(f));
}

std::string Report::summary() const {
  std::ostringstream os;
  os << tool;
  if (!device.empty()) os << ' ' << device;
  os << ": " << rulesRun.size() << " rules";
  for (size_t i = 0; i < coverage.size(); ++i) {
    os << (i == 0 ? " over " : ", ") << coverage[i].second << ' '
       << coverage[i].first;
  }
  if (findings.empty()) {
    os << ": clean\n";
    return os.str();
  }
  os << ": " << errorCount() << " error(s), " << warningCount()
     << " warning(s)\n";
  for (const Finding& f : findings) {
    os << "  [" << severityName(f.severity) << "] " << f.rule << " @ "
       << f.entity << ": " << f.message << '\n';
    if (!f.hint.empty()) os << "      hint: " << f.hint << '\n';
  }
  return os.str();
}

std::string Report::json() const {
  using jrobs::jsonEscape;
  using jrobs::jsonKv;
  std::ostringstream os;
  os << "{\"schema\":" << kSchemaVersion << ',' << jsonKv("tool", tool) << ','
     << jsonKv("device", device)
     << ",\"clean\":" << (clean() ? "true" : "false")
     << ",\"errors\":" << errorCount() << ",\"warnings\":" << warningCount()
     << ",\"rules\":[";
  for (size_t i = 0; i < rulesRun.size(); ++i) {
    os << (i ? "," : "") << '"' << jsonEscape(rulesRun[i]) << '"';
  }
  os << "],\"checked\":{";
  for (size_t i = 0; i < coverage.size(); ++i) {
    os << (i ? "," : "") << '"' << jsonEscape(coverage[i].first)
       << "\":" << coverage[i].second;
  }
  os << "},\"findings\":[";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    os << (i ? "," : "") << '{' << jsonKv("rule", f.rule) << ','
       << jsonKv("severity", severityName(f.severity)) << ','
       << jsonKv("entity", f.entity) << ',' << jsonKv("message", f.message)
       << ',' << jsonKv("hint", f.hint) << '}';
  }
  os << "]}";
  return os.str();
}

namespace detail {

void recordRule(Report& report, const char* id, uint64_t ns,
                size_t findings) {
  report.rulesRun.emplace_back(id);
  const std::string prefix = report.tool + ".rule." + id;
  jrobs::registry().histogram(prefix + ".runtime_us").record(ns / 1000);
  jrobs::registry().counter(prefix + ".findings").add(findings);
}

void recordRun(const Report& report) {
  jrobs::registry().counter(report.tool + ".runs").add();
}

}  // namespace detail

int exitStatus(size_t errors) {
  return static_cast<int>(std::min<size_t>(errors, 125));
}

}  // namespace jrcheck
