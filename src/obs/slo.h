// Latency/error SLO monitor with multi-window burn rates.
//
// The service's histograms say what latency *was*; an operator of a
// run-time routing service needs to know whether it is currently
// violating its objective fast enough to matter. This module implements
// the standard multi-window burn-rate scheme: an objective ("99.9% of
// requests resolve within 5ms, successfully") defines an error budget
// of 1-target; the burn rate over a window is the window's bad-request
// fraction divided by that budget (1.0 = spending the budget exactly on
// schedule, 10 = ten times too fast). Rates are computed over rolling
// 1s/10s/60s windows kept in a ring of second-tagged atomic buckets —
// observe() is a handful of relaxed atomic ops, no locks, no allocation
// — and a breach (burn over threshold on both the 1s and 10s windows,
// rising edge only) fires the flight recorder's kSloBreach anomaly with
// the span attribution of the worst recent offenders embedded, so the
// page carries its own "where did the milliseconds go" answer.
//
// Window buckets are tagged with their absolute second and lazily
// recycled; a bucket whose tag lost the rollover race can drop a few
// boundary samples, which is well inside alerting tolerance. Tests
// inject absolute seconds through the atSec parameters, so the window
// arithmetic is exercised deterministically, no sleeps.
//
// Seconds are the obs clock's (obs/clock.h), so a breach bundle's ts_ns
// and the window seconds share one epoch. report() is the monitor's one
// surface (jrsh `slo [json]`, jrload); no registry gauge mirrors it.
//
// With JROUTE_NO_TELEMETRY configure() leaves the monitor disabled, so
// observe() returns at once and reports say "disabled". SloConfig
// parsing stays live in both modes (jrload fails fast on a bad --slo
// spec regardless of build).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace jrobs {

/// Flight-recorder anomaly kind for burn-rate breaches.
inline constexpr const char* kSloBreach = "slo-breach";

struct SloConfig {
  bool enabled = false;
  /// A request is "good" iff it was accepted AND resolved within this.
  uint64_t latencyUs = 5000;
  /// Objective good-fraction, in (0,1): 0.999 = three nines.
  double target = 0.999;
  /// Breach when the 1s AND 10s burn rates both reach this.
  double burnAlert = 8.0;

  /// Parse "latency_us=5000,target=0.999,burn=8" (any subset of keys;
  /// latency_us is required). False + *error on malformed input.
  static bool parse(const std::string& spec, SloConfig* out,
                    std::string* error);
  /// One-line human form of the objective.
  std::string describe() const;
};

struct SloWindow {
  int seconds = 0;
  uint64_t good = 0;
  uint64_t total = 0;
  double burn = 0.0;
};

struct SloReport {
  SloConfig config;
  uint64_t observed = 0;  // since configure/reset
  uint64_t good = 0;
  uint64_t breaches = 0;
  std::vector<SloWindow> windows;  // 1s, 10s, 60s

  std::string text() const;
  /// {"slo":{...}} for jrsh `slo json` and breach bundles.
  std::string json() const;
};

/// Process-global monitor fed by RoutingService::finish.
class SloMonitor {
 public:
  static SloMonitor& instance();

  /// Install an objective (also resets the windows). A config with
  /// enabled=false turns the monitor off.
  void configure(const SloConfig& cfg);
  SloConfig config() const;

  /// Record one resolved request. `atSec` overrides the wall second for
  /// deterministic tests; -1 = now. Disabled monitors return after one
  /// relaxed load. May fire the kSloBreach anomaly (at most once per
  /// excursion above the threshold).
  void observe(uint64_t latencyUs, bool accepted, int64_t atSec = -1);

  /// Burn rate over the trailing `windowSec` seconds ending at `atSec`
  /// (inclusive). 0 when no samples landed in the window.
  double burnRate(int windowSec, int64_t atSec = -1) const;

  SloReport report(int64_t atSec = -1) const;
  uint64_t breachCount() const;

  /// Zero windows, totals, and breach state; the objective stays
  /// installed (jrsh `stats reset`, jrload).
  void reset();

  /// The rolling windows evaluated by observe() and report().
  static constexpr int kWindowsSec[3] = {1, 10, 60};

 private:
  SloMonitor();
  ~SloMonitor() = delete;  // process-lifetime singleton

  struct Impl;
  Impl* impl_;
};

/// Shorthand for SloMonitor::instance().
SloMonitor& sloMonitor();

}  // namespace jrobs
