// perfbench driver: replays a seeded workload::SessionStream on XCV1000
// against the public JRoute APIs and records what one run measured.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --out DIR
//
// Workloads (one driver thread, closed loop: a slot's next request waits
// for its previous reply):
//   session_local  SessionStream defaults (100 sessions x 6 slots,
//                  radius 4) against RoutingService with default options
//                  except planThreads (kPlanThreads)
//   direct_local   the same events on a bare jroute::Router plus an
//                  ownership map
//
// The driver times only calls into the public APIs: device construction
// (setup), the *Async() submissions and their futures (session_local), and
// the Router calls (direct). It writes DIR/record.json with raw counts
// and times, and raw samples as float32 microseconds (*.f32) and spans
// as fixed 32-byte records (*.spans); run.py turns them into metrics.
//
// --trace 0 runs the workload's own front end for --seconds seconds.
// --trace 1 replays a fixed number of requests (so counts repeat exactly
// for a fixed seed) four times: direct and session, each untraced and
// traced. A traced phase keeps one span per API call in memory and writes
// them when the phase ends.
//
// Exit code: 0 when the run completed (the record holds the output
// checks), 2 on usage errors or an exception.
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analysis/drc.h"
#include "arch/arch_db.h"
#include "arch/device.h"
#include "bitstream/pip_table.h"
#include "common/error.h"
#include "core/router.h"
#include "fabric/fabric.h"
#include "lookahead/lookahead.h"
#include "obs/metrics.h"
#include "obs/spans.h"
#include "rrg/graph.h"
#include "service/service.h"
#include "workload/session_stream.h"

namespace {

using jroute::EndPoint;
using jroute::Pin;
using workload::SessionStream;
using workload::SessionStreamOptions;
using workload::StreamEvent;
using workload::StreamOp;
using xcvsim::NodeId;

// --- Clocks and process accounting -------------------------------------------

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double secondsSince(uint64_t t0) {
  return static_cast<double>(nowNs() - t0) * 1e-9;
}

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// CPU time the hypervisor gave to other guests, summed over all CPUs
/// (the "steal" column of /proc/stat): a witness of host contention.
double stealSeconds() {
  unsigned long long v[8] = {};
  if (FILE* f = std::fopen("/proc/stat", "r")) {
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) != 8) {
      v[7] = 0;
    }
    std::fclose(f);
  }
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double rssMb() {
  long pages = 0, resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// --- A small JSON object writer ----------------------------------------------

class Json {
 public:
  Json& num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(k, buf);
  }
  Json& num(const std::string& k, uint64_t v) {
    return raw(k, std::to_string(v));
  }
  Json& flag(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  Json& str(const std::string& k, const std::string& v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (c == '\n' ? ' ' : c);
    }
    return raw(k, q + "\"");
  }
  Json& obj(const std::string& k, const Json& v) { return raw(k, v.text()); }
  Json& list(const std::string& k, const std::vector<Json>& vs) {
    std::string s = "[";
    for (size_t i = 0; i < vs.size(); ++i) s += (i ? ", " : "") + vs[i].text();
    return raw(k, s + "]");
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  Json& raw(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + k + "\": " + v;
    return *this;
  }
  std::string body_;
};

// --- Arguments and workloads -------------------------------------------------

struct WorkloadSpec {
  const char* name;
  bool session;  // front end of the untraced run
};

constexpr WorkloadSpec kWorkloads[] = {
    {"session_local", true},
    {"direct_local", false},
};

/// Events measured by each fixed-work phase of a traced run.
constexpr size_t kFixedEvents = 54000;
/// Upper bound on the event rate, sizing the pre-generated stream.
constexpr size_t kMaxEventRate = 60000;

struct Args {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
};

/// Set-ups per run: setup_s is their median.
constexpr int kSetupReps = 3;

bool parseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (std::strcmp(w.name, v) == 0) a->workload = &w;
      }
      if (a->workload == nullptr) return false;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v);
    } else if (k == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (k == "--out") {
      a->out = v;
    } else {
      return false;
    }
  }
  return a->workload != nullptr && !a->out.empty() && a->seconds > 0;
}

// --- Host-speed witness ------------------------------------------------------

/// Nanoseconds per dependent load of a random cycle over 64 MiB: tracks
/// the memory latency the device build is bound by. Diagnostic only.
double memProbeNs() {
  constexpr size_t kLine = 16;  // uint32 per 64-byte line
  constexpr size_t kLines = (64u << 20) / 64;
  std::vector<uint32_t> order(kLines);
  for (size_t i = 0; i < kLines; ++i) order[i] = static_cast<uint32_t>(i);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (size_t i = kLines - 1; i > 0; --i) {  // Sattolo: one single cycle
    x ^= x << 13, x ^= x >> 7, x ^= x << 17;
    std::swap(order[i], order[x % i]);
  }
  std::vector<uint32_t> buf(kLines * kLine);
  for (size_t i = 0; i < kLines; ++i) {
    buf[order[i] * kLine] = order[(i + 1) % kLines] * static_cast<uint32_t>(kLine);
  }
  constexpr size_t kSteps = 2'000'000;
  uint32_t p = 0;
  const uint64_t t0 = nowNs();
  for (size_t i = 0; i < kSteps; ++i) p = buf[p];
  const double ns = static_cast<double>(nowNs() - t0) / kSteps;
  volatile uint32_t sink = p;
  (void)sink;
  return ns;
}

/// Nanoseconds per step of a dependent multiply/xor chain: tracks core
/// clock speed. Diagnostic only.
double aluProbeNs() {
  constexpr size_t kSteps = 50'000'000;
  uint64_t x = 88172645463325252ull;
  const uint64_t t0 = nowNs();
  for (size_t i = 0; i < kSteps; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    x ^= x >> 29;
  }
  const double ns = static_cast<double>(nowNs() - t0) / kSteps;
  volatile uint64_t sink = x;
  (void)sink;
  return ns;
}

// --- Core rotation -----------------------------------------------------------

/// While in scope, moves the calling thread to the next allowed CPU every
/// kRotateInterval, so that single-threaded work (the device build, the
/// direct replay) runs on every core in turn. On a shared virtual machine
/// one core can be slowed for tens of seconds by whatever shares its
/// physical core; a thread that stays on it measures that neighbour. The
/// original affinity is restored on exit, before anything that starts
/// threads (they would inherit a one-core mask).
class CoreRotation {
 public:
  static constexpr auto kRotateInterval = std::chrono::milliseconds(100);

  CoreRotation() : tid_(static_cast<pid_t>(syscall(SYS_gettid))) {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
    if (cpus_.size() < 2) return;
    worker_ = std::thread([this] { loop(); });
  }
  ~CoreRotation() {
    if (!worker_.joinable()) return;
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    worker_.join();
    sched_setaffinity(tid_, sizeof allowed_, &allowed_);
  }
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;

 private:
  void loop() {
    std::unique_lock<std::mutex> lk(mu_);
    for (size_t i = 0; !stop_; ++i) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[i % cpus_.size()], &one);
      sched_setaffinity(tid_, sizeof one, &one);
      cv_.wait_for(lk, kRotateInterval, [this] { return stop_; });
    }
  }

  pid_t tid_;
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread worker_;
};

// --- Setup -------------------------------------------------------------------

struct Device {
  std::unique_ptr<xcvsim::Graph> graph;
  std::unique_ptr<xcvsim::ArchDb> arch;
  std::unique_ptr<xcvsim::PipTable> table;
  std::unique_ptr<xcvsim::Fabric> fabric;
  std::unique_ptr<jrla::Lookahead> lookahead;
};

struct SetupLayer {
  const char* name;
  double seconds = 0;
  double rssMb = 0;  // RSS growth across the constructor
};

/// Planning threads of the service, the engine included. The default
/// (one per core) plus the driver's own thread is more threads than the
/// 4-core hosts this runs on have, so a run would measure the scheduler;
/// two keep parallel planning real and leave a core spare.
constexpr unsigned kPlanThreads = 2;

jrsvc::ServiceOptions serviceOptions(const Device& dev) {
  jrsvc::ServiceOptions opts;
  opts.router.lookahead = dev.lookahead.get();
  opts.planThreads = kPlanThreads;
  return opts;
}

jroute::RouterOptions routerOptions(const Device& dev) {
  jroute::RouterOptions opts;
  opts.lookahead = dev.lookahead.get();
  return opts;
}

constexpr int kSessions = 100;

/// One timed construction of everything a workload needs before its
/// first request: device, lookahead, and the front end (service plus
/// sessions, or the bare router). Returns the wall time of the whole
/// set-up, taken independently of the per-layer times in `layers`.
double buildDevice(Device& dev, bool session, std::vector<SetupLayer>& layers) {
  const uint64_t start = nowNs();
  const auto step = [&](const char* name, const auto& fn) {
    const double rss0 = rssMb();
    const uint64_t t0 = nowNs();
    fn();
    layers.push_back({name, secondsSince(t0), rssMb() - rss0});
  };
  const xcvsim::DeviceSpec& spec = xcvsim::deviceByName("XCV1000");
  auto rotation = std::make_unique<CoreRotation>();
  step("rrg", [&] { dev.graph = std::make_unique<xcvsim::Graph>(spec); });
  step("arch", [&] { dev.arch = std::make_unique<xcvsim::ArchDb>(spec); });
  step("bitstream",
       [&] { dev.table = std::make_unique<xcvsim::PipTable>(*dev.arch); });
  step("fabric", [&] {
    dev.fabric = std::make_unique<xcvsim::Fabric>(*dev.graph, *dev.table);
  });
  step("lookahead",
       [&] { dev.lookahead = std::make_unique<jrla::Lookahead>(*dev.graph); });
  rotation.reset();  // the service starts threads
  // The front end is torn down after the timing: stopping is not set-up.
  std::unique_ptr<jrsvc::RoutingService> svc;
  std::unique_ptr<jroute::Router> router;
  step("service", [&] {
    if (session) {
      svc = std::make_unique<jrsvc::RoutingService>(*dev.fabric,
                                                     serviceOptions(dev));
      for (int s = 0; s < kSessions; ++s) svc->openSession();
    } else {
      router = std::make_unique<jroute::Router>(*dev.fabric, routerOptions(dev));
    }
  });
  return secondsSince(start);
}

// --- Phases ------------------------------------------------------------------

enum OpCode : uint8_t { kOpP2P, kOpFanout, kOpBus, kOpUnroute };
enum Layer : uint8_t { kLayerCore, kLayerService, kLayerSubmit };

/// One traced API call. Written raw (32 bytes, host byte order).
struct Span {
  uint64_t requestId;
  uint8_t op;
  uint8_t layer;
  uint8_t pad[6];
  uint64_t startNs;
  uint64_t endNs;
};
static_assert(sizeof(Span) == 32);

struct PhaseResult {
  std::string name;
  std::string kind;  // "direct" or "session"
  bool traced = false;
  uint64_t events = 0;
  uint64_t attempted = 0, accepted = 0, rejected = 0, thrown = 0;
  std::map<std::string, uint64_t> failures;  // reason -> count
  std::array<uint64_t, 5> opMix{};           // events per StreamOp
  double distanceSum = 0;
  uint64_t distancePairs = 0;
  double wallS = 0, cpuS = 0, driverWaitS = 0;
  bool exhausted = false;  // ran out of pre-generated events
  /// (seconds since window start, requests resolved, latency samples, CPU
  /// seconds, stolen CPU seconds) at each slice boundary, so run.py can
  /// take medians over slices.
  std::vector<std::array<double, 5>> slices;
  std::vector<float> latencyUs;
  std::vector<Span> spans;
  jroute::RouteStats router;                  // delta over the window
  /// Change of the fabric's on-PIP count over the window: with the
  /// router's pipsTurnedOn it gives the PIPs turned off by any path.
  int64_t onEdgeDelta = 0;
  std::optional<jrsvc::ServiceStats> service;  // delta over the window
  jrobs::MetricsSnapshot metrics;             // registry over the window
  std::optional<jrobs::SpanAttribution> attribution;
  // Output checks.
  bool drcClean = false;
  uint64_t drcErrors = 0;
  bool accounting = false;
};

const char* failureName(const std::exception& e) {
  if (dynamic_cast<const xcvsim::ContentionError*>(&e)) return "contention";
  if (dynamic_cast<const xcvsim::UnroutableError*>(&e)) return "unroutable";
  if (dynamic_cast<const xcvsim::ArgumentError*>(&e)) return "bad-argument";
  return "error";
}

void addProperties(PhaseResult& r, const StreamEvent& ev) {
  ++r.opMix[static_cast<size_t>(ev.op)];
  const auto dist = [&](const Pin& a, const Pin& b) {
    r.distanceSum += std::abs(a.rc.row - b.rc.row) + std::abs(a.rc.col - b.rc.col);
    ++r.distancePairs;
  };
  switch (ev.op) {
    case StreamOp::kP2P:
    case StreamOp::kReconnect: dist(ev.srcs[0], ev.sinks[0]); break;
    case StreamOp::kFanout:
      for (const Pin& s : ev.sinks) dist(ev.srcs[0], s);
      break;
    case StreamOp::kBus:
      for (size_t i = 0; i < ev.srcs.size(); ++i) dist(ev.srcs[i], ev.sinks[i]);
      break;
    case StreamOp::kUnroute: break;
  }
}

jroute::RouteStats statsDelta(const jroute::RouteStats& a,
                              const jroute::RouteStats& b) {
  jroute::RouteStats d;
  d.pipsTurnedOn = b.pipsTurnedOn - a.pipsTurnedOn;
  d.pipsTurnedOff = b.pipsTurnedOff - a.pipsTurnedOff;
  d.routesCompleted = b.routesCompleted - a.routesCompleted;
  d.routesFailed = b.routesFailed - a.routesFailed;
  d.templateAttempts = b.templateAttempts - a.templateAttempts;
  d.templateHits = b.templateHits - a.templateHits;
  d.shapeReuseHits = b.shapeReuseHits - a.shapeReuseHits;
  d.mazeRuns = b.mazeRuns - a.mazeRuns;
  d.mazeVisits = b.mazeVisits - a.mazeVisits;
  d.longTemplateHits = b.longTemplateHits - a.longTemplateHits;
  return d;
}

jrsvc::ServiceStats statsDelta(const jrsvc::ServiceStats& a,
                               const jrsvc::ServiceStats& b) {
  jrsvc::ServiceStats d;
  d.submitted = b.submitted - a.submitted;
  d.accepted = b.accepted - a.accepted;
  d.rejected = b.rejected - a.rejected;
  d.batches = b.batches - a.batches;
  d.parallelPlanned = b.parallelPlanned - a.parallelPlanned;
  d.serialRouted = b.serialRouted - a.serialRouted;
  d.planFallbacks = b.planFallbacks - a.planFallbacks;
  d.claimRetries = b.claimRetries - a.claimRetries;
  return d;
}

/// Records a slice boundary every kSliceS seconds of the window.
constexpr double kSliceS = 0.5;
struct Slicer {
  uint64_t t0 = 0;
  double cpu0 = 0;
  double steal0 = 0;
  double next = kSliceS;
  void start() {
    t0 = nowNs(), cpu0 = cpuSeconds(), steal0 = stealSeconds();
    next = kSliceS;
  }
  /// Seconds since start; records a boundary when one has passed.
  double tick(PhaseResult& r, uint64_t resolved, bool force = false) {
    const double t = secondsSince(t0);
    if (t >= next || force) {
      r.slices.push_back({t, static_cast<double>(resolved),
                          static_cast<double>(r.latencyUs.size()),
                          cpuSeconds() - cpu0, stealSeconds() - steal0});
      while (next <= t) next += kSliceS;
    }
    return t;
  }
};

/// Where a phase stops: after a number of events (fixed work) or after a
/// number of seconds.
struct Budget {
  size_t events = 0;   // 0 = unbounded
  double seconds = 0;  // 0 = unbounded
};

/// Events [0, warmup) fill the fabric to its steady occupancy and warm
/// caches; the measured window starts at `warmup`.
constexpr size_t kWarmupEvents = 3 * kSessions * 6;

// Direct replay: the identical events on a bare Router, one thread. The
// ownership map plays the service's session-ownership table.
PhaseResult runDirect(Device& dev, const std::vector<StreamEvent>& events,
                      Budget budget, bool traced) {
  PhaseResult r;
  r.kind = "direct";
  r.traced = traced;
  dev.fabric->clear();
  jroute::Router router(*dev.fabric, routerOptions(dev));
  const xcvsim::Graph& g = *dev.graph;
  std::unordered_map<NodeId, uint32_t> owner;
  bool measuring = false;
  uint64_t requestId = 0;
  const CoreRotation rotation;

  const auto nodeOf = [&](const Pin& p) { return g.nodeAt(p.rc, p.wire); };
  // One timed Router call; a throwing route rolls back the request's new
  // nets (the service's transaction does the same) inside the timing.
  const auto call = [&](OpCode op, const auto& fn,
                        const std::vector<Pin>& newNets) {
    const uint64_t t0 = nowNs();
    const char* failure = nullptr;
    try {
      fn();
    } catch (const std::exception& e) {
      failure = failureName(e);
      for (const Pin& src : newNets) {
        if (dev.fabric->isUsed(nodeOf(src))) router.unroute(EndPoint(src));
      }
    }
    const uint64_t t1 = nowNs();
    if (!measuring) return failure == nullptr;
    ++r.attempted;
    if (failure == nullptr) {
      ++r.accepted;
    } else {
      ++r.thrown;
      ++r.failures[failure];
    }
    r.latencyUs.push_back(static_cast<float>(t1 - t0) * 1e-3f);
    if (traced) {
      r.spans.push_back({requestId, op, kLayerCore, {}, t0, t1});
    }
    ++requestId;
    return failure == nullptr;
  };
  const auto reject = [&](const char* reason) {
    if (!measuring) return;
    ++r.attempted;
    ++r.rejected;
    ++r.failures[reason];
    ++requestId;
  };
  const auto owned = [&](const Pin& src, uint32_t session) {
    const auto it = owner.find(nodeOf(src));
    return it != owner.end() && it->second == session;
  };
  const auto takenByOther = [&](const Pin& src, uint32_t session) {
    const auto it = owner.find(nodeOf(src));
    return it != owner.end() && it->second != session;
  };
  const auto route = [&](const StreamEvent& ev, OpCode op) {
    for (const Pin& src : ev.srcs) {
      if (takenByOther(src, ev.session)) return reject("not-owner");
    }
    std::vector<Pin> fresh;
    for (const Pin& src : ev.srcs) {
      if (!dev.fabric->isUsed(nodeOf(src))) fresh.push_back(src);
    }
    std::vector<EndPoint> srcs(ev.srcs.begin(), ev.srcs.end());
    std::vector<EndPoint> sinks(ev.sinks.begin(), ev.sinks.end());
    const bool ok = call(
        op,
        [&] {
          switch (op) {
            case kOpP2P: router.route(srcs[0], sinks[0]); break;
            case kOpFanout:
              router.route(srcs[0], std::span<const EndPoint>(sinks));
              break;
            default:
              router.route(std::span<const EndPoint>(srcs),
                           std::span<const EndPoint>(sinks));
              break;
          }
        },
        fresh);
    if (ok) {
      for (const Pin& src : ev.srcs) owner[nodeOf(src)] = ev.session;
    }
  };
  const auto unroute = [&](const Pin& src, uint32_t session) {
    if (!dev.fabric->isUsed(nodeOf(src))) return reject("bad-argument");
    if (!owned(src, session)) return reject("not-owner");
    call(kOpUnroute, [&] { router.unroute(EndPoint(src)); }, {});
    owner.erase(nodeOf(src));
  };

  jroute::RouteStats before;
  size_t onEdges0 = 0;
  Slicer slicer;
  size_t i = 0;
  for (; i < events.size(); ++i) {
    if (i == kWarmupEvents) {
      measuring = true;
      jrobs::registry().reset();
      before = router.stats();
      onEdges0 = dev.fabric->onEdgeCount();
      slicer.start();
    }
    if (measuring) {
      const double t = slicer.tick(r, r.attempted);
      if (budget.events != 0 && r.events >= budget.events) break;
      if (budget.seconds != 0 && t >= budget.seconds) break;
    }
    const StreamEvent& ev = events[i];
    if (measuring) {
      ++r.events;
      addProperties(r, ev);
    }
    switch (ev.op) {
      case StreamOp::kP2P: route(ev, kOpP2P); break;
      case StreamOp::kFanout: route(ev, kOpFanout); break;
      case StreamOp::kBus: route(ev, kOpBus); break;
      case StreamOp::kUnroute:
        for (const Pin& src : ev.srcs) unroute(src, ev.session);
        break;
      case StreamOp::kReconnect:
        unroute(ev.srcs[0], ev.session);
        route(ev, kOpP2P);
        break;
    }
  }
  r.exhausted = budget.seconds != 0 && i == events.size();
  r.wallS = slicer.tick(r, r.attempted, true);
  r.cpuS = r.slices.back()[3];
  r.router = statsDelta(before, router.stats());
  r.onEdgeDelta = static_cast<int64_t>(dev.fabric->onEdgeCount()) -
                  static_cast<int64_t>(onEdges0);
  r.metrics = jrobs::registry().snapshot();

  std::vector<std::pair<NodeId, uint64_t>> owners(owner.begin(), owner.end());
  jrdrc::DrcInput in;
  in.fabric = dev.fabric.get();
  in.router = &router;
  in.netOwners = &owners;
  const jrdrc::DrcReport drc = jrdrc::runDrc(in);
  r.drcClean = drc.clean();
  r.drcErrors = drc.errorCount();
  r.accounting = r.accepted + r.rejected + r.thrown == r.attempted;
  return r;
}

// Session replay: one driver thread, every slot a closed-loop caller.
// Events are read in stream order; an event whose slot still has a
// request in flight waits in that slot's queue while other slots go
// ahead, so each slot issues its events in order and only after the
// previous reply (the per-slot ordering contract of jrload), and up to
// 600 callers are in flight. A reconnect's route waits for its unroute.
// A request is stamped resolved when the driver first sees its future
// ready: the driver sweeps every in-flight future whenever it runs out
// of work and whenever it wakes from waiting.
PhaseResult runSession(Device& dev, const std::vector<StreamEvent>& events,
                       Budget budget, bool traced) {
  using Future = std::future<jrsvc::RouteResult>;
  struct InFlight {
    Future fut;
    uint64_t t0;
    uint64_t requestId;
    uint32_t slot;
    uint8_t op;
    bool measured;
  };
  struct Slot {
    uint16_t outstanding = 0;
    /// Reconnect whose unroute is in flight; its route goes next.
    int64_t reconnect = -1;
    std::deque<uint32_t> queued;  // event indices, stream order
  };
  constexpr int kSlots = 6;
  constexpr size_t kMaxQueued = 4096;  // read-ahead bound
  constexpr auto kWaitSlice = std::chrono::microseconds(500);

  PhaseResult r;
  r.kind = "session";
  r.traced = traced;
  dev.fabric->clear();
  auto svc = std::make_unique<jrsvc::RoutingService>(*dev.fabric,
                                                      serviceOptions(dev));
  std::vector<jrsvc::Session> sessions;
  for (int s = 0; s < kSessions; ++s) sessions.push_back(svc->openSession());

  std::vector<InFlight> inflight;
  inflight.reserve(4096);
  std::vector<Slot> slots(static_cast<size_t>(kSessions) * kSlots);
  std::vector<uint32_t> freed;  // slots that fell idle with work queued
  size_t queued = 0;
  bool measuring = false;
  uint64_t requestId = 0, waitNs = 0;

  const auto resolve = [&](InFlight& f, uint64_t seen) {
    Slot& slot = slots[f.slot];
    if (--slot.outstanding == 0 &&
        (slot.reconnect >= 0 || !slot.queued.empty())) {
      freed.push_back(f.slot);
    }
    try {
      const jrsvc::RouteResult res = f.fut.get();
      if (!f.measured) return;
      if (res.ok()) {
        ++r.accepted;
      } else {
        ++r.rejected;
        ++r.failures[jrsvc::rejectName(res.reason)];
      }
    } catch (const std::exception&) {
      if (!f.measured) return;
      ++r.thrown;
      ++r.failures["exception"];
    }
    r.latencyUs.push_back(static_cast<float>(seen - f.t0) * 1e-3f);
    if (traced) {
      r.spans.push_back({f.requestId, f.op, kLayerService, {}, f.t0, seen});
    }
  };
  const auto sweep = [&] {
    uint64_t seen = 0;
    for (size_t k = 0; k < inflight.size();) {
      if (inflight[k].fut.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        if (seen == 0) seen = nowNs();
        resolve(inflight[k], seen);
        inflight[k] = std::move(inflight.back());
        inflight.pop_back();
      } else {
        ++k;
      }
    }
  };
  /// Sleep on the oldest in-flight future for at most one slice.
  const auto wait = [&] {
    const auto oldest = std::min_element(
        inflight.begin(), inflight.end(),
        [](const InFlight& a, const InFlight& b) { return a.t0 < b.t0; });
    const uint64_t w0 = nowNs();
    oldest->fut.wait_for(kWaitSlice);
    waitNs += nowNs() - w0;
    sweep();
  };
  const auto submit = [&](uint32_t slot, OpCode op, const auto& fn) {
    const uint64_t t0 = nowNs();
    Future fut = fn();
    if (measuring) {
      ++r.attempted;
      if (traced) {
        r.spans.push_back({requestId, op, kLayerSubmit, {}, t0, nowNs()});
      }
    }
    ++slots[slot].outstanding;
    inflight.push_back({std::move(fut), t0, requestId, slot, op, measuring});
    if (measuring) ++requestId;
  };
  const auto slotOf = [](const StreamEvent& ev) {
    return ev.session * kSlots + ev.slot;
  };
  const auto routeP2P = [&](const StreamEvent& ev) {
    submit(slotOf(ev), kOpP2P, [&] {
      return sessions[ev.session].routeAsync(EndPoint(ev.srcs[0]),
                                             EndPoint(ev.sinks[0]));
    });
  };
  /// Issue event `ei` (its unroute only, for a reconnect).
  const auto start = [&](uint32_t ei) {
    const StreamEvent& ev = events[ei];
    const uint32_t slot = slotOf(ev);
    jrsvc::Session& s = sessions[ev.session];
    if (measuring) {
      ++r.events;
      addProperties(r, ev);
    }
    switch (ev.op) {
      case StreamOp::kP2P: routeP2P(ev); break;
      case StreamOp::kFanout: {
        std::vector<EndPoint> sinks(ev.sinks.begin(), ev.sinks.end());
        submit(slot, kOpFanout, [&] {
          return s.fanoutAsync(EndPoint(ev.srcs[0]), std::move(sinks));
        });
        break;
      }
      case StreamOp::kBus: {
        std::vector<EndPoint> srcs(ev.srcs.begin(), ev.srcs.end());
        std::vector<EndPoint> sinks(ev.sinks.begin(), ev.sinks.end());
        submit(slot, kOpBus, [&] {
          return s.busAsync(std::move(srcs), std::move(sinks));
        });
        break;
      }
      case StreamOp::kUnroute:
        for (const Pin& src : ev.srcs) {
          submit(slot, kOpUnroute,
                 [&] { return s.unrouteAsync(EndPoint(src)); });
        }
        break;
      case StreamOp::kReconnect:
        // The unroute must commit before the re-route enters a batch.
        submit(slot, kOpUnroute,
               [&] { return s.unrouteAsync(EndPoint(ev.srcs[0])); });
        slots[slot].reconnect = ei;
        break;
    }
  };
  const auto serveFreed = [&] {
    while (!freed.empty()) {
      Slot& slot = slots[freed.back()];
      freed.pop_back();
      if (slot.outstanding != 0) continue;
      if (slot.reconnect >= 0) {
        const auto ei = static_cast<size_t>(slot.reconnect);
        slot.reconnect = -1;
        routeP2P(events[ei]);
      } else if (!slot.queued.empty()) {
        const uint32_t ei = slot.queued.front();
        slot.queued.pop_front();
        --queued;
        start(ei);
      }
    }
  };
  Slicer slicer;
  const auto resolvedCount = [&] { return r.accepted + r.rejected + r.thrown; };
  /// Replay events [begin, end) until they have all resolved, or until
  /// `seconds` of the window have passed (then only drain what is in
  /// flight; queued events are dropped).
  const auto replay = [&](size_t begin, size_t end, double seconds) {
    size_t next = begin;
    bool stopping = false;
    for (;;) {
      if (measuring && !stopping) {
        const double t = slicer.tick(r, resolvedCount());
        stopping = seconds != 0 && t >= seconds;
      }
      if (!stopping) {
        serveFreed();
        if (next < end && queued < kMaxQueued) {
          const auto ei = static_cast<uint32_t>(next++);
          Slot& slot = slots[slotOf(events[ei])];
          if (slot.outstanding == 0 && slot.queued.empty()) {
            start(ei);
          } else {
            slot.queued.push_back(ei);
            ++queued;
          }
          continue;
        }
      }
      sweep();
      if (!stopping && !freed.empty()) continue;
      if (inflight.empty()) break;
      wait();
    }
    r.exhausted = seconds != 0 && !stopping;
  };

  replay(0, kWarmupEvents, 0);
  jrobs::registry().reset();
  jrobs::spanAggregator().reset();
  const jrsvc::ServiceStats before = svc->stats();
  jroute::RouteStats routerBefore;
  size_t onEdges0 = 0;
  svc->withRouter([&](jroute::Router& router) {
    routerBefore = router.stats();
    onEdges0 = router.fabric().onEdgeCount();
  });
  measuring = true;
  slicer.start();
  const size_t end = budget.events != 0
                         ? std::min(events.size(), kWarmupEvents + budget.events)
                         : events.size();
  replay(kWarmupEvents, end, budget.seconds);
  r.wallS = slicer.tick(r, resolvedCount(), true);
  r.cpuS = r.slices.back()[3];
  r.driverWaitS = static_cast<double>(waitNs) * 1e-9;
  r.service = statsDelta(before, svc->stats());
  r.metrics = svc->snapshotMetrics();
  r.attribution = jrobs::spanAggregator().report();
  svc->withRouter([&](jroute::Router& router) {
    r.router = statsDelta(routerBefore, router.stats());
    r.onEdgeDelta = static_cast<int64_t>(router.fabric().onEdgeCount()) -
                    static_cast<int64_t>(onEdges0);
  });

  const jrdrc::DrcReport drc = svc->runDrc(true);
  r.drcClean = drc.clean();
  r.drcErrors = drc.errorCount();
  const jrsvc::ServiceStats total = svc->stats();
  r.accounting = r.accepted + r.rejected + r.thrown == r.attempted &&
                 total.accepted + total.rejected == total.submitted;
  svc->stop();
  return r;
}

// --- Output ------------------------------------------------------------------

template <typename T>
void writeRaw(const std::string& path, const std::vector<T>& xs) {
  std::ofstream os(path, std::ios::binary);
  os.write(reinterpret_cast<const char*>(xs.data()),
           static_cast<std::streamsize>(xs.size() * sizeof(T)));
  if (!os) throw std::runtime_error("cannot write " + path);
}

Json phaseJson(const PhaseResult& r, const std::string& dir) {
  const std::string base = dir + "/" + r.name;
  writeRaw(base + ".lat.f32", r.latencyUs);
  if (r.traced) writeRaw(base + ".spans", r.spans);

  Json failures;
  for (const auto& [reason, n] : r.failures) failures.num(reason, n);
  Json mix;
  for (size_t k = 0; k < r.opMix.size(); ++k) {
    mix.num(workload::streamOpName(static_cast<StreamOp>(k)), r.opMix[k]);
  }
  Json router;
  router.num("pips_on", r.router.pipsTurnedOn)
      .num("pips_off", r.router.pipsTurnedOff)
      .num("routes_completed", r.router.routesCompleted)
      .num("template_hits", r.router.templateHits)
      .num("long_template_hits", r.router.longTemplateHits)
      .num("shape_reuse_hits", r.router.shapeReuseHits)
      .num("maze_runs", r.router.mazeRuns)
      .num("maze_visits", r.router.mazeVisits)
      .num("on_edge_delta", static_cast<double>(r.onEdgeDelta));
  Json counters;
  for (const jrobs::MetricSample& m : r.metrics.samples) {
    if (m.kind == jrobs::MetricKind::kHistogram) {
      counters.num(m.name + ".count", m.count).num(m.name + ".sum", m.sum);
    } else {
      counters.num(m.name, static_cast<double>(m.value));
    }
  }
  std::vector<Json> slices;
  for (const auto& [t, resolved, samples, cpu, steal] : r.slices) {
    slices.push_back(Json()
                         .num("t", t)
                         .num("resolved", resolved)
                         .num("samples", samples)
                         .num("cpu", cpu)
                         .num("steal", steal));
  }
  Json j;
  j.str("name", r.name)
      .str("kind", r.kind)
      .flag("traced", r.traced)
      .num("events", r.events)
      .num("attempted", r.attempted)
      .num("accepted", r.accepted)
      .num("rejected", r.rejected)
      .num("thrown", r.thrown)
      .obj("failures", failures)
      .obj("op_mix", mix)
      .num("distance_sum", r.distanceSum)
      .num("distance_pairs", r.distancePairs)
      .num("wall_s", r.wallS)
      .num("cpu_s", r.cpuS)
      .num("driver_wait_s", r.driverWaitS)
      .flag("exhausted", r.exhausted)
      .list("slices", slices)
      .str("latency_file", r.name + ".lat.f32")
      .str("spans_file", r.traced ? r.name + ".spans" : "")
      .obj("router", router)
      .obj("counters", counters);
  if (r.service) {
    const jrsvc::ServiceStats& s = *r.service;
    Json svc;
    svc.num("submitted", s.submitted)
        .num("accepted", s.accepted)
        .num("rejected", s.rejected)
        .num("batches", s.batches)
        .num("parallel_planned", s.parallelPlanned)
        .num("serial_routed", s.serialRouted)
        .num("plan_fallbacks", s.planFallbacks)
        .num("claim_retries", s.claimRetries);
    j.obj("service", svc);
  }
  if (r.attribution) {
    Json spans;
    for (const auto& seg : r.attribution->segments) {
      spans.num(seg.name, seg.share);
    }
    j.obj("span_shares", spans);
  }
  Json checks;
  checks.flag("drc_clean", r.drcClean)
      .num("drc_errors", r.drcErrors)
      .flag("accounting", r.accounting);
  j.obj("checks", checks);
  return j;
}

int run(const Args& args) {
  // The driver waits on futures in short slices; keep the kernel from
  // stretching each slice by its default 50 us timer slack.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  const WorkloadSpec& w = *args.workload;

  Json host;
  host.num("cores", static_cast<uint64_t>(std::thread::hardware_concurrency()))
      .num("mem_probe_ns", memProbeNs())
      .num("alu_probe_ns", aluProbeNs());

  // The stream is the driver's input, generated outside every timing.
  SessionStreamOptions sopts;
  sopts.seed = args.seed;
  const double partSeconds = args.seconds / kSetupReps;
  const size_t wanted =
      kWarmupEvents +
      (args.trace ? kFixedEvents
                  : static_cast<size_t>(partSeconds *
                                        static_cast<double>(kMaxEventRate)));
  const uint64_t g0 = nowNs();
  const std::vector<StreamEvent> events =
      SessionStream(xcvsim::deviceByName("XCV1000"), sopts).take(wanted);
  const double generateS = secondsSince(g0);

  // Set up several times. Without --trace each set-up is followed by one
  // part of the measured window on its fresh device, so the window
  // samples the host at several moments of the run (its speed drifts);
  // with --trace the last device runs the fixed-work phases.
  std::vector<Json> reps;
  std::vector<PhaseResult> phases;
  std::unique_ptr<Device> dev;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    dev.reset();  // one device at a time
    dev = std::make_unique<Device>();
    std::vector<SetupLayer> layers;
    const double total = buildDevice(*dev, w.session, layers);
    Json rec;
    for (const SetupLayer& l : layers) {
      rec.num(std::string(l.name) + ".build_s", l.seconds)
          .num(std::string(l.name) + ".rss_mb", l.rssMb);
    }
    rec.num("total_s", total);
    reps.push_back(rec);
    if (!args.trace) {
      Budget b;
      b.seconds = partSeconds;
      phases.push_back(w.session ? runSession(*dev, events, b, false)
                                 : runDirect(*dev, events, b, false));
      phases.back().name = "measured." + std::to_string(rep + 1);
    }
  }
  if (args.trace) {
    Budget b;
    b.events = kFixedEvents;
    for (const bool traced : {false, true}) {
      phases.push_back(runDirect(*dev, events, b, traced));
      phases.back().name = traced ? "direct_traced" : "direct";
      phases.push_back(runSession(*dev, events, b, traced));
      phases.back().name = traced ? "session_traced" : "session";
    }
  }

  std::vector<Json> phaseJsons;
  for (const PhaseResult& p : phases) {
    phaseJsons.push_back(phaseJson(p, args.out));
  }
  Json build;
  build.str("type", PERFBENCH_BUILD_TYPE).str("compiler", PERFBENCH_COMPILER);
#ifdef NDEBUG
  build.flag("ndebug", true);
#else
  build.flag("ndebug", false);
#endif
  Json rec;
  rec.str("workload", w.name)
      .num("seed", args.seed)
      .num("seconds", args.seconds)
      .flag("trace", args.trace)
      .str("device", "XCV1000")
      .num("radius", static_cast<uint64_t>(sopts.radius))
      .num("sessions", static_cast<uint64_t>(kSessions))
      .obj("build", build)
      .obj("host", host)
      .list("setup", reps)
      .num("generate_s", generateS)
      .num("events_generated", static_cast<uint64_t>(events.size()))
      .num("peak_rss_mb", peakRssMb())
      .list("phases", phaseJsons);
  std::ofstream os(args.out + "/record.json");
  os << rec.text() << "\n";
  if (!os) throw std::runtime_error("cannot write record.json");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload "
                 "session_local|direct_local --seed N "
                 "--seconds S --trace 0|1 --out DIR\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
