// jrload: a mixed-workload load driver for the routing service.
//
// Replays a seeded SessionStream (src/workload/session_stream.h) —
// hundreds of concurrent client sessions routing, reconnecting, and
// tearing down p2p/fanout/bus connections — against a live
// RoutingService, then reports throughput, the request latency
// percentiles and the span attribution ("where did the milliseconds
// go"), and appends one JSONL record to $JROUTE_BENCH_RECORD.
//
//   ./jrload [--device XCV1000] [--sessions 100] [--slots 6]
//            [--requests 100000] [--seed 1] [--threads N]
//            [--batch 64]
//
// Counts are plain decimal digits (common/parse.h): a sign, a fraction,
// trailing bytes or an overflow is a usage error, and --threads may not
// exceed --sessions, since a shard with no session replays nothing.
// Exit codes: 0 success, 2 usage / device errors.
//
// Driver ordering contract: the engine serializes unroutes *after* the
// parallel commits of the same batch, so a route submitted behind an
// unroute of the same net must not share its batch. The driver
// therefore settles a slot's outstanding futures before issuing that
// slot's next event (and settles mid-event for reconnect), which also
// naturally bounds the in-flight window to a couple of requests per
// slot — backpressure without ever tripping kOverloaded.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "common/parse.h"
#include "obs/metrics.h"
#include "obs/spans.h"
#include "service/service.h"
#include "workload/session_stream.h"

using jrbench::JsonWriter;
using jroute::EndPoint;
using workload::SessionStream;
using workload::SessionStreamOptions;
using workload::StreamEvent;
using workload::StreamOp;

namespace {

struct Args {
  std::string device = "XCV1000";
  int sessions = 100;
  int slots = 6;
  uint64_t requests = 100000;
  uint64_t seed = 1;
  unsigned threads = 0;  // 0 = min(4, hardware, sessions)
  size_t batch = 64;
};

void usage(FILE* to) {
  std::fprintf(to,
               "usage: jrload [--device NAME] [--sessions N] [--slots N]\n"
               "              [--requests N] [--seed N] [--threads N]\n"
               "              [--batch N]\n");
}

bool parseArgs(int argc, char** argv, Args* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "jrload: %s needs a value\n", a.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    auto count = [&](auto* field) {
      const char* v = value();
      if (v == nullptr) return false;
      const auto n =
          xcvsim::parseCount<std::remove_pointer_t<decltype(field)>>(v);
      if (!n) {
        std::fprintf(stderr, "jrload: %s: '%s' is not a count\n", a.c_str(),
                     v);
        return false;
      }
      *field = *n;
      return true;
    };
    bool ok = true;
    if (a == "-h" || a == "--help") {
      usage(stdout);
      std::exit(0);
    } else if (a == "--device") {
      const char* v = value();
      ok = v != nullptr;
      if (ok) out->device = v;
    } else if (a == "--sessions") {
      ok = count(&out->sessions);
    } else if (a == "--slots") {
      ok = count(&out->slots);
    } else if (a == "--requests") {
      ok = count(&out->requests);
    } else if (a == "--seed") {
      ok = count(&out->seed);
    } else if (a == "--threads") {
      ok = count(&out->threads);
    } else if (a == "--batch") {
      ok = count(&out->batch);
    } else {
      std::fprintf(stderr, "jrload: unknown argument %s\n", a.c_str());
      ok = false;
    }
    if (!ok) return false;
  }
  if (out->sessions < 1 || out->slots < 1 || out->requests < 1 ||
      out->batch < 1) {
    std::fprintf(stderr, "jrload: counts must be positive\n");
    return false;
  }
  if (out->threads > static_cast<unsigned>(out->sessions)) {
    std::fprintf(stderr, "jrload: --threads %u exceeds --sessions %d\n",
                 out->threads, out->sessions);
    return false;
  }
  return true;
}

/// Requests one event expands to at the service interface.
uint64_t requestsOf(const StreamEvent& e) {
  switch (e.op) {
    case StreamOp::kUnroute: return e.srcs.size();
    case StreamOp::kReconnect: return 2;
    default: return 1;
  }
}

struct ShardTally {
  uint64_t submitted = 0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
};

/// Replay the events whose session lands on this shard, preserving
/// per-slot order (see the file comment for why that matters).
void runShard(unsigned tid, unsigned nThreads,
              const std::vector<StreamEvent>& events,
              std::vector<jrsvc::Session>& sessions, ShardTally& tally) {
  using Future = std::future<jrsvc::RouteResult>;
  std::unordered_map<uint64_t, std::vector<Future>> pending;
  auto settle = [&tally](std::vector<Future>& futs) {
    for (Future& f : futs) {
      f.get().ok() ? ++tally.accepted : ++tally.rejected;
    }
    futs.clear();
  };
  for (const StreamEvent& ev : events) {
    if (ev.session % nThreads != tid) continue;
    jrsvc::Session& s = sessions[ev.session];
    std::vector<Future>& slot =
        pending[(static_cast<uint64_t>(ev.session) << 32) | ev.slot];
    settle(slot);
    switch (ev.op) {
      case StreamOp::kP2P:
        slot.push_back(
            s.routeAsync(EndPoint(ev.srcs[0]), EndPoint(ev.sinks[0])));
        break;
      case StreamOp::kFanout: {
        std::vector<EndPoint> sinks(ev.sinks.begin(), ev.sinks.end());
        slot.push_back(s.fanoutAsync(EndPoint(ev.srcs[0]), std::move(sinks)));
        break;
      }
      case StreamOp::kBus: {
        std::vector<EndPoint> srcs(ev.srcs.begin(), ev.srcs.end());
        std::vector<EndPoint> sinks(ev.sinks.begin(), ev.sinks.end());
        slot.push_back(s.busAsync(std::move(srcs), std::move(sinks)));
        break;
      }
      case StreamOp::kUnroute:
        for (const jroute::Pin& src : ev.srcs) {
          slot.push_back(s.unrouteAsync(EndPoint(src)));
        }
        break;
      case StreamOp::kReconnect:
        // The unroute must commit before the re-route enters a batch.
        slot.push_back(s.unrouteAsync(EndPoint(ev.srcs[0])));
        settle(slot);
        slot.push_back(
            s.routeAsync(EndPoint(ev.srcs[0]), EndPoint(ev.sinks[0])));
        break;
    }
    tally.submitted += requestsOf(ev);
  }
  for (auto& [key, futs] : pending) settle(futs);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, &args)) {
    usage(stderr);
    return 2;
  }
  if (args.threads == 0) {
    args.threads =
        std::min({4u, std::max(1u, std::thread::hardware_concurrency()),
                  static_cast<unsigned>(args.sessions)});
  }

  jrbench::Device* dev = nullptr;
  std::vector<StreamEvent> events;
  uint64_t planned = 0;
  try {
    dev = &jrbench::sharedDevice(xcvsim::deviceByName(args.device));
    SessionStreamOptions sopts;
    sopts.sessions = args.sessions;
    sopts.slotsPerSession = args.slots;
    sopts.seed = args.seed;
    SessionStream stream(dev->graph.device(), sopts);
    while (planned < args.requests) {
      events.push_back(stream.next());
      planned += requestsOf(events.back());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jrload: %s\n", e.what());
    return 2;
  }

  std::printf(
      "jrload: %zu events (%llu requests) on %s, %d sessions x %d slots, "
      "%u driver thread(s), batch %zu\n",
      events.size(), static_cast<unsigned long long>(planned),
      args.device.c_str(), args.sessions, args.slots, args.threads,
      args.batch);

  // Fresh measurement baseline: counters and span sums.
  jrobs::registry().reset();
  jrobs::spanAggregator().reset();

  dev->fabric.clear();
  jrsvc::ServiceOptions opts;
  opts.queueCapacity = 8192;
  opts.batchSize = args.batch;
  jrsvc::RoutingService svc(dev->fabric, opts);
  std::vector<jrsvc::Session> sessions;
  sessions.reserve(static_cast<size_t>(args.sessions));
  for (int s = 0; s < args.sessions; ++s) {
    sessions.push_back(svc.openSession());
  }

  std::vector<ShardTally> tallies(args.threads);
  std::vector<std::thread> threads;
  const auto t0 = std::chrono::steady_clock::now();
  for (unsigned t = 0; t < args.threads; ++t) {
    threads.emplace_back([&, t] {
      runShard(t, args.threads, events, sessions, tallies[t]);
    });
  }
  for (std::thread& th : threads) th.join();
  const auto t1 = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(t1 - t0).count();
  svc.stop();

  ShardTally total;
  for (const ShardTally& t : tallies) {
    total.submitted += t.submitted;
    total.accepted += t.accepted;
    total.rejected += t.rejected;
  }
  const double reqPerSec = static_cast<double>(total.submitted) / seconds;

  const jrobs::SpanAttribution spans = jrobs::spanAggregator().report();

  std::printf("\n%8.3fs  %9.1f req/s  accepted %llu  rejected %llu\n",
              seconds, reqPerSec,
              static_cast<unsigned long long>(total.accepted),
              static_cast<unsigned long long>(total.rejected));
  std::printf("\n%s\n", spans.text().c_str());

  JsonWriter j;
  j.kv("bench", std::string("jrload"))
      .kv("device", args.device)
      .kv("sessions", static_cast<uint64_t>(args.sessions))
      .kv("slots", static_cast<uint64_t>(args.slots))
      .kv("threads", static_cast<uint64_t>(args.threads))
      .kv("seed", args.seed)
      .kv("batch", static_cast<uint64_t>(args.batch))
      .kv("events", static_cast<uint64_t>(events.size()))
      .kv("requests", total.submitted)
      .kv("seconds", seconds)
      .kv("req_per_sec", reqPerSec)
      .kv("accepted", total.accepted)
      .kv("rejected", total.rejected)
      .kv("telemetry", static_cast<uint64_t>(jrobs::compiledIn() ? 1 : 0));
  // The request latency is the span's end-to-end time.
  if (spans.requests > 0) {
    j.kv("hist_p50_us", spans.e2eP50Us)
        .kv("hist_p95_us", spans.e2eP95Us)
        .kv("hist_p99_us", spans.e2eP99Us);
  }
  for (const jrobs::SpanAttribution::Segment& seg : spans.segments) {
    char key[48];
    std::snprintf(key, sizeof key, "span_%s_share", seg.name);
    j.kv(key, seg.share);
  }
  std::printf("%s\n", j.str());
  jrbench::appendRunRecord(j);
  return total.submitted == 0 ? 2 : 0;
}
