// jrplan — workload check CLI: a dry run of the workload through the
// routing engine (src/plan).
//
//   jrplan lint <script.jr> [--json]       check a jrsh session script
//   jrplan stream [--device XCV1000] [--sessions N] [--slots N]
//                 [--seed N] [--requests N] [--json]
//                                          check the seeded jrload workload
//   jrplan --rules                         list the rules a report carries
//
// `stream` regenerates exactly the SessionStream jrload would replay for
// the same device/sessions/slots/seed/requests, so a workload can be
// vetted before it costs a 10^5-request run. The check builds the device
// and runs every request through a RoutingService on a scratch fabric, so
// each finding is a rejection the engine itself would make. Output is the
// shared checker report (src/check): text, or JSON carrying "schema":1.
// Exit code is the number of *errors* (warnings are free), capped at 125
// — a clean workload exits 0.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <type_traits>
#include <vector>

#include "arch/device.h"
#include "common/error.h"
#include "common/parse.h"
#include "plan/lint.h"
#include "workload/session_stream.h"

namespace {

void usage(FILE* to) {
  std::fprintf(
      to,
      "usage: jrplan lint <script.jr> [--json]\n"
      "       jrplan stream [--device NAME] [--sessions N] [--slots N]\n"
      "                     [--seed N] [--requests N] [--json]\n"
      "       jrplan --rules\n");
}

int emit(const jrcheck::Report& rep, bool json) {
  std::printf("%s\n", json ? rep.json().c_str() : rep.summary().c_str());
  return jrcheck::exitStatus(rep.errorCount());
}

/// Requests one stream event expands to — keep in lockstep with jrload.
uint64_t requestsOf(const workload::StreamEvent& e) {
  switch (e.op) {
    case workload::StreamOp::kUnroute: return e.srcs.size();
    case workload::StreamOp::kReconnect: return 2;
    default: return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return 125;
  }
  const std::string cmd = argv[1];
  if (cmd == "-h" || cmd == "--help") {
    usage(stdout);
    return 0;
  }
  if (cmd == "--rules") {
    for (const jrplan::RuleInfo& r : jrplan::ruleCatalogue()) {
      std::printf("%-16s %s\n", r.id, r.description);
    }
    return 0;
  }

  bool json = false;
  if (cmd == "lint") {
    std::string path;
    for (int i = 2; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0) {
        json = true;
      } else if (path.empty()) {
        path = argv[i];
      } else {
        usage(stderr);
        return 125;
      }
    }
    if (path.empty()) {
      usage(stderr);
      return 125;
    }
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "jrplan: cannot open %s\n", path.c_str());
      return 125;
    }
    return emit(jrplan::lintScript(in), json);
  }

  if (cmd == "stream") {
    std::string device = "XCV1000";
    workload::SessionStreamOptions sopts;
    uint64_t requests = 100000;
    for (int i = 2; i < argc; ++i) {
      const std::string a = argv[i];
      auto value = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "jrplan: %s needs a value\n", a.c_str());
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
          std::fprintf(stderr, "jrplan: %s: '%s' is not a count\n",
                       a.c_str(), v);
          return false;
        }
        *field = *n;
        return true;
      };
      bool ok = true;
      if (a == "--json") {
        json = true;
      } else if (a == "--device") {
        const char* v = value();
        ok = v != nullptr;
        if (ok) device = v;
      } else if (a == "--sessions") {
        ok = count(&sopts.sessions);
      } else if (a == "--slots") {
        ok = count(&sopts.slotsPerSession);
      } else if (a == "--seed") {
        ok = count(&sopts.seed);
      } else if (a == "--requests") {
        ok = count(&requests);
      } else {
        std::fprintf(stderr, "jrplan: unknown argument %s\n", a.c_str());
        usage(stderr);
        return 125;
      }
      if (!ok) return 125;  // already reported
    }
    if (sopts.sessions < 1 || sopts.slotsPerSession < 1 || requests < 1) {
      std::fprintf(stderr, "jrplan: counts must be positive\n");
      return 125;
    }
    try {
      const xcvsim::DeviceSpec& dev = xcvsim::deviceByName(device);
      workload::SessionStream stream(dev, sopts);
      std::vector<jrplan::Event> events;
      uint64_t planned = 0;
      while (planned < requests) {
        events.push_back(
            {stream.next(), "event " + std::to_string(events.size())});
        planned += requestsOf(events.back().event);
      }
      const jrcheck::Report rep = jrplan::dryRun(dev, events);
      if (!json) {
        std::printf("jrplan: %zu events (%llu requests) on %s, "
                    "%d sessions x %d slots, seed %llu\n",
                    events.size(), static_cast<unsigned long long>(planned),
                    device.c_str(), sopts.sessions, sopts.slotsPerSession,
                    static_cast<unsigned long long>(sopts.seed));
      }
      return emit(rep, json);
    } catch (const xcvsim::JRouteError& e) {
      std::fprintf(stderr, "jrplan: %s\n", e.what());
      return 125;
    }
  }

  std::fprintf(stderr, "jrplan: unknown command %s\n", cmd.c_str());
  usage(stderr);
  return 125;
}
