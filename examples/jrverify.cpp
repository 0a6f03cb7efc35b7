// jrverify — static verifier for the architecture model, routing-resource
// graph, template library, and bitstream slot table.
//
//   jrverify                verify every shipped device, text report
//   jrverify XCV300 XCV50   verify only the named devices
//   jrverify --json [...]   machine-readable output (one JSON array of
//                           the shared checker reports, "schema":1 each)
//   jrverify --rules        list the rule catalogue and exit
//
// Exit code is the total number of errors (capped at 125 so it never
// collides with shell/signal exit codes), which makes it a drop-in CI gate:
// a clean model exits 0.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "arch/device.h"
#include "common/error.h"
#include "verify/verify.h"

int main(int argc, char** argv) {
  bool json = false;
  bool listRules = false;
  std::vector<std::string> names;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--rules") == 0) {
      listRules = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("usage: jrverify [--json] [--rules] [device...]\n");
      return 0;
    } else {
      names.emplace_back(argv[i]);
    }
  }

  if (listRules) {
    for (const jrverify::VerifyRule& r : jrverify::verifyRules()) {
      std::printf("%-20s [%s] %s\n", r.id, r.group, r.description);
    }
    return 0;
  }

  std::vector<const xcvsim::DeviceSpec*> devices;
  if (names.empty()) {
    for (const xcvsim::DeviceSpec& dev : xcvsim::deviceFamily()) {
      devices.push_back(&dev);
    }
  } else {
    for (const std::string& name : names) {
      try {
        devices.push_back(&xcvsim::deviceByName(name));
      } catch (const xcvsim::JRouteError& e) {
        std::fprintf(stderr, "jrverify: %s\n", e.what());
        return 125;
      }
    }
  }

  size_t errors = 0;
  if (json) std::printf("[");
  bool first = true;
  using Clock = std::chrono::steady_clock;
  const auto ms = [](Clock::duration d) {
    return static_cast<long long>(
        std::chrono::duration_cast<std::chrono::milliseconds>(d).count());
  };
  for (const xcvsim::DeviceSpec* dev : devices) {
    const auto t0 = Clock::now();
    const xcvsim::Graph graph(*dev);
    const xcvsim::PipTable table(graph.arch());
    xcvsim::Fabric fabric(graph, table);
    const auto t1 = Clock::now();
    const jrcheck::Report report =
        jrverify::runVerify(jrverify::makeModelView(graph, table, fabric));
    const auto t2 = Clock::now();
    errors += report.errorCount();
    if (json) {
      std::printf("%s%s", first ? "" : ",", report.json().c_str());
      first = false;
    } else {
      std::printf("%s  (build %lld ms, verify %lld ms)\n\n",
                  report.summary().c_str(), ms(t1 - t0), ms(t2 - t1));
    }
  }
  if (json) std::printf("]\n");
  if (!json) {
    std::printf("jrverify: %zu device(s), %zu error(s)\n", devices.size(),
                errors);
  }
  return jrcheck::exitStatus(errors);
}
