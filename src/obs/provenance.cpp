#include "obs/provenance.h"

#include <cinttypes>
#include <cstdio>

#include "obs/jsonutil.h"

namespace jrobs {

namespace {

std::string u64(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
}

}  // namespace

std::string NetProvenance::text() const {
  std::string out;
  out += "net " + (netName.empty() ? ("node#" + u64(netSource)) : netName) +
         " (source node " + u64(netSource) + ")\n";
  out += "  request   #" + u64(requestId) + " session " + u64(sessionId) +
         " op " + op + "\n";
  out += "  algorithm " + algorithm +
         (parallel ? " (parallel plan)" : " (serialized)") + ", selector " +
         selector + "\n";
  out += "  effort    " + u64(searchVisits) + " nodes visited\n";
  out += "  result    " + u64(pips) + " pips across " + u64(sinks) +
         " sink(s), latency " + u64(latencyUs) + " us\n";
  out += "  outcome   txn " + txn + ", drc " + drc;
  if (updates > 0) out += ", updated " + u64(updates) + "x";
  out += " (seq " + u64(seq) + ")\n";
  return out;
}

std::string NetProvenance::json() const {
  std::string out = "{";
  out += "\"net_source\":" + u64(netSource) + ",";
  out += jsonKv("net_name", netName) + ",";
  out += "\"request_id\":" + u64(requestId) + ",";
  out += "\"session_id\":" + u64(sessionId) + ",";
  out += jsonKv("op", op) + ",";
  out += jsonKv("algorithm", algorithm) + ",";
  out += jsonKv("selector", selector) + ",";
  out += std::string("\"parallel\":") + (parallel ? "true" : "false") + ",";
  out += "\"pips\":" + u64(pips) + ",";
  out += "\"sinks\":" + u64(sinks) + ",";
  out += "\"search_visits\":" + u64(searchVisits) + ",";
  out += "\"latency_us\":" + u64(latencyUs) + ",";
  out += jsonKv("txn", txn) + ",";
  out += jsonKv("drc", drc) + ",";
  out += "\"updates\":" + u64(updates) + ",";
  out += "\"seq\":" + u64(seq);
  out += "}";
  return out;
}

const char* classifyAlgorithm(uint64_t templateHits, uint64_t mazeRuns,
                              uint64_t shapeReuseHits) {
  if (mazeRuns > 0 && (templateHits > 0 || shapeReuseHits > 0)) return "mixed";
  if (mazeRuns > 0) return "maze";
  if (shapeReuseHits > 0) return "shape-hint";
  if (templateHits > 0) return "template";
  return "reuse";
}

const char* classifySelector(uint64_t selTemplate, uint64_t selLongLine,
                             uint64_t selMaze) {
  const int kinds = (selTemplate > 0 ? 1 : 0) + (selLongLine > 0 ? 1 : 0) +
                    (selMaze > 0 ? 1 : 0);
  if (kinds > 1) return "mixed";
  if (selTemplate > 0) return "template";
  if (selLongLine > 0) return "long-line";
  if (selMaze > 0) return "maze";
  return "off";
}

}  // namespace jrobs
