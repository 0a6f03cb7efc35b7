#include "obs/provenance.h"

#include <cinttypes>
#include <cstdio>

#include <map>

#include "common/sync.h"
#include "obs/clock.h"
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

struct ProvenanceStore::Impl {
  mutable jrsync::Mutex mu;
  size_t capacity JR_GUARDED_BY(mu) = 0;
  uint64_t nextSeq JR_GUARDED_BY(mu) = 1;
  // Keyed by net source: the "exactly one record per net" invariant is
  // the map key, not a scan. seqIndex orders eviction and `last()`.
  std::map<uint64_t, NetProvenance> bySource JR_GUARDED_BY(mu);
  std::map<uint64_t, uint64_t> seqIndex JR_GUARDED_BY(mu);  // seq -> source
};

ProvenanceStore::ProvenanceStore(size_t capacity) : impl_(new Impl) {
  jrsync::MutexLock lock(impl_->mu);
  impl_->capacity = capacity == 0 ? 1 : capacity;
}

ProvenanceStore::~ProvenanceStore() { delete impl_; }

void ProvenanceStore::record(NetProvenance rec) {
  if constexpr (!compiledIn()) return;  // the store stays empty
  jrsync::MutexLock lock(impl_->mu);
  auto it = impl_->bySource.find(rec.netSource);
  if (it != impl_->bySource.end()) {
    // The net was extended by a later request: the new record supersedes
    // the old one, keeping a count of how many requests touched the net.
    rec.updates = it->second.updates + 1;
    impl_->seqIndex.erase(it->second.seq);
  } else if (impl_->bySource.size() >= impl_->capacity) {
    auto oldest = impl_->seqIndex.begin();
    impl_->bySource.erase(oldest->second);
    impl_->seqIndex.erase(oldest);
  }
  rec.seq = impl_->nextSeq++;
  impl_->seqIndex[rec.seq] = rec.netSource;
  impl_->bySource[rec.netSource] = std::move(rec);
}

std::optional<NetProvenance> ProvenanceStore::find(uint64_t netSource) const {
  jrsync::MutexLock lock(impl_->mu);
  auto it = impl_->bySource.find(netSource);
  if (it == impl_->bySource.end()) return std::nullopt;
  return it->second;
}

std::optional<NetProvenance> ProvenanceStore::last() const {
  jrsync::MutexLock lock(impl_->mu);
  if (impl_->seqIndex.empty()) return std::nullopt;
  return impl_->bySource.at(impl_->seqIndex.rbegin()->second);
}

void ProvenanceStore::forget(uint64_t netSource) {
  jrsync::MutexLock lock(impl_->mu);
  auto it = impl_->bySource.find(netSource);
  if (it == impl_->bySource.end()) return;
  impl_->seqIndex.erase(it->second.seq);
  impl_->bySource.erase(it);
}

size_t ProvenanceStore::size() const {
  jrsync::MutexLock lock(impl_->mu);
  return impl_->bySource.size();
}

void ProvenanceStore::clear() {
  jrsync::MutexLock lock(impl_->mu);
  impl_->bySource.clear();
  impl_->seqIndex.clear();
}

std::string ProvenanceStore::json() const {
  jrsync::MutexLock lock(impl_->mu);
  std::string out = "{\"provenance\":[";
  bool first = true;
  for (const auto& [seq, source] : impl_->seqIndex) {
    (void)seq;
    if (!first) out += ",";
    first = false;
    out += impl_->bySource.at(source).json();
  }
  out += "]}";
  return out;
}

ProvenanceStore& provenance() {
  static ProvenanceStore* store = new ProvenanceStore();  // leaked on purpose
  return *store;
}

}  // namespace jrobs
