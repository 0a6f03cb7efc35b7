#include "lookahead/lookahead.h"

#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <utility>

#include "common/sync.h"
#include "fabric/timing.h"
#include "obs/metrics.h"

namespace jrla {

using xcvsim::kPipDelayPs;
using xcvsim::NodeKind;
using xcvsim::RowCol;

namespace {

constexpr int kNumClasses = 16;  // NodeKind has 15 values; round up
constexpr DelayPs kInf = Lookahead::kUnreachable;

/// One translation-invariant abstract move: any real edge whose endpoint
/// classes and position delta match is an instance of it. The cost is a
/// function of the target class alone (kPipDelayPs + nodeDelay), so
/// deduplication needs no min-merge.
struct Move {
  uint8_t fromClass;
  uint8_t toClass;
  int16_t dRow;
  int16_t dCol;
  DelayPs cost;
};

bool isLongClass(uint8_t c) {
  return c == static_cast<uint8_t>(NodeKind::LongH) ||
         c == static_cast<uint8_t>(NodeKind::LongV);
}

}  // namespace

Lookahead::Lookahead(const Graph& g) {
  const auto t0 = std::chrono::steady_clock::now();
  device_ = std::string(g.device().name);
  const NodeId n = g.numNodes();
  const auto cls = [&](NodeId i) { return static_cast<uint8_t>(g.kindOf(i)); };

  int minPosRow = 0, maxPosRow = 0, minPosCol = 0, maxPosCol = 0;
  for (NodeId i = 0; i < n; ++i) {
    const RowCol p = g.positionOf(i);
    if (i == 0 || p.row < minPosRow) minPosRow = p.row;
    if (i == 0 || p.row > maxPosRow) maxPosRow = p.row;
    if (i == 0 || p.col < minPosCol) minPosCol = p.col;
    if (i == 0 || p.col > maxPosCol) maxPosCol = p.col;
  }

  // The displacement domain covers every (goal - node) position pair, so
  // any real state the search can reach has an in-domain table entry.
  minDRow_ = minPosRow - maxPosRow;
  maxDRow_ = maxPosRow - minPosRow;
  minDCol_ = minPosCol - maxPosCol;
  maxDCol_ = maxPosCol - minPosCol;
  rowSpan_ = maxDRow_ - minDRow_ + 1;
  colSpan_ = maxDCol_ - minDCol_ + 1;

  // Project every edge onto its abstract move; the periodic patterns
  // collapse the millions of edges into a few hundred distinct moves.
  // Deduplication uses a flat byte map — one test-and-set per edge — since
  // a hash insert per edge is measurable on the large devices. Moves with
  // a hub endpoint drop their delta (the hub has no position) and go to a
  // separate list handled outside the Dijkstra proper.
  std::vector<Move> moves;
  std::vector<Move> hubMoves;
  const size_t dedupSpan =
      static_cast<size_t>(rowSpan_) * static_cast<size_t>(colSpan_);
  std::vector<uint8_t> seenMove(static_cast<size_t>(kNumClasses) *
                                kNumClasses * dedupSpan);
  for (NodeId u = 0; u < n; ++u) {
    const uint8_t cu = cls(u);
    const RowCol pu = g.positionOf(u);
    for (const xcvsim::Edge& e : g.out(u)) {
      const NodeId v = e.to;
      const uint8_t cv = cls(v);
      const RowCol pv = g.positionOf(v);
      const bool hub = isHubClass(cu) || isHubClass(cv);
      const int dr = hub ? 0 : pv.row - pu.row;
      const int dc = hub ? 0 : pv.col - pu.col;
      const size_t key =
          (static_cast<size_t>(cu) * kNumClasses + cv) * dedupSpan +
          static_cast<size_t>(dr - minDRow_) * static_cast<size_t>(colSpan_) +
          static_cast<size_t>(dc - minDCol_);
      if (seenMove[key]) continue;
      seenMove[key] = 1;
      (hub ? hubMoves : moves)
          .push_back({cu, cv, static_cast<int16_t>(dr),
                      static_cast<int16_t>(dc),
                      kPipDelayPs + g.nodeDelay(v)});
    }
  }
  seenMove.clear();
  seenMove.shrink_to_fit();

  const size_t states = static_cast<size_t>(kNumClasses) *
                        static_cast<size_t>(rowSpan_) *
                        static_cast<size_t>(colSpan_);

  // One backward multi-source Dijkstra per table. Targets are every
  // class at displacement (0,0) — a real path's projection lands there
  // exactly — so the result is goal-class-independent.
  const auto buildTable = [&](bool withLongs, Table& out,
                              DelayPs& maxFiniteOut) {
    std::vector<std::vector<Move>> byToClass(kNumClasses);
    for (const Move& m : moves) {
      if (!withLongs && isLongClass(m.toClass)) continue;
      byToClass[m.toClass].push_back(m);
    }
    // All edge costs share a large common step (they are delay sums), so
    // a Dial bucket queue (monotone scan, O(1) push/pop) replaces the
    // binary heap. The gcd includes hub-move costs: hub relaxations feed
    // sums of move costs back into the buckets.
    DelayPs step = 0;
    for (const Move& m : moves) step = std::gcd(step, m.cost);
    for (const Move& m : hubMoves) step = std::gcd(step, m.cost);
    if (step <= 0) step = 1;

    std::vector<DelayPs> dist(states, kInf);
    std::vector<std::vector<uint32_t>> buckets(1);
    const auto push = [&](size_t s, DelayPs d) {
      const size_t b = static_cast<size_t>(d / step);
      if (b >= buckets.size()) buckets.resize(b + 1);
      buckets[b].push_back(static_cast<uint32_t>(s));
    };
    for (int c = 0; c < kNumClasses; ++c) {
      const size_t s = stateIndex(c, 0, 0);
      dist[s] = 0;
      push(s, 0);
    }
    const size_t perClass = dedupSpan;
    const auto drain = [&] {
      for (size_t b = 0; b < buckets.size(); ++b) {
        // buckets grows during iteration; index, don't iterate by range.
        for (size_t bi = 0; bi < buckets[b].size(); ++bi) {
          const uint32_t s = buckets[b][bi];
          const DelayPs d = static_cast<DelayPs>(b) * step;
          if (d > dist[s]) continue;  // stale entry, already finalized
          const size_t classIdx = s / perClass;
          const size_t rem = s % perClass;
          const size_t cs = static_cast<size_t>(colSpan_);
          const int dRow = minDRow_ + static_cast<int>(rem / cs);
          const int dCol = minDCol_ + static_cast<int>(rem % cs);
          for (const Move& m : byToClass[classIdx]) {
            // Backward relaxation: before taking move m the signal sat
            // at class m.fromClass, one move-delta farther from goal.
            const int pr = dRow + m.dRow;
            const int pc = dCol + m.dCol;
            if (!inDomain(pr, pc)) continue;
            const size_t p = stateIndex(m.fromClass, pr, pc);
            const DelayPs nd = d + m.cost;
            if (nd < dist[p]) {
              dist[p] = nd;
              push(p, nd);
            }
          }
        }
        buckets[b].clear();
        buckets[b].shrink_to_fit();
      }
    };
    drain();

    // Hub pass. A hub reaches (and is reached from) every position, so
    // its remaining cost is a scalar: min over its outgoing moves of
    // move cost + the cheapest state of the landing class — and landing
    // anywhere includes displacement (0,0), which is 0 for every
    // non-hub class. Then states that can step INTO a hub relax against
    // hubDist + cost at every displacement; if that lowers anything the
    // Dijkstra re-drains so the improvement propagates. (On the Virtex
    // fabric nothing drives the clock hubs, so the loop runs once.)
    out.hubDist.fill(kInf);
    for (int pass = 0; pass < 4; ++pass) {
      for (int it = 0; it < 2; ++it) {  // hub->hub chains (pad -> gclk)
        for (const Move& m : hubMoves) {
          if (!isHubClass(m.fromClass)) continue;
          const DelayPs land = isHubClass(m.toClass)
                                   ? out.hubDist[m.toClass]
                                   : 0;  // dist at (0,0) is 0
          if (land >= kInf) continue;
          const DelayPs nd = land + m.cost;
          if (nd < out.hubDist[m.fromClass]) out.hubDist[m.fromClass] = nd;
        }
      }
      bool lowered = false;
      for (const Move& m : hubMoves) {
        if (isHubClass(m.fromClass) || !isHubClass(m.toClass)) continue;
        if (out.hubDist[m.toClass] >= kInf) continue;
        const DelayPs nd = out.hubDist[m.toClass] + m.cost;
        for (size_t i = 0; i < perClass; ++i) {
          const size_t s =
              static_cast<size_t>(m.fromClass) * perClass + i;
          if (nd < dist[s]) {
            dist[s] = nd;
            push(s, nd);
            lowered = true;
          }
        }
      }
      if (!lowered) break;
      drain();
    }

    DelayPs maxFinite = 0;
    for (const DelayPs d : dist) {
      if (d < kInf && d > maxFinite) maxFinite = d;
    }
    // Quantize, rounding down: stored * quantum <= dist keeps the table
    // admissible; the quantum keeps the largest finite value in 16 bits.
    out.quantum = maxFinite > 0 ? (maxFinite + 65533) / 65534 : 1;
    out.cost.resize(states);
    for (size_t i = 0; i < states; ++i) {
      out.cost[i] = dist[i] >= kInf
                        ? kUnreachableStored
                        : static_cast<uint16_t>(dist[i] / out.quantum);
    }
    maxFiniteOut = maxFinite;
  };

  // The two tables are independent; overlap them on large devices.
  auto noLongsDone = std::async(std::launch::async, [&] {
    buildTable(/*withLongs=*/false, noLongs_, stats_.maxFiniteNoLongs);
  });
  buildTable(/*withLongs=*/true, full_, stats_.maxFiniteFull);
  noLongsDone.get();

  const auto t1 = std::chrono::steady_clock::now();
  stats_.buildMs = static_cast<double>(
                       std::chrono::duration_cast<std::chrono::microseconds>(
                           t1 - t0)
                           .count()) /
                   1e3;
  stats_.moveCount = moves.size() + hubMoves.size();
  stats_.states = states;
  stats_.tableBytes =
      (full_.cost.size() + noLongs_.cost.size()) * sizeof(uint16_t);
  stats_.quantumFull = full_.quantum;
  stats_.quantumNoLongs = noLongs_.quantum;
  stats_.rowSpan = rowSpan_;
  stats_.colSpan = colSpan_;

  jrobs::registry().counter("router.lookahead.builds").add();
  jrobs::registry()
      .histogram("router.lookahead.build_ms")
      .record(static_cast<uint64_t>(stats_.buildMs));
}

std::string Lookahead::statsText() const {
  std::ostringstream os;
  os << "lookahead " << device_ << ": " << stats_.moveCount
     << " abstract moves, " << stats_.states << " states ("
     << stats_.rowSpan << "x" << stats_.colSpan
     << " displacements), built in " << stats_.buildMs << " ms, "
     << stats_.tableBytes / 1024 << " KiB\n"
     << "  full:     quantum " << stats_.quantumFull << " ps, max finite "
     << stats_.maxFiniteFull << " ps\n"
     << "  no-longs: quantum " << stats_.quantumNoLongs << " ps, max finite "
     << stats_.maxFiniteNoLongs << " ps\n";
  return os.str();
}

std::string Lookahead::statsJson() const {
  std::ostringstream os;
  os << "{\"device\":\"" << device_ << "\",\"moves\":" << stats_.moveCount
     << ",\"states\":" << stats_.states << ",\"row_span\":" << stats_.rowSpan
     << ",\"col_span\":" << stats_.colSpan
     << ",\"build_ms\":" << stats_.buildMs
     << ",\"table_bytes\":" << stats_.tableBytes
     << ",\"quantum_full_ps\":" << stats_.quantumFull
     << ",\"quantum_no_longs_ps\":" << stats_.quantumNoLongs
     << ",\"max_finite_full_ps\":" << stats_.maxFiniteFull
     << ",\"max_finite_no_longs_ps\":" << stats_.maxFiniteNoLongs << "}";
  return os.str();
}

const Lookahead& Lookahead::forGraph(const Graph& g) {
  // Leaked on purpose: engine threads may consult the table during static
  // destruction. Keyed by device name — the table depends only on the
  // architecture, not on the particular Graph instance.
  static jrsync::Mutex* mu = new jrsync::Mutex;
  static std::map<std::string, std::unique_ptr<Lookahead>>* cache =
      new std::map<std::string, std::unique_ptr<Lookahead>>;
  const std::string key(g.device().name);
  jrsync::MutexLock lk(*mu);
  auto it = cache->find(key);
  if (it == cache->end()) {
    it = cache->emplace(key, std::make_unique<Lookahead>(g)).first;
  }
  return *it->second;
}

}  // namespace jrla
