#include "obs/heatmap.h"

#include <cinttypes>
#include <cstdio>

#include <atomic>
#include <memory>
#include <vector>

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

// Darkest-last shade ramp; index scaled by cell/max.
constexpr char kShades[] = " .:-=+*#%@";
constexpr int kNumShades = 10;

}  // namespace

uint64_t Heatmap::maxValue() const {
  uint64_t m = 0;
  for (const uint64_t v : values)
    if (v > m) m = v;
  return m;
}

uint64_t Heatmap::total() const {
  uint64_t t = 0;
  for (const uint64_t v : values) t += v;
  return t;
}

std::string Heatmap::ascii() const {
  std::string out = title + " (" + u64(static_cast<uint64_t>(gridRows)) + "x" +
                    u64(static_cast<uint64_t>(gridCols)) + " cells of " +
                    u64(static_cast<uint64_t>(cellRows)) + "x" +
                    u64(static_cast<uint64_t>(cellCols)) +
                    " tiles, max=" + u64(maxValue()) +
                    ", total=" + u64(total()) + ")\n";
  const uint64_t max = maxValue();
  for (int r = 0; r < gridRows; ++r) {
    out += "  ";
    for (int c = 0; c < gridCols; ++c) {
      const uint64_t v = at(r, c);
      int shade = 0;
      if (v > 0 && max > 0) {
        // Nonzero cells never render as blank: floor at shade 1.
        shade = 1 + static_cast<int>((v - 1) * (kNumShades - 1) / max);
        if (shade >= kNumShades) shade = kNumShades - 1;
      }
      out += kShades[shade];
    }
    out += "\n";
  }
  out += "  legend: ' '=0";
  if (max > 0) out += " '" + std::string(1, kShades[kNumShades - 1]) +
                      "'<=" + u64(max);
  out += "\n";
  return out;
}

std::string Heatmap::json() const {
  std::string out = "{\"heatmap\":{";
  out += jsonKv("title", title) + ",";
  out += "\"grid_rows\":" + u64(static_cast<uint64_t>(gridRows)) + ",";
  out += "\"grid_cols\":" + u64(static_cast<uint64_t>(gridCols)) + ",";
  out += "\"cell_rows\":" + u64(static_cast<uint64_t>(cellRows)) + ",";
  out += "\"cell_cols\":" + u64(static_cast<uint64_t>(cellCols)) + ",";
  out += "\"max\":" + u64(maxValue()) + ",";
  out += "\"total\":" + u64(total()) + ",";
  out += "\"cells\":[";
  for (int r = 0; r < gridRows; ++r) {
    if (r > 0) out += ",";
    out += "[";
    for (int c = 0; c < gridCols; ++c) {
      if (c > 0) out += ",";
      out += u64(at(r, c));
    }
    out += "]";
  }
  out += "]}}";
  return out;
}

struct CongestionGrid::Impl {
  struct Cells {
    int fabricRows = 0, fabricCols = 0;
    int cellRows = 1, cellCols = 1;
    int gridRows = 0, gridCols = 0;
    std::unique_ptr<std::atomic<uint64_t>[]> v;
  };

  // configure/reset/snapshot; add() is lock-free
  mutable jrsync::Mutex mu;
  std::atomic<Cells*> cells{nullptr};
  // Arrays replaced by a geometry change; concurrent add()ers may still
  // hold their pointers, so they stay alive until the grid is destroyed.
  std::vector<Cells*> retired JR_GUARDED_BY(mu);
};

CongestionGrid::CongestionGrid() : impl_(new Impl) {}

CongestionGrid::~CongestionGrid() {
  // No add() can be in flight once the destructor runs, so the retired
  // arrays are finally safe to free.
  {
    jrsync::MutexLock lock(impl_->mu);
    for (Impl::Cells* c : impl_->retired) delete c;
  }
  delete impl_->cells.load(std::memory_order_acquire);
  delete impl_;
}

void CongestionGrid::configure(int fabricRows, int fabricCols, int cellRows,
                               int cellCols) {
  if constexpr (!compiledIn()) return;  // unconfigured: adds are dropped
  if (fabricRows <= 0 || fabricCols <= 0) return;
  if (cellRows <= 0) cellRows = 1;
  if (cellCols <= 0) cellCols = 1;
  jrsync::MutexLock lock(impl_->mu);
  Impl::Cells* cur = impl_->cells.load(std::memory_order_acquire);
  if (cur && cur->fabricRows == fabricRows && cur->fabricCols == fabricCols &&
      cur->cellRows == cellRows && cur->cellCols == cellCols) {
    const size_t n =
        static_cast<size_t>(cur->gridRows) * static_cast<size_t>(cur->gridCols);
    for (size_t i = 0; i < n; ++i)
      cur->v[i].store(0, std::memory_order_relaxed);
    return;
  }
  auto* fresh = new Impl::Cells;
  fresh->fabricRows = fabricRows;
  fresh->fabricCols = fabricCols;
  fresh->cellRows = cellRows;
  fresh->cellCols = cellCols;
  fresh->gridRows = (fabricRows + cellRows - 1) / cellRows;
  fresh->gridCols = (fabricCols + cellCols - 1) / cellCols;
  const size_t n = static_cast<size_t>(fresh->gridRows) *
                   static_cast<size_t>(fresh->gridCols);
  fresh->v = std::make_unique<std::atomic<uint64_t>[]>(n);
  for (size_t i = 0; i < n; ++i) fresh->v[i].store(0);
  // Swap, retiring (not freeing) the old array: concurrent add()ers may
  // still hold the old pointer, and a device-geometry change is rare
  // enough that keeping a few hundred bytes alive until destruction
  // beats any reclamation scheme.
  if (cur) impl_->retired.push_back(cur);
  impl_->cells.store(fresh, std::memory_order_release);
}

bool CongestionGrid::configured() const {
  return impl_->cells.load(std::memory_order_acquire) != nullptr;
}

void CongestionGrid::add(int row, int col, uint64_t n) {
  Impl::Cells* c = impl_->cells.load(std::memory_order_acquire);
  if (!c) return;
  if (row < 0 || col < 0 || row >= c->fabricRows || col >= c->fabricCols)
    return;
  const int gr = row / c->cellRows;
  const int gc = col / c->cellCols;
  c->v[static_cast<size_t>(gr) * static_cast<size_t>(c->gridCols) +
       static_cast<size_t>(gc)]
      .fetch_add(n, std::memory_order_relaxed);
}

void CongestionGrid::reset() {
  jrsync::MutexLock lock(impl_->mu);
  Impl::Cells* c = impl_->cells.load(std::memory_order_acquire);
  if (!c) return;
  const size_t n =
      static_cast<size_t>(c->gridRows) * static_cast<size_t>(c->gridCols);
  for (size_t i = 0; i < n; ++i) c->v[i].store(0, std::memory_order_relaxed);
}

Heatmap CongestionGrid::snapshot(const std::string& title) const {
  Heatmap h;
  h.title = title;
  jrsync::MutexLock lock(impl_->mu);
  Impl::Cells* c = impl_->cells.load(std::memory_order_acquire);
  if (!c) return h;
  h.gridRows = c->gridRows;
  h.gridCols = c->gridCols;
  h.cellRows = c->cellRows;
  h.cellCols = c->cellCols;
  const size_t n =
      static_cast<size_t>(c->gridRows) * static_cast<size_t>(c->gridCols);
  h.values.resize(n);
  for (size_t i = 0; i < n; ++i)
    h.values[i] = c->v[i].load(std::memory_order_relaxed);
  return h;
}

CongestionGrid& claimConflictGrid() {
  static CongestionGrid* grid = new CongestionGrid();  // leaked on purpose
  return *grid;
}

}  // namespace jrobs
