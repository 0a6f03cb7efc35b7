#include "obs/heatmap.h"

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

}  // namespace jrobs
