#include "router/template_lib.h"

#include <algorithm>
#include <array>
#include <cstddef>

namespace jroute {

using xcvsim::DeviceSpec;
using xcvsim::Dir;
using xcvsim::hexValue;
using xcvsim::kHexSpan;
using xcvsim::opposite;
using xcvsim::singleValue;
using xcvsim::templateDCol;
using xcvsim::templateDRow;

namespace {

using Seq = std::vector<TemplateValue>;

/// One axis decomposed into `hexes` hex steps plus `singles` single steps.
struct AxisPlan {
  TemplateValue hexStep;
  TemplateValue singleStep;
  int hexes = 0;
  int singles = 0;
};

/// The decompositions of one axis, at most two.
struct AxisPlans {
  std::array<AxisPlan, 2> plans{};
  size_t count = 0;
  const AxisPlan* begin() const { return plans.data(); }
  const AxisPlan* end() const { return begin() + count; }
};

/// Decompositions of a 1-D displacement into hex/single steps: the exact
/// split, and (when the remainder is large) an overshoot-and-come-back
/// variant that trades singles for one extra hex.
AxisPlans axisPlans(int delta, Dir fwd, Dir back) {
  AxisPlans out;
  const int mag = delta < 0 ? -delta : delta;
  const Dir dir = delta >= 0 ? fwd : back;
  const Dir rev = delta >= 0 ? back : fwd;
  out.plans[out.count++] = {hexValue(dir), singleValue(dir), mag / kHexSpan,
                            mag % kHexSpan};
  if (mag % kHexSpan >= 4) {
    out.plans[out.count++] = {hexValue(dir), singleValue(rev),
                              mag / kHexSpan + 1, kHexSpan - mag % kHexSpan};
  }
  return out;
}

void appendHexes(Seq& seq, const AxisPlan& plan) {
  for (int i = 0; i < plan.hexes; ++i) seq.push_back(plan.hexStep);
}

void appendSingles(Seq& seq, const AxisPlan& plan) {
  for (int i = 0; i < plan.singles; ++i) seq.push_back(plan.singleStep);
}

bool isHexStep(TemplateValue v) {
  switch (v) {
    case TemplateValue::EAST6:
    case TemplateValue::WEST6:
    case TemplateValue::NORTH6:
    case TemplateValue::SOUTH6:
      return true;
    default:
      return false;
  }
}

/// Append a zero-displacement rectangle of four singles around `at`,
/// oriented so every corner stays inside the device. Used both for
/// same-tile detours and to step a terminal hex down to the single layer
/// (hexes cannot drive CLB inputs directly).
void appendCornerLoop(Seq& seq, const DeviceSpec& dev, RowCol at,
                      bool verticalFirst) {
  const Dir hd = at.col + 1 < dev.cols ? Dir::East : Dir::West;
  const Dir vd = at.row + 1 < dev.rows ? Dir::North : Dir::South;
  const Dir first = verticalFirst ? vd : hd;
  const Dir second = verticalFirst ? hd : vd;
  seq.insert(seq.end(), {singleValue(first), singleValue(second),
                         singleValue(opposite(first)),
                         singleValue(opposite(second))});
}

/// Walk the body's nominal tile positions from `from`; false if any step
/// lands outside the device (overshoot hexes can poke past the edge).
bool staysInBounds(const DeviceSpec& dev, RowCol from,
                   std::span<const TemplateValue> body) {
  int r = from.row;
  int c = from.col;
  for (TemplateValue v : body) {
    r += templateDRow(v);
    c += templateDCol(v);
    if (r < 0 || r >= dev.rows || c < 0 || c >= dev.cols) return false;
  }
  return true;
}

/// The part of `seq` from `begin` on: the body being written.
std::span<const TemplateValue> tail(const Seq& seq, size_t begin) {
  return {seq.data() + begin, seq.size() - begin};
}

}  // namespace

void TemplateBodies::close(size_t begin) {
  const Body body = tail(values_, begin);
  bool keep = !body.empty();
  for (size_t i = 0; keep && i < size(); ++i) {
    keep = !std::ranges::equal((*this)[i], body);
  }
  if (keep) {
    ends_.push_back(static_cast<uint32_t>(values_.size()));
  } else {
    values_.resize(begin);
  }
}

const TemplateBodies& longTemplatesFor(const DeviceSpec& dev, RowCol from,
                                       RowCol to, bool srcIsOutput,
                                       bool dstIsInput, TemplateBodies& out) {
  const int dr = to.row - from.row;
  const int dc = to.col - from.col;
  out.clear();
  Seq& seq = out.values_;

  // One axis rides the long; the other is decomposed as usual. `axisDelta`
  // is the long-axis displacement, `crossDelta` the other one.
  const auto compose = [&](TemplateValue longStep, int axisDelta,
                           int crossDelta, Dir axisFwd, Dir axisBack,
                           Dir crossFwd, Dir crossBack) {
    // Exit tiles of a long are congruent to the entry tile modulo the
    // access period, so the suffix's long-axis share is the residual of
    // axisDelta — and it must *start* with a hex (longs drive only
    // hexes), which forces the overshoot shape: one same-axis hex past
    // the sink, singles back. Both overshoot directions are candidates;
    // the walker's exit exploration picks whichever tap exists.
    const int r0 =
        ((axisDelta % xcvsim::kLongAccessPeriod) + xcvsim::kLongAccessPeriod) %
        xcvsim::kLongAccessPeriod;
    struct AxisSuffix {
      int residual;    // long-axis tiles covered by the suffix
      AxisPlan plan;   // always hexes >= 1
    };
    // With r0 == 0 the hex alone covers the residual, either way.
    const std::array<AxisSuffix, 2> suffixes{{
        {r0 == 0 ? kHexSpan : r0,
         {hexValue(axisFwd), singleValue(axisBack), 1,
          r0 == 0 ? 0 : kHexSpan - r0}},
        {r0 - kHexSpan, {hexValue(axisBack), singleValue(axisFwd), 1, r0}},
    }};
    const AxisPlans crossPlans = axisPlans(crossDelta, crossFwd, crossBack);
    for (const AxisSuffix& sfx : suffixes) {
      // Nominal exit tile: the long keeps the cross coordinate of the
      // entry tile; on its own axis it exits sink-minus-residual, which
      // is congruent to the entry (mod access period) by construction.
      const bool horizontal = longStep == TemplateValue::LONGH;
      const int exitRow = horizontal ? from.row : to.row - sfx.residual;
      const int exitCol = horizontal ? to.col - sfx.residual : from.col;
      for (const AxisPlan& cp : crossPlans) {
        const size_t begin = seq.size();
        if (srcIsOutput) seq.push_back(TemplateValue::OUTMUX);
        const size_t afterLong = seq.size() + 1;
        seq.push_back(longStep);
        appendHexes(seq, sfx.plan);   // same-axis hex leads off the long
        appendHexes(seq, cp);
        appendSingles(seq, sfx.plan);
        appendSingles(seq, cp);
        if (dstIsInput && isHexStep(seq.back())) {
          appendCornerLoop(seq, dev, to, false);
        }
        // Bounds: walk the post-long steps from the nominal exit tile
        // (the long itself has no nominal displacement).
        const RowCol exit{static_cast<int16_t>(exitRow),
                          static_cast<int16_t>(exitCol)};
        if (exitRow < 0 || exitRow >= dev.rows || exitCol < 0 ||
            exitCol >= dev.cols ||
            !staysInBounds(dev, exit, tail(seq, afterLong))) {
          seq.resize(begin);
          continue;
        }
        if (dstIsInput) seq.push_back(TemplateValue::CLBIN);
        out.close(begin);
      }
    }
  };

  // A long only pays off when it replaces at least a hex chain on its
  // axis; the cross axis rides the ordinary decomposition.
  if (dc > kHexSpan || dc < -kHexSpan) {
    compose(TemplateValue::LONGH, dc, dr, Dir::East, Dir::West, Dir::North,
            Dir::South);
  }
  if (dr > kHexSpan || dr < -kHexSpan) {
    compose(TemplateValue::LONGV, dr, dc, Dir::North, Dir::South, Dir::East,
            Dir::West);
  }
  return out;
}

const TemplateBodies& templatesFor(const DeviceSpec& dev, RowCol from,
                                   RowCol to, bool srcIsOutput,
                                   bool dstIsInput, TemplateBodies& out) {
  const int dr = to.row - from.row;
  const int dc = to.col - from.col;
  out.clear();
  Seq& seq = out.values_;

  // Completes the body written from seq[begin] on, or drops it.
  const auto finish = [&](size_t begin) {
    // Hexes cannot drive CLB inputs: step a terminal hex down to the
    // single layer with a zero-displacement loop around the sink tile.
    if (dstIsInput && seq.size() > begin && isHexStep(seq.back())) {
      appendCornerLoop(seq, dev, to, false);
    }
    if (!staysInBounds(dev, from, tail(seq, begin))) {
      seq.resize(begin);
      return;
    }
    // Suppress OUTMUX for the zero-length bodies: those rely on the
    // dedicated feedback / direct-connect PIPs straight off the output.
    if (srcIsOutput && seq.size() > begin) {
      seq.insert(seq.begin() + static_cast<std::ptrdiff_t>(begin),
                 TemplateValue::OUTMUX);
    }
    if (dstIsInput) seq.push_back(TemplateValue::CLBIN);
    out.close(begin);
  };

  if (dr == 0 && dc == 0 && srcIsOutput && dstIsInput) {
    // Same-tile: the dedicated feedback PIP is a single hop to CLBIN.
    finish(seq.size());
    // Or out and back around a rectangle of singles. A straight U-turn in
    // the same channel is not a legal PIP pattern, so the detour has area.
    for (const bool verticalFirst : {false, true}) {
      const size_t begin = seq.size();
      appendCornerLoop(seq, dev, from, verticalFirst);
      finish(begin);
    }
  } else if (dr == 0 && (dc == 1 || dc == -1) && srcIsOutput && dstIsInput) {
    // Horizontal neighbours: the dedicated direct connect, single hop.
    finish(seq.size());
  }

  for (const AxisPlan& rp : axisPlans(dr, Dir::North, Dir::South)) {
    for (const AxisPlan& cp : axisPlans(dc, Dir::East, Dir::West)) {
      // Hexes lead in every ordering: singles cannot drive hexes, so a
      // hex step after the first single step would never replay.
      size_t begin = seq.size();
      appendHexes(seq, cp);
      appendHexes(seq, rp);
      appendSingles(seq, cp);
      appendSingles(seq, rp);
      finish(begin);
      if (dr != 0 && dc != 0) {
        begin = seq.size();
        appendHexes(seq, rp);
        appendHexes(seq, cp);
        appendSingles(seq, rp);
        appendSingles(seq, cp);
        finish(begin);
      }
    }
  }
  return out;
}

}  // namespace jroute
