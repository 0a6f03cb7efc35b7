// Predefined template generation for auto point-to-point routing.
//
// "Another possibility that would potentially be faster is to define a set
//  of unique and predefined templates that would get from the source to
//  the sink and try each one. If all of them fail then the router could
//  fall back on a maze algorithm. The benefit of defining the template
//  would be to reduce the search space." (section 3.1)
//
// Templates decompose the tile displacement into hex (6-tile) and single
// (1-tile) steps, bracketed by OUTMUX on the source side and CLBIN on the
// sink side when the endpoints are logic pins. Three structural rules of
// the switch matrix shape every generated sequence (jrverify's tpl-replay
// rule holds the generator to them):
//   - singles never drive hexes, so all hex steps precede the first
//     single step in every ordering;
//   - hexes never drive CLB inputs, so a body that would end on a hex is
//     extended with a zero-displacement rectangle of four singles around
//     the sink tile (oriented to stay inside the device);
//   - a single cannot drive the opposite single in its own channel, so
//     the same-tile out-and-return detours are rectangles, not U-turns.
// Overshoot variants (one extra hex, then singles back) can poke past the
// device edge; bodies whose nominal tile walk leaves the device are
// dropped, which is why generation needs the DeviceSpec. Long lines are
// deliberately absent here (their exit point is data-dependent, so fixed
// templates cannot target an exact sink); the maze fallback exploits them
// instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "arch/device.h"
#include "arch/template_value.h"
#include "common/types.h"

namespace jroute {

using xcvsim::RowCol;
using xcvsim::TemplateValue;

/// Caller-owned storage of one library lookup: its bodies back to back in
/// one buffer, in generation order. A lookup overwrites it and reuses its
/// capacity, so once warm a lookup allocates nothing. Each body is a view
/// into the storage, valid until the next lookup into the same object.
class TemplateBodies {
 public:
  using Body = std::span<const TemplateValue>;

  class Iterator {
   public:
    Body operator*() const { return (*bodies_)[i_]; }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const Iterator&) const = default;

   private:
    friend class TemplateBodies;
    Iterator(const TemplateBodies* bodies, size_t i)
        : bodies_(bodies), i_(i) {}
    const TemplateBodies* bodies_;
    size_t i_;
  };

  size_t size() const { return ends_.size(); }
  bool empty() const { return ends_.empty(); }
  Body operator[](size_t i) const {
    const uint32_t begin = i == 0 ? 0 : ends_[i - 1];
    return {values_.data() + begin, ends_[i] - begin};
  }
  Iterator begin() const { return {this, 0}; }
  Iterator end() const { return {this, size()}; }

 private:
  friend const TemplateBodies& templatesFor(const xcvsim::DeviceSpec& dev,
                                            RowCol from, RowCol to,
                                            bool srcIsOutput, bool dstIsInput,
                                            TemplateBodies& out);
  friend const TemplateBodies& longTemplatesFor(
      const xcvsim::DeviceSpec& dev, RowCol from, RowCol to,
      bool srcIsOutput, bool dstIsInput, TemplateBodies& out);

  void clear() {
    values_.clear();
    ends_.clear();
  }
  /// End the body that starts at values_[begin]: it is kept unless it is
  /// empty or repeats an earlier body of this lookup.
  void close(size_t begin);

  std::vector<TemplateValue> values_;  // every body, back to back
  std::vector<uint32_t> ends_;         // end of body i in values_
};

/// Candidate templates for routing from tile `from` to tile `to` on `dev`,
/// written into `out` (returned).
/// `srcIsOutput`: prepend OUTMUX (source is a slice output pin).
/// `dstIsInput`: append CLBIN (sink is a CLB input pin).
const TemplateBodies& templatesFor(const xcvsim::DeviceSpec& dev,
                                   RowCol from, RowCol to, bool srcIsOutput,
                                   bool dstIsInput, TemplateBodies& out);

/// Long-line composition templates, written into `out` (returned): OUTMUX
/// onto a long line, a hex off it, then hex/single cleanup to the sink.
/// The regular library omits longs because a long's exit point is
/// data-dependent — but the template *walker* explores every exit of a
/// matched segment, so a composition template only has to fix the
/// residual suffix: the long contributes a whole displacement class
/// (entry and exit tiles are congruent mod the long access period), and
/// the suffix absorbs the remainder. The first step after the long is
/// always a same-axis hex (longs drive only hexes), so suffixes are
/// overshoot-shaped: one hex past the sink column/row, singles back. Only
/// generated for displacements a long can plausibly beat hexes over (the
/// strategy selector gates callers further).
const TemplateBodies& longTemplatesFor(const xcvsim::DeviceSpec& dev,
                                       RowCol from, RowCol to,
                                       bool srcIsOutput, bool dstIsInput,
                                       TemplateBodies& out);

}  // namespace jroute
