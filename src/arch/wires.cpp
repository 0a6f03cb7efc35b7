#include "arch/wires.h"

#include <array>
#include <cctype>
#include <charconv>
#include <limits>

#include "common/error.h"

namespace xcvsim {
namespace {

constexpr std::array<const char*, 8> kSliceOutNames = {
    "S0_X", "S0_XQ", "S0_Y", "S0_YQ", "S1_X", "S1_XQ", "S1_Y", "S1_YQ"};

constexpr std::array<const char*, 13> kPinNames = {
    "F1", "F2", "F3", "F4", "G1", "G2", "G3",
    "G4", "BX", "BY", "SR", "CE", "CLK"};

constexpr std::array<const char*, 4> kDirNames = {"East", "West", "North",
                                                  "South"};
constexpr std::array<const char*, 3> kTapNames = {"Beg", "Mid", "End"};

}  // namespace

WireKind wireKind(LocalWire w) {
  if (w < kOmuxBase) return WireKind::SliceOut;
  if (w < kClbInBase) return WireKind::Omux;
  if (w < kSingleBase) return WireKind::ClbIn;
  if (w < kHexBase) return WireKind::Single;
  if (w < kLongHBase) return WireKind::Hex;
  if (w < kGclkBase) return WireKind::Long;
  if (w < kIobInBase) return WireKind::Gclk;
  if (w < kIobOutBase) return WireKind::IobIn;
  if (w < kBramDoBase) return WireKind::IobOut;
  if (w < kBramDiBase) return WireKind::BramOut;
  if (w < kNumLocalWires) return WireKind::BramIn;
  throw ArgumentError("invalid local wire id " + std::to_string(w));
}

int wireIndex(LocalWire w) {
  switch (wireKind(w)) {
    case WireKind::SliceOut: return w - kSliceOutBase;
    case WireKind::Omux: return w - kOmuxBase;
    case WireKind::ClbIn: return w - kClbInBase;
    case WireKind::Single: return (w - kSingleBase) % kSinglesPerChannel;
    case WireKind::Hex: return (w - kHexBase) % kHexTracks;
    case WireKind::Long:
      return w < kLongVBase ? w - kLongHBase : w - kLongVBase;
    case WireKind::Gclk: return w - kGclkBase;
    case WireKind::IobIn: return w - kIobInBase;
    case WireKind::IobOut: return w - kIobOutBase;
    case WireKind::BramOut: return w - kBramDoBase;
    case WireKind::BramIn:
      return w < kBramAdBase ? w - kBramDiBase
                             : w - kBramAdBase + kBramPinsPerTile;
  }
  return -1;
}

Dir wireDir(LocalWire w) {
  switch (wireKind(w)) {
    case WireKind::Single:
      return static_cast<Dir>((w - kSingleBase) / kSinglesPerChannel);
    case WireKind::Hex:
      return static_cast<Dir>((w - kHexBase) / (3 * kHexTracks));
    default:
      throw ArgumentError("wireDir: " + wireName(w) + " has no direction");
  }
}

HexTap wireHexTap(LocalWire w) {
  if (wireKind(w) != WireKind::Hex) {
    throw ArgumentError("wireHexTap: " + wireName(w) + " is not a hex");
  }
  return static_cast<HexTap>(((w - kHexBase) / kHexTracks) % 3);
}

bool isClockPin(LocalWire w) { return w == S0CLK || w == S1CLK; }

int wireLength(LocalWire w) {
  switch (wireKind(w)) {
    case WireKind::Single: return 1;
    case WireKind::Hex: return kHexSpan;
    default: return 0;
  }
}

std::string wireName(LocalWire w) {
  switch (wireKind(w)) {
    case WireKind::SliceOut:
      return kSliceOutNames[static_cast<size_t>(wireIndex(w))];
    case WireKind::Omux:
      return "OUT[" + std::to_string(wireIndex(w)) + "]";
    case WireKind::ClbIn: {
      const int idx = w - kClbInBase;
      return std::string("S") + std::to_string(idx / kPinsPerSlice) +
             kPinNames[static_cast<size_t>(idx % kPinsPerSlice)];
    }
    case WireKind::Single:
      return std::string("Single") +
             kDirNames[static_cast<size_t>(wireDir(w))] + "[" +
             std::to_string(wireIndex(w)) + "]";
    case WireKind::Hex: {
      const HexTap tap = wireHexTap(w);
      std::string name = std::string("Hex") +
                         kDirNames[static_cast<size_t>(wireDir(w))];
      if (tap != HexTap::Beg) name += kTapNames[static_cast<size_t>(tap)];
      return name + "[" + std::to_string(wireIndex(w)) + "]";
    }
    case WireKind::Long:
      return std::string(w < kLongVBase ? "LongHoriz[" : "LongVert[") +
             std::to_string(wireIndex(w)) + "]";
    case WireKind::Gclk:
      return "GCLK[" + std::to_string(wireIndex(w)) + "]";
    case WireKind::IobIn:
      return "IOB_I[" + std::to_string(wireIndex(w)) + "]";
    case WireKind::IobOut:
      return "IOB_O[" + std::to_string(wireIndex(w)) + "]";
    case WireKind::BramOut:
      return "BRAM_DO[" + std::to_string(wireIndex(w)) + "]";
    case WireKind::BramIn: {
      const int i = wireIndex(w);
      return i < kBramPinsPerTile
                 ? "BRAM_DI[" + std::to_string(i) + "]"
                 : "BRAM_AD[" + std::to_string(i - kBramPinsPerTile) + "]";
    }
  }
  return "?";
}

std::optional<LocalWire> parseWire(std::string_view token) {
  if (!token.empty() && std::isdigit(static_cast<unsigned char>(token[0]))) {
    unsigned long id = 0;
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, id);
    if (ec != std::errc() || ptr != end ||
        id > std::numeric_limits<LocalWire>::max()) {
      return std::nullopt;
    }
    return static_cast<LocalWire>(id);
  }
  for (LocalWire w = 0; w < kNumLocalWires; ++w) {
    if (wireName(w) == token) return w;
  }
  return std::nullopt;
}

std::optional<int16_t> parseCoord(std::string_view token) {
  int16_t v = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, v);
  if (token.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

bool isValidWire(LocalWire w) { return w < kNumLocalWires; }

}  // namespace xcvsim
