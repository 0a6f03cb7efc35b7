// The per-tile local wire namespace — the integer wire ids of the paper's
// architecture description class.
//
// Every routing resource visible from a CLB tile has a small-integer local
// id (LocalWire). The same physical wire segment is visible from several
// tiles under different local names: the single track between (5,7) and
// (5,8) is SingleEast[5] at (5,7) and SingleWest[5] at (5,8), exactly as in
// the paper's routing example. The routing-resource graph (rrg module) maps
// (tile, local wire) to canonical physical segments.
//
// Layout of the local id space:
//   [0,   8)  slice outputs  S0X S0XQ S0Y S0YQ S1X S1XQ S1Y S1YQ
//   [8,  16)  OMUX outputs   OUT[0..7]
//   [16, 42)  CLB input pins S0F1..S0CLK, S1F1..S1CLK (13 per slice)
//   [42, 138) singles        4 dirs x 24 tracks
//   [138,282) hex taps       4 dirs x {BEG,MID,END} x 12 tracks
//   [282,294) horizontal long lines (12 tracks)
//   [294,306) vertical long lines   (12 tracks)
//   [306,310) global clock nets     GCLK[0..3]
//   [310,313) IOB pad inputs        IOB_I[0..2]  (boundary tiles only)
//   [313,316) IOB pad outputs       IOB_O[0..2]  (boundary tiles only)
//   [316,320) BRAM data outputs     BRAM_DO[0..3] (west/east edge columns)
//   [320,324) BRAM data inputs      BRAM_DI[0..3] (west/east edge columns)
//   [324,328) BRAM address inputs   BRAM_AD[0..3] (west/east edge columns)
//
// IOBs implement the paper's section 6 future-work item ("Virtex features
// such as IOBs ... will be supported in a future release"): each boundary
// tile carries three I/O blocks whose pad-input side drives singles of the
// tile's channels and whose pad-output side is driven by singles, exactly
// like the real Virtex I/O ring couples to the edge GRMs.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "common/types.h"
#include "arch/device.h"

namespace xcvsim {

/// Coarse classification of a local wire.
enum class WireKind : uint8_t {
  SliceOut,
  Omux,
  ClbIn,
  Single,
  Hex,
  Long,
  Gclk,
  IobIn,   // pad input buffer: drives the fabric
  IobOut,  // pad output buffer: driven by the fabric
  BramOut, // block-RAM data output: drives the fabric
  BramIn,  // block-RAM data/address input: driven by the fabric
};

/// Position of a hex-line tap relative to the segment's origin.
enum class HexTap : uint8_t { Beg = 0, Mid = 1, End = 2 };

// --- Range bases -----------------------------------------------------------
inline constexpr LocalWire kSliceOutBase = 0;
inline constexpr LocalWire kOmuxBase = 8;
inline constexpr LocalWire kClbInBase = 16;
inline constexpr LocalWire kSingleBase = 42;
inline constexpr LocalWire kHexBase = 138;
inline constexpr LocalWire kLongHBase = 282;
inline constexpr LocalWire kLongVBase = 294;
inline constexpr LocalWire kGclkBase = 306;
inline constexpr LocalWire kIobInBase = 310;
inline constexpr LocalWire kIobOutBase = 313;
inline constexpr LocalWire kBramDoBase = 316;
inline constexpr LocalWire kBramDiBase = 320;
inline constexpr LocalWire kBramAdBase = 324;
inline constexpr LocalWire kNumLocalWires = 328;

/// I/O blocks per boundary tile.
inline constexpr int kIobsPerTile = 3;
/// Block-RAM port pins per edge tile (per class: DO, DI, AD).
inline constexpr int kBramPinsPerTile = 4;
/// CLB rows spanned by one block-RAM block.
inline constexpr int kBramRowsPerBlock = 4;
/// Content bits per block (256 x 16).
inline constexpr int kBramBitsPerBlock = 4096;
/// BRAM columns on the device (west and east of the CLB array).
inline constexpr int kBramColumns = 2;

// --- Constructors ----------------------------------------------------------
constexpr LocalWire sliceOut(int idx) {
  return static_cast<LocalWire>(kSliceOutBase + idx);
}
constexpr LocalWire omux(int idx) {
  return static_cast<LocalWire>(kOmuxBase + idx);
}
constexpr LocalWire clbIn(int idx) {
  return static_cast<LocalWire>(kClbInBase + idx);
}
/// Single track `track` in the channel on side `d` of the tile.
constexpr LocalWire single(Dir d, int track) {
  return static_cast<LocalWire>(kSingleBase +
                                static_cast<int>(d) * kSinglesPerChannel +
                                track);
}
/// Tap `tap` of the hex line with origin direction `d`, track `track`.
/// HexTap::Beg names a hex originating at this tile; Mid one originating
/// kHexMid tiles upstream; End one originating kHexSpan tiles upstream.
constexpr LocalWire hex(Dir d, HexTap tap, int track) {
  return static_cast<LocalWire>(kHexBase +
                                static_cast<int>(d) * 3 * kHexTracks +
                                static_cast<int>(tap) * kHexTracks + track);
}
constexpr LocalWire longH(int track) {
  return static_cast<LocalWire>(kLongHBase + track);
}
constexpr LocalWire longV(int track) {
  return static_cast<LocalWire>(kLongVBase + track);
}
constexpr LocalWire gclk(int idx) {
  return static_cast<LocalWire>(kGclkBase + idx);
}
/// Pad input buffer `idx` of a boundary tile (drives the fabric).
constexpr LocalWire iobIn(int idx) {
  return static_cast<LocalWire>(kIobInBase + idx);
}
/// Pad output buffer `idx` of a boundary tile (driven by the fabric).
constexpr LocalWire iobOut(int idx) {
  return static_cast<LocalWire>(kIobOutBase + idx);
}
/// Block-RAM data output `idx` of a west/east edge tile.
constexpr LocalWire bramDo(int idx) {
  return static_cast<LocalWire>(kBramDoBase + idx);
}
/// Block-RAM data input `idx` of a west/east edge tile.
constexpr LocalWire bramDi(int idx) {
  return static_cast<LocalWire>(kBramDiBase + idx);
}
/// Block-RAM address input `idx` of a west/east edge tile.
constexpr LocalWire bramAd(int idx) {
  return static_cast<LocalWire>(kBramAdBase + idx);
}

// --- Named slice pins matching the paper's examples -------------------------
inline constexpr LocalWire S0_X = sliceOut(0);
inline constexpr LocalWire S0_XQ = sliceOut(1);
inline constexpr LocalWire S0_Y = sliceOut(2);
inline constexpr LocalWire S0_YQ = sliceOut(3);
inline constexpr LocalWire S1_X = sliceOut(4);
inline constexpr LocalWire S1_XQ = sliceOut(5);
inline constexpr LocalWire S1_Y = sliceOut(6);
inline constexpr LocalWire S1_YQ = sliceOut(7);

// CLB input pin order per slice: F1 F2 F3 F4 G1 G2 G3 G4 BX BY SR CE CLK.
inline constexpr int kPinsPerSlice = 13;
constexpr LocalWire slicePin(int slice, int pin) {
  return clbIn(slice * kPinsPerSlice + pin);
}
inline constexpr LocalWire S0F1 = slicePin(0, 0);
inline constexpr LocalWire S0F2 = slicePin(0, 1);
inline constexpr LocalWire S0F3 = slicePin(0, 2);
inline constexpr LocalWire S0F4 = slicePin(0, 3);
inline constexpr LocalWire S0G1 = slicePin(0, 4);
inline constexpr LocalWire S0G2 = slicePin(0, 5);
inline constexpr LocalWire S0G3 = slicePin(0, 6);
inline constexpr LocalWire S0G4 = slicePin(0, 7);
inline constexpr LocalWire S0BX = slicePin(0, 8);
inline constexpr LocalWire S0BY = slicePin(0, 9);
inline constexpr LocalWire S0SR = slicePin(0, 10);
inline constexpr LocalWire S0CE = slicePin(0, 11);
inline constexpr LocalWire S0CLK = slicePin(0, 12);
inline constexpr LocalWire S1F1 = slicePin(1, 0);
inline constexpr LocalWire S1F2 = slicePin(1, 1);
inline constexpr LocalWire S1F3 = slicePin(1, 2);
inline constexpr LocalWire S1F4 = slicePin(1, 3);
inline constexpr LocalWire S1G1 = slicePin(1, 4);
inline constexpr LocalWire S1G2 = slicePin(1, 5);
inline constexpr LocalWire S1G3 = slicePin(1, 6);
inline constexpr LocalWire S1G4 = slicePin(1, 7);
inline constexpr LocalWire S1BX = slicePin(1, 8);
inline constexpr LocalWire S1BY = slicePin(1, 9);
inline constexpr LocalWire S1SR = slicePin(1, 10);
inline constexpr LocalWire S1CE = slicePin(1, 11);
inline constexpr LocalWire S1CLK = slicePin(1, 12);

// --- Decomposition ----------------------------------------------------------
WireKind wireKind(LocalWire w);

/// Index within the wire's own range (track number, pin number, ...).
int wireIndex(LocalWire w);

/// Direction of a single or hex local name. Meaningless for other kinds.
Dir wireDir(LocalWire w);

/// Tap position of a hex local name. Meaningless for other kinds.
HexTap wireHexTap(LocalWire w);

/// True if this local wire names a CLK input pin (driven only by the global
/// clock nets).
bool isClockPin(LocalWire w);

/// Span in tiles of the underlying resource: 0 for logic pins and OMUX,
/// 1 for singles, kHexSpan for hexes; longs and globals report 0 (their
/// extent depends on the device, see the rrg module).
int wireLength(LocalWire w);

/// Human-readable name, e.g. "SingleEast[5]", "S1_YQ", "HexNorthMid[3]".
std::string wireName(LocalWire w);

/// Parse a script or shell wire token: a numeric id that fits a
/// LocalWire (ids past kNumLocalWires are returned for the caller to
/// reject), or a wireName(). nullopt for anything else — an id too large
/// for a LocalWire is an error, never a silent wrap.
std::optional<LocalWire> parseWire(std::string_view token);

/// Parse a script or shell tile row or column: a decimal integer that
/// fits RowCol's 16-bit fields. nullopt for anything else — row 65539 is
/// an error, never a silent wrap onto row 3.
std::optional<int16_t> parseCoord(std::string_view token);

/// True if `w` is a valid local wire id.
bool isValidWire(LocalWire w);

}  // namespace xcvsim
