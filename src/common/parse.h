// Strict decimal parsing for command-line counts and seeds.
//
// std::atoi and std::strtoull accept what a count must not: trailing
// junk ("5x" reads 5), a sign ("-1" wraps to 2^64-1) and out-of-range
// values (clamped or wrapped). parseCount accepts only a non-empty run of
// decimal digits whose value fits T.
#pragma once

#include <charconv>
#include <concepts>
#include <optional>
#include <string_view>

namespace xcvsim {

/// `token` as a T: digits only (no sign, whitespace or trailing bytes)
/// and in T's range; nullopt otherwise.
template <std::integral T>
std::optional<T> parseCount(std::string_view token) {
  if (token.empty() || token.front() < '0' || token.front() > '9') {
    return std::nullopt;
  }
  T v{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

}  // namespace xcvsim
