// Tiny JSON string escaper shared by the obs renderers (provenance,
// spans, heatmap) and the checkers' reports (src/check). Everything src/obs emits is consumed by
// machines — Chrome tracing, the test suite's RFC-8259 validator,
// report scripts — so any string that came from an exception
// message or a net name must be escaped, not trusted to be clean.
// Header-only and build-mode independent (rendering is never hot-path).
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace jrobs {

/// RFC 8259 string escape (without the surrounding quotes).
inline std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// `"key":"escaped"` fragment, the common case in the obs renderers.
inline std::string jsonKv(std::string_view key, std::string_view value) {
  return "\"" + std::string(key) + "\":\"" + jsonEscape(value) + "\"";
}

}  // namespace jrobs
