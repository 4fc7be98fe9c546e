// Lowercase hex of arbitrary bytes, and back: how binary payloads ride
// the line-based protocols (cluster `cc-batch` facts, replication
// `repl-batch`/`repl-snapshot` records).
#pragma once

#include <string>
#include <string_view>

#include "support/error.hpp"

namespace parulel {

inline std::string to_hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

/// Throws RuntimeError on odd length or a non-hex digit (either case is
/// accepted on decode).
inline std::string from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) throw RuntimeError("hex token has odd length");
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) throw RuntimeError("hex token has a non-hex digit");
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

}  // namespace parulel
