// Token stream for the PARULEL surface syntax.
#pragma once

#include <cstdint>
#include <string_view>

namespace parulel {

enum class TokenKind : std::uint8_t {
  LParen,
  RParen,
  Arrow,     // =>
  Name,      // bare symbol: templates, slots, operators, keywords
  Variable,  // ?name
  Integer,
  Float,
  String,    // "..."; becomes a symbol constant
  End,
};

/// One token. `text` views the source the lexer was given, so a token is
/// valid only while that source is alive.
struct Token {
  TokenKind kind = TokenKind::End;
  /// String only: `text` still holds backslash escapes (see unescape()).
  bool has_escapes = false;
  int line = 0;
  std::string_view text;  // Name/Variable (without '?')/String contents
  std::int64_t int_value = 0;
  double float_value = 0.0;
};

}  // namespace parulel
