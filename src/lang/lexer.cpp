#include "lang/lexer.hpp"

#include <array>
#include <charconv>
#include <cstdint>
#include <string>

#include "support/error.hpp"

namespace parulel {
namespace {

enum CharClass : std::uint8_t { kName = 1, kDigit = 2, kSpace = 4 };

// One lookup per character instead of <cctype>'s locale-aware calls.
// The classes match the "C" locale: isalnum, isdigit and isspace.
constexpr std::array<std::uint8_t, 256> kClass = [] {
  std::array<std::uint8_t, 256> t{};
  for (int c = '0'; c <= '9'; ++c) t[c] = kName | kDigit;
  for (int c = 'a'; c <= 'z'; ++c) t[c] = kName;
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = kName;
  for (char c : std::string_view("-+*/<>=!_.&~%$:")) {
    t[static_cast<unsigned char>(c)] = kName;
  }
  for (char c : std::string_view(" \t\n\v\f\r")) {
    t[static_cast<unsigned char>(c)] = kSpace;
  }
  return t;
}();

std::uint8_t char_class(char c) {
  return kClass[static_cast<unsigned char>(c)];
}

enum class NumberKind { None, Integer, Float, OutOfRange };

/// Classifies a run of name characters holding at least one digit: a
/// number only when the whole run parses as one.
NumberKind parse_number(std::string_view text, std::int64_t& iv,
                        double& fv) {
  const char* first = text.data();
  const char* last = first + text.size();
  const auto ir = std::from_chars(first, last, iv);
  if (ir.ptr == last) {
    return ir.ec == std::errc{} ? NumberKind::Integer : NumberKind::OutOfRange;
  }
  const auto fr = std::from_chars(first, last, fv);
  if (fr.ptr == last) {
    return fr.ec == std::errc{} ? NumberKind::Float : NumberKind::OutOfRange;
  }
  return NumberKind::None;
}

}  // namespace

Token Lexer::next() {
  const char* s = src_.data();
  const std::size_t n = src_.size();
  std::size_t i = pos_;
  while (i < n) {
    const char c = s[i];
    if (c == '\n') {
      ++line_;
      ++i;
    } else if (char_class(c) & kSpace) {
      ++i;
    } else if (c == ';') {
      while (i < n && s[i] != '\n') ++i;
    } else {
      break;
    }
  }

  Token tok;
  tok.line = line_;
  if (i >= n) {
    pos_ = i;
    return tok;  // End
  }

  const char c = s[i];
  if (c == '(' || c == ')') {
    tok.kind = c == '(' ? TokenKind::LParen : TokenKind::RParen;
    tok.text = src_.substr(i, 1);
    pos_ = i + 1;
    return tok;
  }
  if (c == '"') {
    const std::size_t begin = ++i;
    while (i < n && s[i] != '"') {
      if (s[i] == '\\') {
        tok.has_escapes = true;
        if (++i == n) break;
      }
      if (s[i] == '\n') ++line_;
      ++i;
    }
    if (i >= n) throw ParseError("unterminated string literal", tok.line);
    tok.kind = TokenKind::String;
    tok.text = src_.substr(begin, i - begin);
    tok.line = line_;  // a string's token sits on its closing line
    pos_ = i + 1;
    return tok;
  }

  // Variables, names and numbers: one run of name characters.
  const bool variable = c == '?';
  if (!variable && !(char_class(c) & kName)) {
    throw ParseError(std::string("unexpected character '") + c + "'", line_);
  }
  const std::size_t begin = variable ? i + 1 : i;
  std::uint8_t seen = 0;
  for (i = begin; i < n && (char_class(s[i]) & kName); ++i) {
    seen |= char_class(s[i]);
  }
  pos_ = i;
  tok.text = src_.substr(begin, i - begin);
  if (variable) {
    // Bare `?` is an anonymous wildcard; represented as empty text.
    tok.kind = TokenKind::Variable;
    return tok;
  }
  tok.kind = TokenKind::Name;
  if (tok.text == "=>") {
    tok.kind = TokenKind::Arrow;
  } else if (seen & kDigit) {
    switch (parse_number(tok.text, tok.int_value, tok.float_value)) {
      case NumberKind::Integer:
        tok.kind = TokenKind::Integer;
        break;
      case NumberKind::Float:
        tok.kind = TokenKind::Float;
        break;
      case NumberKind::OutOfRange:
        throw ParseError("number out of range", tok.line);
      case NumberKind::None:
        break;
    }
  }
  return tok;
}

std::string unescape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] == '\\' && i + 1 < raw.size()) ++i;
    out.push_back(raw[i]);
  }
  return out;
}

bool lexes_as_name(std::string_view text) {
  if (text.empty() || text == "=>") return false;
  std::uint8_t seen = 0;
  for (char c : text) {
    if (!(char_class(c) & kName)) return false;
    seen |= char_class(c);
  }
  std::int64_t iv = 0;
  double fv = 0.0;
  return !(seen & kDigit) || parse_number(text, iv, fv) == NumberKind::None;
}

std::vector<Token> tokenize(std::string_view source) {
  std::vector<Token> out;
  Lexer lexer(source);
  do {
    out.push_back(lexer.next());
  } while (out.back().kind != TokenKind::End);
  return out;
}

}  // namespace parulel
