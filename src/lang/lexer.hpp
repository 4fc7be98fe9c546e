// Lexer for the s-expression surface syntax.
//
// The grammar is CLIPS-flavored:
//   - `;` starts a comment to end of line
//   - `?name` is a variable, bare `?` a wildcard variable
//   - `=>` separates LHS from RHS inside defrule/defmetarule
//   - names may contain letters, digits, and -+*/<>=!_.&~%$: (so operators
//     like `<=` and hyphenated identifiers lex as one Name token)
//   - a name that parses fully as a number is an Integer or Float token
//   - `"..."` is a string; `\x` inside it stands for `x`
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "lang/token.hpp"

namespace parulel {

/// Pull lexer: hands out one token per next() call, with no token buffer
/// and no allocation. Token text views `source`, which must outlive every
/// token handed out.
class Lexer {
 public:
  explicit Lexer(std::string_view source) : src_(source) {}

  /// The next token; End (repeatedly) once the source is exhausted.
  /// Throws ParseError on malformed input (unterminated string, stray
  /// character, number out of range).
  Token next();

 private:
  std::string_view src_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

/// The contents of a String token with its escapes resolved (`\x` -> `x`).
std::string unescape(std::string_view raw);

/// True when `text` re-lexes as exactly one Name token with that text:
/// the printer's test for printing a symbol bare rather than quoted.
bool lexes_as_name(std::string_view text);

/// Every token of `source`, End included: a collector over Lexer for
/// tests and tools. Throws as Lexer::next() does.
std::vector<Token> tokenize(std::string_view source);

}  // namespace parulel
