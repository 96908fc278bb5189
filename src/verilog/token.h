// Token definitions for the Verilog-2001 synthesizable subset understood by
// the HaVen frontend. This frontend plays the role slang and the "industry
// standard compiler" play in the paper: topic/attribute extraction for the
// K-dataset pipeline (Fig 2, step 6) and syntax verification (step 8).
#pragma once

#include <cstdint>
#include <string_view>

namespace haven::verilog {

enum class TokenKind : std::uint8_t {
  kEof,
  kIdentifier,
  kNumber,      // any literal: sized (4'b1010), based, or plain decimal
  kKeyword,
  kPunct,       // single/multi character operator or punctuation
  kString,      // "..." (rare in synthesizable code; kept for robustness)
  kError,       // lexically invalid input, text holds the message
};

struct Token {
  TokenKind kind = TokenKind::kEof;
  // The exact source spelling, viewing the source the token was lexed from
  // (see Lexer::tokenize); for kError, a message in static storage.
  std::string_view text;
  int line = 1;       // 1-based
  int column = 1;     // 1-based

  bool is(TokenKind k) const { return kind == k; }
  bool is_keyword(std::string_view kw) const { return kind == TokenKind::kKeyword && text == kw; }
  bool is_punct(std::string_view p) const { return kind == TokenKind::kPunct && text == p; }
};

// True if `word` is a reserved word of the supported subset.
bool is_verilog_keyword(std::string_view word);

}  // namespace haven::verilog
