// Hand-written lexer for the Verilog subset. Skips // and /* */ comments,
// recognizes sized/based numeric literals including x/z digits, multi-char
// operators longest-match-first, and reports malformed input as kError
// tokens with positions (never throws on user code — generated code from a
// "hallucinating" model must be lexable enough to reject gracefully).
#pragma once

#include <string_view>
#include <vector>

#include "verilog/token.h"

namespace haven::verilog {

class Lexer {
 public:
  explicit Lexer(std::string_view source);

  // Next token; returns kEof forever once exhausted.
  Token next();

  // Lex everything (excluding the final kEof). The tokens' text views
  // `source`, so the caller keeps the source alive while it reads them.
  static std::vector<Token> tokenize(std::string_view source);

 private:
  char peek(std::size_t ahead = 0) const;
  char advance();
  std::string_view take(std::size_t end);
  bool at_end() const { return pos_ >= src_.size(); }
  void skip_ws_and_comments();

  std::string_view src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

}  // namespace haven::verilog
