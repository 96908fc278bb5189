#include "verilog/lexer.h"

#include <cstddef>
#include <iterator>

namespace haven::verilog {

namespace {

// Character classes with the "C" locale's meaning whatever the process
// locale: bytes >= 0x80 are neither letters nor digits.
constexpr bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
constexpr bool is_digit(char c) { return c >= '0' && c <= '9'; }
constexpr bool is_alpha(char c) { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'); }
constexpr bool is_ident_char(char c) {
  return is_alpha(c) || is_digit(c) || c == '_' || c == '$';
}
constexpr char to_lower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

// Does lower-cased `d` continue the digits of a literal in `base`?
constexpr bool is_base_digit(char base, char d) {
  if (d == '_' || d == 'x' || d == 'z' || d == '?') return true;
  switch (base) {
    case 'b': return d == '0' || d == '1';
    case 'o': return d >= '0' && d <= '7';
    case 'd': return is_digit(d);
    default: return is_digit(d) || (d >= 'a' && d <= 'f');  // 'h'
  }
}

// "<prefix><byte>'" for all 256 byte values, built at compile time, so the
// kError token that quotes an offending byte can view its message.
template <std::size_t N>
class QuotedByteMessages {
 public:
  constexpr explicit QuotedByteMessages(const char (&prefix)[N]) {
    for (std::size_t b = 0; b < 256; ++b) {
      char* m = text_ + b * kLength;
      for (std::size_t i = 0; i + 1 < N; ++i) m[i] = prefix[i];
      m[N - 1] = static_cast<char>(b);
      m[N] = '\'';
    }
  }
  constexpr std::string_view operator[](char c) const {
    return {text_ + static_cast<unsigned char>(c) * kLength, kLength};
  }

 private:
  static constexpr std::size_t kLength = N + 1;  // prefix, byte, quote
  char text_[256 * kLength] = {};
};

constexpr QuotedByteMessages kBadBase("bad number base '");
constexpr QuotedByteMessages kUnexpected("unexpected character '");

// Length of the operator or punctuation token `s` starts with, longest
// match first (<<< >>> === !==, then the two-character operators, then
// single characters); 0 if it starts with none.
std::size_t punct_length(std::string_view s) {
  const char c1 = s.size() > 1 ? s[1] : '\0';
  const char c2 = s.size() > 2 ? s[2] : '\0';
  switch (s[0]) {
    case '<':
    case '>':
      if (c1 == s[0]) return c2 == s[0] ? 3 : 2;  // << <<< >> >>>
      return c1 == '=' ? 2 : 1;
    case '=':
    case '!':
      if (c1 == '=') return c2 == '=' ? 3 : 2;  // == === != !==
      return 1;
    case '&': return c1 == '&' ? 2 : 1;
    case '|': return c1 == '|' ? 2 : 1;
    case '~': return c1 == '&' || c1 == '|' || c1 == '^' ? 2 : 1;
    case '^': return c1 == '~' ? 2 : 1;
    case '*': return c1 == '*' ? 2 : 1;
    case '+':
    case '-': return c1 == ':' ? 2 : 1;  // indexed part selects +: -:
    case '/': case '%': case '?': case ':': case ';': case ',': case '.':
    case '(': case ')': case '[': case ']': case '{': case '}': case '#': case '@':
      return 1;
    default: return 0;
  }
}

Token error(Token t, std::string_view message) {
  t.kind = TokenKind::kError;
  t.text = message;
  return t;
}

}  // namespace

bool is_verilog_keyword(std::string_view word) {
  // The keywords of each length, space-separated: a word meets only the
  // keywords as long as it is.
  static constexpr std::string_view kByLength[] = {
      "",
      "",
      "if or",
      "end reg and not nor xor buf for",
      "wire else case nand xnor task wait",
      "input inout begin casez casex while",
      "module output assign always signed genvar repeat",
      "initial endcase default posedge negedge integer endtask forever",
      "generate function",
      "endmodule parameter",
      "localparam",
      "endgenerate endfunction",
  };
  const std::size_t n = word.size();
  if (n >= std::size(kByLength)) return false;
  const std::string_view group = kByLength[n];
  for (std::size_t i = 0; i < group.size(); i += n + 1) {
    if (group[i] == word[0] && group.substr(i, n) == word) return true;
  }
  return false;
}

Lexer::Lexer(std::string_view source) : src_(source) {}

char Lexer::peek(std::size_t ahead) const {
  return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
}

char Lexer::advance() {
  const char c = src_[pos_++];
  if (c == '\n') {
    ++line_;
    column_ = 1;
  } else {
    ++column_;
  }
  return c;
}

// Consumes src_[pos_, end), which holds no newline, and returns it.
std::string_view Lexer::take(std::size_t end) {
  const std::string_view text = src_.substr(pos_, end - pos_);
  column_ += static_cast<int>(end - pos_);
  pos_ = end;
  return text;
}

void Lexer::skip_ws_and_comments() {
  while (!at_end()) {
    const char c = peek();
    if (is_space(c)) {
      advance();
    } else if (c == '/' && peek(1) == '/') {
      while (!at_end() && peek() != '\n') advance();
    } else if (c == '/' && peek(1) == '*') {
      advance();
      advance();
      while (!at_end() && !(peek() == '*' && peek(1) == '/')) advance();
      if (!at_end()) {
        advance();
        advance();
      }
      // An unterminated block comment simply consumes to EOF; the parser will
      // then see kEof and report the missing endmodule, which is the useful
      // diagnostic for generated code.
    } else if (c == '`') {
      // Compiler directives (`timescale, `define usage) — skip to end of line.
      while (!at_end() && peek() != '\n') advance();
    } else {
      return;
    }
  }
}

Token Lexer::next() {
  skip_ws_and_comments();
  Token t;
  t.line = line_;
  t.column = column_;
  if (at_end()) return t;

  const char c = peek();
  const std::size_t size = src_.size();

  // Identifier or keyword.
  if (is_alpha(c) || c == '_') {
    std::size_t end = pos_ + 1;
    while (end < size && is_ident_char(src_[end])) ++end;
    t.text = take(end);
    t.kind = is_verilog_keyword(t.text) ? TokenKind::kKeyword : TokenKind::kIdentifier;
    return t;
  }

  // Escaped identifier: \name... up to whitespace.
  if (c == '\\') {
    advance();
    std::size_t end = pos_;
    while (end < size && !is_space(src_[end])) ++end;
    if (end == pos_) return error(t, "empty escaped identifier");
    t.kind = TokenKind::kIdentifier;
    t.text = take(end);
    return t;
  }

  // Number: [size]'[sbodh]digits or plain decimal. An apostrophe can also
  // start an unsized based literal ('b0).
  if (is_digit(c) || c == '\'') {
    std::size_t end = pos_;
    // A malformed literal is consumed up to the byte that broke it.
    const auto malformed = [&](std::string_view message) {
      take(end);
      return error(t, message);
    };
    while (end < size && (is_digit(src_[end]) || src_[end] == '_')) ++end;
    if (end < size && src_[end] == '\'') {
      ++end;
      if (end < size && (src_[end] == 's' || src_[end] == 'S')) ++end;
      if (end == size) return malformed("truncated based literal");
      const char base = to_lower(src_[end]);
      if (base != 'b' && base != 'o' && base != 'd' && base != 'h') {
        return malformed(kBadBase[src_[end]]);
      }
      bool any_digit = false;
      for (++end; end < size && is_base_digit(base, to_lower(src_[end])); ++end) {
        any_digit = any_digit || src_[end] != '_';
      }
      if (!any_digit) return malformed("based literal with no digits");
    }
    t.kind = TokenKind::kNumber;
    t.text = take(end);
    return t;
  }

  // String literal: the text between the quotes, backslash escapes kept.
  if (c == '"') {
    advance();
    const std::size_t begin = pos_;
    while (!at_end() && peek() != '"') {
      if (peek() == '\\' && pos_ + 1 < size) advance();
      advance();
    }
    if (at_end()) return error(t, "unterminated string");
    t.kind = TokenKind::kString;
    t.text = src_.substr(begin, pos_ - begin);
    advance();  // closing quote
    return t;
  }

  if (const std::size_t length = punct_length(src_.substr(pos_))) {
    t.kind = TokenKind::kPunct;
    t.text = take(pos_ + length);
    return t;
  }

  advance();
  return error(t, kUnexpected[c]);
}

std::vector<Token> Lexer::tokenize(std::string_view source) {
  Lexer lex(source);
  std::vector<Token> out;
  for (Token t = lex.next(); t.kind != TokenKind::kEof; t = lex.next()) out.push_back(t);
  return out;
}

}  // namespace haven::verilog
