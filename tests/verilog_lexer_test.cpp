#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "verilog/ast.h"
#include "verilog/lexer.h"

namespace haven::verilog {
namespace {

std::vector<Token> lex(std::string_view s) { return Lexer::tokenize(s); }

TEST(Lexer, KeywordsAndIdentifiers) {
  const auto toks = lex("module foo_1 endmodule");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_TRUE(toks[0].is_keyword("module"));
  EXPECT_EQ(toks[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ(toks[1].text, "foo_1");
  EXPECT_TRUE(toks[2].is_keyword("endmodule"));
}

TEST(Lexer, SkipsLineAndBlockComments) {
  const auto toks = lex("a // comment\nb /* multi\nline */ c");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[2].text, "c");
}

TEST(Lexer, SkipsCompilerDirectives) {
  const auto toks = lex("`timescale 1ns/1ps\nmodule");
  ASSERT_EQ(toks.size(), 1u);
  EXPECT_TRUE(toks[0].is_keyword("module"));
}

TEST(Lexer, SizedLiterals) {
  const auto toks = lex("4'b10_10 8'hFF 3'o7 12'd100 1'bx");
  ASSERT_EQ(toks.size(), 5u);
  for (const auto& t : toks) EXPECT_EQ(t.kind, TokenKind::kNumber);
  EXPECT_EQ(toks[0].text, "4'b10_10");
}

TEST(Lexer, MultiCharOperators) {
  const auto toks = lex("a <= b == c !== d <<< e");
  EXPECT_TRUE(toks[1].is_punct("<="));
  EXPECT_TRUE(toks[3].is_punct("=="));
  EXPECT_TRUE(toks[5].is_punct("!=="));
  EXPECT_TRUE(toks[7].is_punct("<<<"));
}

TEST(Lexer, ReductionOperators) {
  const auto toks = lex("~& ~| ~^ ^~");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_TRUE(toks[0].is_punct("~&"));
  EXPECT_TRUE(toks[3].is_punct("^~"));
}

TEST(Lexer, TracksLineNumbers) {
  const auto toks = lex("a\nb\n  c");
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[1].line, 2);
  EXPECT_EQ(toks[2].line, 3);
  EXPECT_EQ(toks[2].column, 3);
}

TEST(Lexer, ReportsBadBaseAsError) {
  const auto toks = lex("4'q1010");
  ASSERT_FALSE(toks.empty());
  EXPECT_EQ(toks[0].kind, TokenKind::kError);
}

TEST(Lexer, ReportsUnexpectedCharacter) {
  const auto toks = lex("a \x01 b");
  bool has_error = false;
  for (const auto& t : toks) has_error = has_error || t.kind == TokenKind::kError;
  EXPECT_TRUE(has_error);
}

TEST(Lexer, EscapedIdentifier) {
  const auto toks = lex("\\foo+bar baz");
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(toks[0].text, "foo+bar");
}

TEST(Lexer, StringLiteral) {
  const auto toks = lex("\"hello world\"");
  ASSERT_EQ(toks.size(), 1u);
  EXPECT_EQ(toks[0].kind, TokenKind::kString);
  EXPECT_EQ(toks[0].text, "hello world");
}

TEST(Lexer, DollarInIdentifierBody) {
  const auto toks = lex("sig$1");
  ASSERT_EQ(toks.size(), 1u);
  EXPECT_EQ(toks[0].text, "sig$1");
}

TEST(Lexer, EveryKeywordIsReserved) {
  for (const char* kw :
       {"module", "endmodule", "input", "output", "inout", "wire", "reg", "assign", "always",
        "initial", "begin", "end", "if", "else", "case", "casez", "casex", "endcase", "default",
        "posedge", "negedge", "or", "and", "not", "nand", "nor", "xor", "xnor", "buf",
        "parameter", "localparam", "integer", "genvar", "generate", "endgenerate", "for",
        "while", "function", "endfunction", "task", "endtask", "signed", "wait", "forever",
        "repeat"}) {
    EXPECT_TRUE(is_verilog_keyword(kw)) << kw;
    const auto toks = lex(kw);
    ASSERT_EQ(toks.size(), 1u) << kw;
    EXPECT_TRUE(toks[0].is_keyword(kw)) << kw;
  }
  for (const char* word : {"", "i", "f", "o", "en", "ifx", "Module", "modules", "endmodul",
                           "wire_", "reg$", "e", "endgeneratex", "localparams"}) {
    EXPECT_FALSE(is_verilog_keyword(word)) << word;
  }
}

TEST(Lexer, LongestMatchForEveryOperator) {
  // Alone, every operator is one token spelled as written.
  for (const char* op : {"<<<", ">>>", "===", "!==", "<=", ">=", "==", "!=", "&&", "||", "<<",
                         ">>", "~&", "~|", "~^", "^~", "**", "+:", "-:", "+", "-", "*", "/",
                         "%", "=", "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}", "#",
                         "@", "&", "|", "^", "~", "!", "<", ">"}) {
    const auto toks = lex(op);
    ASSERT_EQ(toks.size(), 1u) << op;
    EXPECT_EQ(toks[0].kind, TokenKind::kPunct) << op;
    EXPECT_EQ(toks[0].text, op);
    EXPECT_TRUE(toks[0].is_punct(op)) << op;
  }
  // Runs split greedily: the longest operator first, then what is left.
  const std::pair<const char*, std::vector<const char*>> runs[] = {
      {"<<<=", {"<<<", "="}},   {"~^~", {"~^", "~"}},      {">>>>", {">>>", ">"}},
      {"====", {"===", "="}},   {"!===", {"!==", "="}},    {"^~^", {"^~", "^"}},
      {"**=", {"**", "="}},     {"+:-:", {"+:", "-:"}},    {"<=<", {"<=", "<"}},
      {"&&&", {"&&", "&"}},     {"|||", {"||", "|"}},      {"~&~|", {"~&", "~|"}},
      {"!=!", {"!=", "!"}},     {">=>>", {">=", ">>"}},    {"<<<<<", {"<<<", "<<"}},
      {"a<=b", {"a", "<=", "b"}}, {"+-*", {"+", "-", "*"}}, {"~~", {"~", "~"}},
  };
  for (const auto& [source, expected] : runs) {
    const auto toks = lex(source);
    ASSERT_EQ(toks.size(), expected.size()) << source;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(toks[i].text, expected[i]) << source;
    }
  }
}

TEST(Lexer, ErrorMessagesAreExact) {
  struct Case {
    std::string_view source;
    std::string_view message;
    int line;
    int column;
  };
  const Case cases[] = {
      {"a\n  \\ b", "empty escaped identifier", 2, 3},
      {"x = \\", "empty escaped identifier", 1, 5},
      {"\n\n 4'", "truncated based literal", 3, 2},
      {"8's", "truncated based literal", 1, 1},
      {"y 4'q1010", "bad number base 'q'", 1, 3},
      {"'\"", "bad number base '\"'", 1, 1},
      {"4'b", "based literal with no digits", 1, 1},
      {"a\n8'h_g", "based literal with no digits", 2, 1},
      {"s = \"abc", "unterminated string", 1, 5},
      {"\"ends in a backslash\\", "unterminated string", 1, 1},
      {"a \x01 b", "unexpected character '\x01'", 1, 3},
      {"\n\n\n   $", "unexpected character '$'", 4, 4},
      {"\x80", "unexpected character '\x80'", 1, 1},
      {std::string_view("\0", 1), std::string_view("unexpected character '\0'", 24), 1, 1},
  };
  for (const Case& c : cases) {
    const auto toks = lex(c.source);
    const auto error = std::find_if(toks.begin(), toks.end(),
                                    [](const Token& t) { return t.kind == TokenKind::kError; });
    ASSERT_NE(error, toks.end()) << c.message;
    EXPECT_EQ(error->text, c.message);
    EXPECT_EQ(error->line, c.line) << c.message;
    EXPECT_EQ(error->column, c.column) << c.message;
  }
}

TEST(Lexer, ControlAndHighBytes) {
  // A byte >= 0x80 is neither a letter nor a digit: it ends the identifier.
  const auto high = lex("a\x80" "b");
  ASSERT_EQ(high.size(), 3u);
  EXPECT_EQ(high[0].text, "a");
  EXPECT_EQ(high[1].kind, TokenKind::kError);
  EXPECT_EQ(high[2].text, "b");
  EXPECT_EQ(high[2].column, 3);

  const auto nul = lex(std::string_view("a\0b", 3));
  ASSERT_EQ(nul.size(), 3u);
  EXPECT_EQ(nul[0].text, "a");
  EXPECT_EQ(nul[1].kind, TokenKind::kError);
  EXPECT_EQ(nul[1].text.size(), 24u);
  EXPECT_EQ(nul[2].text, "b");

  // \v and \f separate tokens like a space; only \n starts a new line.
  const auto ws = lex("a\vb\fc\rd\te\nf");
  ASSERT_EQ(ws.size(), 6u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(ws[i].kind, TokenKind::kIdentifier);
    EXPECT_EQ(ws[i].line, 1);
    EXPECT_EQ(ws[i].column, static_cast<int>(2 * i + 1));
  }
  EXPECT_EQ(ws[5].line, 2);
  EXPECT_EQ(ws[5].column, 1);

  // Numbers, escaped identifiers and strings around the same bytes.
  const auto mixed = lex("4'b1\x80 \\id\x80\x01 \"s\x80\"");
  ASSERT_EQ(mixed.size(), 4u);
  EXPECT_EQ(mixed[0].text, "4'b1");
  EXPECT_EQ(mixed[1].kind, TokenKind::kError);
  EXPECT_EQ(mixed[2].text, "id\x80\x01");
  EXPECT_EQ(mixed[3].text, "s\x80");
}

TEST(Lexer, TokensViewTheSource) {
  const std::string source =
      "module m #(parameter W = 4'd3) (input [W:0] a, output reg \\y$ );\n"
      "  // comment\n  always @(*) y = a <<< 1 ? \"str\" : 8'hF_f; /* x */ \x01 endmodule";
  const auto toks = lex(source);
  ASSERT_GT(toks.size(), 30u);
  const char* const begin = source.data();
  const char* const end = begin + source.size();
  for (const Token& t : toks) {
    if (t.kind == TokenKind::kError) continue;
    EXPECT_GE(t.text.data(), begin) << t.text;
    EXPECT_LE(t.text.data() + t.text.size(), end) << t.text;
  }
}

// --- number literal parsing ---------------------------------------------------

TEST(NumberLiteral, PlainDecimal) {
  const auto n = parse_number_literal("42");
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n->value, 42u);
  EXPECT_EQ(n->width, 32);
  EXPECT_FALSE(n->sized);
}

TEST(NumberLiteral, SizedBinaryWithX) {
  const auto n = parse_number_literal("4'b10x0");
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n->width, 4);
  EXPECT_EQ(n->value, 0b1000u);
  EXPECT_EQ(n->xz_mask, 0b0010u);
}

TEST(NumberLiteral, HexAndOctal) {
  EXPECT_EQ(parse_number_literal("8'hFf")->value, 0xFFu);
  EXPECT_EQ(parse_number_literal("6'o77")->value, 077u);
  EXPECT_EQ(parse_number_literal("8'd200")->value, 200u);
}

TEST(NumberLiteral, TruncatesToWidth) {
  const auto n = parse_number_literal("4'hFF");
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n->value, 0xFu);
}

TEST(NumberLiteral, UnderscoresIgnored) {
  EXPECT_EQ(parse_number_literal("16'b1010_1010_1010_1010")->value, 0xAAAAu);
}

TEST(NumberLiteral, RejectsMalformed) {
  EXPECT_FALSE(parse_number_literal("4'b").has_value());
  EXPECT_FALSE(parse_number_literal("4'b2").has_value());
  EXPECT_FALSE(parse_number_literal("0'b1").has_value());
  EXPECT_FALSE(parse_number_literal("65'h0").has_value());
  EXPECT_FALSE(parse_number_literal("abc").has_value());
}

TEST(NumberLiteral, QuestionMarkIsWildcard) {
  const auto n = parse_number_literal("4'b1??1");
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n->xz_mask, 0b0110u);
}

}  // namespace
}  // namespace haven::verilog
