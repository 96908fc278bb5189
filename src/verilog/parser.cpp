#include "verilog/parser.h"

#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/strings.h"
#include "verilog/lexer.h"

namespace haven::verilog {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

std::string Diagnostic::to_string() const {
  if (rule.empty()) return util::format("%d:%d: %s", line, column, message.c_str());
  return util::format("%d:%d: %s [%s]", line, column, message.c_str(), rule.c_str());
}

namespace {

// Thrown internally to unwind to module-level recovery; never escapes
// parse_source.
struct ParseError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class Parser {
 public:
  explicit Parser(std::string_view source) : tokens_(Lexer::tokenize(source)) {}

  ParseOutput run() {
    ParseOutput out;
    while (!at_end()) {
      if (peek().is_keyword("module")) {
        const std::size_t mark = pos_;
        try {
          out.file.modules.push_back(parse_module());
        } catch (const ParseError& e) {
          diag(e.what());
          pos_ = mark + 1;
          skip_to_next_module();
        }
      } else {
        diag("expected 'module', found '" + describe(peek()) + "'");
        advance();
        skip_to_next_module();
      }
    }
    if (out.file.modules.empty() && diags_.empty()) diag("no modules in source");
    out.diagnostics = std::move(diags_);
    return out;
  }

 private:
  // --- token plumbing ---
  const Token& peek(std::size_t ahead = 0) const {
    static const Token kEofToken{};
    return pos_ + ahead < tokens_.size() ? tokens_[pos_ + ahead] : kEofToken;
  }
  bool at_end() const { return pos_ >= tokens_.size(); }
  const Token& advance() {
    const Token& t = peek();
    if (pos_ < tokens_.size()) ++pos_;
    return t;
  }
  static std::string describe(const Token& t) {
    switch (t.kind) {
      case TokenKind::kEof: return "<eof>";
      case TokenKind::kError: return "<lex error: " + std::string(t.text) + ">";
      default: return std::string(t.text);
    }
  }
  void diag(const std::string& msg) {
    diags_.push_back({msg, peek().line, peek().column, Severity::kError, "parse"});
  }
  [[noreturn]] void fail(const std::string& msg) {
    throw ParseError(util::format("%d:%d: %s", peek().line, peek().column, msg.c_str()));
  }
  void expect_punct(std::string_view p) {
    if (!peek().is_punct(p)) fail("expected '" + std::string(p) + "', found '" + describe(peek()) + "'");
    advance();
  }
  void expect_keyword(std::string_view kw) {
    if (!peek().is_keyword(kw)) fail("expected '" + std::string(kw) + "', found '" + describe(peek()) + "'");
    advance();
  }
  std::string expect_identifier(const char* what) {
    if (!peek().is(TokenKind::kIdentifier)) fail(std::string("expected ") + what + ", found '" + describe(peek()) + "'");
    return std::string(advance().text);
  }
  void skip_to_next_module() {
    while (!at_end() && !peek().is_keyword("module")) advance();
  }

  // --- constant expression evaluation (for ranges/parameters) ---
  // Parameters declared so far in the current module are usable in ranges.
  std::int64_t const_eval(const ExprPtr& e) {
    switch (e->kind) {
      case ExprKind::kNumber:
        if (e->number.xz_mask != 0) fail("x/z digits in constant expression");
        return static_cast<std::int64_t>(e->number.value);
      case ExprKind::kIdent: {
        const auto it = param_values_.find(e->ident);
        if (it == param_values_.end()) fail("unknown parameter '" + e->ident + "' in constant expression");
        return it->second;
      }
      case ExprKind::kUnary: {
        const std::int64_t a = const_eval(e->operands[0]);
        if (e->op == "-") return -a;
        if (e->op == "~") return ~a;
        if (e->op == "!") return a == 0 ? 1 : 0;
        fail("unsupported unary op '" + e->op + "' in constant expression");
      }
      case ExprKind::kBinary: {
        const std::int64_t a = const_eval(e->operands[0]);
        const std::int64_t b = const_eval(e->operands[1]);
        const std::string& op = e->op;
        if (op == "+") return a + b;
        if (op == "-") return a - b;
        if (op == "*") return a * b;
        if (op == "/") { if (b == 0) fail("division by zero in constant"); return a / b; }
        if (op == "%") { if (b == 0) fail("modulo by zero in constant"); return a % b; }
        if (op == "<<") return b >= 64 ? 0 : (a << b);
        if (op == ">>") return b >= 64 ? 0 : static_cast<std::int64_t>(static_cast<std::uint64_t>(a) >> b);
        if (op == "**") {
          std::int64_t r = 1;
          for (std::int64_t i = 0; i < b; ++i) r *= a;
          return r;
        }
        fail("unsupported binary op '" + op + "' in constant expression");
      }
      default:
        fail("unsupported construct in constant expression");
    }
  }

  // --- module ---
  Module parse_module() {
    Module m;
    m.line = peek().line;
    expect_keyword("module");
    m.name = expect_identifier("module name");
    param_values_.clear();

    // Optional parameter header: #(parameter N = 8, ...)
    if (peek().is_punct("#")) {
      advance();
      expect_punct("(");
      while (!peek().is_punct(")")) {
        if (peek().is_keyword("parameter")) advance();
        ParameterDecl p;
        p.line = peek().line;
        // optional range on the parameter: parameter [3:0] P = ...
        if (peek().is_punct("[")) skip_range();
        p.name = expect_identifier("parameter name");
        expect_punct("=");
        p.value = parse_expression();
        param_values_[p.name] = const_eval(p.value);
        m.items.emplace_back(std::move(p));
        if (peek().is_punct(",")) advance();
        else break;
      }
      expect_punct(")");
    }

    // Port list: ANSI (with directions) or non-ANSI (names only) or empty.
    bool ansi = false;
    std::vector<std::string> nonansi_names;
    if (peek().is_punct("(")) {
      advance();
      if (peek().is_keyword("input") || peek().is_keyword("output") || peek().is_keyword("inout")) {
        ansi = true;
        parse_ansi_ports(m);
      } else if (!peek().is_punct(")")) {
        while (true) {
          nonansi_names.push_back(expect_identifier("port name"));
          if (peek().is_punct(",")) advance();
          else break;
        }
      }
      expect_punct(")");
    }
    expect_punct(";");

    // Body items. For non-ANSI style, input/output declarations in the body
    // fill in the port directions.
    while (!peek().is_keyword("endmodule")) {
      if (at_end()) fail("missing 'endmodule' for module '" + m.name + "'");
      parse_module_item(m, ansi, nonansi_names);
    }
    advance();  // endmodule

    if (!ansi) {
      // Every listed port must have been declared with a direction.
      for (const std::string& pn : nonansi_names) {
        if (!m.find_port(pn)) fail("port '" + pn + "' has no direction declaration");
      }
    }
    return m;
  }

  void parse_ansi_ports(Module& m) {
    Dir dir = Dir::kInput;
    bool is_reg = false;
    std::optional<Range> range;
    while (true) {
      if (peek().is_keyword("input") || peek().is_keyword("output") || peek().is_keyword("inout")) {
        const std::string_view kw = advance().text;
        dir = kw == "input" ? Dir::kInput : (kw == "output" ? Dir::kOutput : Dir::kInout);
        is_reg = false;
        range.reset();
        if (peek().is_keyword("wire")) advance();
        else if (peek().is_keyword("reg")) { advance(); is_reg = true; }
        if (peek().is_keyword("signed")) advance();
        if (peek().is_punct("[")) range = parse_range();
      }
      Port p;
      p.dir = dir;
      p.is_reg = is_reg;
      p.range = range;
      p.name = expect_identifier("port name");
      m.ports.push_back(std::move(p));
      if (peek().is_punct(",")) advance();
      else return;
    }
  }

  Range parse_range() {
    expect_punct("[");
    Range r;
    r.msb = static_cast<int>(const_eval(parse_expression()));
    expect_punct(":");
    r.lsb = static_cast<int>(const_eval(parse_expression()));
    expect_punct("]");
    return r;
  }

  void skip_range() {
    expect_punct("[");
    int depth = 1;
    while (depth > 0 && !at_end()) {
      if (peek().is_punct("[")) ++depth;
      if (peek().is_punct("]")) --depth;
      advance();
    }
  }

  void parse_module_item(Module& m, bool ansi, const std::vector<std::string>& nonansi_names) {
    const Token& t = peek();
    if (t.is(TokenKind::kError)) fail("lexical error: " + std::string(t.text));

    if (t.is_keyword("input") || t.is_keyword("output") || t.is_keyword("inout")) {
      if (ansi) fail("port direction declaration in ANSI-style module body");
      parse_nonansi_port_decl(m, nonansi_names);
      return;
    }
    if (t.is_keyword("wire") || t.is_keyword("reg") || t.is_keyword("integer")) {
      m.items.emplace_back(parse_net_decl());
      return;
    }
    if (t.is_keyword("parameter") || t.is_keyword("localparam")) {
      const bool local = t.is_keyword("localparam");
      advance();
      if (peek().is_punct("[")) skip_range();
      while (true) {
        ParameterDecl p;
        p.line = peek().line;
        p.local = local;
        p.name = expect_identifier("parameter name");
        expect_punct("=");
        p.value = parse_expression();
        param_values_[p.name] = const_eval(p.value);
        m.items.emplace_back(std::move(p));
        if (peek().is_punct(",")) advance();
        else break;
      }
      expect_punct(";");
      return;
    }
    if (t.is_keyword("assign")) {
      advance();
      while (true) {
        ContAssign ca;
        ca.line = peek().line;
        ca.lhs = parse_lvalue();
        expect_punct("=");
        ca.rhs = parse_expression();
        m.items.emplace_back(std::move(ca));
        if (peek().is_punct(",")) advance();
        else break;
      }
      expect_punct(";");
      return;
    }
    if (t.is_keyword("always")) {
      m.items.emplace_back(parse_always());
      return;
    }
    if (t.is_keyword("initial")) {
      InitialBlock ib;
      ib.line = peek().line;
      advance();
      ib.body = parse_statement();
      m.items.emplace_back(std::move(ib));
      return;
    }
    if (t.is(TokenKind::kIdentifier)) {
      m.items.emplace_back(parse_instance());
      return;
    }
    fail("unexpected token '" + describe(t) + "' in module body");
  }

  void parse_nonansi_port_decl(Module& m, const std::vector<std::string>& names) {
    const std::string_view kw = advance().text;
    const Dir dir = kw == "input" ? Dir::kInput : (kw == "output" ? Dir::kOutput : Dir::kInout);
    bool is_reg = false;
    if (peek().is_keyword("wire")) advance();
    else if (peek().is_keyword("reg")) { advance(); is_reg = true; }
    if (peek().is_keyword("signed")) advance();
    std::optional<Range> range;
    if (peek().is_punct("[")) range = parse_range();
    while (true) {
      const std::string name = expect_identifier("port name");
      bool listed = false;
      for (const auto& n : names) listed = listed || n == name;
      if (!listed) fail("declared port '" + name + "' not in module port list");
      if (m.find_port(name)) fail("duplicate direction declaration for port '" + name + "'");
      Port p;
      p.name = name;
      p.dir = dir;
      p.is_reg = is_reg;
      p.range = range;
      m.ports.push_back(std::move(p));
      if (peek().is_punct(",")) advance();
      else break;
    }
    expect_punct(";");
  }

  NetDecl parse_net_decl() {
    NetDecl d;
    d.line = peek().line;
    const std::string_view kw = advance().text;
    d.type = kw == "wire" ? NetType::kWire : (kw == "reg" ? NetType::kReg : NetType::kInteger);
    if (peek().is_keyword("signed")) advance();
    if (d.type != NetType::kInteger && peek().is_punct("[")) d.range = parse_range();
    while (true) {
      d.names.push_back(expect_identifier("declaration name"));
      if (peek().is_punct("[")) {
        // Memory declarations (reg [7:0] mem [0:255]) are out of subset.
        fail("memory (array) declarations are not supported");
      }
      if (peek().is_punct("=")) {
        advance();
        d.init = parse_expression();
      }
      if (peek().is_punct(",")) advance();
      else break;
    }
    expect_punct(";");
    return d;
  }

  AlwaysBlock parse_always() {
    AlwaysBlock ab;
    ab.line = peek().line;
    expect_keyword("always");
    expect_punct("@");
    if (peek().is_punct("*")) {
      advance();
      ab.star = true;
    } else {
      expect_punct("(");
      if (peek().is_punct("*")) {
        advance();
        ab.star = true;
      } else {
        while (true) {
          SensItem item;
          if (peek().is_keyword("posedge")) { advance(); item.edge = Edge::kPos; }
          else if (peek().is_keyword("negedge")) { advance(); item.edge = Edge::kNeg; }
          item.signal = expect_identifier("sensitivity signal");
          ab.sens.push_back(std::move(item));
          if (peek().is_keyword("or") || peek().is_punct(",")) advance();
          else break;
        }
      }
      expect_punct(")");
    }
    ab.body = parse_statement();
    return ab;
  }

  Instance parse_instance() {
    Instance inst;
    inst.line = peek().line;
    inst.module_name = expect_identifier("module name");
    if (peek().is_punct("#")) fail("parameterized instantiation is not supported");
    inst.instance_name = expect_identifier("instance name");
    expect_punct("(");
    if (!peek().is_punct(")")) {
      while (true) {
        PortConnection pc;
        if (peek().is_punct(".")) {
          advance();
          pc.port = expect_identifier("port name");
          expect_punct("(");
          if (!peek().is_punct(")")) pc.expr = parse_expression();
          expect_punct(")");
        } else {
          pc.expr = parse_expression();
        }
        inst.connections.push_back(std::move(pc));
        if (peek().is_punct(",")) advance();
        else break;
      }
    }
    expect_punct(")");
    expect_punct(";");
    return inst;
  }

  // --- statements ---
  StmtPtr parse_statement() {
    const Token& t = peek();
    const int line = t.line;
    if (t.is(TokenKind::kError)) fail("lexical error: " + std::string(t.text));

    if (t.is_keyword("begin")) {
      advance();
      if (peek().is_punct(":")) {  // named block
        advance();
        expect_identifier("block label");
      }
      std::vector<StmtPtr> stmts;
      while (!peek().is_keyword("end")) {
        if (at_end()) fail("missing 'end'");
        stmts.push_back(parse_statement());
      }
      advance();
      return Stmt::make_block(std::move(stmts), line);
    }
    if (t.is_keyword("if")) {
      advance();
      expect_punct("(");
      ExprPtr cond = parse_expression();
      expect_punct(")");
      StmtPtr then_b = parse_statement();
      StmtPtr else_b;
      if (peek().is_keyword("else")) {
        advance();
        else_b = parse_statement();
      }
      return Stmt::make_if(std::move(cond), std::move(then_b), std::move(else_b), line);
    }
    if (t.is_keyword("case") || t.is_keyword("casez") || t.is_keyword("casex")) {
      const CaseKind ck = t.is_keyword("case") ? CaseKind::kCase
                        : (t.is_keyword("casez") ? CaseKind::kCasez : CaseKind::kCasex);
      advance();
      expect_punct("(");
      ExprPtr subject = parse_expression();
      expect_punct(")");
      std::vector<CaseItem> items;
      while (!peek().is_keyword("endcase")) {
        if (at_end()) fail("missing 'endcase'");
        CaseItem item;
        if (peek().is_keyword("default")) {
          advance();
          if (peek().is_punct(":")) advance();
        } else {
          while (true) {
            item.labels.push_back(parse_expression());
            if (peek().is_punct(",")) advance();
            else break;
          }
          expect_punct(":");
        }
        item.body = parse_statement();
        items.push_back(std::move(item));
      }
      advance();
      return Stmt::make_case(ck, std::move(subject), std::move(items), line);
    }
    if (t.is_keyword("for")) {
      advance();
      expect_punct("(");
      ExprPtr init_lhs = parse_lvalue();
      expect_punct("=");
      ExprPtr init_rhs = parse_expression();
      expect_punct(";");
      ExprPtr cond = parse_expression();
      expect_punct(";");
      ExprPtr step_lhs = parse_lvalue();
      expect_punct("=");
      ExprPtr step_rhs = parse_expression();
      expect_punct(")");
      StmtPtr body = parse_statement();
      return Stmt::make_for(std::move(init_lhs), std::move(init_rhs), std::move(cond),
                            std::move(step_lhs), std::move(step_rhs), std::move(body), line);
    }
    if (t.is_punct("#")) {
      // Delay control: skip "#number" then parse the controlled statement.
      advance();
      if (!peek().is(TokenKind::kNumber)) fail("expected delay value after '#'");
      advance();
      return parse_statement();
    }
    if (t.is_punct(";")) {  // null statement
      advance();
      return Stmt::make_block({}, line);
    }

    // Assignment: lvalue (= | <=) expr ;
    ExprPtr lhs = parse_lvalue();
    bool blocking;
    if (peek().is_punct("=")) {
      blocking = true;
      advance();
    } else if (peek().is_punct("<=")) {
      blocking = false;
      advance();
    } else {
      fail("expected '=' or '<=' in assignment, found '" + describe(peek()) + "'");
    }
    if (peek().is_punct("#")) {  // intra-assignment delay: skip
      advance();
      if (!peek().is(TokenKind::kNumber)) fail("expected delay value after '#'");
      advance();
    }
    ExprPtr rhs = parse_expression();
    expect_punct(";");
    return Stmt::make_assign(blocking, std::move(lhs), std::move(rhs), line);
  }

  // Lvalue: identifier, bit/part select, or concatenation of lvalues.
  ExprPtr parse_lvalue() {
    const int line = peek().line;
    if (peek().is_punct("{")) {
      advance();
      std::vector<ExprPtr> parts;
      while (true) {
        parts.push_back(parse_lvalue());
        if (peek().is_punct(",")) advance();
        else break;
      }
      expect_punct("}");
      return Expr::make_concat(std::move(parts), line);
    }
    std::string name = expect_identifier("lvalue");
    if (peek().is_punct("[")) {
      advance();
      ExprPtr first = parse_expression();
      if (peek().is_punct(":")) {
        advance();
        const int msb = static_cast<int>(const_eval(first));
        const int lsb = static_cast<int>(const_eval(parse_expression()));
        expect_punct("]");
        return Expr::make_part_select(std::move(name), msb, lsb, line);
      }
      expect_punct("]");
      return Expr::make_bit_select(std::move(name), std::move(first), line);
    }
    return Expr::make_ident(std::move(name), line);
  }

  // --- expressions (precedence climbing) ---
  ExprPtr parse_expression() { return parse_ternary(); }

  ExprPtr parse_ternary() {
    ExprPtr cond = parse_binary(0);
    if (peek().is_punct("?")) {
      const int line = peek().line;
      advance();
      ExprPtr t = parse_expression();
      expect_punct(":");
      ExprPtr f = parse_expression();
      return Expr::make_ternary(std::move(cond), std::move(t), std::move(f), line);
    }
    return cond;
  }

  // Binary precedence levels, lowest first.
  static int binary_level(std::string_view op) {
    if (op == "||") return 1;
    if (op == "&&") return 2;
    if (op == "|" || op == "~|") return 3;
    if (op == "^" || op == "~^" || op == "^~" || op == "~&") return 4;  // ~& at xor level is fine
    if (op == "&") return 5;
    if (op == "==" || op == "!=" || op == "===" || op == "!==") return 6;
    if (op == "<" || op == "<=" || op == ">" || op == ">=") return 7;
    if (op == "<<" || op == ">>" || op == "<<<" || op == ">>>") return 8;
    if (op == "+" || op == "-") return 9;
    if (op == "*" || op == "/" || op == "%") return 10;
    if (op == "**") return 11;
    return -1;
  }

  ExprPtr parse_binary(int min_level) {
    ExprPtr lhs = parse_unary();
    while (peek().is(TokenKind::kPunct)) {
      const std::string_view op = peek().text;
      const int level = binary_level(op);
      if (level < 0 || level < min_level) break;
      const int line = peek().line;
      advance();
      ExprPtr rhs = parse_binary(level + 1);
      lhs = Expr::make_binary(std::string(op), std::move(lhs), std::move(rhs), line);
    }
    return lhs;
  }

  ExprPtr parse_unary() {
    const Token& t = peek();
    if (t.is(TokenKind::kPunct)) {
      const std::string_view op = t.text;
      if (op == "~" || op == "!" || op == "-" || op == "+" || op == "&" || op == "|" ||
          op == "^" || op == "~&" || op == "~|" || op == "~^" || op == "^~") {
        const int line = t.line;
        advance();
        ExprPtr inner = parse_unary();
        if (op == "+") return inner;  // unary plus is a no-op
        return Expr::make_unary(std::string(op), std::move(inner), line);
      }
    }
    return parse_primary();
  }

  ExprPtr parse_primary() {
    const Token& t = peek();
    const int line = t.line;
    if (t.is(TokenKind::kError)) fail("lexical error: " + std::string(t.text));

    if (t.is(TokenKind::kNumber)) {
      const auto n = parse_number_literal(t.text);
      if (!n) fail("malformed number literal '" + std::string(t.text) + "'");
      advance();
      return Expr::make_number(*n, line);
    }
    if (t.is(TokenKind::kIdentifier)) {
      const std::string_view name = advance().text;
      if (peek().is_punct("[")) {
        advance();
        ExprPtr first = parse_expression();
        if (peek().is_punct(":")) {
          advance();
          const int msb = static_cast<int>(const_eval(first));
          const int lsb = static_cast<int>(const_eval(parse_expression()));
          expect_punct("]");
          return Expr::make_part_select(std::string(name), msb, lsb, line);
        }
        if (peek().is_punct("+:") || peek().is_punct("-:")) {
          fail("indexed part selects (+:/-:) are not supported");
        }
        expect_punct("]");
        return Expr::make_bit_select(std::string(name), std::move(first), line);
      }
      // Resolve module parameters to their constant values at parse time so
      // that the simulator never sees free identifiers for parameters.
      const auto it = param_values_.find(name);
      if (it != param_values_.end()) {
        return Expr::make_number(static_cast<std::uint64_t>(it->second), 32, false);
      }
      return Expr::make_ident(std::string(name), line);
    }
    if (t.is_punct("(")) {
      advance();
      ExprPtr inner = parse_expression();
      expect_punct(")");
      return inner;
    }
    if (t.is_punct("{")) {
      advance();
      // Could be replication {N{expr}} or concatenation {a, b}.
      ExprPtr first = parse_expression();
      if (peek().is_punct("{")) {
        advance();
        const std::int64_t count = const_eval(first);
        if (count <= 0 || count > 64) fail("replication count out of range");
        ExprPtr inner;
        std::vector<ExprPtr> parts;
        while (true) {
          parts.push_back(parse_expression());
          if (peek().is_punct(",")) advance();
          else break;
        }
        expect_punct("}");
        expect_punct("}");
        inner = parts.size() == 1 ? parts[0] : Expr::make_concat(std::move(parts), line);
        return Expr::make_replicate(static_cast<std::uint64_t>(count), std::move(inner), line);
      }
      std::vector<ExprPtr> parts = {first};
      while (peek().is_punct(",")) {
        advance();
        parts.push_back(parse_expression());
      }
      expect_punct("}");
      if (parts.size() == 1) fail("single-element concatenation");
      return Expr::make_concat(std::move(parts), line);
    }
    fail("expected expression, found '" + describe(t) + "'");
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::vector<Diagnostic> diags_;
  std::map<std::string, std::int64_t, std::less<>> param_values_;
};

}  // namespace

ParseOutput parse_source(std::string_view source) { return Parser(source).run(); }

bool syntax_ok(std::string_view source) {
  ParseOutput out = parse_source(source);
  return out.ok() && !out.file.modules.empty();
}

}  // namespace haven::verilog
