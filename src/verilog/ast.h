// Abstract syntax tree for the Verilog-2001 synthesizable subset.
//
// The subset is chosen to cover everything the HaVen pipeline generates or
// consumes: module headers with ANSI and non-ANSI ports, wire/reg/integer
// declarations, parameters, continuous assigns, always blocks (edge and
// level sensitive, @*), blocking/nonblocking assignment, if/else,
// case/casez/casex with default, simple for loops, module instantiation,
// concatenation/replication, bit and part selects, ternary and the full
// operator set. Nodes are immutable after parse and shared via shared_ptr
// (the dataset pipeline holds many snippets referencing common subtrees).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace haven::verilog {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind : std::uint8_t {
  kNumber,
  kIdent,
  kUnary,       // op in {~ ! - & | ^ ~& ~| ~^}
  kBinary,      // arithmetic, logical, relational, shift
  kTernary,     // cond ? a : b
  kConcat,      // {a, b, c}
  kReplicate,   // {N{expr}}
  kBitSelect,   // a[3] (index may be an expression)
  kPartSelect,  // a[msb:lsb] (constant bounds only)
};

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

// A parsed literal: 4'b10x0 -> width=4, sized=true, value=0b1000 (x bits
// zero in value), xz_mask=0b0010. Unsized decimals get width=32.
struct Number {
  int width = 32;
  bool sized = false;
  std::uint64_t value = 0;
  std::uint64_t xz_mask = 0;  // bits that are x or z
};

struct Expr {
  ExprKind kind = ExprKind::kNumber;
  int line = 0;

  Number number;                  // kNumber
  std::string ident;              // kIdent (also base name of selects)
  std::string op;                 // kUnary / kBinary operator spelling
  std::vector<ExprPtr> operands;  // children, meaning depends on kind
  std::uint64_t repeat = 0;       // kReplicate count
  int msb = 0, lsb = 0;           // kPartSelect bounds

  // --- factories ---
  static ExprPtr make_number(Number n, int line = 0);
  static ExprPtr make_number(std::uint64_t value, int width = 32, bool sized = false);
  static ExprPtr make_ident(std::string name, int line = 0);
  static ExprPtr make_unary(std::string op, ExprPtr a, int line = 0);
  static ExprPtr make_binary(std::string op, ExprPtr a, ExprPtr b, int line = 0);
  static ExprPtr make_ternary(ExprPtr c, ExprPtr t, ExprPtr f, int line = 0);
  static ExprPtr make_concat(std::vector<ExprPtr> parts, int line = 0);
  static ExprPtr make_replicate(std::uint64_t count, ExprPtr inner, int line = 0);
  static ExprPtr make_bit_select(std::string base, ExprPtr index, int line = 0);
  static ExprPtr make_part_select(std::string base, int msb, int lsb, int line = 0);

  // All identifiers referenced by this expression (with duplicates).
  void collect_idents(std::vector<std::string>& out) const;
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind : std::uint8_t {
  kBlock,             // begin ... end
  kBlockingAssign,    // a = b;
  kNonblockingAssign, // a <= b;
  kIf,
  kCase,
  kFor,               // for (i = a; cond; i = step) body
};

enum class CaseKind : std::uint8_t { kCase, kCasez, kCasex };

struct Stmt;
using StmtPtr = std::shared_ptr<const Stmt>;

struct CaseItem {
  std::vector<ExprPtr> labels;  // empty => default
  StmtPtr body;
};

struct Stmt {
  StmtKind kind = StmtKind::kBlock;
  int line = 0;

  std::vector<StmtPtr> stmts;  // kBlock
  ExprPtr lhs, rhs;            // assignments; kFor init uses lhs=rhs form below
  ExprPtr cond;                // kIf / kCase subject / kFor condition
  StmtPtr then_branch, else_branch;  // kIf (else may be null)
  CaseKind case_kind = CaseKind::kCase;
  std::vector<CaseItem> case_items;
  // kFor: init assignment (lhs/rhs), condition (cond), step, body.
  ExprPtr step_lhs, step_rhs;
  StmtPtr body;

  static StmtPtr make_block(std::vector<StmtPtr> stmts, int line = 0);
  static StmtPtr make_assign(bool blocking, ExprPtr lhs, ExprPtr rhs, int line = 0);
  static StmtPtr make_if(ExprPtr cond, StmtPtr then_b, StmtPtr else_b, int line = 0);
  static StmtPtr make_case(CaseKind kind, ExprPtr subject, std::vector<CaseItem> items,
                           int line = 0);
  static StmtPtr make_for(ExprPtr init_lhs, ExprPtr init_rhs, ExprPtr cond, ExprPtr step_lhs,
                          ExprPtr step_rhs, StmtPtr body, int line = 0);
};

// ---------------------------------------------------------------------------
// Module structure
// ---------------------------------------------------------------------------

enum class Dir : std::uint8_t { kInput, kOutput, kInout };
enum class NetType : std::uint8_t { kWire, kReg, kInteger };

// Bit range [msb:lsb]; both bounds constant in the subset.
struct Range {
  int msb = 0;
  int lsb = 0;
  int width() const { return (msb >= lsb ? msb - lsb : lsb - msb) + 1; }
};

struct Port {
  std::string name;
  Dir dir = Dir::kInput;
  std::optional<Range> range;  // nullopt => scalar
  bool is_reg = false;         // "output reg [..] q"
  int width() const { return range ? range->width() : 1; }
};

struct NetDecl {
  NetType type = NetType::kWire;
  std::optional<Range> range;
  std::vector<std::string> names;
  ExprPtr init;  // "wire w = expr;" continuous-assign shorthand (last name)
  int line = 0;
};

struct ContAssign {
  ExprPtr lhs;
  ExprPtr rhs;
  int line = 0;
};

enum class Edge : std::uint8_t { kPos, kNeg, kLevel };

struct SensItem {
  Edge edge = Edge::kLevel;
  std::string signal;
};

struct AlwaysBlock {
  bool star = false;            // always @* / @(*)
  std::vector<SensItem> sens;   // ignored when star
  StmtPtr body;
  int line = 0;
};

struct InitialBlock {
  StmtPtr body;
  int line = 0;
};

struct ParameterDecl {
  std::string name;
  ExprPtr value;
  bool local = false;
  int line = 0;
};

struct PortConnection {
  std::string port;  // empty for positional
  ExprPtr expr;      // may be null for .port() disconnect
};

struct Instance {
  std::string module_name;
  std::string instance_name;
  std::vector<PortConnection> connections;
  int line = 0;
};

using ModuleItem =
    std::variant<NetDecl, ContAssign, AlwaysBlock, InitialBlock, ParameterDecl, Instance>;

struct Module {
  std::string name;
  std::vector<Port> ports;
  std::vector<ModuleItem> items;
  int line = 0;

  const Port* find_port(const std::string& name) const;
};

struct SourceFile {
  std::vector<Module> modules;

  const Module* find_module(const std::string& name) const;
};

// Parse the canonical spelling of a numeric literal token (e.g. "4'b1_0x0",
// "8'hff", "13"). Returns nullopt for malformed literals.
std::optional<Number> parse_number_literal(std::string_view text);

}  // namespace haven::verilog
