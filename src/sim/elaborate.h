// Elaboration: turn a parsed module (plus sibling definitions for its
// instances) into a flat ElabDesign the simulator can execute. Hierarchy is
// flattened by splicing child processes with prefixed signal names and
// connecting ports with continuous assignments, mirroring what a synthesis
// elaborator does before technology mapping.
#pragma once

#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "verilog/ast.h"

namespace haven::sim {

// Elaboration failures (unknown instance module, unsupported constructs,
// width limits) throw ElabError; the testbench harness converts this into a
// functional failure for the offending candidate.
struct ElabError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct ElabSignal {
  std::string name;
  int width = 1;
  bool is_reg = false;
  bool is_input = false;
  bool is_output = false;
};

enum class ProcessKind : std::uint8_t { kContAssign, kComb, kClocked, kInitial };

struct ElabProcess {
  ProcessKind kind = ProcessKind::kComb;
  // kContAssign: lhs/rhs. Others: body.
  verilog::ExprPtr lhs, rhs;
  verilog::StmtPtr body;
  // kClocked: edge-sensitive items. kComb/kContAssign: read set drives
  // re-evaluation.
  std::vector<verilog::SensItem> edges;
  std::set<std::string> read_set;
};

struct ElabDesign {
  std::string top;
  std::vector<ElabSignal> signals;               // index = signal id
  std::map<std::string, std::size_t> signal_ids; // name -> index
  std::vector<ElabProcess> processes;
  std::vector<std::string> inputs;   // port order preserved
  std::vector<std::string> outputs;

  const ElabSignal& signal(const std::string& name) const;
};

// Elaborate `top`; `file` supplies definitions for instantiated modules (may
// be null if the design has no instances).
ElabDesign elaborate(const verilog::Module& top, const verilog::SourceFile* file = nullptr);

// Collect the identifiers *read* by a statement body (rhs values, conditions,
// case labels and lvalue index expressions, but not assignment targets).
std::set<std::string> statement_read_set(const verilog::StmtPtr& body);

}  // namespace haven::sim
