// Semantic analysis over the parsed AST. This module is HaVen's substitute
// for two external tools the paper uses:
//
//  * slang (Fig 2, step 6): extracting *topics* (FSM, counter, ALU, ...) and
//    *attributes* (async vs sync reset, clock edge, enable polarity) from
//    Verilog code so vanilla instruction-code pairs can be matched with the
//    curated exemplars, and
//  * the "industry-standard Verilog compiler" (Fig 2, step 8): rejecting
//    erroneous or incomplete pairs. `compile_ok` = parse + no semantic
//    errors and is the gate used by the dataset verification stage and by
//    the benchmark's syntax-pass metric.
//
// Every diagnostic here is an error (would not compile / elaborate). The
// design-convention checks the hallucination taxonomy tracks (missing
// default, latch inference, blocking assignment in sequential logic, ...)
// are lint rules (lint/lint.h).
#pragma once

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "verilog/ast.h"
#include "verilog/parser.h"

namespace haven::verilog {

// Module topic labels used for exemplar matching.
enum class Topic : std::uint8_t {
  kFsm,
  kCounter,
  kShiftRegister,
  kAlu,
  kClockDivider,
  kAdder,
  kMultiplexer,
  kDecoder,
  kComparator,
  kParity,
  kRegister,       // plain clocked register/pipeline stage
  kCombinational,  // pure combinational, none of the above
  kSequential,     // clocked, none of the above
};

std::string topic_name(Topic t);

// Verilog-specific attributes (Section III-C: reset mechanisms, clocking and
// edge sensitivity, enable signals).
struct Attributes {
  bool has_clock = false;
  bool negedge_clock = false;
  bool async_reset = false;       // reset appears in the edge sensitivity list
  bool sync_reset = false;        // reset tested first inside a clocked block
  bool active_low_reset = false;  // reset_n / !rst style
  bool has_enable = false;
  bool active_low_enable = false;

  bool operator==(const Attributes&) const = default;
};

struct ModuleAnalysis {
  std::string module_name;
  // Semantic errors in discovery order (severity + rule id per Diagnostic).
  std::vector<Diagnostic> diagnostics;
  std::set<Topic> topics;
  Attributes attributes;

  // Every diagnostic is an error, so ok() iff there is none.
  bool ok() const { return diagnostics.empty(); }
};

// Analyze a single parsed module. `file` provides sibling modules so that
// instances can be checked against their definitions when available.
ModuleAnalysis analyze_module(const Module& m, const SourceFile* file = nullptr);

struct SourceAnalysis {
  std::vector<ModuleAnalysis> modules;
  std::vector<Diagnostic> parse_errors;
  // The parse the analysis ran on, kept so a caller that goes on to lint,
  // prove or simulate the source does not parse it a second time.
  SourceFile file;

  bool ok() const {
    if (!parse_errors.empty()) return false;
    for (const auto& m : modules) {
      if (!m.ok()) return false;
    }
    return !modules.empty();
  }
};

SourceAnalysis analyze_source(std::string_view source);

// Parse + semantic check. The single predicate used as "compiles" throughout
// the pipeline (dataset verification and the syntax-pass benchmark metric).
bool compile_ok(std::string_view source);

}  // namespace haven::verilog
