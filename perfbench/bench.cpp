#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>

#include "eval/suites.h"
#include "llm/model_zoo.h"
#include "util/strings.h"

namespace haven::perfbench {
namespace {

// The ledger's fields in expected.tsv column order, and their metric names.
constexpr std::int64_t Ledger::*kLedgerFields[Ledger::kFields] = {
    &Ledger::candidates,    &Ledger::unit_faults,    &Ledger::compile_failures,
    &Ledger::simulated,     &Ledger::sim_vectors,    &Ledger::lint_triaged,
    &Ledger::prove_decided, &Ledger::prove_fallback, &Ledger::cache_hits,
    &Ledger::cache_misses,  &Ledger::repair_rounds,  &Ledger::repaired,
};
constexpr const char* kLedgerNames[Ledger::kFields] = {
    "candidates",    "eval.unit_faults", "verilog.compile_failures", "sim.simulated",
    "sim.vectors",   "lint.triaged",     "prove.decided",            "prove.fallback",
    "cache.hits",    "cache.misses",     "repair.rounds",            "repair.repaired",
};

}  // namespace

void Ledger::add(const eval::EvalCounters& c) {
  candidates += c.candidates;
  unit_faults += c.unit_faults;
  compile_failures += c.compile_failures;
  simulated += c.simulated;
  sim_vectors += c.sim_vectors;
  lint_triaged += c.lint_triaged;
  prove_decided += c.proven_equiv + c.proven_inequiv;
  prove_fallback += c.prove_fallback;
  cache_hits += c.cache_hits;
  cache_misses += c.cache_misses;
  repair_rounds += c.repair_rounds;
  repaired += c.repaired_pass;
}

void Ledger::add(const Ledger& o) {
  for (auto field : kLedgerFields) this->*field += o.*field;
}

std::string Ledger::to_string() const {
  std::string out;
  for (auto field : kLedgerFields) {
    if (!out.empty()) out += '\t';
    out += std::to_string(this->*field);
  }
  return out;
}

std::string Ledger::describe() const {
  std::string out;
  for (std::size_t i = 0; i < kFields; ++i) {
    if (i != 0) out += ' ';
    out += std::string(kLedgerNames[i]) + "=" + std::to_string(this->*kLedgerFields[i]);
  }
  return out;
}

bool Ledger::parse(const std::vector<std::string>& f, std::size_t first, Ledger* out) {
  if (f.size() < first + kFields) return false;
  for (std::size_t i = 0; i < kFields; ++i) out->*kLedgerFields[i] = std::stoll(f[first + i]);
  return true;
}

bool Expected::load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> f = util::split(line, '\t');
    bool ok = false;
    try {
      if (f[0] == "block" && f.size() == 5 + Ledger::kFields) {
        Block b;
        ok = parse_hex(f[3], &b.fold) && Ledger::parse(f, 4, &b.ledger);
        b.distinct_sources = std::stoll(f[4 + Ledger::kFields]);
        blocks[{f[1], std::stoi(f[2])}] = b;
      } else if (f[0] == "serve" && f.size() == 4) {
        cache::Digest d;
        ok = parse_hex(f[3], &d);
        serve_folds[{std::stoull(f[1]), std::stoi(f[2])}] = d;
      }
    } catch (const std::exception&) {
      ok = false;
    }
    if (!ok) {
      *error = "bad line in " + path + ": " + line;
      return false;
    }
  }
  return true;
}

const Expected::Block* Expected::block(const std::string& config, int eighth) const {
  auto it = blocks.find({config, eighth});
  return it == blocks.end() ? nullptr : &it->second;
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) value = 0.0;
  metrics_.push_back({name, {value, unit}});
}

void Report::fail(const std::string& why) { errors_.push_back(why); }

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::print() const {
  for (const std::string& n : notes_) std::cout << n << "\n";
  for (const std::string& e : errors_) std::cerr << "VERIFY FAILED: " << e << "\n";
  std::string json =
      util::format("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
                   correct() ? "true" : "false", static_cast<long long>(attempted),
                   static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, value] = metrics_[i];
    if (i != 0) json += ", ";
    json += util::format("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", name.c_str(), value.first,
                         value.second.c_str());
  }
  json += "}}";
  std::cout << json << std::endl;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t n = samples.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

bool parse_hex(const std::string& s, cache::Digest* out) {
  if (s.size() != 32) return false;
  try {
    out->hi = std::stoull(s.substr(0, 16), nullptr, 16);
    out->lo = std::stoull(s.substr(16), nullptr, 16);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

Setup Setup::make(bool with_haven) {
  Setup s;
  s.suites.push_back(eval::build_verilogeval_machine());
  s.suites.push_back(eval::build_verilogeval_human());
  s.suites.push_back(eval::build_verilogeval_v2());
  s.suites.push_back(eval::build_rtllm());
  for (const llm::ModelCard& card : llm::model_zoo()) {
    s.zoo.push_back(llm::make_model(card.name));
  }
  if (with_haven) {
    const Clock::time_point start = Clock::now();
    for (const char* base : {llm::kBaseCodeLlama, llm::kBaseDeepSeek, llm::kBaseCodeQwen}) {
      HavenConfig config;
      config.base_model = base;
      s.haven.push_back(HavenPipeline::build(config));
    }
    s.build_s = seconds_since(start);
  }
  for (const llm::SimLlm& m : s.zoo) s.rows.push_back({&m, nullptr});
  for (const HavenPipeline& p : s.haven) s.rows.push_back({&p.codegen_model(), &p.cot_model()});
  return s;
}

}  // namespace haven::perfbench
