#include "eval/options.h"

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <utility>

#include "util/strings.h"

namespace haven::eval {
namespace {

// One row per flag: the row drives parse(), apply_knob() and the help text,
// so a flag, its serve knob and its documentation cannot drift apart. A
// setter returns nullptr when it took the value and otherwise what the row
// accepts ("an integer >= 0"); parse() and apply_knob() turn that into their
// error message. Numbers go through the strict util::parse_*, so a malformed
// value is never read as zero or as its numeric prefix, and a rejected value
// leaves its target unchanged. A bare boolean flag is its knob's "1".
struct FlagSpec {
  const char* name;   // command-line spelling, including the leading "--"
  const char* knob;   // serve line-protocol key; nullptr = command line only
  const char* value;  // placeholder shown in help; nullptr = boolean flag
  const char* help;   // one-line description for --help
  // Exactly one setter is set: request rows write the EvalRequest (every
  // row with a serve key is one), front-end rows the other options.
  const char* (*request)(EvalRequest& r, const std::string& v);
  const char* (*option)(RequestOptions& o, const std::string& v);
};

// An int in [lo, INT_MAX].
const char* set_int(const std::string& v, long long lo, int* out, const char* want) {
  long long i = 0;
  if (!util::parse_i64(v, &i) || i < lo || i > INT_MAX) return want;
  *out = static_cast<int>(i);
  return nullptr;
}

const char* set_u64(const std::string& v, std::uint64_t* out) {
  return util::parse_u64(v, out) ? nullptr : "an unsigned integer";
}

const char* set_bool(const std::string& v, bool* out) {
  long long i = 0;
  if (!util::parse_i64(v, &i) || (i != 0 && i != 1)) return "0 or 1";
  *out = i != 0;
  return nullptr;
}

// A number in [0, 1], written so that NaN fails too.
const char* set_unit(const std::string& v, double* out, const char* want) {
  double x = 0.0;
  if (!util::parse_f64(v, &x) || !(x >= 0.0 && x <= 1.0)) return want;
  *out = x;
  return nullptr;
}

const char* set_temps(const std::string& v, std::vector<double>* out) {
  constexpr const char* kWant = "a comma-separated list of numbers";
  std::vector<double> temps;
  for (const std::string& field : util::split(v, ',')) {
    const std::string item(util::trim(field));
    double t = 0.0;
    if (item.empty()) continue;
    if (!util::parse_f64(item, &t)) return kWant;
    temps.push_back(t);
  }
  if (temps.empty()) return kWant;
  *out = std::move(temps);
  return nullptr;
}

using Req = EvalRequest;
using Opts = RequestOptions;
using Arg = const std::string&;

constexpr FlagSpec kFlags[] = {
    {"--fast", nullptr, nullptr, "CI-friendly protocol: n=5, single temperature 0.2", nullptr,
     [](Opts& o, Arg) -> const char* {
       o.fast = true;
       o.req.n_samples = 5;  // pass@5 needs k <= n
       o.req.temperatures = {0.2};
       return nullptr;
     }},
    {"--n", "n", "N", "samples per task (pass@k needs k <= n)",
     [](Req& r, Arg v) { return set_int(v, 1, &r.n_samples, "an integer >= 1"); }, nullptr},
    {"--temps", "temps", "a,b,c", "sampling temperatures to sweep",
     [](Req& r, Arg v) { return set_temps(v, &r.temperatures); }, nullptr},
    {"--seed", "seed", "N", "base evaluation seed",
     [](Req& r, Arg v) { return set_u64(v, &r.seed); }, nullptr},
    {"--sicot", "sicot", nullptr, "refine prompts through the SI-CoT pipeline",
     [](Req& r, Arg v) { return set_bool(v, &r.use_sicot); }, nullptr},
    {"--progress", nullptr, nullptr, "coarse progress lines on stderr", nullptr,
     [](Opts& o, Arg) -> const char* {
       o.progress = true;
       return nullptr;
     }},
    {"--threads", nullptr, "N", "worker threads (0 = one per hardware thread)",
     [](Req& r, Arg v) { return set_int(v, INT_MIN, &r.threads, "an integer"); }, nullptr},
    {"--serial", nullptr, nullptr, "single-threaded evaluation (= --threads=1)",
     [](Req& r, Arg) -> const char* {
       r.threads = 1;
       return nullptr;
     },
     nullptr},
    {"--deadline-ms", "unit-deadline", "N", "per-attempt wall-clock deadline (0 = none)",
     [](Req& r, Arg v) { return set_int(v, 0, &r.deadline_ms, "milliseconds >= 0"); }, nullptr},
    {"--retries", "retries", "N", "transient-fault retries per work unit",
     [](Req& r, Arg v) { return set_int(v, 0, &r.retry.max_retries, "an integer >= 0"); },
     nullptr},
    {"--sim-budget", "budget", "N", "simulation step budget per candidate (0 = unbounded)",
     [](Req& r, Arg v) { return set_u64(v, &r.sim_step_budget); }, nullptr},
    {"--inject", nullptr, "P", "chaos-mode fault probability per site", nullptr,
     [](Opts& o, Arg v) { return set_unit(v, &o.inject, "a probability in [0, 1]"); }},
    {"--inject-seed", nullptr, "N", "chaos-mode injection seed", nullptr,
     [](Opts& o, Arg v) { return set_u64(v, &o.inject_seed); }},
    {"--lint", "lint", nullptr, "lint candidates against the golden reference profile",
     [](Req& r, Arg v) { return set_bool(v, &r.lint); }, nullptr},
    {"--lint-triage", "triage", nullptr, "skip simulation when lint proves failure",
     [](Req& r, Arg v) { return set_bool(v, &r.lint_triage); }, nullptr},
    {"--lint-json", nullptr, nullptr, "emit per-candidate findings as JSON (implies --lint)",
     nullptr,
     [](Opts& o, Arg) -> const char* {
       o.req.lint = true;
       o.lint_json = true;
       return nullptr;
     }},
    {"--prove", "prove", nullptr, "formal equivalence fast-path before simulation",
     [](Req& r, Arg v) { return set_bool(v, &r.prove); }, nullptr},
    {"--prove-budget", "prove-budget", "N", "BDD node budget per proof (0 = unbounded)",
     [](Req& r, Arg v) { return set_u64(v, &r.prove_budget); }, nullptr},
    {"--repair-rounds", "repair-rounds", "N",
     "self-repair rounds per failed candidate (0 = off)",
     [](Req& r, Arg v) { return set_int(v, 0, &r.repair.max_rounds, "an integer >= 0"); },
     nullptr},
    {"--repair-budget", "repair-budget", "N",
     "total generations per candidate incl. round 0 (0 = rounds only)",
     [](Req& r, Arg v) { return set_int(v, 0, &r.repair.attempt_budget, "an integer >= 0"); },
     nullptr},
    {"--repair-efficacy", "repair-efficacy", "F", "repair feedback efficacy factor in [0,1]",
     [](Req& r, Arg v) { return set_unit(v, &r.repair.efficacy, "a number in [0, 1]"); },
     nullptr},
    {"--cache", nullptr, nullptr, "in-memory result cache", nullptr,
     [](Opts& o, Arg) -> const char* {
       o.cache = true;
       return nullptr;
     }},
    {"--cache-dir", nullptr, "PATH", "persistent cache artifact directory (implies --cache)",
     nullptr,
     [](Opts& o, Arg v) -> const char* {
       o.cache_dir = v;
       o.cache = true;
       return nullptr;
     }},
    {"--cache-mb", nullptr, "N", "result-cache budget in MiB", nullptr,
     [](Opts& o, Arg v) -> const char* {
       std::uint64_t mb = 0;
       if (!util::parse_u64(v, &mb)) return "a size in MiB";
       o.cache_mb = static_cast<std::size_t>(mb);
       return nullptr;
     }},
    {"--bench-json", nullptr, "PATH", "append a machine-readable run record", nullptr,
     [](Opts& o, Arg v) -> const char* {
       o.bench_json = v;
       return nullptr;
     }},
};

// apply_knob() has only the request to write into.
constexpr bool knobs_set_the_request() {
  for (const FlagSpec& spec : kFlags) {
    if (spec.knob != nullptr && spec.request == nullptr) return false;
  }
  return true;
}
static_assert(knobs_set_the_request(), "a row with a serve key must have a request setter");

std::string render_flag(const FlagSpec& spec) {
  std::string s = spec.name;
  if (spec.value != nullptr) {
    s += "=";
    s += spec.value;
  }
  return s;
}

// Full per-flag listing behind --help.
std::string help_text() {
  std::string out = "Evaluation flags (one grammar for every eval front end):\n";
  for (const FlagSpec& spec : kFlags) {
    out += util::format("  %-28s %s\n", render_flag(spec).c_str(), spec.help);
  }
  out += util::format("  %-28s %s\n", "--help", "print this help and exit");
  return out;
}

}  // namespace

RequestOptions RequestOptions::parse(int argc, char** argv,
                                     std::vector<std::string>* leftover) {
  RequestOptions options;
  auto usage_error = [&](const std::string& message) {
    std::cerr << message << "\n" << flag_help() << "\n";
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0) {
      std::cout << help_text();
      std::exit(0);
    }
    const FlagSpec* matched = nullptr;
    const char* value = nullptr;
    for (const FlagSpec& spec : kFlags) {
      const std::size_t len = std::strlen(spec.name);
      if (std::strncmp(arg, spec.name, len) != 0) continue;
      if (spec.value == nullptr) {
        // Boolean flags match exactly; "--flag=x" is not a boolean match.
        if (arg[len] != '\0') continue;
        matched = &spec;
      } else if (arg[len] == '=') {
        matched = &spec;
        value = arg + len + 1;
      } else if (arg[len] == '\0') {
        if (i + 1 >= argc) usage_error(std::string(spec.name) + " wants a value");
        matched = &spec;
        value = argv[++i];
      } else {
        continue;  // shared prefix of a longer flag (e.g. "--inject" vs "--inject-seed")
      }
      break;
    }
    if (matched != nullptr) {
      const std::string v = value != nullptr ? value : "1";
      const char* want = matched->request != nullptr ? matched->request(options.req, v)
                                                     : matched->option(options, v);
      if (want != nullptr) {
        usage_error(util::format("%s wants %s, not '%s'", matched->name, want, v.c_str()));
      }
    } else if (leftover != nullptr) {
      leftover->push_back(arg);
    } else if (std::strncmp(arg, "--", 2) == 0) {
      usage_error(std::string("unknown flag '") + arg + "'");
    }
    // Bare operands with no sink are silently ignored, matching the old
    // per-bench parsers (benches take no positional arguments).
  }
  if (options.cache) {
    cache::CacheConfig config;
    config.max_bytes = options.cache_mb << 20;
    config.dir = options.cache_dir;
    options.result_cache = std::make_shared<cache::ResultCache>(config);
  }
  return options;
}

const char* RequestOptions::flag_help() {
  // Compact wrapped summary for usage errors, rendered from the same table.
  static const std::string text = [] {
    std::string out = "eval flags:";
    std::size_t column = out.size();
    for (const FlagSpec& spec : kFlags) {
      const std::string flag = render_flag(spec);
      if (column + 1 + flag.size() > 78) {
        out += "\n           ";
        column = 11;
      }
      out += " " + flag;
      column += 1 + flag.size();
    }
    return out;
  }();
  return text.c_str();
}

EvalRequest RequestOptions::request() const {
  EvalRequest r = req;
  r.cache = result_cache.get();
  if (progress) r.on_progress = progress_printer();
  return r;
}

EvalRequest RequestOptions::sicot_request(const llm::SimLlm& cot_model) const {
  EvalRequest r = request();
  r.use_sicot = true;
  r.set_cot_model(cot_model);
  return r;
}

bool apply_knob(EvalRequest& request, const std::string& key, const std::string& value,
                std::string* error) {
  for (const FlagSpec& spec : kFlags) {
    if (spec.knob == nullptr || key != spec.knob) continue;
    if (const char* want = spec.request(request, value)) {
      *error = "knob '" + key + "' wants " + want + ", got '" + value + "'";
      return false;
    }
    return true;
  }
  *error = "unknown knob '" + key + "'";
  return false;
}

ProgressCallback progress_printer() {
  return [](const EvalProgress& p) {
    if (p.total == 0) return;
    const std::size_t step = std::max<std::size_t>(std::size_t{1}, p.total / 10);
    if (p.completed % step == 0 || p.completed == p.total) {
      std::cerr << "    [" << p.completed << "/" << p.total << " candidates]\n";
    }
  };
}

ChaosScope::ChaosScope(const RequestOptions& options) : injector_(options.inject_seed) {
  if (options.inject <= 0.0) return;
  injector_.arm(util::kSiteLlmGenerate, options.inject);
  injector_.arm(util::kSiteEvalCompile, options.inject);
  injector_.arm(util::kSiteSimRun, options.inject);
  injector_.install();
  armed_ = true;
  std::cerr << "  [chaos] injecting faults at p=" << options.inject << " per site (seed "
            << options.inject_seed << ")\n";
}

ChaosScope::~ChaosScope() {
  if (!armed_) return;
  injector_.uninstall();
  std::cerr << "  [chaos] " << injector_.total_injected() << " faults injected ("
            << injector_.injected(util::kSiteLlmGenerate) << " llm, "
            << injector_.injected(util::kSiteEvalCompile) << " compile, "
            << injector_.injected(util::kSiteSimRun) << " sim)\n";
}

}  // namespace haven::eval
