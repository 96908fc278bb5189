#include "eval/options.h"

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "util/strings.h"

namespace haven::eval {
namespace {

// One entry per flag: the spec both drives parse() and renders the help
// text, so a flag and its documentation cannot drift apart. `value` is the
// placeholder shown in help (null = boolean flag). `apply` mutates the
// options; it reports a malformed value by returning false, with *error
// filled or left empty for the generic message (parse() turns either into
// a usage error, exit 2). Numbers go through the strict util::parse_*, so a
// malformed value is never read as zero or as its numeric prefix.
struct FlagSpec {
  const char* name;   // including the leading "--"
  const char* value;  // e.g. "N"; nullptr for boolean flags
  const char* help;   // one-line description for --help
  bool (*apply)(RequestOptions& o, const char* v, std::string* error);
};

bool parse_int(const char* v, int* out) {
  long long i = 0;
  if (!util::parse_i64(v, &i) || i < INT_MIN || i > INT_MAX) return false;
  *out = static_cast<int>(i);
  return true;
}

// [0, 1], written so that NaN fails too.
bool is_unit_interval(double x) { return x >= 0.0 && x <= 1.0; }

const FlagSpec kFlags[] = {
    {"--fast", nullptr, "CI-friendly protocol: n=5, single temperature 0.2",
     [](RequestOptions& o, const char*, std::string*) {
       o.fast = true;
       o.n_samples = 5;  // pass@5 needs k <= n
       o.temperatures = {0.2};
       return true;
     }},
    {"--n", "N", "samples per task (pass@k needs k <= n)",
     [](RequestOptions& o, const char* v, std::string* error) {
       if (!parse_int(v, &o.n_samples) || o.n_samples <= 0) {
         *error = "--n wants a positive sample count";
         return false;
       }
       return true;
     }},
    {"--temps", "a,b,c", "sampling temperatures to sweep",
     [](RequestOptions& o, const char* v, std::string* error) {
       o.temperatures.clear();
       for (const std::string& field : util::split(v, ',')) {
         const std::string item(util::trim(field));
         double t = 0.0;
         if (item.empty()) continue;
         if (!util::parse_f64(item, &t)) return false;
         o.temperatures.push_back(t);
       }
       if (o.temperatures.empty()) {
         *error = "--temps wants e.g. 0.2,0.5,0.8";
         return false;
       }
       return true;
     }},
    {"--seed", "N", "base evaluation seed",
     [](RequestOptions& o, const char* v, std::string*) {
       return util::parse_u64(v, &o.seed);
     }},
    {"--sicot", nullptr, "refine prompts through the SI-CoT pipeline",
     [](RequestOptions& o, const char*, std::string*) {
       o.use_sicot = true;
       return true;
     }},
    {"--progress", nullptr, "coarse progress lines on stderr",
     [](RequestOptions& o, const char*, std::string*) {
       o.progress = true;
       return true;
     }},
    {"--threads", "N", "worker threads (0 = one per hardware thread)",
     [](RequestOptions& o, const char* v, std::string*) { return parse_int(v, &o.threads); }},
    {"--serial", nullptr, "single-threaded evaluation (= --threads=1)",
     [](RequestOptions& o, const char*, std::string*) {
       o.threads = 1;
       return true;
     }},
    {"--deadline-ms", "N", "per-attempt wall-clock deadline (0 = none)",
     [](RequestOptions& o, const char* v, std::string*) {
       return parse_int(v, &o.deadline_ms);
     }},
    {"--retries", "N", "transient-fault retries per work unit",
     [](RequestOptions& o, const char* v, std::string*) { return parse_int(v, &o.retries); }},
    {"--fail-fast", nullptr, "abort the run on the first faulted unit",
     [](RequestOptions& o, const char*, std::string*) {
       o.fail_fast = true;
       return true;
     }},
    {"--sim-budget", "N", "simulation step budget per candidate (0 = unbounded)",
     [](RequestOptions& o, const char* v, std::string*) {
       return util::parse_u64(v, &o.sim_step_budget);
     }},
    {"--sim-backend", "interp|compiled", "simulator backend (verdict-identical)",
     [](RequestOptions& o, const char* v, std::string* error) {
       if (auto backend = sim::parse_backend(v)) {
         o.sim_backend = *backend;
         return true;
       }
       *error = std::string("unknown --sim-backend '") + v + "' (want " +
                std::string(sim::kBackendValues) + ")";
       return false;
     }},
    {"--inject", "P", "chaos-mode fault probability per site",
     [](RequestOptions& o, const char* v, std::string* error) {
       if (!util::parse_f64(v, &o.inject) || !is_unit_interval(o.inject)) {
         *error = "--inject wants a probability in [0, 1]";
         return false;
       }
       return true;
     }},
    {"--inject-seed", "N", "chaos-mode injection seed",
     [](RequestOptions& o, const char* v, std::string*) {
       return util::parse_u64(v, &o.inject_seed);
     }},
    {"--lint", nullptr, "lint candidates against the golden reference profile",
     [](RequestOptions& o, const char*, std::string*) {
       o.lint = true;
       return true;
     }},
    {"--lint-triage", nullptr, "skip simulation when lint proves failure",
     [](RequestOptions& o, const char*, std::string*) {
       o.lint_triage = true;
       return true;
     }},
    {"--lint-json", nullptr, "emit per-candidate findings as JSON (implies --lint)",
     [](RequestOptions& o, const char*, std::string*) {
       o.lint = true;
       o.lint_json = true;
       return true;
     }},
    {"--prove", nullptr, "formal equivalence fast-path before simulation",
     [](RequestOptions& o, const char*, std::string*) {
       o.prove = true;
       return true;
     }},
    {"--no-prove", nullptr, "force proving off",
     [](RequestOptions& o, const char*, std::string*) {
       o.no_prove = true;
       return true;
     }},
    {"--prove-budget", "N", "BDD node budget per proof (0 = unbounded)",
     [](RequestOptions& o, const char* v, std::string*) {
       return util::parse_u64(v, &o.prove_budget);
     }},
    {"--repair-rounds", "N", "self-repair rounds per failed candidate (0 = off)",
     [](RequestOptions& o, const char* v, std::string* error) {
       if (!parse_int(v, &o.repair_rounds) || o.repair_rounds < 0) {
         *error = "--repair-rounds wants an integer >= 0";
         return false;
       }
       return true;
     }},
    {"--repair-budget", "N", "total generations per candidate incl. round 0 (0 = rounds only)",
     [](RequestOptions& o, const char* v, std::string* error) {
       if (!parse_int(v, &o.repair_budget) || o.repair_budget < 0) {
         *error = "--repair-budget wants an integer >= 0";
         return false;
       }
       return true;
     }},
    {"--repair-efficacy", "F", "repair feedback efficacy factor in [0,1]",
     [](RequestOptions& o, const char* v, std::string* error) {
       if (!util::parse_f64(v, &o.repair_efficacy) || !is_unit_interval(o.repair_efficacy)) {
         *error = "--repair-efficacy wants a number in [0, 1]";
         return false;
       }
       return true;
     }},
    {"--cache", nullptr, "in-memory result cache",
     [](RequestOptions& o, const char*, std::string*) {
       o.cache = true;
       return true;
     }},
    {"--no-cache", nullptr, "force caching off",
     [](RequestOptions& o, const char*, std::string*) {
       o.no_cache = true;
       return true;
     }},
    {"--cache-dir", "PATH", "persistent cache artifact directory (implies --cache)",
     [](RequestOptions& o, const char* v, std::string*) {
       o.cache_dir = v;
       o.cache = true;
       return true;
     }},
    {"--cache-mb", "N", "result-cache budget in MiB",
     [](RequestOptions& o, const char* v, std::string*) {
       std::uint64_t mb = 0;
       if (!util::parse_u64(v, &mb)) return false;
       o.cache_mb = static_cast<std::size_t>(mb);
       return true;
     }},
    {"--bench-json", "PATH", "append a machine-readable run record",
     [](RequestOptions& o, const char* v, std::string*) {
       o.bench_json = v;
       return true;
     }},
};

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
        continue;  // shared prefix of a longer flag (e.g. "--n" vs "--no-cache")
      }
      break;
    }
    if (matched != nullptr) {
      std::string error;
      if (!matched->apply(options, value, &error)) {
        usage_error(error.empty() ? util::format("%s wants %s, not '%s'", matched->name,
                                                 matched->value, value)
                                  : error);
      }
    } else if (leftover != nullptr) {
      leftover->push_back(arg);
    } else if (std::strncmp(arg, "--", 2) == 0) {
      usage_error(std::string("unknown flag '") + arg + "'");
    }
    // Bare operands with no sink are silently ignored, matching the old
    // per-bench parsers (benches take no positional arguments).
  }
  if (!options.no_cache && (options.cache || !options.cache_dir.empty())) {
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
  EvalRequest req;
  req.n_samples = n_samples;
  req.temperatures = temperatures;
  req.seed = seed;
  req.use_sicot = use_sicot;
  req.threads = threads;
  req.deadline_ms = deadline_ms;
  req.retry.max_retries = retries;
  req.fail_fast = fail_fast;
  req.sim_step_budget = sim_step_budget;
  req.sim_backend = sim_backend;
  req.lint = lint;
  req.lint_triage = lint_triage;
  req.prove = prove && !no_prove;
  req.prove_budget = prove_budget;
  req.repair.max_rounds = repair_rounds;
  req.repair.attempt_budget = repair_budget;
  req.repair.efficacy = repair_efficacy;
  req.cache = result_cache.get();
  if (progress) req.on_progress = progress_printer();
  return req;
}

EvalRequest RequestOptions::sicot_request(const llm::SimLlm& cot_model) const {
  EvalRequest req = request();
  req.use_sicot = true;
  req.set_cot_model(cot_model);
  return req;
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
