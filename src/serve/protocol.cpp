#include "serve/protocol.h"

#include <algorithm>
#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <utility>
#include <vector>

#include "eval/suites.h"
#include "llm/model_zoo.h"
#include "sim/backend.h"
#include "util/strings.h"

namespace haven::serve {

namespace {

bool build_suite(const std::string& name, eval::Suite* out) {
  if (name == "machine") *out = eval::build_verilogeval_machine();
  else if (name == "human") *out = eval::build_verilogeval_human();
  else if (name == "v2") *out = eval::build_verilogeval_v2();
  else if (name == "rtllm") *out = eval::build_rtllm();
  else if (name == "symbolic44") *out = eval::build_symbolic44();
  else return false;
  return true;
}

std::string result_line(const std::string& id_field, const eval::SuiteResult& result,
                        bool coalesced) {
  // pass@k needs k <= n for every task; clamp k to the smallest sample count
  // so low-n service jobs still get a defined value, and label the field
  // with the k actually reported (pass2= for the default n=2 job, never a
  // pass@2 value masquerading as pass5=).
  int k = 5;
  for (const eval::TaskResult& task : result.per_task) k = std::min(k, task.n);
  k = std::max(k, 1);
  return util::format(
      "RESULT %s done pass1=%.6f pass%d=%.6f candidates=%lld coalesced=%d verdict=%s",
      id_field.c_str(), result.pass_at(1), k, result.pass_at(k),
      static_cast<long long>(result.counters.candidates), coalesced ? 1 : 0,
      cache::to_hex(verdict_digest(result)).c_str());
}

}  // namespace

bool parse_job(const std::string& tenant, const std::string& model_name,
               const std::string& suite_name, const std::vector<std::string>& knobs,
               EvalJob* out, std::string* error) {
  if (llm::find_model_card(model_name) == nullptr) {
    *error = "unknown model '" + model_name + "'";
    return false;
  }
  EvalJob job;
  job.tenant = tenant;
  job.model = llm::make_model(model_name);
  if (!build_suite(suite_name, &job.suite)) {
    *error = "unknown suite '" + suite_name + "' (want machine|human|v2|rtllm|symbolic44)";
    return false;
  }
  // Service-friendly defaults; every knob below overrides.
  job.request.n_samples = 2;
  job.request.temperatures = {0.2};
  for (const std::string& knob : knobs) {
    const std::size_t eq = knob.find('=');
    if (eq == std::string::npos) {
      *error = "malformed knob '" + knob + "' (want k=v)";
      return false;
    }
    const std::string key = knob.substr(0, eq);
    const std::string value = knob.substr(eq + 1);
    auto bad = [&](const char* want) {
      *error = "knob '" + key + "' wants " + want + ", got '" + value + "'";
      return false;
    };
    constexpr long long kIntMax = std::numeric_limits<int>::max();
    long long i = 0;
    std::uint64_t u = 0;
    if (key == "n") {
      if (!util::parse_i64(value, &i) || i < 1 || i > kIntMax) return bad("an integer >= 1");
      job.request.n_samples = static_cast<int>(i);
    } else if (key == "temps") {
      std::vector<double> temps;
      for (const std::string& field : util::split(value, ',')) {
        const std::string trimmed{util::trim(field)};
        if (trimmed.empty()) continue;
        double t = 0.0;
        if (!util::parse_f64(trimmed, &t)) return bad("a comma-separated list of numbers");
        temps.push_back(t);
      }
      if (temps.empty()) return bad("a comma-separated list of numbers");
      job.request.temperatures = std::move(temps);
    } else if (key == "seed") {
      if (!util::parse_u64(value, &u)) return bad("an unsigned integer");
      job.request.seed = u;
    } else if (key == "tasks") {
      if (!util::parse_u64(value, &u) || u < 1) return bad("an integer >= 1");
      if (job.suite.tasks.size() > u) job.suite.tasks.resize(u);
    } else if (key == "sicot") {
      if (!util::parse_i64(value, &i) || (i != 0 && i != 1)) return bad("0 or 1");
      job.request.use_sicot = i != 0;
    } else if (key == "lint") {
      if (!util::parse_i64(value, &i) || (i != 0 && i != 1)) return bad("0 or 1");
      job.request.lint = i != 0;
    } else if (key == "triage") {
      if (!util::parse_i64(value, &i) || (i != 0 && i != 1)) return bad("0 or 1");
      job.request.lint_triage = i != 0;
    } else if (key == "deadline") {
      if (!util::parse_i64(value, &i) || i < 0 || i > kIntMax) return bad("milliseconds >= 0");
      job.deadline_ms = static_cast<int>(i);
    } else if (key == "unit-deadline") {
      if (!util::parse_i64(value, &i) || i < 0 || i > kIntMax) return bad("milliseconds >= 0");
      job.request.deadline_ms = static_cast<int>(i);
    } else if (key == "budget") {
      if (!util::parse_u64(value, &u)) return bad("an unsigned integer");
      job.request.sim_step_budget = u;
    } else if (key == "backend") {
      // Validated, never silently defaulted: an unknown backend is an ERR
      // naming the accepted values, same policy as every other knob.
      if (const auto backend = sim::parse_backend(value)) {
        job.request.sim_backend = *backend;
      } else {
        return bad(std::string(sim::kBackendValues).c_str());
      }
    } else if (key == "prove") {
      if (!util::parse_i64(value, &i) || (i != 0 && i != 1)) return bad("0 or 1");
      job.request.prove = i != 0;
    } else if (key == "prove-budget") {
      if (!util::parse_u64(value, &u)) return bad("an unsigned integer");
      job.request.prove_budget = u;
    } else if (key == "repair") {
      // repair=1 turns the loop on with the default round count unless
      // repair-rounds= already picked one; repair=0 forces it off.
      if (!util::parse_i64(value, &i) || (i != 0 && i != 1)) return bad("0 or 1");
      if (i == 0) {
        job.request.repair.max_rounds = 0;
      } else if (job.request.repair.max_rounds == 0) {
        job.request.repair.max_rounds = 2;
      }
    } else if (key == "repair-rounds") {
      if (!util::parse_i64(value, &i) || i < 0 || i > kIntMax) return bad("an integer >= 0");
      job.request.repair.max_rounds = static_cast<int>(i);
    } else if (key == "repair-budget") {
      if (!util::parse_i64(value, &i) || i < 0 || i > kIntMax) return bad("an integer >= 0");
      job.request.repair.attempt_budget = static_cast<int>(i);
    } else if (key == "repair-efficacy") {
      double f = 0.0;
      if (!util::parse_f64(value, &f) || f < 0.0 || f > 1.0) return bad("a number in [0, 1]");
      job.request.repair.efficacy = f;
    } else if (key == "retries") {
      if (!util::parse_i64(value, &i) || i < 0 || i > kIntMax) return bad("an integer >= 0");
      job.request.retry.max_retries = static_cast<int>(i);
    } else if (key == "fail-fast") {
      if (!util::parse_i64(value, &i) || (i != 0 && i != 1)) return bad("0 or 1");
      job.request.fail_fast = i != 0;
    } else {
      *error = "unknown knob '" + key + "'";
      return false;
    }
  }
  *out = std::move(job);
  return true;
}

std::size_t LineServer::run() {
  std::size_t handled = 0;
  std::string line;
  while (std::getline(in_, line)) {
    const std::string trimmed{util::trim(line)};
    if (trimmed.empty() || trimmed[0] == '#') continue;
    ++handled;
    if (trimmed == "QUIT") break;
    handle(trimmed);
  }
  return handled;
}

void LineServer::report(std::uint64_t id, const JobTicket& ticket) {
  const JobStatus status = ticket.wait();
  if (status == JobStatus::kDone) {
    out_ << result_line(util::format("%llu", static_cast<unsigned long long>(id)),
                        ticket.result(), ticket.coalesced())
         << "\n";
  } else {
    out_ << "RESULT " << id << " " << job_status_name(status) << " " << ticket.error()
         << "\n";
  }
}

void LineServer::handle(const std::string& line) {
  const std::vector<std::string> words = util::split_ws(line);
  const std::string& command = words.front();

  if (command == "SUBMIT") {
    if (words.size() < 4) {
      out_ << "ERR usage: SUBMIT <tenant> <model> <suite> [k=v ...]\n";
      return;
    }
    EvalJob job;
    std::string error;
    const std::vector<std::string> knobs(words.begin() + 4, words.end());
    if (!parse_job(words[1], words[2], words[3], knobs, &job, &error)) {
      out_ << "ERR " << error << "\n";
      return;
    }
    const JobTicket ticket = server_.submit(std::move(job));
    const std::uint64_t client_id = next_client_id_++;
    tickets_.emplace(client_id, ticket);
    const JobStatus status = ticket.status();
    if (status == JobStatus::kRejected) {
      out_ << "JOB " << client_id << " rejected " << ticket.error() << "\n";
    } else if (ticket.coalesced()) {
      out_ << "JOB " << client_id << " "
           << (status == JobStatus::kDone ? "done" : "coalesced") << "\n";
    } else {
      out_ << "JOB " << client_id << " queued\n";
    }
    return;
  }

  if (command == "WAIT") {
    if (words.size() != 2) {
      out_ << "ERR usage: WAIT <id>|*\n";
      return;
    }
    if (words[1] == "*") {
      for (const auto& [id, ticket] : tickets_) report(id, ticket);
      return;
    }
    const std::uint64_t id = std::strtoull(words[1].c_str(), nullptr, 10);
    const auto it = tickets_.find(id);
    if (it == tickets_.end()) {
      out_ << "ERR unknown job id '" << words[1] << "'\n";
      return;
    }
    report(it->first, it->second);
    return;
  }

  if (command == "ONESHOT") {
    if (words.size() < 3) {
      out_ << "ERR usage: ONESHOT <model> <suite> [k=v ...]\n";
      return;
    }
    EvalJob job;
    std::string error;
    const std::vector<std::string> knobs(words.begin() + 3, words.end());
    if (!parse_job("oneshot", words[1], words[2], knobs, &job, &error)) {
      out_ << "ERR " << error << "\n";
      return;
    }
    try {
      const eval::SuiteResult result =
          eval::EvalEngine(job.request).evaluate(job.model, job.suite);
      out_ << result_line("oneshot", result, false) << "\n";
    } catch (const std::exception& e) {
      out_ << "RESULT oneshot failed " << e.what() << "\n";
    }
    return;
  }

  if (command == "STATS") {
    // Field names and order are part of the wire contract (tests parse this
    // line golden); append, never reorder.
    const ServeCounters c = server_.stats();
    out_ << util::format(
        "STATS submitted=%lld admitted=%lld coalesced=%lld rejected=%lld "
        "expired=%lld completed=%lld failed=%lld repair-rounds=%lld repaired=%lld "
        "repair-exhausted=%lld",
        static_cast<long long>(c.submitted), static_cast<long long>(c.admitted),
        static_cast<long long>(c.coalesced), static_cast<long long>(c.rejected),
        static_cast<long long>(c.expired), static_cast<long long>(c.completed),
        static_cast<long long>(c.failed), static_cast<long long>(c.repair_rounds),
        static_cast<long long>(c.repaired_pass), static_cast<long long>(c.repair_exhausted))
         << "\n";
    return;
  }

  if (command == "DRAIN") {
    server_.drain();
    out_ << "DRAINED\n";
    return;
  }

  out_ << "ERR unknown command '" << command << "'\n";
}

}  // namespace haven::serve
