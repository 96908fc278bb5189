#include "serve/protocol.h"

#include <algorithm>
#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <utility>
#include <vector>

#include "eval/options.h"
#include "eval/suites.h"
#include "llm/model_zoo.h"
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
  // Labelled with the k actually reported (pass2= for the default n=2 job,
  // never a pass@2 value masquerading as pass5=).
  const int k = result.reported_k();
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
  // Service-friendly defaults; every knob below overrides. The job-level
  // keys are read here; every request knob goes through the shared flag
  // table (eval::apply_knob), with the same ranges as its command-line flag.
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
    long long i = 0;
    std::uint64_t u = 0;
    if (key == "tasks") {
      if (!util::parse_u64(value, &u) || u < 1) return bad("an integer >= 1");
      if (job.suite.tasks.size() > u) job.suite.tasks.resize(u);
    } else if (key == "deadline") {
      if (!util::parse_i64(value, &i) || i < 0 || i > std::numeric_limits<int>::max()) {
        return bad("milliseconds >= 0");
      }
      job.deadline_ms = static_cast<int>(i);
    } else if (key == "repair") {
      // repair=1 turns the loop on with the default round count unless
      // repair-rounds= already picked one; repair=0 forces it off.
      if (!util::parse_i64(value, &i) || (i != 0 && i != 1)) return bad("0 or 1");
      if (i == 0) {
        job.request.repair.max_rounds = 0;
      } else if (job.request.repair.max_rounds == 0) {
        job.request.repair.max_rounds = 2;
      }
    } else if (!eval::apply_knob(job.request, key, value, error)) {
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
    std::uint64_t id = 0;
    const auto it = util::parse_u64(words[1], &id) ? tickets_.find(id) : tickets_.end();
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
