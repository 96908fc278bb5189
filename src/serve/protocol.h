// Line protocol front end for haven::serve — one command per line on an
// istream, one reply line (or a small block) per command on an ostream.
// Drives a Server over stdin/stdout in serve_demo and the CI smoke job.
//
// Commands (case-sensitive; [k=v ...] are optional knobs):
//   SUBMIT <tenant> <model> <suite> [k=v ...]
//       -> JOB <id> queued|coalesced|done
//       -> JOB <id> rejected <reason>
//   WAIT <id>|*
//       -> RESULT <id> done pass1=<f> pass<k>=<f> candidates=<n>
//                  coalesced=<0|1> verdict=<32-hex>
//          (k = min(5, smallest per-task n): the label always names the k
//           actually reported, e.g. pass2= for the default n=2 job)
//       -> RESULT <id> failed|rejected|expired <reason>
//   ONESHOT <model> <suite> [k=v ...]
//       -> RESULT oneshot done pass1=... verdict=<32-hex>
//       (runs a fresh EvalEngine directly, bypassing the server — the
//        reference a coalesced verdict must be bit-identical to)
//   STATS   -> STATS submitted=.. admitted=.. coalesced=.. rejected=..
//              expired=.. completed=.. failed=..
//   DRAIN   -> DRAINED
//   QUIT    -> ends the session (EOF does too)
//
// Job knobs: tasks=<truncate suite to N> deadline=<job ms>
//            repair=<0|1> (1 = repair-rounds=2 unless already set)
// Request knobs, read through eval::apply_knob from the same flag table as
// the command line, with the same ranges (the flag in parentheses):
//   n=<samples> temps=<a,b,c> seed=<u64> sicot=<0|1> lint=<0|1>
//   triage=<0|1> (--lint-triage)  unit-deadline=<ms> (--deadline-ms)
//   budget=<sim steps> (--sim-budget)  retries=<n>  prove=<0|1>
//   prove-budget=<nodes>  repair-rounds=<n>  repair-budget=<n>
//   repair-efficacy=<0..1>
// Suites: machine | human | v2 | rtllm | symbolic44.
// Unknown commands/models/suites/knobs — and malformed or out-of-range knob
// values (e.g. n=abc, tasks=0) — answer "ERR <reason>" and the session
// continues.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "serve/serve.h"

namespace haven::serve {

class LineServer {
 public:
  LineServer(Server& server, std::istream& in, std::ostream& out)
      : server_(server), in_(in), out_(out) {}

  // Process commands until QUIT or EOF. Returns the number of commands
  // handled (ERR replies included).
  std::size_t run();

 private:
  void handle(const std::string& line);
  void report(std::uint64_t id, const JobTicket& ticket);

  Server& server_;
  std::istream& in_;
  std::ostream& out_;
  std::map<std::uint64_t, JobTicket> tickets_;
  std::uint64_t next_client_id_ = 1;
};

// Build an EvalJob from protocol operands. Returns false (with *error set)
// on an unknown model/suite/knob or a malformed/out-of-range knob value.
// Exposed for serve_test.
bool parse_job(const std::string& tenant, const std::string& model_name,
               const std::string& suite_name,
               const std::vector<std::string>& knobs, EvalJob* out, std::string* error);

}  // namespace haven::serve
