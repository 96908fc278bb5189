// haven::serve — a long-lived, multi-tenant evaluation service.
//
// The Server daemon owns one eval::EvalEngine, one util::ThreadPool, and one
// shared cache::ResultCache for its whole lifetime. Tenants submit EvalJobs
// (an eval::EvalRequest embedded verbatim plus model, suite, and a job-level
// deadline) to a thread-safe queue and get back a JobTicket they can wait
// on, poll, or subscribe to for streaming progress.
//
// Three serving-layer behaviors sit in front of the engine (DESIGN.md §11):
//
//  * Request coalescing. Every job is content-addressed by job_digest(),
//    which binds exactly the inputs that determine the verdict: model
//    identity (name, family, hallucination profile), per-task cache seeds +
//    prompts, and the result-affecting request knobs. A submission whose
//    digest matches a queued/in-flight computation attaches to it; one whose
//    digest matches a completed result in the memo LRU replays it
//    immediately. Either way the tenant's SuiteResult is bit-identical to a
//    solo run — coalescing is sound because the engine itself is
//    deterministic for a fixed request at any thread count. Scheduling-only
//    knobs (threads, external pool, progress callback, cache pointer,
//    simulator backend) are deliberately excluded from the digest: they
//    never change results, so they must not prevent two tenants from sharing
//    one computation.
//
//  * Admission control. Per-tenant token buckets bound the submission rate
//    (ServerConfig::tenant_rate / tenant_burst), and jobs carrying a
//    deadline are rejected upfront when the backlog estimate — (queued +
//    running + own work units) x the EWMA of observed per-unit seconds —
//    says they cannot finish in time. Jobs that were admitted but whose
//    deadline lapses before dispatch expire instead of burning workers.
//
//  * Streaming progress. JobTicket::subscribe attaches any number of
//    eval::ProgressCallbacks to the underlying computation; the engine
//    delivers per-unit completion in index order on the evaluating thread.
//    Subscribers attached to a coalesced ticket observe the shared run.
//
// Threading model: a single dispatcher thread pops jobs and runs them on the
// shared pool (each job fans out internally), so exactly one evaluation is
// in flight at a time and the engine's determinism contract applies
// unchanged. ServeCounters carries the service-level accounting identity
//   submitted == admitted + coalesced + rejected
// with every admitted job eventually completed, failed, or expired.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/hash.h"
#include "cache/result_cache.h"
#include "eval/engine.h"
#include "eval/task.h"
#include "llm/simllm.h"
#include "util/thread_pool.h"

namespace haven::serve {

// Service-level accounting. Identity (serve_counters_consistent):
//   submitted == admitted + coalesced + rejected
// and expired + completed + failed <= admitted (== once drained: every
// admitted job reaches exactly one terminal bucket). The repair tallies
// aggregate the engine's per-job EvalCounters over completed computations
// (coalesced/memoized replays do not double-count) and obey
//   repaired_pass + repair_exhausted <= repair_rounds.
struct ServeCounters {
  std::int64_t submitted = 0;  // submit() calls
  std::int64_t admitted = 0;   // fresh computations queued
  std::int64_t coalesced = 0;  // attached to an in-flight or memoized result
  std::int64_t rejected = 0;   // refused upfront (rate / deadline / shutdown)
  std::int64_t expired = 0;    // admitted, but deadline lapsed before dispatch
  std::int64_t completed = 0;  // admitted computations that finished
  std::int64_t failed = 0;     // admitted computations that threw
  std::int64_t repair_rounds = 0;     // engine repair passes across completions
  std::int64_t repaired_pass = 0;     // candidates rescued by the repair loop
  std::int64_t repair_exhausted = 0;  // candidates that exhausted their rounds
};

bool serve_counters_consistent(const ServeCounters& c);

// One tenant submission: the engine request embedded verbatim plus the
// routing envelope. `request.threads`/`request.pool` are overridden by the
// server's shared pool; `request.cache` defaults to the server's shared
// cache when unset.
struct EvalJob {
  std::string tenant;
  llm::SimLlm model{"", llm::HallucinationProfile{}};
  eval::Suite suite;
  eval::EvalRequest request;
  // Job-level deadline in milliseconds from submission (0 = none): used for
  // upfront feasibility rejection at admission and expiry at dispatch.
  // Distinct from request.deadline_ms, which bounds each unit attempt.
  int deadline_ms = 0;
};

enum class JobStatus {
  kQueued = 0,
  kRunning,
  kDone,
  kFailed,    // the computation threw (e.g. a progress subscriber threw)
  kRejected,  // refused at admission
  kExpired,   // admitted, deadline lapsed before dispatch
};
const char* job_status_name(JobStatus status);
bool is_terminal(JobStatus status);

namespace detail {
struct JobState;
}  // namespace detail

// Handle to a submitted job. Copyable; all copies (and every ticket
// coalesced onto the same computation) share one underlying state.
class JobTicket {
 public:
  JobTicket() = default;

  bool valid() const { return state_ != nullptr; }
  std::uint64_t id() const;
  const std::string& tenant() const;
  // True when this submission attached to another job's computation (or to a
  // memoized result) instead of being admitted as fresh work.
  bool coalesced() const { return coalesced_; }

  JobStatus status() const;
  // Block until the job reaches a terminal status and return it.
  JobStatus wait() const;
  // The SuiteResult; requires status() == kDone (throws std::logic_error
  // otherwise — call wait() first).
  const eval::SuiteResult& result() const;
  // Why the job was rejected / expired / failed ("" otherwise).
  std::string error() const;

  // Attach a streaming-progress subscriber: called per completed work unit,
  // in index order, on the evaluating thread. Subscribing after completion
  // is a harmless no-op; subscribing mid-run observes the remaining units.
  void subscribe(eval::ProgressCallback callback) const;

 private:
  friend class Server;
  JobTicket(std::shared_ptr<detail::JobState> state, bool coalesced)
      : state_(std::move(state)), coalesced_(coalesced) {}

  std::shared_ptr<detail::JobState> state_;
  bool coalesced_ = false;
};

// Token-bucket rate limiter (one per tenant). `burst` is the bucket
// capacity, `rate` the refill in tokens/second; burst <= 0 disables
// limiting. Time is supplied by the caller (the server's injectable clock),
// so policies are testable without sleeping.
class TokenBucket {
 public:
  TokenBucket(double rate, double burst)
      : rate_(rate), burst_(burst), tokens_(burst) {}

  // Take one token at time `now` (seconds, monotonic); false = rate-limited.
  bool try_acquire(double now);
  double tokens() const { return tokens_; }
  // True when a refill at `now` returns the bucket to full burst (or
  // limiting is disabled): no admission state distinguishes it from a
  // freshly constructed bucket, so it can be dropped and rebuilt on demand.
  bool idle(double now) const;
  // Time of the last try_acquire (0 before the first): the eviction key for
  // the server's bucket-map cap.
  double last_seen() const { return last_; }

 private:
  double rate_;
  double burst_;
  double tokens_;
  double last_ = 0.0;
  bool primed_ = false;
};

struct ServerConfig {
  // Shared pool width (0 = one worker per hardware thread).
  int threads = 0;
  // Per-tenant admission rate: bucket of `tenant_burst` tokens refilled at
  // `tenant_rate`/s; one token per submission. tenant_burst <= 0 = no limit.
  double tenant_rate = 0.0;
  double tenant_burst = 0.0;
  // Hard cap on tracked tenant buckets, so memory stays bounded under
  // hostile tenant-name churn. Idle (refilled-to-burst) buckets are shed
  // first; past the cap the coldest bucket is evicted, returning that
  // tenant to a fresh full burst. 0 = unbounded.
  std::size_t tenant_bucket_capacity = 1024;
  // Completed-result memo (digest -> SuiteResult) LRU capacity, in entries.
  std::size_t memo_capacity = 64;
  // Backlog estimator: EWMA over observed per-unit seconds. The initial
  // value bootstraps feasibility checks before the first completion
  // (0 = estimate nothing, admit everything until calibrated).
  double ewma_alpha = 0.3;
  double initial_unit_seconds = 0.0;
  // Shared result cache: external, or (when null) server-owned in-memory
  // with this budget.
  std::shared_ptr<cache::ResultCache> cache;
  std::size_t cache_mb = 256;
  // Monotonic clock in seconds, injectable for deterministic tests
  // (null = std::chrono::steady_clock).
  std::function<double()> clock;
};

class Server {
 public:
  explicit Server(ServerConfig config = {});
  // stop(): expires anything still queued, finishes the running job, joins.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Enqueue a job (thread-safe). Always returns a ticket; rejected
  // submissions come back already terminal with status kRejected.
  JobTicket submit(EvalJob job);

  // Stop admitting and block until the queue is empty and the in-flight job
  // (if any) finished. The server stays alive for stats()/result reads;
  // later submits are rejected.
  void drain();

  // Stop admitting, expire every queued job, finish the running one, join
  // the dispatcher. Idempotent.
  void stop();

  ServeCounters stats() const;
  // Current backlog estimate for a hypothetical job of `units` work units,
  // in seconds (0 when the estimator is uncalibrated).
  double estimate_seconds(std::size_t units) const;
  // Tenant buckets currently tracked (bounded by tenant_bucket_capacity).
  std::size_t tenant_bucket_count() const;

  const cache::ResultCache* cache() const { return cache_.get(); }
  std::size_t pool_width() const { return pool_->worker_count(); }

 private:
  void dispatcher_loop();
  void finish_running_marker(const std::shared_ptr<detail::JobState>& state);
  // Requires mutex_ held.
  void memo_insert_locked(const cache::Digest& digest, const eval::SuiteResult& result);
  // Requires mutex_ held. Sheds idle buckets, then enforces the hard cap.
  void prune_buckets_locked(double now);
  double now() const { return clock_(); }

  ServerConfig config_;
  std::function<double()> clock_;
  std::shared_ptr<cache::ResultCache> cache_;
  std::unique_ptr<util::ThreadPool> pool_;
  // The one engine every computation runs through; its request is swapped
  // per job by the (single) dispatcher thread.
  eval::EvalEngine engine_;

  mutable std::mutex mutex_;
  std::condition_variable cv_queue_;  // dispatcher wakeup
  std::condition_variable cv_idle_;   // drain() wakeup
  std::deque<std::shared_ptr<detail::JobState>> queue_;
  // Digest -> queued-or-running computation (coalescing attach point).
  std::map<cache::Digest, std::shared_ptr<detail::JobState>> inflight_;
  // Completed-result memo, most-recently-used at the front.
  std::list<std::pair<cache::Digest, eval::SuiteResult>> memo_;
  std::map<cache::Digest, std::list<std::pair<cache::Digest, eval::SuiteResult>>::iterator>
      memo_index_;
  std::map<std::string, TokenBucket> buckets_;
  ServeCounters counters_;
  std::size_t queued_units_ = 0;
  std::size_t running_units_ = 0;
  bool job_running_ = false;
  double unit_seconds_ewma_ = 0.0;
  bool accepting_ = true;
  bool stop_dispatch_ = false;
  std::uint64_t next_id_ = 1;
  std::thread dispatcher_;
};

// Content address of one job's computation: everything that determines the
// SuiteResult (model identity incl. hallucination profile, suite tasks via
// their cache seeds + prompts, result-affecting request knobs) and nothing
// that does not (threads, pool, progress, cache pointer, simulator backend).
cache::Digest job_digest(const llm::SimLlm& model, const eval::Suite& suite,
                         const eval::EvalRequest& request);

// Digest of a SuiteResult's deterministic verdict fields (suite, model,
// reported temperature, per-task tallies, verdict counters). Two runs of the
// same job digest to the same value at any thread count; the line protocol
// reports it so clients can check bit-identical replays.
cache::Digest verdict_digest(const eval::SuiteResult& result);

// Work units a job fans out into (temperatures x tasks x samples).
std::size_t job_units(const EvalJob& job);

}  // namespace haven::serve
