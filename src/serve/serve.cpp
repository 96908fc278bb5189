#include "serve/serve.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "eval/cache_io.h"
#include "llm/hallucination.h"
#include "util/strings.h"

namespace haven::serve {

namespace detail {

// Shared state behind a JobTicket. The server's dispatcher and any number of
// ticket holders (including coalesced ones) synchronize on `m`/`cv`; the
// routing fields above them are written once at submit time.
struct JobState {
  std::uint64_t id = 0;
  EvalJob job;
  cache::Digest digest;
  std::size_t units = 0;
  double submit_time = 0.0;

  mutable std::mutex m;
  mutable std::condition_variable cv;
  JobStatus status = JobStatus::kQueued;
  eval::SuiteResult result;
  std::string error;
  std::vector<eval::ProgressCallback> subscribers;
};

}  // namespace detail

using detail::JobState;

// --- counters / small helpers ----------------------------------------------

bool serve_counters_consistent(const ServeCounters& c) {
  const std::int64_t values[] = {c.submitted,     c.admitted,      c.coalesced,
                                 c.rejected,      c.expired,       c.completed,
                                 c.failed,        c.repair_rounds, c.repaired_pass,
                                 c.repair_exhausted};
  for (std::int64_t v : values) {
    if (v < 0) return false;
  }
  if (c.submitted != c.admitted + c.coalesced + c.rejected) return false;
  if (c.expired + c.completed + c.failed > c.admitted) return false;
  if (c.repaired_pass + c.repair_exhausted > c.repair_rounds) return false;
  return true;
}

const char* job_status_name(JobStatus status) {
  switch (status) {
    case JobStatus::kQueued: return "queued";
    case JobStatus::kRunning: return "running";
    case JobStatus::kDone: return "done";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kRejected: return "rejected";
    case JobStatus::kExpired: return "expired";
  }
  return "unknown";
}

bool is_terminal(JobStatus status) {
  return status == JobStatus::kDone || status == JobStatus::kFailed ||
         status == JobStatus::kRejected || status == JobStatus::kExpired;
}

std::size_t job_units(const EvalJob& job) {
  if (job.request.n_samples <= 0) return 0;
  return job.request.temperatures.size() * job.suite.tasks.size() *
         static_cast<std::size_t>(job.request.n_samples);
}

// --- digests ----------------------------------------------------------------

namespace {

void hash_profile(cache::Hasher& h, const llm::HallucinationProfile& profile) {
  for (int axis = 0; axis < llm::kNumHalluAxes; ++axis) {
    h.u64(std::bit_cast<std::uint64_t>(
        llm::profile_axis(profile, static_cast<llm::HalluAxis>(axis))));
  }
}

}  // namespace

cache::Digest job_digest(const llm::SimLlm& model, const eval::Suite& suite,
                         const eval::EvalRequest& request) {
  cache::Hasher h;
  h.bytes("haven.serve.job.v1");
  // Model identity: name + family key the systematic draws, the profile the
  // stochastic ones.
  h.bytes(model.name()).bytes(model.family());
  hash_profile(h, model.profile());
  // Suite identity: per-task cache seed (id, golden, stimulus, budget, lint
  // mode) plus the two generation-side inputs the cache seed does not cover.
  const eval::CacheLintMode lint_mode = request.lint_triage ? eval::CacheLintMode::kTriage
                                        : request.lint      ? eval::CacheLintMode::kObserve
                                                            : eval::CacheLintMode::kOff;
  h.bytes(suite.name);
  h.u64(suite.tasks.size());
  for (const eval::EvalTask& task : suite.tasks) {
    const cache::Digest seed =
        eval::task_cache_seed(task, request.sim_step_budget, lint_mode, request.prove,
                              request.prove_budget, &request.repair);
    h.u64(seed.hi).u64(seed.lo);
    h.bytes(task.prompt);
    h.u32(static_cast<std::uint32_t>(task.modality));
  }
  // Result-affecting request knobs. threads/pool/on_progress/cache and the
  // simulator backend (verdict- and counter-identical, DESIGN.md §10) never
  // change results and are deliberately excluded.
  h.i32(request.n_samples);
  h.u64(request.temperatures.size());
  for (double t : request.temperatures) h.u64(std::bit_cast<std::uint64_t>(t));
  h.boolean(request.use_sicot);
  h.u64(request.seed);
  h.boolean(request.lint).boolean(request.lint_triage);
  // prove is result-affecting in the counter/coalescing sense: two jobs that
  // differ only in prove mode report different counter breakdowns, so they
  // must not coalesce (verdicts, by contract, are identical either way).
  h.boolean(request.prove);
  h.u64(request.prove_budget);
  // Repair knobs bind only when the loop is enabled — the disabled default
  // hashes nothing, so repair-off digests (and their coalescing decisions)
  // stay bit-identical to the pre-repair service.
  if (request.repair.enabled()) {
    h.bytes("repair");
    h.i32(request.repair.max_rounds).i32(request.repair.attempt_budget);
    h.boolean(request.repair.stop_on_pass);
    h.u64(std::bit_cast<std::uint64_t>(request.repair.efficacy));
  }
  h.i32(request.deadline_ms);
  h.u64(request.sim_step_budget);
  h.i32(request.retry.max_retries);
  h.boolean(request.has_cot_model());
  if (request.has_cot_model()) {
    const llm::SimLlm& cot = request.cot_model();
    h.bytes(cot.name()).bytes(cot.family());
    hash_profile(h, cot.profile());
  }
  return h.digest();
}

cache::Digest verdict_digest(const eval::SuiteResult& result) {
  cache::Hasher h;
  h.bytes("haven.serve.verdict.v1");
  h.bytes(result.suite_name).bytes(result.model_name);
  h.u64(std::bit_cast<std::uint64_t>(result.temperature));
  h.u64(result.per_task.size());
  for (const eval::TaskResult& task : result.per_task) {
    h.bytes(task.task_id);
    h.u32(static_cast<std::uint32_t>(task.modality));
    h.i32(task.n).i32(task.syntax_pass).i32(task.func_pass);
  }
  return h.digest();
}

// --- TokenBucket ------------------------------------------------------------

bool TokenBucket::try_acquire(double now) {
  if (burst_ <= 0.0) return true;  // limiting disabled
  if (!primed_) {
    last_ = now;
    primed_ = true;
  }
  tokens_ = std::min(burst_, tokens_ + rate_ * std::max(0.0, now - last_));
  last_ = now;
  if (tokens_ >= 1.0) {
    tokens_ -= 1.0;
    return true;
  }
  return false;
}

bool TokenBucket::idle(double now) const {
  if (burst_ <= 0.0 || !primed_) return true;
  return tokens_ + rate_ * std::max(0.0, now - last_) >= burst_;
}

// --- JobTicket --------------------------------------------------------------

namespace {

JobState& deref(const std::shared_ptr<JobState>& state) {
  if (state == nullptr) throw std::logic_error("JobTicket: empty ticket");
  return *state;
}

}  // namespace

std::uint64_t JobTicket::id() const { return deref(state_).id; }

const std::string& JobTicket::tenant() const { return deref(state_).job.tenant; }

JobStatus JobTicket::status() const {
  JobState& s = deref(state_);
  std::lock_guard<std::mutex> lock(s.m);
  return s.status;
}

JobStatus JobTicket::wait() const {
  JobState& s = deref(state_);
  std::unique_lock<std::mutex> lock(s.m);
  s.cv.wait(lock, [&s] { return is_terminal(s.status); });
  return s.status;
}

const eval::SuiteResult& JobTicket::result() const {
  JobState& s = deref(state_);
  std::lock_guard<std::mutex> lock(s.m);
  if (s.status != JobStatus::kDone) {
    throw std::logic_error(std::string("JobTicket::result: job is ") +
                           job_status_name(s.status));
  }
  return s.result;
}

std::string JobTicket::error() const {
  JobState& s = deref(state_);
  std::lock_guard<std::mutex> lock(s.m);
  return s.error;
}

void JobTicket::subscribe(eval::ProgressCallback callback) const {
  if (!callback) return;
  JobState& s = deref(state_);
  std::lock_guard<std::mutex> lock(s.m);
  if (is_terminal(s.status)) return;  // nothing left to stream
  s.subscribers.push_back(std::move(callback));
}

// --- Server -----------------------------------------------------------------

namespace {

// Mark a job terminal and wake every waiter. Never called with the server
// mutex held by callers that also take state->m elsewhere under it —
// lock order is always server mutex_ strictly before state->m or disjoint.
void finish(const std::shared_ptr<JobState>& state, JobStatus status, std::string error,
            eval::SuiteResult* result = nullptr) {
  {
    std::lock_guard<std::mutex> lock(state->m);
    if (result != nullptr) state->result = std::move(*result);
    state->error = std::move(error);
    state->status = status;
  }
  state->cv.notify_all();
}

}  // namespace

Server::Server(ServerConfig config) : config_(std::move(config)) {
  clock_ = config_.clock ? config_.clock : [] {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };
  cache_ = config_.cache;
  if (cache_ == nullptr) {
    cache::CacheConfig cache_config;
    cache_config.max_bytes = config_.cache_mb << 20;
    cache_ = std::make_shared<cache::ResultCache>(cache_config);
  }
  pool_ = std::make_unique<util::ThreadPool>(
      config_.threads <= 0 ? 0 : static_cast<std::size_t>(config_.threads));
  unit_seconds_ewma_ = config_.initial_unit_seconds;
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

Server::~Server() { stop(); }

JobTicket Server::submit(EvalJob job) {
  auto state = std::make_shared<JobState>();
  state->job = std::move(job);
  state->digest = job_digest(state->job.model, state->job.suite, state->job.request);
  state->units = job_units(state->job);
  // The tenant's own progress callback is subscriber #0 of its computation.
  if (state->job.request.on_progress) {
    state->subscribers.push_back(state->job.request.on_progress);
  }

  std::lock_guard<std::mutex> lock(mutex_);
  state->id = next_id_++;
  state->submit_time = now();
  ++counters_.submitted;

  auto reject = [&](std::string why) {
    ++counters_.rejected;
    state->status = JobStatus::kRejected;  // state not yet shared: no lock needed
    state->error = std::move(why);
    return JobTicket(state, false);
  };

  if (!accepting_) return reject("server is not accepting jobs");

  auto [bucket, inserted] = buckets_.try_emplace(
      state->job.tenant, TokenBucket(config_.tenant_rate, config_.tenant_burst));
  const bool acquired = bucket->second.try_acquire(state->submit_time);
  // Bound the bucket map before (possibly) rejecting, so hostile tenant-name
  // churn cannot grow it without limit. `bucket` is invalid past this point.
  if (inserted && config_.tenant_bucket_capacity > 0 &&
      buckets_.size() > config_.tenant_bucket_capacity) {
    prune_buckets_locked(state->submit_time);
  }
  if (!acquired) {
    return reject("tenant '" + state->job.tenant + "' rate-limited");
  }

  // Coalesce against the completed-result memo: replay immediately.
  if (auto hit = memo_index_.find(state->digest); hit != memo_index_.end()) {
    memo_.splice(memo_.begin(), memo_, hit->second);
    ++counters_.coalesced;
    state->result = hit->second->second;
    state->status = JobStatus::kDone;
    return JobTicket(state, true);
  }

  // Coalesce against a queued/running computation: attach to it.
  if (auto inflight = inflight_.find(state->digest); inflight != inflight_.end()) {
    ++counters_.coalesced;
    if (state->job.request.on_progress) {
      std::lock_guard<std::mutex> state_lock(inflight->second->m);
      inflight->second->subscribers.push_back(state->job.request.on_progress);
    }
    return JobTicket(inflight->second, true);
  }

  // Deadline-aware upfront rejection: don't admit work the backlog estimate
  // says cannot finish in time.
  if (state->job.deadline_ms > 0 && unit_seconds_ewma_ > 0.0) {
    const double estimate_s =
        static_cast<double>(queued_units_ + running_units_ + state->units) *
        unit_seconds_ewma_;
    if (estimate_s * 1000.0 > static_cast<double>(state->job.deadline_ms)) {
      return reject(util::format("deadline %dms infeasible: backlog estimate %.0fms",
                                 state->job.deadline_ms, estimate_s * 1000.0));
    }
  }

  ++counters_.admitted;
  queue_.push_back(state);
  inflight_[state->digest] = state;
  queued_units_ += state->units;
  cv_queue_.notify_one();
  return JobTicket(state, false);
}

void Server::dispatcher_loop() {
  for (;;) {
    std::shared_ptr<JobState> state;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_queue_.wait(lock, [this] { return stop_dispatch_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_dispatch_) return;
        continue;
      }
      state = queue_.front();
      queue_.pop_front();
      queued_units_ -= state->units;
      // Expiry: admitted, but the job deadline lapsed while queued.
      if (state->job.deadline_ms > 0 &&
          (now() - state->submit_time) * 1000.0 >
              static_cast<double>(state->job.deadline_ms)) {
        inflight_.erase(state->digest);
        ++counters_.expired;
        finish(state, JobStatus::kExpired, "job deadline lapsed before dispatch");
        cv_idle_.notify_all();
        continue;
      }
      running_units_ += state->units;
      job_running_ = true;
    }

    finish_running_marker(state);

    // Effective request: the tenant's request verbatim, rescheduled onto the
    // server's shared pool and cache, with progress fanned out to every
    // subscriber (attach point for coalesced tickets).
    eval::EvalRequest request = state->job.request;
    request.pool = pool_.get();
    if (request.cache == nullptr) request.cache = cache_.get();
    std::weak_ptr<JobState> weak = state;
    request.on_progress = [weak](const eval::EvalProgress& progress) {
      const std::shared_ptr<JobState> s = weak.lock();
      if (s == nullptr) return;
      std::vector<eval::ProgressCallback> subscribers;
      {
        std::lock_guard<std::mutex> state_lock(s->m);
        subscribers = s->subscribers;
      }
      for (const eval::ProgressCallback& cb : subscribers) {
        if (cb) cb(progress);
      }
    };
    engine_.request() = std::move(request);  // dispatcher is the engine's only writer

    bool ok = false;
    eval::SuiteResult result;
    std::string error;
    const double started = now();
    try {
      result = engine_.evaluate(state->job.model, state->job.suite);
      ok = true;
    } catch (const std::exception& e) {
      error = e.what();
    }
    const double elapsed = now() - started;

    {
      std::lock_guard<std::mutex> lock(mutex_);
      running_units_ -= state->units;
      job_running_ = false;
      inflight_.erase(state->digest);
      if (ok) {
        ++counters_.completed;
        // Fresh computations only: coalesced/memoized replays reuse this
        // result without re-running the repair loop.
        counters_.repair_rounds += result.counters.repair_rounds;
        counters_.repaired_pass += result.counters.repaired_pass;
        counters_.repair_exhausted += result.counters.repair_exhausted;
        if (state->units > 0 && elapsed > 0.0) {
          const double per_unit = elapsed / static_cast<double>(state->units);
          unit_seconds_ewma_ = unit_seconds_ewma_ <= 0.0
                                   ? per_unit
                                   : config_.ewma_alpha * per_unit +
                                         (1.0 - config_.ewma_alpha) * unit_seconds_ewma_;
        }
        memo_insert_locked(state->digest, result);
      } else {
        ++counters_.failed;
      }
    }
    if (ok) {
      finish(state, JobStatus::kDone, "", &result);
    } else {
      finish(state, JobStatus::kFailed, std::move(error));
    }
    cv_idle_.notify_all();
  }
}

void Server::finish_running_marker(const std::shared_ptr<detail::JobState>& state) {
  std::lock_guard<std::mutex> lock(state->m);
  state->status = JobStatus::kRunning;
}

void Server::memo_insert_locked(const cache::Digest& digest,
                                const eval::SuiteResult& result) {
  if (config_.memo_capacity == 0) return;
  if (auto it = memo_index_.find(digest); it != memo_index_.end()) {
    it->second->second = result;
    memo_.splice(memo_.begin(), memo_, it->second);
    return;
  }
  memo_.emplace_front(digest, result);
  memo_index_[digest] = memo_.begin();
  if (memo_.size() > config_.memo_capacity) {
    memo_index_.erase(memo_.back().first);
    memo_.pop_back();
  }
}

void Server::prune_buckets_locked(double now) {
  // An idle bucket is indistinguishable from a freshly constructed one, so
  // dropping it loses no admission state.
  for (auto it = buckets_.begin(); it != buckets_.end();) {
    it = it->second.idle(now) ? buckets_.erase(it) : std::next(it);
  }
  // Past the hard cap, shed the coldest buckets. Eviction is permissive —
  // the tenant comes back to a fresh full burst — which bounds memory under
  // tenant-name churn without penalizing well-behaved tenants.
  while (buckets_.size() > config_.tenant_bucket_capacity) {
    auto coldest = buckets_.begin();
    for (auto it = std::next(buckets_.begin()); it != buckets_.end(); ++it) {
      if (it->second.last_seen() < coldest->second.last_seen()) coldest = it;
    }
    buckets_.erase(coldest);
  }
}

void Server::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  accepting_ = false;
  cv_idle_.wait(lock, [this] { return queue_.empty() && !job_running_; });
}

void Server::stop() {
  std::vector<std::shared_ptr<JobState>> expired;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    accepting_ = false;
    stop_dispatch_ = true;
    for (const std::shared_ptr<JobState>& state : queue_) {
      inflight_.erase(state->digest);
      queued_units_ -= state->units;
      ++counters_.expired;
      expired.push_back(state);
    }
    queue_.clear();
  }
  cv_queue_.notify_all();
  for (const std::shared_ptr<JobState>& state : expired) {
    finish(state, JobStatus::kExpired, "server stopped");
  }
  if (dispatcher_.joinable()) dispatcher_.join();
  cv_idle_.notify_all();
}

ServeCounters Server::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::size_t Server::tenant_bucket_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buckets_.size();
}

double Server::estimate_seconds(std::size_t units) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (unit_seconds_ewma_ <= 0.0) return 0.0;
  return static_cast<double>(queued_units_ + running_units_ + units) * unit_seconds_ewma_;
}

}  // namespace haven::serve
