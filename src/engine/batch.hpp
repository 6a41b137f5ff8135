// batch.hpp — the evaluation engine: parallel, memoizing evaluate() service.
//
// The paper pitches the framework as the inner loop of an automated design
// tool ("first-pass decisions in seconds or minutes"); this module is that
// inner loop industrialized. An Engine owns a work-stealing thread pool and
// a sharded LRU cache of evaluation results keyed by canonical fingerprint,
// and exposes:
//
//  * tryEvaluate(design, scenario) — one cached evaluation with the
//    structured-error contract;
//  * evaluateBatch(requests)    — a vector of (design, scenario) pairs fanned
//    out across cores, returning one Expected<EvaluationResult> per request
//    in request order plus EngineStats (throughput, cache hit rate, failed/
//    cancelled counts, threads used);
//  * parallelFor(n, body)       — the raw fan-out primitive, used by the
//    optimizer to parallelize its plan-routed sweeps at candidate
//    granularity (sweeps do not touch the result cache), with
//    threadArena() as each thread's plan-evaluation scratch.
//
// Failure semantics: evaluateBatch never throws for a bad request — each
// slot independently carries its result or a structured EvalError (see
// errors.hpp), so one poisoned candidate cannot abort a sweep. Cancellation
// tokens and per-batch deadlines are polled per request: work already
// finished stays valid, un-started requests come back kCancelled /
// kDeadlineExceeded. Transient failures (kResourceExhausted, transient
// kInjected) are retried up to BatchOptions::maxRetries with bounded
// exponential backoff. A FaultInjector installed via setFaultInjector()
// exercises all of these paths deterministically.
//
// Determinism contract: evaluate() is a pure function and every parallel
// path writes results into per-request slots, so engine-backed sweeps return
// results bit-identical to a serial loop — same Money/Duration values, same
// ranking. Caching never changes a value, only who computed it, and an
// injected failure in one request leaves every other slot bit-identical to
// a clean run.
//
// An Engine with threads == 1 runs everything on the calling thread (no pool
// is created); threads == 0 sizes the pool to the hardware. The process-wide
// Engine::shared() instance persists its cache across portfolio / batch
// calls, so a repeated batch over the same pairs is served from memory.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/evaluator.hpp"
#include "engine/arena.hpp"
#include "engine/cancellation.hpp"
#include "engine/errors.hpp"
#include "engine/eval_cache.hpp"
#include "engine/fault_injection.hpp"
#include "engine/fingerprint.hpp"
#include "engine/thread_pool.hpp"

namespace stordep::engine {

struct EngineOptions {
  /// Worker parallelism: 0 = one per hardware thread, 1 = serial (no pool).
  int threads = 0;
  std::size_t cacheCapacity = EvalCache::kDefaultCapacity;
  std::size_t cacheShards = EvalCache::kDefaultShards;
};

/// One evaluation request. The design is shared so a batch can reference the
/// same materialized design from many scenario rows without copying it.
struct EvalRequest {
  std::shared_ptr<const StorageDesign> design;
  FailureScenario scenario;
};

struct EngineStats {
  int threadsUsed = 1;
  std::uint64_t requests = 0;     ///< outcome slots delivered
  std::uint64_t cacheHits = 0;    ///< delivered from the cache
  std::uint64_t evaluations = 0;  ///< actually computed (misses)
  std::uint64_t failed = 0;       ///< error outcomes other than cancellation
  std::uint64_t cancelled = 0;    ///< kCancelled / kDeadlineExceeded outcomes
  std::uint64_t retries = 0;      ///< transient-failure re-attempts consumed
  double wallSeconds = 0.0;
  double evalsPerSec = 0.0;  ///< requests / wallSeconds
  [[nodiscard]] double cacheHitRate() const noexcept {
    return requests == 0
               ? 0.0
               : static_cast<double>(cacheHits) /
                     static_cast<double>(requests);
  }
};

/// Per-request outcome: the evaluation result or a structured error.
using EvalOutcome = Expected<EvaluationResult>;

/// Knobs for one evaluateBatch call (all default to "off").
struct BatchOptions {
  /// Cooperative cancellation; polled before each request is started.
  CancellationToken token;
  /// Per-batch wall-clock budget (0 = none); composed with the token's own
  /// deadline, whichever is earlier. Requests not started before it elapses
  /// come back kDeadlineExceeded.
  std::chrono::milliseconds deadline{0};
  /// Bounded retries for transient errors (kResourceExhausted, transient
  /// kInjected). 0 = fail fast.
  int maxRetries = 0;
  /// Base backoff between retries, doubled each attempt and capped at
  /// kMaxRetryBackoff. 0 = retry immediately (tests).
  std::chrono::milliseconds retryBackoff{1};

  static constexpr std::chrono::milliseconds kMaxRetryBackoff{100};
};

/// Sleeps the backoff before retry `attempt` (0-based): retryBackoff
/// doubled per attempt, capped at kMaxRetryBackoff.
void sleepBeforeRetry(const BatchOptions& options, int attempt);

/// The one retry loop: runs `attempt()` until it returns, retrying transient
/// failures (isRetryable) up to options.maxRetries times. Returns nullopt
/// once an attempt succeeds, else the last error with EvalError::attempts
/// set. `retriesOut`, when non-null, accumulates the re-attempts consumed.
/// Engine::tryEvaluateKeyed and the optimizer's injected-fault probes both
/// retry through it.
template <typename Attempt>
[[nodiscard]] std::optional<EvalError> retryTransient(
    const BatchOptions& options, Attempt&& attempt,
    std::uint64_t* retriesOut = nullptr) {
  for (int tries = 0;; ++tries) {
    try {
      attempt();
      return std::nullopt;
    } catch (...) {
      EvalError error = errorFromCurrentException();
      error.attempts = tries + 1;
      if (!isRetryable(error) || tries >= options.maxRetries) return error;
      if (retriesOut != nullptr) ++*retriesOut;
      sleepBeforeRetry(options, tries);
    }
  }
}

struct BatchResult {
  /// results[i] answers requests[i]: an EvaluationResult or an EvalError.
  std::vector<EvalOutcome> results;
  EngineStats stats;

  [[nodiscard]] bool allOk() const noexcept {
    for (const EvalOutcome& outcome : results) {
      if (!outcome.ok()) return false;
    }
    return true;
  }
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Effective parallelism (calling thread included).
  [[nodiscard]] int threads() const noexcept { return threads_; }
  [[nodiscard]] const EngineOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] EvalCache& cache() noexcept { return cache_; }
  [[nodiscard]] const EvalCache& cache() const noexcept { return cache_; }

  /// One evaluation with the structured-error contract: never throws for
  /// model/injection failures, honors retries for transient errors.
  [[nodiscard]] EvalOutcome tryEvaluate(const StorageDesign& design,
                                        const FailureScenario& scenario,
                                        const BatchOptions& options = {});

  /// Cached evaluation where the caller already holds the pair key
  /// (combine(designFp, scenarioFp), with both fingerprints hoisted out of
  /// its loops).
  [[nodiscard]] EvaluationResult evaluateKeyed(const StorageDesign& design,
                                               const FailureScenario& scenario,
                                               const Fingerprint& pairKey);

  /// evaluateKeyed with the structured-error contract and bounded retries
  /// for transient failures (retryTransient).
  [[nodiscard]] EvalOutcome tryEvaluateKeyed(
      const StorageDesign& design, const FailureScenario& scenario,
      const Fingerprint& pairKey, const BatchOptions& options = {},
      std::uint64_t* retriesOut = nullptr);

  /// Evaluates all requests (in request order in the result vector), fanned
  /// out across the pool, with cache-hit accounting and throughput stats.
  /// Never throws for a bad request: each slot carries its own result or
  /// structured error, and cancellation/deadline expiry marks only the
  /// requests that had not started.
  [[nodiscard]] BatchResult evaluateBatch(
      const std::vector<EvalRequest>& requests,
      const BatchOptions& options = {});

  /// Installs a deterministic fault injector on the evaluate path and this
  /// engine's cache (nullptr uninstalls). Set while quiescent — not
  /// thread-safe against an in-flight batch.
  void setFaultInjector(std::shared_ptr<FaultInjector> injector);
  [[nodiscard]] const std::shared_ptr<FaultInjector>& faultInjector()
      const noexcept {
    return injector_;
  }

  /// Index-space fan-out on this engine's pool; serial when threads() == 1.
  /// Blocks until done; rethrows the first exception.
  void parallelFor(std::size_t count,
                   const std::function<void(std::size_t)>& body);

  /// parallelFor that stops handing out work once `token` fires (polled per
  /// chunk on the pool, per index when serial). Returns true when every
  /// index ran. Exceptions rethrow as in parallelFor.
  bool parallelForCancellable(std::size_t count,
                              const std::function<void(std::size_t)>& body,
                              const CancellationToken& token);

  /// Process-wide engine (hardware-sized, default cache). Its cache persists
  /// across portfolio / batch calls within the process.
  [[nodiscard]] static Engine& shared();

  /// The calling thread's plan-evaluation arena (one per thread, reused
  /// across evals; see engine/arena.hpp for the ownership protocol).
  [[nodiscard]] static BumpArena& threadArena();

 private:
  EngineOptions options_;
  int threads_;
  EvalCache cache_;
  std::unique_ptr<ThreadPool> pool_;  // null when threads_ == 1
  std::shared_ptr<FaultInjector> injector_;  // null = no injection
};

}  // namespace stordep::engine
