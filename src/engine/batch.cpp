#include "engine/batch.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace stordep::engine {

namespace {
int resolveThreads(int requested) {
  if (requested >= 1) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

void sleepBeforeRetry(const BatchOptions& options, int attempt) {
  if (options.retryBackoff.count() <= 0) return;
  std::chrono::milliseconds delay = options.retryBackoff;
  for (int i = 0; i < attempt && delay < BatchOptions::kMaxRetryBackoff; ++i) {
    delay *= 2;
  }
  std::this_thread::sleep_for(std::min(delay, BatchOptions::kMaxRetryBackoff));
}

Engine::Engine(EngineOptions options)
    : options_(options),
      threads_(resolveThreads(options.threads)),
      cache_(options.cacheCapacity, options.cacheShards) {
  if (threads_ > 1) {
    // The calling thread participates in parallelFor, so threads_ - 1
    // workers give exactly threads_ concurrent executors.
    pool_ = std::make_unique<ThreadPool>(threads_ - 1);
  }
}

void Engine::setFaultInjector(std::shared_ptr<FaultInjector> injector) {
  injector_ = injector;
  cache_.setFaultInjector(std::move(injector));
}

EvalOutcome Engine::tryEvaluate(const StorageDesign& design,
                                const FailureScenario& scenario,
                                const BatchOptions& options) {
  try {
    return tryEvaluateKeyed(design, scenario,
                            fingerprintEvaluation(design, scenario), options);
  } catch (...) {
    // Fingerprinting itself rejected the design (unserializable).
    return errorFromCurrentException();
  }
}

EvaluationResult Engine::evaluateKeyed(const StorageDesign& design,
                                       const FailureScenario& scenario,
                                       const Fingerprint& pairKey) {
  // May throw an injected kCacheLookup fault; a lookup that cannot be
  // trusted must not silently serve a result.
  if (std::optional<EvaluationResult> hit = cache_.lookup(pairKey)) {
    return std::move(*hit);
  }
  if (injector_) injector_->maybeInject(FaultSite::kEvaluate, pairKey);
  EvaluationResult result = stordep::evaluate(design, scenario);
  try {
    cache_.insert(pairKey, result);
  } catch (...) {
    // Losing a cache write (injected kCacheInsert fault, allocation
    // failure) never fails a request that already has its result.
  }
  return result;
}

EvalOutcome Engine::tryEvaluateKeyed(const StorageDesign& design,
                                     const FailureScenario& scenario,
                                     const Fingerprint& pairKey,
                                     const BatchOptions& options,
                                     std::uint64_t* retriesOut) {
  std::optional<EvaluationResult> result;
  if (std::optional<EvalError> error = retryTransient(
          options,
          [&] { result.emplace(evaluateKeyed(design, scenario, pairKey)); },
          retriesOut)) {
    return std::move(*error);
  }
  return std::move(*result);
}

BatchResult Engine::evaluateBatch(const std::vector<EvalRequest>& requests,
                                  const BatchOptions& options) {
  const auto start = std::chrono::steady_clock::now();

  BatchResult out;
  // Default-constructed slots read "not evaluated"; every request below
  // overwrites its own slot exactly once.
  out.results.resize(requests.size());
  out.stats.threadsUsed = threads_;
  out.stats.requests = requests.size();

  CancellationToken token = options.token;
  if (options.deadline.count() > 0) {
    token = token.withDeadline(options.deadline);
  }
  const bool cancellable = token.cancellable();

  // Fingerprint each distinct design once (batches typically pair a few
  // designs with many scenarios). A design that cannot be fingerprinted is
  // itself invalid; the error is attached to each of its requests rather
  // than aborting the batch.
  struct DesignEntry {
    Fingerprint fp;
    std::optional<EvalError> error;
  };
  std::unordered_map<const StorageDesign*, DesignEntry> designFps;
  for (const EvalRequest& request : requests) {
    if (request.design != nullptr) {
      designFps.emplace(request.design.get(), DesignEntry{});
    }
  }
  std::vector<const StorageDesign*> uniqueDesigns;
  uniqueDesigns.reserve(designFps.size());
  for (const auto& [design, entry] : designFps) {
    uniqueDesigns.push_back(design);
  }
  parallelFor(uniqueDesigns.size(), [&](std::size_t i) {
    DesignEntry& entry = designFps[uniqueDesigns[i]];
    try {
      entry.fp = fingerprintDesign(*uniqueDesigns[i]);
    } catch (...) {
      entry.error = errorFromCurrentException();
    }
  });

  // Scenario fingerprints hoisted out of the per-slot loop: each is computed
  // once per batch rather than once per (design, scenario) pair. Batches are
  // typically grouped by scenario, so adjacent duplicates collapse to one
  // hash each.
  std::vector<Fingerprint> scenarioFps(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (i > 0 && requests[i].scenario == requests[i - 1].scenario) {
      scenarioFps[i] = scenarioFps[i - 1];
    } else {
      scenarioFps[i] = fingerprintScenario(requests[i].scenario);
    }
  }

  // A pair that occurs more than once in the batch (the service batcher
  // coalesces identical concurrent requests) is evaluated by its first
  // occurrence; the repeats run after the first pass and find its result in
  // the cache, so one batch never computes — or misses on — a key twice.
  std::vector<char> repeat(requests.size(), 0);
  bool anyRepeat = false;
  if (requests.size() > 1) {
    std::unordered_set<Fingerprint, FingerprintHash> seen;
    seen.reserve(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const EvalRequest& request = requests[i];
      if (request.design == nullptr) continue;
      const DesignEntry& entry = designFps.at(request.design.get());
      if (entry.error) continue;
      if (!seen.insert(combine(entry.fp, scenarioFps[i])).second) {
        repeat[i] = 1;
        anyRepeat = true;
      }
    }
  }

  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> computed{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> cancelled{0};
  std::atomic<std::uint64_t> retries{0};

  auto evaluateOne = [&](std::size_t i) -> EvalOutcome {
    const EvalRequest& request = requests[i];
    if (request.design == nullptr) {
      return EvalError{EvalErrorCode::kInvalidDesign,
                       "request " + std::to_string(i) + " has a null design",
                       /*transient=*/false, /*attempts=*/0};
    }
    const DesignEntry& entry = designFps.at(request.design.get());
    if (entry.error) return *entry.error;
    // Cancellation/deadline is polled before a request starts, never mid-
    // evaluation: finished work stays valid, un-started work is skipped.
    if (cancellable && token.cancelled()) return token.toError();

    const Fingerprint key = combine(entry.fp, scenarioFps[i]);
    // The pool site stands in for dispatch-layer faults; it is not retried.
    if (injector_) injector_->maybeInject(FaultSite::kPool, key);

    const std::uint64_t misses0 = cache_.stats().misses;
    std::uint64_t localRetries = 0;
    EvalOutcome outcome = tryEvaluateKeyed(*request.design, request.scenario,
                                           key, options, &localRetries);
    retries.fetch_add(localRetries, std::memory_order_relaxed);
    if (outcome.ok()) {
      // Computed iff the retried lookup path missed; hit otherwise. The
      // per-shard miss counter is exact even under concurrency because the
      // same key cannot be in flight twice within one batch slot.
      if (cache_.stats().misses == misses0) {
        hits.fetch_add(1, std::memory_order_relaxed);
      } else {
        computed.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return outcome;
  };

  auto runSlot = [&](std::size_t i) {
    EvalOutcome outcome;
    try {
      outcome = evaluateOne(i);
    } catch (...) {
      outcome = errorFromCurrentException();
    }
    if (const EvalError* error = outcome.errorIf()) {
      if (error->code == EvalErrorCode::kCancelled ||
          error->code == EvalErrorCode::kDeadlineExceeded) {
        cancelled.fetch_add(1, std::memory_order_relaxed);
      } else {
        failed.fetch_add(1, std::memory_order_relaxed);
      }
    }
    out.results[i] = std::move(outcome);
  };
  parallelFor(requests.size(), [&](std::size_t i) {
    if (repeat[i] == 0) runSlot(i);
  });
  // Repeats find the first occurrence's result in the cache (barring a lost
  // cache write): cheaper on this thread than another fan-out.
  for (std::size_t i = 0; anyRepeat && i < requests.size(); ++i) {
    if (repeat[i] != 0) runSlot(i);
  }

  out.stats.cacheHits = hits.load();
  out.stats.evaluations = computed.load();
  out.stats.failed = failed.load();
  out.stats.cancelled = cancelled.load();
  out.stats.retries = retries.load();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  out.stats.wallSeconds = elapsed.count();
  out.stats.evalsPerSec =
      out.stats.wallSeconds > 0.0
          ? static_cast<double>(out.stats.requests) / out.stats.wallSeconds
          : 0.0;
  return out;
}

BumpArena& Engine::threadArena() {
  static thread_local BumpArena arena;
  return arena;
}

void Engine::parallelFor(std::size_t count,
                         const std::function<void(std::size_t)>& body) {
  if (pool_ == nullptr) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  pool_->parallelFor(count, body);
}

bool Engine::parallelForCancellable(
    std::size_t count, const std::function<void(std::size_t)>& body,
    const CancellationToken& token) {
  if (pool_ == nullptr) {
    const bool cancellable = token.cancellable();
    for (std::size_t i = 0; i < count; ++i) {
      if (cancellable && token.cancelled()) return false;
      body(i);
    }
    return true;
  }
  return pool_->parallelForCancellable(count, body, token);
}

Engine& Engine::shared() {
  static Engine engine;
  return engine;
}

}  // namespace stordep::engine
