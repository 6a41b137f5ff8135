// batcher.hpp — coalescing concurrent HTTP requests into engine waves.
//
// Each connection's evaluate request becomes a Job: a vector of
// engine::EvalRequests plus a completion callback. One batcher thread
// drains the job queue in waves — it waits up to `linger` for more jobs to
// arrive (bounded by `maxWaveSlots`), concatenates their request slots into
// a single Engine::evaluateBatch call, then slices the per-slot outcomes
// back to each job's callback. Coalescing is what makes the shared
// EvalCache pay off across connections: 64 clients asking
// related questions become a handful of fan-outs over the pool instead of
// 64 serialized evaluate() calls, and a wave already running naturally
// batches everything that arrives behind it.
//
// Admission control lives at submit(): the queue is bounded in *slots* (an
// array request of 50 pairs consumes 50), so a flood of work gets
// kQueueFull (the server answers 429 + Retry-After) instead of unbounded
// memory. Per-request deadlines ride each job's CancellationToken: a job
// whose token fires while it is still queued is completed with the token's
// structured error (kDeadlineExceeded → 504) without ever reaching the
// engine — matching the engine's own cooperative contract that running
// evaluations finish and un-started ones are skipped.
//
// drain() is the graceful-shutdown half: stop admitting, then block until
// the queue and the in-flight wave are empty. Completion callbacks run on
// the batcher thread; they must not block (the server's just enqueue the
// serialized response and wake the event loop).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/batch.hpp"
#include "service/metrics.hpp"

namespace stordep::service {

class Batcher {
 public:
  struct Options {
    std::size_t maxQueueSlots = 1024;
    std::size_t maxWaveSlots = 256;
    /// How long a wave waits for company after the first job arrives.
    std::chrono::microseconds linger{200};
    /// Retry budget handed to the engine for transient failures.
    int maxRetries = 0;
  };

  /// Per-slot outcomes for this job (in request order) plus the stats of
  /// the wave that carried it.
  using Completion = std::function<void(std::vector<engine::EvalOutcome>,
                                        const engine::EngineStats&)>;

  struct Job {
    std::vector<engine::EvalRequest> requests;
    engine::CancellationToken token;
    Completion done;
  };

  enum class Submit { kAccepted, kQueueFull, kShuttingDown };

  Batcher(engine::Engine& engine, Options options,
          ServiceMetrics* metrics = nullptr);
  ~Batcher();

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  [[nodiscard]] Submit submit(Job job);

  /// Stops admitting and blocks until queued + in-flight work completes
  /// (every accepted job's callback has run). Idempotent.
  void drain();

  /// drain() + join the worker. Called by the destructor.
  void stop();

  [[nodiscard]] std::size_t queuedSlots() const;

 private:
  void run();

  engine::Engine& engine_;
  Options options_;
  ServiceMetrics* metrics_;

  mutable std::mutex mu_;
  std::condition_variable cv_;       // wakes the worker
  std::condition_variable drained_;  // wakes drain()
  std::deque<Job> queue_;
  std::size_t queuedSlots_ = 0;
  bool evaluating_ = false;
  bool draining_ = false;
  bool stop_ = false;
  std::thread worker_;
};

}  // namespace stordep::service
