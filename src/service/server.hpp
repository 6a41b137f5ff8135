// server.hpp — the embedded evaluation daemon (POSIX sockets + epoll).
//
// A Server turns the in-process engine into a long-running HTTP/1.1
// service:
//
//   POST /v1/evaluate  one {design, scenario} pair or an array of them;
//                      concurrent requests coalesce into shared
//                      Engine::evaluateBatch waves (service/batcher.hpp)
//                      over one EvalCache.
//   POST /v1/search    a design-space sweep; progress streams back as
//                      chunked NDJSON, one line per streamChunk wave.
//   GET  /metrics      lifetime + per-interval counters (service/metrics).
//   GET  /healthz      {"status": "ok" | "draining"}.
//
// Architecture: one event-loop thread owns the listening socket, an epoll
// instance, and every connection's read/parse/write state; one batcher
// thread owns engine dispatch; search requests each get a short-lived
// worker thread that writes its chunked response directly (the connection
// is detached from the loop first). Completions cross back onto the loop
// through a mutex-guarded queue plus an eventfd wake — the loop thread is
// the only one that touches connection state.
//
// Admission control: a connection cap (excess accepts get an immediate
// 503), a bounded evaluate queue in slots (429 + Retry-After when full), a
// search concurrency cap (503 + Retry-After), and per-request deadlines
// (X-Deadline-Ms header or "deadlineMs" body field, clamped to
// maxDeadline) mapped onto engine CancellationTokens — an expired request
// answers 504 with the engine's structured deadline-exceeded error while
// the rest of its wave completes normally.
//
// Shutdown: requestShutdown() is async-signal-safe (atomic flag + eventfd
// write); the loop then stops accepting, lets in-flight requests finish,
// answers anything newly parsed with 503 + Retry-After, drains the batcher
// and the search workers, and exits. shutdown() does the same
// synchronously and joins every thread; the destructor calls it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/batch.hpp"
#include "service/batcher.hpp"
#include "service/cluster_hooks.hpp"
#include "service/http.hpp"
#include "service/metrics.hpp"
#include "service/resilience/brownout.hpp"

namespace stordep::service {

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral (read back via Server::port())

  /// Evaluate through this engine (shared cache with the rest of the
  /// process); null = the server owns one sized by `engineThreads`.
  engine::Engine* eng = nullptr;
  int engineThreads = 0;  ///< 0 = hardware-sized (owned engine only)

  HttpLimits limits;
  std::size_t maxConnections = 512;
  std::size_t maxQueueSlots = 1024;
  std::size_t maxWaveSlots = 256;
  std::chrono::microseconds batchLinger{200};
  int maxRetries = 0;

  /// Deadline applied when a request names none (0 = none), and the cap on
  /// what a client may ask for.
  std::chrono::milliseconds defaultDeadline{0};
  std::chrono::milliseconds maxDeadline{60'000};

  int maxConcurrentSearches = 2;
  int retryAfterSeconds = 1;  ///< advertised on 429/503

  /// Tiered load shedding under sustained overload (resilience/brownout).
  /// The controller ticks on the event loop's cadence, watching queue
  /// pressure and failed waves; tiers shed stochastic envelopes, then cold
  /// requests, then everything (see BrownoutOptions).
  bool brownoutEnabled = true;
  resilience::BrownoutOptions brownout;
  std::chrono::milliseconds brownoutTickInterval{100};

  /// Grace period for in-flight work at shutdown; connections still busy
  /// after it are closed.
  std::chrono::milliseconds drainTimeout{10'000};
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the event-loop + batcher threads. Throws
  /// std::runtime_error on socket/bind failure.
  void start();

  /// The bound port (after start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return boundPort_; }

  /// Async-signal-safe shutdown trigger (for SIGTERM handlers): flips a
  /// flag and wakes the loop. The loop then drains gracefully.
  void requestShutdown() noexcept;

  /// Graceful synchronous shutdown: drain in-flight requests (bounded by
  /// drainTimeout), stop every thread, close every socket. Idempotent.
  void shutdown();

  /// Blocks until the event loop exits (after requestShutdown() or a
  /// drain), then completes shutdown. The serve binary's main thread parks
  /// here.
  void wait();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  [[nodiscard]] engine::Engine& engine() noexcept { return *engine_; }
  [[nodiscard]] ServiceMetrics& metrics() noexcept { return metrics_; }
  [[nodiscard]] const ServerOptions& options() const noexcept {
    return options_;
  }

  /// Pins the brown-out tier (0–3; -1 releases the pin), applied by the
  /// event loop on its next tick. Thread-safe; for tests, benches and
  /// operator overrides.
  void forceBrownoutTier(int tier) noexcept;

  /// The currently applied brown-out tier (same value /metrics reports).
  [[nodiscard]] int brownoutTier() const noexcept {
    return static_cast<int>(
        metrics_.brownoutTier.load(std::memory_order_relaxed));
  }

  /// Attaches (or detaches, with nullptr) the cluster layer. The pointer is
  /// read per-request on the loop thread, so attaching while running is
  /// safe; DETACHING is only safe once the loop has exited (in practice:
  /// cluster::ClusterNode shuts the server down before it destructs, which
  /// is why a Server must be declared before its ClusterNode).
  void attachCluster(ClusterHooks* cluster) noexcept {
    cluster_.store(cluster, std::memory_order_release);
  }
  [[nodiscard]] ClusterHooks* cluster() const noexcept {
    return cluster_.load(std::memory_order_acquire);
  }

 private:
  struct Connection;

  void loop();
  void acceptConnections();
  void handleReadable(Connection& conn);
  void handleWritable(Connection& conn);
  void processBuffer(Connection& conn);
  void dispatch(Connection& conn, HttpRequest request);
  void handleEvaluate(Connection& conn, const HttpRequest& request);
  void handleSearch(Connection& conn, const HttpRequest& request);
  void runSearch(int fd, std::string bodyText);
  void sendResponse(Connection& conn, const HttpResponse& response,
                    bool keepAlive);
  void sendError(Connection& conn, int status, const std::string& code,
                 const std::string& message, bool retryAfter = false);
  void queueCompletion(std::uint64_t connId, std::string bytes,
                       bool thenClose);
  void drainCompletions();
  void closeConnection(std::uint64_t connId);
  void beginDrain();
  void wake() noexcept;
  [[nodiscard]] bool drainComplete() const;
  void brownoutTick();

  ServerOptions options_;
  std::unique_ptr<engine::Engine> ownedEngine_;
  engine::Engine* engine_ = nullptr;
  ServiceMetrics metrics_;
  std::unique_ptr<Batcher> batcher_;
  std::atomic<ClusterHooks*> cluster_{nullptr};

  int listenFd_ = -1;
  int epollFd_ = -1;
  int wakeFd_ = -1;       ///< read end of the wake pipe (in epoll)
  int wakeWriteFd_ = -1;  ///< write end (async-signal-safe wake target)
  std::uint16_t boundPort_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> shutdownRequested_{false};
  /// Fired when drain begins: in-flight searches stop at their next wave
  /// and report their partial ranking as cancelled.
  engine::CancellationSource stopSource_;
  bool draining_ = false;  // loop-thread state
  std::chrono::steady_clock::time_point drainDeadline_{};

  // Brown-out state. The controller is loop-thread-only; tier pins arrive
  // from other threads through pendingForcedTier_ (-2 = no change pending)
  // and are applied on the next tick.
  resilience::BrownoutController brownout_{};
  std::atomic<int> pendingForcedTier_{-2};
  std::chrono::steady_clock::time_point lastBrownoutTick_{};
  std::uint64_t lastWaveFailures_ = 0;

  std::uint64_t nextConnId_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::unordered_map<int, std::uint64_t> fdToConn_;

  // Cross-thread completion queue (batcher / search workers → loop).
  std::mutex completionsMu_;
  struct Completion {
    std::uint64_t connId;
    std::string bytes;  // empty = just close / detach bookkeeping
    bool thenClose;
  };
  std::vector<Completion> completions_;

  std::mutex searchThreadsMu_;
  std::vector<std::thread> searchThreads_;

  std::thread loopThread_;
  std::once_flag shutdownOnce_;
};

}  // namespace stordep::service
