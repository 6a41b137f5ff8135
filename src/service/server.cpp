#include "service/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "casestudy/casestudy.hpp"
#include "config/design_io.hpp"
#include "engine/fingerprint.hpp"
#include "optimizer/checkpoint.hpp"
#include "optimizer/search.hpp"
#include "service/json_api.hpp"

namespace stordep::service {

using config::Json;
using config::JsonArray;
using config::JsonObject;

namespace {

void setNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void setBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
}

/// Blocking full write with SIGPIPE suppressed; false when the peer is
/// gone. Used by search workers (detached, blocking sockets) only.
bool writeAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

[[nodiscard]] Json serviceErrorBody(const std::string& code,
                                    const std::string& message) {
  Json detail{JsonObject{}};
  detail.set("code", Json(code));
  detail.set("message", Json(message));
  Json out{JsonObject{}};
  out.set("error", detail);
  return out;
}

/// The final NDJSON line of a /v1/search stream. Shared by the single-node
/// and cluster-coordinator paths so their output is structurally identical
/// (wallSeconds / candidatesPerSec are the only run-varying fields).
[[nodiscard]] Json searchResultLine(const optimizer::SearchResult& result,
                                    std::size_t top) {
  JsonArray ranked;
  const std::size_t count = std::min(top, result.ranked.size());
  for (std::size_t i = 0; i < count; ++i) {
    const optimizer::EvaluatedCandidate& candidate = result.ranked[i];
    Json entry{JsonObject{}};
    entry.set("label", Json(candidate.label));
    entry.set("outlaysUsd", Json(candidate.outlays.usd()));
    entry.set("totalCostUsd", Json(candidate.totalCost.usd()));
    entry.set("worstRecoveryTimeSeconds",
              Json(candidate.worstRecoveryTime.secs()));
    entry.set("worstDataLossSeconds", Json(candidate.worstDataLoss.secs()));
    ranked.push_back(entry);
  }
  Json summary{JsonObject{}};
  summary.set("evaluated", Json(result.evaluated));
  summary.set("rankedCount", Json(static_cast<double>(result.ranked.size())));
  summary.set("rejectedCount",
              Json(static_cast<double>(result.rejected.size())));
  summary.set("failed", Json(result.failed));
  summary.set("cancelled", Json(result.cancelled));
  summary.set("wallSeconds", Json(result.wallSeconds));
  summary.set("candidatesPerSec", Json(result.candidatesPerSec));
  summary.set("top", Json(std::move(ranked)));
  Json line{JsonObject{}};
  line.set("result", summary);
  return line;
}

/// One successful /v1/evaluate item: the evaluation, plus its stochastic
/// envelope when the item asks for one — or, under brown-out, the marker
/// saying the envelope was shed. Shared by the single and array shapes.
[[nodiscard]] Json evaluationBody(const EvaluateItem& item,
                                  const EvaluationResult& result,
                                  bool shedStochastic,
                                  ServiceMetrics& metrics) {
  Json body = evaluationToJson(*item.design, item.scenario, result);
  if (!item.stochastic) return body;
  if (shedStochastic) {
    metrics.shedStochastic.fetch_add(1, std::memory_order_relaxed);
    body.set("stochastic",
             serviceErrorBody("unavailable",
                              "stochastic envelopes shed under brown-out"));
    return body;
  }
  StochasticRunStats runStats;
  body.set("stochastic", stochasticEnvelope(*item.design, item.scenario,
                                            *item.stochastic, &runStats));
  if (runStats.trials > 0) {
    metrics.recordStochastic(runStats.trials, runStats.wallSeconds,
                             runStats.usedPlan);
  }
  return body;
}

/// Why the batcher turned an evaluation away, as the HTTP answer to give.
struct Rejection {
  int status;
  const char* code;
  const char* message;
};

/// Hands `job` to the batcher. nullopt when it was accepted (the job's own
/// `done` answers the request); otherwise the rejection, already counted.
[[nodiscard]] std::optional<Rejection> submitEvaluation(
    Batcher& batcher, ServiceMetrics& metrics, Batcher::Job job) {
  switch (batcher.submit(std::move(job))) {
    case Batcher::Submit::kAccepted:
      return std::nullopt;
    case Batcher::Submit::kQueueFull:
      metrics.rejectedQueueFull.fetch_add(1, std::memory_order_relaxed);
      return Rejection{429, "queue-full", "evaluation queue is full"};
    case Batcher::Submit::kShuttingDown:
      break;
  }
  metrics.rejectedDraining.fetch_add(1, std::memory_order_relaxed);
  return Rejection{503, "draining", "server is shutting down"};
}

}  // namespace

/// Per-connection state; owned and touched by the loop thread only.
struct Server::Connection {
  int fd = -1;
  std::uint64_t id = 0;
  HttpRequestParser parser;
  std::string inBuf;
  std::size_t parsed = 0;  ///< bytes of inBuf already consumed
  std::string outBuf;
  std::size_t written = 0;
  bool waiting = false;   ///< evaluate job in flight; pause reading
  bool closing = false;   ///< close once outBuf drains
  bool epollOut = false;  ///< EPOLLOUT currently armed

  explicit Connection(HttpLimits limits) : parser(limits) {}
};

Server::Server(ServerOptions options) : options_(std::move(options)) {
  brownout_ = resilience::BrownoutController(options_.brownout);
  if (options_.eng != nullptr) {
    engine_ = options_.eng;
  } else {
    ownedEngine_ = std::make_unique<engine::Engine>(
        engine::EngineOptions{.threads = options_.engineThreads});
    engine_ = ownedEngine_.get();
  }
}

Server::~Server() { shutdown(); }

void Server::start() {
  if (running_.load(std::memory_order_acquire)) return;

  listenFd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listenFd_ < 0) {
    throw std::runtime_error("socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  const int one = 1;
  setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    close(listenFd_);
    listenFd_ = -1;
    throw std::runtime_error("bad listen address: " + options_.host);
  }
  if (bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      listen(listenFd_, 128) < 0) {
    const std::string reason = std::strerror(errno);
    close(listenFd_);
    listenFd_ = -1;
    throw std::runtime_error("bind/listen on " + options_.host + ":" +
                             std::to_string(options_.port) +
                             " failed: " + reason);
  }
  sockaddr_in bound{};
  socklen_t boundLen = sizeof(bound);
  getsockname(listenFd_, reinterpret_cast<sockaddr*>(&bound), &boundLen);
  boundPort_ = ntohs(bound.sin_port);
  setNonBlocking(listenFd_);

  epollFd_ = epoll_create1(EPOLL_CLOEXEC);
  int wakePipe[2];
  if (epollFd_ < 0 || pipe2(wakePipe, O_NONBLOCK | O_CLOEXEC) != 0) {
    throw std::runtime_error("epoll/pipe setup failed");
  }
  wakeFd_ = wakePipe[0];
  wakeWriteFd_ = wakePipe[1];

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listenFd_;
  epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFd_, &ev);
  ev.data.fd = wakeFd_;
  epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeFd_, &ev);

  batcher_ = std::make_unique<Batcher>(
      *engine_,
      Batcher::Options{.maxQueueSlots = options_.maxQueueSlots,
                       .maxWaveSlots = options_.maxWaveSlots,
                       .linger = options_.batchLinger,
                       .maxRetries = options_.maxRetries},
      &metrics_);

  running_.store(true, std::memory_order_release);
  loopThread_ = std::thread([this] { loop(); });
}

void Server::requestShutdown() noexcept {
  shutdownRequested_.store(true, std::memory_order_release);
  wake();
}

void Server::wake() noexcept {
  if (wakeWriteFd_ >= 0) {
    const char byte = 1;
    // write() is async-signal-safe; a full pipe already guarantees a wake.
    [[maybe_unused]] const ssize_t n = write(wakeWriteFd_, &byte, 1);
  }
}

void Server::wait() {
  if (loopThread_.joinable()) loopThread_.join();
  shutdown();
}

void Server::shutdown() {
  requestShutdown();
  if (loopThread_.joinable()) loopThread_.join();
  std::call_once(shutdownOnce_, [this] {
    if (batcher_) batcher_->stop();
    {
      std::lock_guard<std::mutex> lock(searchThreadsMu_);
      for (std::thread& thread : searchThreads_) {
        if (thread.joinable()) thread.join();
      }
      searchThreads_.clear();
    }
    for (auto& [id, conn] : conns_) {
      if (conn->fd >= 0) close(conn->fd);
    }
    conns_.clear();
    fdToConn_.clear();
    if (listenFd_ >= 0) close(listenFd_);
    if (epollFd_ >= 0) close(epollFd_);
    if (wakeFd_ >= 0) close(wakeFd_);
    if (wakeWriteFd_ >= 0) close(wakeWriteFd_);
    listenFd_ = epollFd_ = wakeFd_ = wakeWriteFd_ = -1;
  });
}

// ---- Event loop ------------------------------------------------------------

void Server::loop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];

  while (true) {
    if (shutdownRequested_.load(std::memory_order_acquire) && !draining_) {
      beginDrain();
    }
    if (draining_ && drainComplete()) break;
    if (draining_ &&
        std::chrono::steady_clock::now() >= drainDeadline_) {
      break;  // grace period exhausted; remaining connections are dropped
    }
    brownoutTick();

    const int n = epoll_wait(epollFd_, events, kMaxEvents, 100);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wakeFd_) {
        char buf[256];
        while (read(wakeFd_, buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      if (fd == listenFd_) {
        acceptConnections();
        continue;
      }
      const auto it = fdToConn_.find(fd);
      if (it == fdToConn_.end()) continue;
      Connection* conn = conns_.at(it->second).get();
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        closeConnection(conn->id);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) handleReadable(*conn);
      // The connection may have been closed by the read path.
      if (fdToConn_.count(fd) == 0) continue;
      if ((events[i].events & EPOLLOUT) != 0) handleWritable(*conn);
    }
    drainCompletions();
  }
  drainCompletions();
  running_.store(false, std::memory_order_release);
}

void Server::forceBrownoutTier(int tier) noexcept {
  pendingForcedTier_.store(tier < 0 ? -1 : tier, std::memory_order_release);
  wake();
}

void Server::brownoutTick() {
  if (!options_.brownoutEnabled) return;
  const int pinned =
      pendingForcedTier_.exchange(-2, std::memory_order_acq_rel);
  if (pinned != -2) brownout_.force(pinned);

  const auto now = std::chrono::steady_clock::now();
  const bool due =
      lastBrownoutTick_.time_since_epoch().count() == 0 ||
      now - lastBrownoutTick_ >= options_.brownoutTickInterval;
  if (due) {
    lastBrownoutTick_ = now;
    const double capacity = static_cast<double>(
        std::max<std::size_t>(1, options_.maxQueueSlots));
    const double queued = static_cast<double>(std::max<std::int64_t>(
        0, metrics_.queuedSlots.load(std::memory_order_relaxed)));
    const double pressure = std::min(1.0, queued / capacity);
    const std::uint64_t failedWaves =
        metrics_.waveFailures.load(std::memory_order_relaxed);
    const std::uint64_t delta = failedWaves - lastWaveFailures_;
    lastWaveFailures_ = failedWaves;
    brownout_.tick(pressure, delta);
  }
  metrics_.brownoutTier.store(brownout_.tier(), std::memory_order_relaxed);
  metrics_.brownoutTransitions.store(brownout_.transitions(),
                                     std::memory_order_relaxed);
}

bool Server::drainComplete() const {
  return conns_.empty() && batcher_->queuedSlots() == 0 &&
         metrics_.inFlightSlots.load(std::memory_order_relaxed) == 0 &&
         metrics_.activeSearches.load(std::memory_order_relaxed) == 0;
}

void Server::beginDrain() {
  draining_ = true;
  drainDeadline_ = std::chrono::steady_clock::now() + options_.drainTimeout;
  stopSource_.cancel();  // in-flight searches finish their current wave
  if (listenFd_ >= 0) {
    epoll_ctl(epollFd_, EPOLL_CTL_DEL, listenFd_, nullptr);
    close(listenFd_);
    listenFd_ = -1;
  }
  // Idle keep-alive connections have nothing in flight: close them now.
  std::vector<std::uint64_t> idle;
  for (const auto& [id, conn] : conns_) {
    if (!conn->waiting && conn->outBuf.size() == conn->written &&
        conn->parser.idle()) {
      idle.push_back(id);
    }
  }
  for (const std::uint64_t id : idle) closeConnection(id);
}

void Server::acceptConnections() {
  while (true) {
    const int fd = accept4(listenFd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;
    if (conns_.size() >= options_.maxConnections) {
      // Over the cap: best-effort 503 straight into the fresh socket.
      HttpResponse response;
      response.status = 503;
      response.headers.emplace_back("Content-Type", "application/json");
      response.headers.emplace_back(
          "Retry-After", std::to_string(options_.retryAfterSeconds));
      response.body =
          serviceErrorBody("overloaded", "connection limit reached").dump();
      const std::string bytes = serializeResponse(response, false);
      [[maybe_unused]] const ssize_t n =
          send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      close(fd);
      metrics_.connectionsRejected.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>(options_.limits);
    conn->fd = fd;
    conn->id = nextConnId_++;
    fdToConn_[fd] = conn->id;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev);
    metrics_.connectionsAccepted.fetch_add(1, std::memory_order_relaxed);
    metrics_.activeConnections.fetch_add(1, std::memory_order_relaxed);
    conns_.emplace(conn->id, std::move(conn));
  }
}

void Server::closeConnection(std::uint64_t connId) {
  const auto it = conns_.find(connId);
  if (it == conns_.end()) return;
  Connection* conn = it->second.get();
  epoll_ctl(epollFd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  close(conn->fd);
  fdToConn_.erase(conn->fd);
  conns_.erase(it);
  metrics_.activeConnections.fetch_sub(1, std::memory_order_relaxed);
}

void Server::handleReadable(Connection& conn) {
  char buf[16 * 1024];
  while (true) {
    const ssize_t n = read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      conn.inBuf.append(buf, static_cast<std::size_t>(n));
      if (n < static_cast<ssize_t>(sizeof(buf))) break;
      continue;
    }
    if (n == 0) {  // peer closed
      closeConnection(conn.id);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    closeConnection(conn.id);
    return;
  }
  processBuffer(conn);
}

void Server::processBuffer(Connection& conn) {
  // dispatch()/sendError() may close or detach the connection, destroying
  // `conn`; after any call that can, re-check liveness by id before
  // touching it again.
  const std::uint64_t id = conn.id;
  while (!conn.waiting && !conn.closing) {
    const std::string_view pending =
        std::string_view(conn.inBuf).substr(conn.parsed);
    if (pending.empty()) break;
    conn.parsed += conn.parser.feed(pending);
    // Drop the consumed prefix now, while the connection is certainly
    // alive, so pipelined remainders do not accumulate.
    conn.inBuf.erase(0, conn.parsed);
    conn.parsed = 0;
    const ParseStatus status = conn.parser.status();
    if (status == ParseStatus::kNeedMore) break;
    if (status == ParseStatus::kError) {
      const ParseError& error = conn.parser.error();
      metrics_.parseErrors.fetch_add(1, std::memory_order_relaxed);
      metrics_.other.record(error.status, std::chrono::nanoseconds{0});
      sendError(conn, error.status, "bad-request", error.message);
      // Framing is lost; never reuse the connection.
      if (conns_.count(id) != 0) conn.closing = true;
      return;
    }
    HttpRequest request = std::move(conn.parser.request());
    conn.parser.reset();
    dispatch(conn, std::move(request));
    if (conns_.count(id) == 0) return;  // closed or detached to a search
  }
}

// ---- Routing ---------------------------------------------------------------

void Server::dispatch(Connection& conn, HttpRequest request) {
  const auto start = std::chrono::steady_clock::now();
  const std::string_view path = request.path();
  const bool keepAlive = request.keepAlive() && !draining_;

  ClusterHooks* cluster = cluster_.load(std::memory_order_acquire);

  if (path == "/healthz") {
    HttpResponse response;
    const int tier = options_.brownoutEnabled ? brownout_.tier() : 0;
    Json body{JsonObject{}};
    // "degraded" still answers 200: the process is alive and serving what
    // it can; a cluster failure detector reads the tier, not the status
    // code, to steer load away.
    body.set("status", Json(draining_ ? "draining"
                                      : (tier > 0 ? "degraded" : "ok")));
    body.set("brownoutTier", Json(static_cast<double>(tier)));
    if (cluster != nullptr) body.set("cluster", cluster->healthJson());
    response.status = draining_ ? 503 : 200;
    response.headers.emplace_back("Content-Type", "application/json");
    response.body = body.dump();
    sendResponse(conn, response, keepAlive);
    metrics_.healthz.record(response.status,
                            std::chrono::steady_clock::now() - start);
    return;
  }
  if (path == "/metrics") {
    HttpResponse response;
    response.headers.emplace_back("Content-Type", "application/json");
    Json snapshot = metrics_.snapshot(*engine_);
    if (cluster != nullptr) snapshot.set("cluster", cluster->metricsJson());
    response.body = snapshot.pretty();
    sendResponse(conn, response, keepAlive);
    metrics_.metricsEndpoint.record(200,
                                    std::chrono::steady_clock::now() - start);
    return;
  }
  if (path == "/v1/cluster/ping" || path == "/v1/cluster/members") {
    HttpResponse response;
    response.headers.emplace_back("Content-Type", "application/json");
    if (cluster == nullptr) {
      metrics_.other.record(404, std::chrono::nanoseconds{0});
      sendError(conn, 404, "not-a-cluster-node",
                "this server has no cluster layer attached");
      return;
    }
    if (path == "/v1/cluster/ping") {
      if (request.method != "POST") {
        metrics_.other.record(405, std::chrono::nanoseconds{0});
        sendError(conn, 405, "method-not-allowed", "use POST");
        return;
      }
      try {
        response.body = cluster->handlePing(Json::parse(request.body)).dump();
      } catch (const std::exception& e) {
        metrics_.other.record(400, std::chrono::nanoseconds{0});
        sendError(conn, 400, "invalid-request", e.what());
        return;
      }
    } else {
      response.body = cluster->membersJson().dump();
    }
    sendResponse(conn, response, keepAlive);
    metrics_.other.record(200, std::chrono::steady_clock::now() - start);
    return;
  }
  if (path == "/v1/evaluate" || path == "/v1/search") {
    if (request.method != "POST") {
      metrics_.other.record(405, std::chrono::nanoseconds{0});
      sendError(conn, 405, "method-not-allowed", "use POST");
      return;
    }
    if (draining_) {
      metrics_.rejectedDraining.fetch_add(1, std::memory_order_relaxed);
      metrics_.other.record(503, std::chrono::nanoseconds{0});
      sendError(conn, 503, "draining", "server is shutting down",
                /*retryAfter=*/true);
      return;
    }
    if (path == "/v1/evaluate") {
      handleEvaluate(conn, request);
    } else {
      handleSearch(conn, request);
    }
    return;
  }
  metrics_.other.record(404, std::chrono::nanoseconds{0});
  sendError(conn, 404, "not-found",
            "unknown endpoint " + std::string(path));
}

// ---- /v1/evaluate ----------------------------------------------------------

void Server::handleEvaluate(Connection& conn, const HttpRequest& request) {
  const auto start = std::chrono::steady_clock::now();

  EvaluateRequest parsed;
  try {
    parsed = parseEvaluateRequest(Json::parse(request.body));
  } catch (const std::exception& e) {
    metrics_.evaluate.record(400, std::chrono::steady_clock::now() - start);
    sendError(conn, 400, "invalid-request", e.what());
    return;
  }

  const int tier = options_.brownoutEnabled ? brownout_.tier() : 0;
  const bool shedStochastic = tier >= 1;

  // Body "deadlineMs" uses 0 as "unset"; an explicit X-Deadline-Ms header
  // always wins, and an explicit 0 there means "already expired" — the
  // deterministic way to exercise the 504 path.
  std::chrono::milliseconds deadline = parsed.deadline;
  bool explicitDeadline = deadline.count() > 0;
  if (const std::string* header = request.header("x-deadline-ms")) {
    char* end = nullptr;
    const long long value = std::strtoll(header->c_str(), &end, 10);
    if (end == header->c_str() || *end != '\0' || value < 0) {
      metrics_.evaluate.record(400, std::chrono::steady_clock::now() - start);
      sendError(conn, 400, "invalid-request",
                "X-Deadline-Ms must be a non-negative integer");
      return;
    }
    deadline = std::chrono::milliseconds(value);
    explicitDeadline = true;
  }
  if (!explicitDeadline) deadline = options_.defaultDeadline;
  if (deadline > options_.maxDeadline) deadline = options_.maxDeadline;

  Batcher::Job job;
  job.requests.reserve(parsed.items.size());
  for (const EvaluateItem& item : parsed.items) {
    job.requests.push_back(toEngineRequest(item));
  }
  if (explicitDeadline || deadline.count() > 0) {
    job.token = engine::CancellationToken{}.withDeadline(deadline);
  }

  // Everything the completion needs, captured by value: the loop thread may
  // close the connection before the wave lands.
  const std::uint64_t connId = conn.id;
  const bool keepAlive = request.keepAlive();
  const bool arrayShape = parsed.array;
  auto items = std::make_shared<std::vector<EvaluateItem>>(
      std::move(parsed.items));
  job.done = [this, connId, keepAlive, arrayShape, items, start,
              shedStochastic](
                 std::vector<engine::EvalOutcome> outcomes,
                 const engine::EngineStats& stats) {
    HttpResponse response;
    response.headers.emplace_back("Content-Type", "application/json");
    if (!arrayShape) {
      const engine::EvalOutcome& outcome = outcomes.front();
      if (outcome.ok()) {
        response.status = 200;
        response.body = evaluationBody((*items)[0], outcome.value(),
                                       shedStochastic, metrics_)
                            .dump();
      } else {
        response.status = httpStatusFor(outcome.error().code);
        response.body = evalErrorToJson(outcome.error()).dump();
        if (response.status == 503) {
          response.headers.emplace_back(
              "Retry-After", std::to_string(options_.retryAfterSeconds));
        }
      }
    } else {
      JsonArray results;
      results.reserve(outcomes.size());
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        results.push_back(outcomes[i].ok()
                              ? evaluationBody((*items)[i], outcomes[i].value(),
                                               shedStochastic, metrics_)
                              : evalErrorToJson(outcomes[i].error()));
      }
      Json statsJson{JsonObject{}};
      statsJson.set("requests", Json(static_cast<double>(stats.requests)));
      statsJson.set("cacheHits", Json(static_cast<double>(stats.cacheHits)));
      statsJson.set("evaluations",
                    Json(static_cast<double>(stats.evaluations)));
      statsJson.set("failed", Json(static_cast<double>(stats.failed)));
      statsJson.set("cancelled", Json(static_cast<double>(stats.cancelled)));
      Json body{JsonObject{}};
      body.set("results", Json(std::move(results)));
      body.set("stats", statsJson);
      response.status = 200;
      response.body = body.dump();
    }
    metrics_.evaluate.record(response.status,
                             std::chrono::steady_clock::now() - start);
    queueCompletion(connId, serializeResponse(response, keepAlive),
                    /*thenClose=*/!keepAlive);
  };

  // Cluster routing, checked before local brown-out shedding (the owner
  // applies its own): a single-evaluation request whose owner shard is a
  // live peer is forwarded there, making the fleet one distributed cache.
  // The X-Stordep-Forwarded guard means a forwarded request is always
  // computed where it lands, so two momentarily divergent rings cannot
  // bounce a request back and forth.
  if (ClusterHooks* cluster = cluster_.load(std::memory_order_acquire);
      cluster != nullptr && items->size() == 1 &&
      request.header("x-stordep-forwarded") == nullptr) {
    std::string ownerId;
    const engine::Fingerprint key = engine::fingerprintEvaluation(
        *(*items)[0].design, (*items)[0].scenario);
    if (!cluster->ownsEvaluation(key, &ownerId)) {
      conn.waiting = true;  // paused until the forward (or fallback) lands
      auto jobPtr = std::make_shared<Batcher::Job>(std::move(job));
      cluster->forwardEvaluate(
          ownerId, request.body,
          [this, connId, keepAlive, start, jobPtr](ForwardReply reply) {
            HttpResponse response;
            response.headers.emplace_back("Content-Type", "application/json");
            if (reply.ok) {
              // Re-frame the owner's envelope verbatim: byte-identical to
              // what this node would have produced for the same body.
              response.status = reply.status;
              response.body = std::move(reply.body);
            } else {
              // Owner degraded: compute locally (submit is thread-safe; the
              // job's own `done` completes the connection).
              const std::optional<Rejection> rejected =
                  submitEvaluation(*batcher_, metrics_, std::move(*jobPtr));
              if (!rejected) return;
              response.status = rejected->status;
              response.headers.emplace_back(
                  "Retry-After", std::to_string(options_.retryAfterSeconds));
              response.body =
                  serviceErrorBody(rejected->code, rejected->message).dump();
            }
            metrics_.evaluate.record(response.status,
                                     std::chrono::steady_clock::now() - start);
            queueCompletion(connId, serializeResponse(response, keepAlive),
                            /*thenClose=*/!keepAlive);
          });
      return;
    }
  }

  // Brown-out shedding. Tier 3 drops everything; tier 2 admits only
  // requests every item of which is already cached (the probe itself
  // refreshes the entries' LRU position); tier 1 is handled in the
  // completion by stripping stochastic envelopes.
  if (tier >= 3) {
    metrics_.shedCold.fetch_add(1, std::memory_order_relaxed);
    metrics_.evaluate.record(503, std::chrono::steady_clock::now() - start);
    sendError(conn, 503, "browned-out",
              "server is in full brown-out (tier 3)", /*retryAfter=*/true);
    return;
  }
  if (tier >= 2) {
    bool allWarm = true;
    try {
      for (const EvaluateItem& item : *items) {
        const engine::Fingerprint key =
            engine::fingerprintEvaluation(*item.design, item.scenario);
        if (!engine_->cache().lookup(key)) {
          allWarm = false;
          break;
        }
      }
    } catch (...) {
      allWarm = false;  // injected cache-lookup fault: treat as cold
    }
    if (!allWarm) {
      metrics_.shedCold.fetch_add(1, std::memory_order_relaxed);
      metrics_.evaluate.record(503,
                               std::chrono::steady_clock::now() - start);
      sendError(conn, 503, "browned-out",
                "cache-hits-only under brown-out (tier 2); request needs a "
                "cold evaluation",
                /*retryAfter=*/true);
      return;
    }
  }

  if (const std::optional<Rejection> rejected =
          submitEvaluation(*batcher_, metrics_, std::move(job))) {
    metrics_.evaluate.record(rejected->status,
                             std::chrono::steady_clock::now() - start);
    sendError(conn, rejected->status, rejected->code, rejected->message,
              /*retryAfter=*/true);
    return;
  }
  conn.waiting = true;  // responses stay in order: pause this connection
}

// ---- /v1/search ------------------------------------------------------------

void Server::handleSearch(Connection& conn, const HttpRequest& request) {
  // Searches are always cold work; tier 2 already sheds them.
  if (options_.brownoutEnabled && brownout_.tier() >= 2) {
    metrics_.shedCold.fetch_add(1, std::memory_order_relaxed);
    metrics_.search.record(503, std::chrono::nanoseconds{0});
    sendError(conn, 503, "browned-out",
              "searches are shed under brown-out (tier >= 2)",
              /*retryAfter=*/true);
    return;
  }
  if (metrics_.activeSearches.load(std::memory_order_relaxed) >=
      options_.maxConcurrentSearches) {
    metrics_.search.record(503, std::chrono::nanoseconds{0});
    sendError(conn, 503, "search-limit",
              "too many concurrent searches", /*retryAfter=*/true);
    return;
  }
  metrics_.activeSearches.fetch_add(1, std::memory_order_relaxed);

  // Detach the connection from the loop: the search worker owns the socket
  // from here and writes its chunked response with blocking I/O.
  const int fd = conn.fd;
  const std::uint64_t connId = conn.id;
  std::string body = request.body;
  epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
  fdToConn_.erase(fd);
  conns_.erase(connId);

  std::lock_guard<std::mutex> lock(searchThreadsMu_);
  searchThreads_.emplace_back(
      [this, fd, connId, body = std::move(body)]() mutable {
        runSearch(fd, std::move(body));
      });
}

void Server::runSearch(int fd, std::string bodyText) {
  const auto start = std::chrono::steady_clock::now();
  setBlocking(fd);

  int status = 200;
  const auto finish = [&](bool closeFd) {
    if (closeFd) close(fd);
    metrics_.search.record(status, std::chrono::steady_clock::now() - start);
    metrics_.activeSearches.fetch_sub(1, std::memory_order_relaxed);
    metrics_.activeConnections.fetch_sub(1, std::memory_order_relaxed);
    wake();  // drain accounting
  };

  // Search parameters (all optional; {} sweeps the default grid).
  BusinessRequirements business = casestudy::requirements();
  optimizer::SearchOptions searchOptions;
  std::size_t top = 10;
  std::chrono::milliseconds deadline{0};
  // Cluster-coordinator mode ("cluster": true) and range-worker mode
  // ("range": {begin, end}) — the two halves of a distributed sweep.
  bool clusterMode = false;
  ClusterSearchParams clusterParams;
  bool workerMode = false;
  std::uint64_t rangeBegin = 0;
  std::uint64_t rangeEnd = 0;
  bool emitCandidates = false;
  try {
    const Json body = bodyText.empty() ? Json{JsonObject{}}
                                       : Json::parse(bodyText);
    if (!body.isObject()) {
      throw std::runtime_error("search request must be a JSON object");
    }
    if (const Json* rto = body.find("rtoHours")) {
      business.rto = hours(rto->asNumber());
      clusterParams.rtoHoursLiteral = rto->dump();
    }
    if (const Json* rpo = body.find("rpoHours")) {
      business.rpo = hours(rpo->asNumber());
      clusterParams.rpoHoursLiteral = rpo->dump();
    }
    if (const Json* chunk = body.find("streamChunk")) {
      searchOptions.streamChunk =
          static_cast<std::size_t>(std::max(1.0, chunk->asNumber()));
    }
    if (const Json* topN = body.find("top")) {
      top = static_cast<std::size_t>(std::max(1.0, topN->asNumber()));
    }
    if (const Json* deadlineMs = body.find("deadlineMs")) {
      deadline = std::chrono::milliseconds(
          static_cast<long long>(deadlineMs->asNumber()));
    }
    if (const Json* clusterFlag = body.find("cluster")) {
      clusterMode = clusterFlag->asBool();
      if (clusterMode && cluster_.load(std::memory_order_acquire) == nullptr) {
        throw std::runtime_error(
            "\"cluster\": true on a server with no cluster layer attached");
      }
    }
    if (const Json* dir = body.find("checkpointDir")) {
      clusterParams.checkpointDir = dir->asString();
    }
    if (const Json* range = body.find("range")) {
      if (!range->isObject() || range->find("begin") == nullptr ||
          range->find("end") == nullptr) {
        throw std::runtime_error(
            "\"range\" must be an object with begin and end");
      }
      workerMode = true;
      rangeBegin = static_cast<std::uint64_t>(
          std::max(0.0, range->at("begin").asNumber()));
      rangeEnd = static_cast<std::uint64_t>(
          std::max(0.0, range->at("end").asNumber()));
    }
    if (const Json* emit = body.find("emitCandidates")) {
      emitCandidates = emit->asBool();
    }
    if (const Json* path = body.find("checkpointPath")) {
      searchOptions.checkpointPath = path->asString();
    }
    if (const Json* delayMs = body.find("waveDelayMs")) {
      // Clamped: a wave delay exists for deterministic mid-sweep kills in
      // tests, not as a general-purpose throttle.
      searchOptions.waveDelay = std::chrono::milliseconds(std::min(
          1000LL, std::max(0LL,
                           static_cast<long long>(delayMs->asNumber()))));
    }
    if (clusterMode && workerMode) {
      throw std::runtime_error("\"cluster\" and \"range\" are exclusive");
    }
  } catch (const std::exception& e) {
    status = 400;
    HttpResponse response;
    response.status = 400;
    response.headers.emplace_back("Content-Type", "application/json");
    response.body = serviceErrorBody("invalid-request", e.what()).dump();
    writeAll(fd, serializeResponse(response, false));
    finish(true);
    return;
  }
  if (deadline.count() > 0 && deadline > options_.maxDeadline) {
    deadline = options_.maxDeadline;
  }

  searchOptions.eng = engine_;
  // The search token is owned by this worker so a broken pipe can cancel
  // just this search; the server-wide drain flag is folded in by polling
  // it at every progress boundary below.
  engine::CancellationSource localStop;
  const engine::CancellationToken drainToken = stopSource_.token();
  if (drainToken.cancelled()) localStop.cancel();
  engine::CancellationToken token = localStop.token();
  if (deadline.count() > 0) token = token.withDeadline(deadline);
  searchOptions.token = token;

  optimizer::DesignSpaceCursor cursor;
  if (workerMode) cursor.restrictTo(rangeBegin, rangeEnd);
  const std::uint64_t total =
      optimizer::gridCardinality(optimizer::DesignSpaceOptions{});

  HttpHeaders headers;
  headers.emplace_back("Content-Type", "application/x-ndjson");
  bool alive = writeAll(fd, serializeChunkedHead(200, headers));
  bool peerDisconnected = false;
  // In cluster mode progress (and in worker mode candidate lines) can be
  // written from several threads; every socket write below holds streamMu.
  std::mutex streamMu;
  const auto onPeerGone = [&] {
    // Broken pipe: the client went away mid-stream. Cancel this search so
    // it stops at its next wave instead of burning the rest of the sweep,
    // and make the event observable in /metrics.
    if (!peerDisconnected) {
      peerDisconnected = true;
      localStop.cancel();
      metrics_.searchPeerDisconnects.fetch_add(1, std::memory_order_relaxed);
    }
  };
  if (!alive) onPeerGone();
  const auto reportProgress = [&](std::size_t done) {
    if (drainToken.cancelled()) localStop.cancel();
    std::lock_guard<std::mutex> lock(streamMu);
    if (!alive) return;
    Json progress{JsonObject{}};
    progress.set("done", Json(static_cast<double>(done)));
    progress.set("total", Json(static_cast<double>(total)));
    Json line{JsonObject{}};
    line.set("progress", progress);
    alive = writeAll(fd, encodeChunk(line.dump() + "\n"));
    if (!alive) onPeerGone();
  };
  searchOptions.onProgress = reportProgress;
  if (emitCandidates) {
    // Worker mode streams every finished candidate (ranked and rejected
    // alike, exactly as the checkpoint journal serializes them) so the
    // coordinator's merged counts match a single-node sweep.
    searchOptions.onCandidates =
        [&](const std::vector<optimizer::EvaluatedCandidate>& wave) {
          std::lock_guard<std::mutex> lock(streamMu);
          if (!alive || wave.empty()) return;
          std::string lines;
          for (const optimizer::EvaluatedCandidate& candidate : wave) {
            Json line{JsonObject{}};
            line.set("candidate",
                     optimizer::evaluatedCandidateToJson(candidate));
            lines += line.dump();
            lines += '\n';
          }
          alive = writeAll(fd, encodeChunk(lines));
          if (!alive) onPeerGone();
        };
  }

  optimizer::SearchResult result;
  if (clusterMode) {
    clusterParams.search = searchOptions;
    clusterParams.search.onProgress = nullptr;
    clusterParams.search.onCandidates = nullptr;
    clusterParams.business = business;
    result = cluster_.load(std::memory_order_acquire)
                 ->clusterSearch(clusterParams, reportProgress, token);
  } else {
    result = optimizer::searchDesignSpaceStreaming(
        cursor, casestudy::celloWorkload(), business,
        optimizer::caseStudyScenarios(), searchOptions);
  }

  if (alive) {
    const Json line = searchResultLine(result, top);
    alive = writeAll(fd, encodeChunk(line.dump() + "\n"));
    if (alive) writeAll(fd, std::string(kLastChunk));
  }
  finish(true);
}

// ---- Responses -------------------------------------------------------------

void Server::sendResponse(Connection& conn, const HttpResponse& response,
                          bool keepAlive) {
  conn.outBuf += serializeResponse(response, keepAlive);
  if (!keepAlive) conn.closing = true;
  handleWritable(conn);
}

void Server::sendError(Connection& conn, int status, const std::string& code,
                       const std::string& message, bool retryAfter) {
  HttpResponse response;
  response.status = status;
  response.headers.emplace_back("Content-Type", "application/json");
  if (retryAfter) {
    response.headers.emplace_back("Retry-After",
                                  std::to_string(options_.retryAfterSeconds));
  }
  response.body = serviceErrorBody(code, message).dump();
  // Admission rejections keep the connection: the client is told to retry.
  const bool keepAlive = (status == 429 || status == 503) && !draining_ &&
                         !conn.closing;
  sendResponse(conn, response, keepAlive);
}

void Server::handleWritable(Connection& conn) {
  while (conn.written < conn.outBuf.size()) {
    const ssize_t n = send(conn.fd, conn.outBuf.data() + conn.written,
                           conn.outBuf.size() - conn.written, MSG_NOSIGNAL);
    if (n >= 0) {
      conn.written += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    closeConnection(conn.id);
    return;
  }
  const bool drained = conn.written == conn.outBuf.size();
  if (drained) {
    conn.outBuf.clear();
    conn.written = 0;
    if (conn.closing) {
      closeConnection(conn.id);
      return;
    }
    // During a drain, a connection that has answered everything and has no
    // request in progress is done.
    if (draining_ && !conn.waiting && conn.parser.idle() &&
        conn.parsed == conn.inBuf.size()) {
      closeConnection(conn.id);
      return;
    }
  }
  const bool wantOut = !drained;
  if (wantOut != conn.epollOut) {
    epoll_event ev{};
    ev.events = EPOLLIN | (wantOut ? EPOLLOUT : 0u);
    ev.data.fd = conn.fd;
    epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn.fd, &ev);
    conn.epollOut = wantOut;
  }
}

void Server::queueCompletion(std::uint64_t connId, std::string bytes,
                             bool thenClose) {
  {
    std::lock_guard<std::mutex> lock(completionsMu_);
    completions_.push_back(Completion{connId, std::move(bytes), thenClose});
  }
  wake();
}

void Server::drainCompletions() {
  std::vector<Completion> ready;
  {
    std::lock_guard<std::mutex> lock(completionsMu_);
    ready.swap(completions_);
  }
  for (Completion& completion : ready) {
    const auto it = conns_.find(completion.connId);
    if (it == conns_.end()) continue;  // client vanished mid-evaluation
    Connection& conn = *it->second;
    conn.waiting = false;
    conn.outBuf += completion.bytes;
    if (completion.thenClose) conn.closing = true;
    handleWritable(conn);
    // Pipelined follow-on requests may already be buffered.
    if (conns_.count(completion.connId) != 0 && !conn.closing) {
      processBuffer(conn);
    }
  }
}

}  // namespace stordep::service
