// End-to-end tests for the resilience layer:
//   * deterministic chaos planning (same seed -> same fault schedule) and
//     the proxy's pass-through / torn-write / truncation behaviors;
//   * the reworked base Client retry contract: no double-submit after a
//     torn response, send-failed vs response-lost classification;
//   * ResilientClient recovery through socket chaos, hedging past a
//     black-holed connection, and gapless mid-stream resume;
//   * retry backoff and circuit-breaker unit behavior on a manual clock;
//   * brown-out controller hysteresis, and the server's forced-tier
//     shedding observable over /healthz and /metrics;
//   * a client disconnect mid-NDJSON search stream cancels the worker and
//     frees its concurrency slot;
//   * a SIGKILL loop over a journaled sweep always resumes to the serial
//     ranking (torn-tail recovery under a real crashing writer);
//   * swallowed cache-insert faults are counted, not lost.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "casestudy/casestudy.hpp"
#include "config/design_io.hpp"
#include "engine/batch.hpp"
#include "engine/eval_cache.hpp"
#include "engine/fault_injection.hpp"
#include "optimizer/search.hpp"
#include "service/client.hpp"
#include "service/json_api.hpp"
#include "service/resilience/brownout.hpp"
#include "service/resilience/chaos_proxy.hpp"
#include "service/resilience/resilient_client.hpp"
#include "service/resilience/retry.hpp"
#include "service/server.hpp"
#include "sim/rng.hpp"

namespace stordep::service::resilience {
namespace {

namespace cs = stordep::casestudy;
namespace eng = stordep::engine;
namespace opt = stordep::optimizer;
using config::Json;
using config::JsonObject;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

// ---- Fixtures --------------------------------------------------------------

struct Pair {
  std::string payload;
  std::string expectedBody;
};

/// One evaluate payload plus the byte-exact response the server must
/// produce for it (serial engine over the round-tripped design, exactly as
/// the loopback service tests do it).
Pair makePair(const StorageDesign& design, const FailureScenario& scenario) {
  eng::Engine serial(eng::EngineOptions{.threads = 1});
  Pair pair;
  const Json designJson = config::designToJson(design);
  const StorageDesign roundTripped = config::designFromJson(designJson);
  Json payload{JsonObject{}};
  payload.set("design", designJson);
  payload.set("scenario", config::scenarioToJson(scenario));
  pair.payload = payload.dump();
  const eng::EvalOutcome outcome = serial.tryEvaluate(roundTripped, scenario);
  pair.expectedBody =
      outcome.ok()
          ? evaluationToJson(roundTripped, scenario, outcome.value()).dump()
          : evalErrorToJson(outcome.error()).dump();
  return pair;
}

bool waitFor(const std::function<bool()>& condition,
             milliseconds budget = milliseconds{5000}) {
  const auto deadline = steady_clock::now() + budget;
  while (steady_clock::now() < deadline) {
    if (condition()) return true;
    std::this_thread::sleep_for(milliseconds{2});
  }
  return condition();
}

// A scripted single-purpose HTTP "server": for each accepted connection it
// reads one full request (headers + Content-Length body), then writes the
// scripted bytes and closes. Counts the complete requests it observed —
// the double-submit oracle.
class ScriptedServer {
 public:
  explicit ScriptedServer(std::vector<std::string> responses)
      : responses_(std::move(responses)) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd_, 0);
    const int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    EXPECT_EQ(::listen(fd_, 8), 0);
    thread_ = std::thread([this] { run(); });
  }

  ~ScriptedServer() {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
    if (thread_.joinable()) thread_.join();
    if (fd_ >= 0) ::close(fd_);
  }

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] int requestsSeen() const noexcept {
    return requestsSeen_.load();
  }

 private:
  void run() {
    for (const std::string& response : responses_) {
      const int conn = ::accept(fd_, nullptr, nullptr);
      if (conn < 0) return;
      if (readFullRequest(conn)) requestsSeen_.fetch_add(1);
      if (!response.empty()) {
        (void)!::send(conn, response.data(), response.size(), MSG_NOSIGNAL);
      }
      ::close(conn);
    }
  }

  static bool readFullRequest(int conn) {
    std::string buffer;
    char chunk[1024];
    std::size_t bodyNeeded = 0;
    std::size_t headerEnd = std::string::npos;
    for (;;) {
      if (headerEnd != std::string::npos &&
          buffer.size() >= headerEnd + 4 + bodyNeeded) {
        return true;
      }
      const ssize_t got = ::recv(conn, chunk, sizeof(chunk), 0);
      if (got <= 0) return false;
      buffer.append(chunk, static_cast<std::size_t>(got));
      if (headerEnd == std::string::npos) {
        headerEnd = buffer.find("\r\n\r\n");
        if (headerEnd != std::string::npos) {
          const std::size_t at = buffer.find("Content-Length:");
          if (at != std::string::npos) {
            bodyNeeded = static_cast<std::size_t>(
                std::strtoul(buffer.c_str() + at + 15, nullptr, 10));
          }
        }
      }
    }
  }

  std::vector<std::string> responses_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<int> requestsSeen_{0};
};

// ---- Chaos planning determinism --------------------------------------------

TEST(ChaosPlan, PureFunctionOfSeedAndConnId) {
  ChaosOptions options;
  options.seed = 42;
  options.resetProb = 0.1;
  options.stallProb = 0.1;
  options.tornWriteProb = 0.2;
  options.truncateProb = 0.1;
  options.trickleProb = 0.1;
  options.blackholeProb = 0.05;

  std::set<int> faultsSeen;
  for (std::uint64_t conn = 0; conn < 256; ++conn) {
    const ChaosDecision a = ChaosProxy::planFor(options, conn);
    const ChaosDecision b = ChaosProxy::planFor(options, conn);
    EXPECT_EQ(a.fault, b.fault);
    EXPECT_EQ(a.param, b.param);
    EXPECT_EQ(a.connId, conn);
    faultsSeen.insert(static_cast<int>(a.fault));
  }
  // With these probabilities 256 connections exercise several fault kinds
  // and leave plenty untouched.
  EXPECT_GE(faultsSeen.size(), 3u);
  EXPECT_NE(faultsSeen.count(static_cast<int>(ChaosFault::kNone)), 0u);

  // A different seed must produce a different schedule somewhere.
  ChaosOptions other = options;
  other.seed = 43;
  bool differs = false;
  for (std::uint64_t conn = 0; conn < 256 && !differs; ++conn) {
    differs = ChaosProxy::planFor(options, conn).fault !=
              ChaosProxy::planFor(other, conn).fault;
  }
  EXPECT_TRUE(differs);
}

TEST(ChaosPlan, ZeroProbabilitiesPlanNothing) {
  const ChaosOptions quiet;  // all probabilities default to 0
  for (std::uint64_t conn = 0; conn < 32; ++conn) {
    const ChaosDecision decision = ChaosProxy::planFor(quiet, conn);
    EXPECT_EQ(decision.fault, ChaosFault::kNone);
    EXPECT_FALSE(decision.applied);
  }
}

// ---- Proxy pass-through and byte fidelity ----------------------------------

TEST(ChaosProxyLoopback, QuietProxyIsTransparent) {
  Server server;
  server.start();
  ChaosProxy proxy("127.0.0.1", server.port(), ChaosOptions{});
  proxy.start();

  const Pair pair = makePair(cs::baseline(), cs::objectFailure());
  Client direct("127.0.0.1", server.port());
  Client proxied("127.0.0.1", proxy.port());

  const HttpClientResponse health = proxied.get("/healthz");
  EXPECT_EQ(health.status, 200);

  // Keep-alive: two requests over the same proxied connection.
  for (int i = 0; i < 2; ++i) {
    const HttpClientResponse viaProxy =
        proxied.post("/v1/evaluate", pair.payload);
    const HttpClientResponse reference =
        direct.post("/v1/evaluate", pair.payload);
    EXPECT_EQ(viaProxy.status, 200);
    EXPECT_EQ(viaProxy.body, reference.body);
    EXPECT_EQ(viaProxy.body, pair.expectedBody);
  }

  const ChaosProxy::Stats stats = proxy.stats();
  EXPECT_GE(stats.connections, 1u);
  EXPECT_EQ(stats.faultsInjected, 0u);
  proxy.stop();
  server.shutdown();
}

TEST(ChaosProxyLoopback, TornWritesDoNotCorruptBytes) {
  Server server;
  server.start();
  ChaosOptions options;
  options.seed = 7;
  options.tornWriteProb = 1.0;
  ChaosProxy proxy("127.0.0.1", server.port(), options);
  proxy.start();

  const Pair pair = makePair(cs::baseline(), cs::arrayFailure());
  Client proxied("127.0.0.1", proxy.port());
  const HttpClientResponse response =
      proxied.post("/v1/evaluate", pair.payload);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, pair.expectedBody);
  EXPECT_GE(proxy.stats().byFault[static_cast<int>(ChaosFault::kTornWrite)],
            1u);
  proxy.stop();
  server.shutdown();
}

TEST(ChaosProxyLoopback, TruncationFailsPlainClientResilientClientRecovers) {
  Server server;
  server.start();
  const Pair pair = makePair(cs::baseline(), cs::siteDisaster());

  {
    // Unlimited truncation: the base client's single safe retry hits a
    // second truncated connection and surfaces the transport error.
    ChaosOptions options;
    options.seed = 11;
    options.truncateProb = 1.0;
    ChaosProxy proxy("127.0.0.1", server.port(), options);
    proxy.start();
    Client plain("127.0.0.1", proxy.port());
    EXPECT_THROW((void)plain.post("/v1/evaluate", pair.payload),
                 TransportError);
    proxy.stop();
  }

  {
    // Budget 2: the resilient client's first attempt is truncated twice
    // (burning the base client's single inner retry too), then its own
    // backoff-retry passes through clean and the bytes are exact.
    ChaosOptions options;
    options.seed = 11;
    options.truncateProb = 1.0;
    options.truncateBudget = 2;
    ChaosProxy proxy("127.0.0.1", server.port(), options);
    proxy.start();
    ResilientClientOptions clientOptions;
    clientOptions.retry.baseBackoff = milliseconds{1};
    clientOptions.retry.maxBackoff = milliseconds{20};
    ResilientClient client("127.0.0.1", proxy.port(), clientOptions);
    const ResilientClient::Result result =
        client.post("/v1/evaluate", pair.payload);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().status, 200);
    EXPECT_EQ(result.value().body, pair.expectedBody);
    EXPECT_GE(client.stats().attempts, 2u);
    EXPECT_GE(client.stats().retries, 1u);

    // The audit trail matches a recomputation of the plan.
    for (const ChaosDecision& decision : proxy.decisions()) {
      const ChaosDecision replanned =
          ChaosProxy::planFor(options, decision.connId);
      EXPECT_EQ(decision.fault, replanned.fault);
      EXPECT_EQ(decision.param, replanned.param);
    }
    proxy.stop();
  }
  server.shutdown();
}

TEST(ChaosProxyLoopback, HedgeOutrunsABlackholedConnection) {
  Server server;
  server.start();
  ChaosOptions options;
  options.seed = 3;
  options.blackholeProb = 1.0;
  options.blackholeBudget = 1;  // only the primary's connection is swallowed
  options.blackholeHold = milliseconds{400};
  ChaosProxy proxy("127.0.0.1", server.port(), options);
  proxy.start();

  const Pair pair = makePair(cs::baseline(), cs::objectFailure());
  ResilientClientOptions clientOptions;
  clientOptions.hedging = true;
  clientOptions.hedgeFloor = milliseconds{15};
  clientOptions.timeout = milliseconds{3000};
  clientOptions.retry.baseBackoff = milliseconds{1};
  ResilientClient client("127.0.0.1", proxy.port(), clientOptions);

  const auto start = steady_clock::now();
  const ResilientClient::Result result =
      client.post("/v1/evaluate", pair.payload);
  const auto elapsed = steady_clock::now() - start;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().status, 200);
  EXPECT_EQ(result.value().body, pair.expectedBody);
  EXPECT_GE(client.stats().hedges, 1u);
  EXPECT_GE(client.stats().hedgeWins, 1u);
  // The hedge finished long before the black hole released the primary's
  // socket timeout would have.
  EXPECT_LT(elapsed, clientOptions.timeout);

  proxy.stop();
  // Let the abandoned primary runner observe its dead socket before the
  // stack unwinds.
  std::this_thread::sleep_for(milliseconds{50});
  server.shutdown();
}

// ---- Base client retry contract --------------------------------------------

TEST(ClientRetryContract, TornResponseOnNonIdempotentRequestIsNotResent) {
  // The scripted server answers the first (and only) request with a torn
  // response: headers promise 10 bytes, 5 arrive, then FIN.
  ScriptedServer fake({"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhello"});
  Client client("127.0.0.1", fake.port());
  try {
    (void)client.post("/submit", "{}", {}, /*idempotent=*/false);
    FAIL() << "expected TransportError";
  } catch (const TransportError& error) {
    EXPECT_EQ(error.stage(), TransportError::Stage::kResponseTorn);
    EXPECT_FALSE(error.safeToRetry(/*idempotent=*/false));
    EXPECT_TRUE(error.safeToRetry(/*idempotent=*/true));
  }
  // The server saw the request exactly once: no blind double-submit.
  EXPECT_EQ(fake.requestsSeen(), 1);
}

TEST(ClientRetryContract, ResponseLostOnFreshConnectionIsNotResent) {
  // Full request read, zero response bytes, close: the server may have
  // applied the request, so a non-idempotent caller must not retry.
  ScriptedServer fake({""});
  Client client("127.0.0.1", fake.port());
  try {
    (void)client.post("/submit", "{}", {}, /*idempotent=*/false);
    FAIL() << "expected TransportError";
  } catch (const TransportError& error) {
    EXPECT_EQ(error.stage(), TransportError::Stage::kResponseNone);
    EXPECT_FALSE(error.reusedConnection());
    EXPECT_FALSE(error.safeToRetry(/*idempotent=*/false));
  }
  EXPECT_EQ(fake.requestsSeen(), 1);
}

TEST(ClientRetryContract, IdempotentRequestRetriesTornResponseOnce) {
  ScriptedServer fake(
      {"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhello",
       "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok"});
  Client client("127.0.0.1", fake.port());
  const HttpClientResponse response =
      client.post("/submit", "{}", {}, /*idempotent=*/true);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "ok");
  EXPECT_EQ(fake.requestsSeen(), 2);
}

// ---- Backoff and circuit breaker -------------------------------------------

TEST(RetryBackoff, DecorrelatedJitterIsDeterministicAndBounded) {
  RetryPolicy policy;
  policy.baseBackoff = milliseconds{10};
  policy.maxBackoff = milliseconds{400};

  sim::Rng a(99);
  sim::Rng b(99);
  milliseconds prevA = policy.baseBackoff;
  milliseconds prevB = policy.baseBackoff;
  for (int i = 0; i < 64; ++i) {
    const milliseconds nextA = nextBackoff(policy, prevA, a);
    const milliseconds nextB = nextBackoff(policy, prevB, b);
    EXPECT_EQ(nextA, nextB);  // same rng stream -> same schedule
    EXPECT_GE(nextA, milliseconds{1});
    EXPECT_LE(nextA, policy.maxBackoff);
    prevA = nextA;
    prevB = nextB;
  }
}

TEST(CircuitBreakerUnit, OpensFailsFastHalfOpensAndRecloses) {
  CircuitBreakerOptions options;
  options.window = 8;
  options.minSamples = 4;
  options.failureRateToOpen = 0.5;
  options.openFor = milliseconds{1000};
  options.halfOpenProbes = 1;
  CircuitBreaker breaker(options);

  auto now = steady_clock::now();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(breaker.allow(now));
    breaker.record(false, now);
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  // Fail-fast while open.
  EXPECT_FALSE(breaker.allow(now + milliseconds{10}));
  EXPECT_FALSE(breaker.allow(now + milliseconds{999}));
  EXPECT_EQ(breaker.shortCircuits(), 2u);

  // Open period over: one probe is admitted, a second is not.
  now += milliseconds{1001};
  EXPECT_TRUE(breaker.allow(now));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.allow(now));

  // Probe success closes and clears the window.
  breaker.record(true, now);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_NEAR(breaker.failureRate(), 0.0, 1e-12);
}

TEST(CircuitBreakerUnit, HalfOpenProbeFailureReopens) {
  CircuitBreakerOptions options;
  options.window = 4;
  options.minSamples = 2;
  options.failureRateToOpen = 0.5;
  options.openFor = milliseconds{100};
  CircuitBreaker breaker(options);

  auto now = steady_clock::now();
  ASSERT_TRUE(breaker.allow(now));
  breaker.record(false, now);
  ASSERT_TRUE(breaker.allow(now));
  breaker.record(false, now);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  now += milliseconds{101};
  ASSERT_TRUE(breaker.allow(now));
  breaker.record(false, now);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  // The reopened period starts from the probe failure.
  EXPECT_FALSE(breaker.allow(now + milliseconds{50}));
  EXPECT_TRUE(breaker.allow(now + milliseconds{101}));
}

TEST(CircuitBreakerUnit, StatesHaveStableNames) {
  EXPECT_STREQ(toString(CircuitBreaker::State::kClosed), "closed");
  EXPECT_STREQ(toString(CircuitBreaker::State::kOpen), "open");
  EXPECT_STREQ(toString(CircuitBreaker::State::kHalfOpen), "half-open");
}

TEST(ResilientClientUnit, DeadServerTripsTheBreakerAndFailsFast) {
  // Bind-then-close: a port with nothing listening.
  std::uint16_t deadPort = 0;
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    deadPort = ntohs(addr.sin_port);
    ::close(fd);
  }

  ResilientClientOptions options;
  options.retry.maxAttempts = 2;
  options.retry.baseBackoff = milliseconds{1};
  options.retry.maxBackoff = milliseconds{5};
  options.breaker.window = 8;
  options.breaker.minSamples = 3;
  options.breaker.failureRateToOpen = 0.5;
  options.breaker.openFor = milliseconds{60'000};
  options.timeout = milliseconds{250};
  ResilientClient client("127.0.0.1", deadPort, options);

  for (int i = 0; i < 4; ++i) {
    const ResilientClient::Result result = client.get("/metrics");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, eng::EvalErrorCode::kUnavailable);
    EXPECT_TRUE(result.error().transient);
  }
  EXPECT_EQ(client.breakerState("/metrics"), CircuitBreaker::State::kOpen);
  EXPECT_GE(client.stats().breakerShortCircuits, 1u);
}

// ---- Brown-out controller ---------------------------------------------------

TEST(BrownoutUnit, EscalatesOnSustainedPressureRecoversWithHysteresis) {
  BrownoutOptions options;
  options.ticksToEscalate = 3;
  options.ticksToRecover = 4;
  BrownoutController controller(options);

  // Two hot ticks are not enough; the third escalates.
  EXPECT_EQ(controller.tick(0.9, 0), 0);
  EXPECT_EQ(controller.tick(0.9, 0), 0);
  EXPECT_EQ(controller.tick(0.9, 0), 1);
  EXPECT_EQ(controller.transitions(), 1u);

  // Mid-band pressure resets both streaks (no flapping).
  for (int i = 0; i < 16; ++i) EXPECT_EQ(controller.tick(0.5, 0), 1);

  // Sustained cool ticks walk back down one tier.
  EXPECT_EQ(controller.tick(0.0, 0), 1);
  EXPECT_EQ(controller.tick(0.0, 0), 1);
  EXPECT_EQ(controller.tick(0.0, 0), 1);
  EXPECT_EQ(controller.tick(0.0, 0), 0);
  EXPECT_EQ(controller.transitions(), 2u);
}

TEST(BrownoutUnit, FailedWavesEscalateEvenWithShallowQueue) {
  BrownoutOptions options;
  options.ticksToEscalate = 2;
  options.failedWavesToEscalate = 3;
  BrownoutController controller(options);
  EXPECT_EQ(controller.tick(0.0, 5), 0);  // hot: failed waves, not pressure
  EXPECT_EQ(controller.tick(0.0, 5), 1);
  EXPECT_EQ(controller.tick(0.0, 5), 1);
  EXPECT_EQ(controller.tick(0.0, 5), 2);
}

TEST(BrownoutUnit, ForcePinsAndReleases) {
  BrownoutController controller;
  EXPECT_EQ(controller.tier(), 0);
  controller.force(3);
  EXPECT_EQ(controller.tier(), 3);
  const std::uint64_t afterPin = controller.transitions();
  EXPECT_GE(afterPin, 1u);
  // Ticks cannot override a pin.
  EXPECT_EQ(controller.tick(0.0, 0), 3);
  controller.force(-1);
  EXPECT_EQ(controller.tier(), 0);
}

// ---- Server brown-out tiers over the wire ----------------------------------

TEST(ServerBrownout, ForcedTiersShedAndRecoverObservably) {
  Server server;
  server.start();
  Client client("127.0.0.1", server.port());

  const Pair warm = makePair(cs::baseline(), cs::objectFailure());
  const Pair cold = makePair(cs::baseline(), cs::siteDisaster());

  // Warm one payload at tier 0.
  EXPECT_EQ(client.post("/v1/evaluate", warm.payload).status, 200);

  // Tier 1: evaluate still answers, but stochastic envelopes are shed.
  server.forceBrownoutTier(1);
  ASSERT_TRUE(waitFor([&] { return server.brownoutTier() == 1; }));
  Json stochasticPayload = Json::parse(warm.payload);
  Json stochastic{JsonObject{}};
  stochastic.set("trials", Json(8.0));
  stochastic.set("seed", Json(5.0));
  stochasticPayload.set("stochastic", stochastic);
  const HttpClientResponse tier1 =
      client.post("/v1/evaluate", stochasticPayload.dump());
  EXPECT_EQ(tier1.status, 200);
  EXPECT_NE(tier1.body.find("shed under brown-out"), std::string::npos);
  EXPECT_GE(server.metrics().shedStochastic.load(), 1u);

  // Tier 2: warm requests answer from the cache, cold ones get 503 with
  // Retry-After, searches are shed, /healthz reports degraded.
  server.forceBrownoutTier(2);
  ASSERT_TRUE(waitFor([&] { return server.brownoutTier() == 2; }));
  const HttpClientResponse health = client.get("/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("degraded"), std::string::npos);

  const HttpClientResponse warmHit = client.post("/v1/evaluate", warm.payload);
  EXPECT_EQ(warmHit.status, 200);
  EXPECT_EQ(warmHit.body, warm.expectedBody);

  const HttpClientResponse coldMiss = client.post("/v1/evaluate", cold.payload);
  EXPECT_EQ(coldMiss.status, 503);
  EXPECT_NE(coldMiss.header("Retry-After"), nullptr);

  const HttpClientResponse search =
      client.post("/v1/search", "{\"top\": 1, \"streamChunk\": 64}");
  EXPECT_EQ(search.status, 503);

  const Json metrics = Json::parse(client.get("/metrics").body);
  EXPECT_EQ(metrics.at("resilience").at("brownoutTier").asNumber(), 2.0);
  EXPECT_GE(metrics.at("resilience").at("shedCold").asNumber(), 1.0);
  EXPECT_GE(metrics.at("resilience").at("brownoutTransitions").asNumber(),
            1.0);

  // Tier 3: everything sheds.
  server.forceBrownoutTier(3);
  ASSERT_TRUE(waitFor([&] { return server.brownoutTier() == 3; }));
  EXPECT_EQ(client.post("/v1/evaluate", warm.payload).status, 503);

  // Release the pin: the controller recovers to tier 0 and cold requests
  // evaluate again.
  server.forceBrownoutTier(-1);
  ASSERT_TRUE(waitFor([&] { return server.brownoutTier() == 0; }));
  const HttpClientResponse recovered =
      client.post("/v1/evaluate", cold.payload);
  EXPECT_EQ(recovered.status, 200);
  EXPECT_EQ(recovered.body, cold.expectedBody);
  server.shutdown();
}

// ---- Search peer disconnect -------------------------------------------------

TEST(ServerSearch, PeerDisconnectCancelsWorkerAndFreesSlot) {
  ServerOptions options;
  options.maxConcurrentSearches = 1;
  Server server(options);
  server.start();

  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server.port());
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    // One-candidate waves paced 20 ms apart: the unpaced default grid
    // sweeps in ~10 ms, which can finish before the RST below lands and
    // leave no write to fail. Paced, the sweep outlasts the disconnect by
    // seconds; the cancellation then stops it at the next wave.
    const std::string body = "{\"streamChunk\": 1, \"waveDelayMs\": 20}";
    const std::string request =
        "POST /v1/search HTTP/1.1\r\nHost: localhost\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;
    ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(request.size()));

    // Read the head of the chunked response so the worker is known to be
    // streaming, then vanish with an RST mid-stream.
    char buffer[256];
    ASSERT_GT(::recv(fd, buffer, sizeof(buffer), 0), 0);
    const linger abort{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort, sizeof(abort));
    ::close(fd);
  }

  // The worker notices the broken pipe, cancels its own search, releases
  // the slot and counts the disconnect.
  ASSERT_TRUE(waitFor(
      [&] { return server.metrics().activeSearches.load() == 0; },
      milliseconds{10'000}));
  EXPECT_TRUE(waitFor(
      [&] { return server.metrics().searchPeerDisconnects.load() >= 1; },
      milliseconds{5000}));

  // The single search slot is free again: a well-behaved search succeeds.
  Client client("127.0.0.1", server.port());
  std::vector<std::string> lines;
  const HttpClientResponse response = client.postStreaming(
      "/v1/search", "{\"top\": 3, \"streamChunk\": 128}",
      [&](std::string_view line) { lines.emplace_back(line); });
  EXPECT_EQ(response.status, 200);
  ASSERT_GE(lines.size(), 2u);
  EXPECT_NE(Json::parse(lines.back()).find("result"), nullptr);
  server.shutdown();
}

// ---- Gapless streaming resume ----------------------------------------------

TEST(StreamingResume, MidStreamTruncationResumesWithoutGapsOrDuplicates) {
  Server server;
  server.start();

  // Reference stream, chaos-free. The search and its progress cadence are
  // deterministic, so the resumed stream must reproduce it line for line.
  std::vector<std::string> reference;
  {
    Client direct("127.0.0.1", server.port());
    const HttpClientResponse response = direct.postStreaming(
        "/v1/search", "{\"top\": 3, \"streamChunk\": 16}",
        [&](std::string_view line) { reference.emplace_back(line); });
    ASSERT_EQ(response.status, 200);
    ASSERT_GE(reference.size(), 3u);
  }

  ChaosOptions options;
  options.seed = 21;
  options.truncateProb = 1.0;
  options.truncateBudget = 1;
  options.truncateMaxBytes = 600;  // deep enough to cut mid-stream
  ChaosProxy proxy("127.0.0.1", server.port(), options);
  proxy.start();

  ResilientClientOptions clientOptions;
  clientOptions.retry.baseBackoff = milliseconds{1};
  ResilientClient client("127.0.0.1", proxy.port(), clientOptions);
  std::vector<std::string> streamed;
  const ResilientClient::Result result = client.postStreaming(
      "/v1/search", "{\"top\": 3, \"streamChunk\": 16}",
      [&](std::string_view line) { streamed.emplace_back(line); });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().status, 200);
  EXPECT_GE(client.stats().attempts, 2u);  // the truncation forced a retry

  ASSERT_EQ(streamed.size(), reference.size());
  // Progress lines must match byte for byte — gapless and duplicate-free.
  for (std::size_t i = 0; i + 1 < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i], reference[i]) << "line " << i;
  }
  // The result line carries wall-clock fields; compare its structure.
  const Json got = Json::parse(streamed.back());
  const Json want = Json::parse(reference.back());
  ASSERT_NE(got.find("result"), nullptr);
  for (const char* key : {"evaluated", "rankedCount", "rejectedCount",
                          "failed"}) {
    EXPECT_EQ(got.at("result").at(key).asNumber(),
              want.at("result").at(key).asNumber())
        << key;
  }
  EXPECT_EQ(got.at("result").at("top").dump(),
            want.at("result").at("top").dump());
  proxy.stop();
  server.shutdown();
}

// ---- SIGKILL torn-tail recovery ---------------------------------------------

TEST(CheckpointSigkill, KilledWriterLoopAlwaysResumesToTheSerialRanking) {
  // The full default space (a few hundred candidates): the journaled
  // sweep has to run long enough for a SIGKILL to land mid-record.
  const std::vector<opt::CandidateSpec> candidates =
      opt::enumerateDesignSpace(opt::DesignSpaceOptions{});
  const WorkloadSpec workload = cs::celloWorkload();
  const BusinessRequirements business = cs::requirements();
  const std::vector<opt::ScenarioCase> scenarios = opt::caseStudyScenarios();
  const opt::SearchResult serial =
      opt::searchDesignSpaceSerial(candidates, workload, business, scenarios);

  const std::string path =
      ::testing::TempDir() + "stordep_sigkill_journal.jsonl";
  std::filesystem::remove(path);

  // Repeatedly run the journaled sweep in a child and SIGKILL it after a
  // random slice of progress. Each round resumes whatever (possibly torn)
  // journal the previous corpse left behind. The loop ends when a child
  // survives to completion.
  std::mt19937 delays(0xC0FFEE);
  bool completed = false;
  int signaled = 0;
  for (int round = 0; round < 40 && !completed; ++round) {
    const pid_t pid = fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      // Child: run the sweep with per-candidate journaling, then vanish
      // without gtest teardown.
      try {
        eng::Engine engine(eng::EngineOptions{.threads = 2});
        // 50 us of injected latency per (candidate, scenario) keeps a full
        // sweep well past the longest kill delay below, so the first
        // writer is always killed mid-run rather than finishing first.
        eng::FaultPlan slow;
        slow.latency = std::chrono::microseconds{50};
        engine.setFaultInjector(std::make_shared<eng::FaultInjector>(slow));
        opt::SearchOptions options;
        options.eng = &engine;
        options.checkpointPath = path;
        options.checkpointEvery = 1;
        (void)opt::searchDesignSpace(candidates, workload, business,
                                     scenarios, options);
        _exit(0);
      } catch (...) {
        _exit(2);
      }
    }
    const auto delay =
        std::chrono::microseconds{300 + static_cast<int>(delays() % 8000)};
    std::this_thread::sleep_for(delay);
    (void)kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_FALSE(WIFEXITED(status) && WEXITSTATUS(status) == 2)
        << "child sweep threw";
    completed = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (WIFSIGNALED(status)) ++signaled;
  }
  // Whether or not a child ever finished, the journal on disk (torn tail
  // and all) must resume to the exact serial ranking.
  eng::Engine fresh(eng::EngineOptions{.threads = 4});
  opt::SearchOptions resumeOptions;
  resumeOptions.eng = &fresh;
  resumeOptions.checkpointPath = path;
  const opt::SearchResult resumed = opt::searchDesignSpace(
      candidates, workload, business, scenarios, resumeOptions);
  EXPECT_FALSE(resumed.cancelled);
  EXPECT_EQ(resumed.evaluated, static_cast<int>(candidates.size()));

  ASSERT_EQ(resumed.ranked.size(), serial.ranked.size());
  ASSERT_EQ(resumed.rejected.size(), serial.rejected.size());
  for (std::size_t i = 0; i < resumed.ranked.size(); ++i) {
    EXPECT_EQ(resumed.ranked[i].label, serial.ranked[i].label);
    EXPECT_EQ(resumed.ranked[i].totalCost.raw(),
              serial.ranked[i].totalCost.raw());
    EXPECT_EQ(resumed.ranked[i].worstRecoveryTime.raw(),
              serial.ranked[i].worstRecoveryTime.raw());
    EXPECT_EQ(resumed.ranked[i].worstDataLoss.raw(),
              serial.ranked[i].worstDataLoss.raw());
  }
  // The point of the exercise: at least one writer actually died mid-run,
  // leaving a journal tail the resume above had to tolerate.
  EXPECT_GE(signaled, 1);
  std::filesystem::remove(path);
}

// ---- Swallowed cache-insert faults are counted ------------------------------

TEST(CacheInsertFaults, SwallowedInsertFaultsAreCounted) {
  eng::Engine engine(eng::EngineOptions{.threads = 2});
  eng::FaultPlan plan;
  plan.sites = eng::faultSiteBit(eng::FaultSite::kCacheInsert);
  plan.probability = 1.0;
  engine.setFaultInjector(std::make_shared<eng::FaultInjector>(plan));

  // Insert faults are swallowed: the request still succeeds...
  const eng::EvalOutcome outcome =
      engine.tryEvaluate(cs::baseline(), cs::objectFailure());
  ASSERT_TRUE(outcome.ok());

  // ...but the cache kept the audit trail.
  const eng::EvalCache::Stats stats = engine.cache().stats();
  EXPECT_GE(stats.insertFailures, 1u);
  EXPECT_EQ(stats.inserts, 0u);

  // delta() propagates the counter like any other.
  eng::EvalCache::Stats then;
  EXPECT_EQ(stats.delta(then).insertFailures, stats.insertFailures);
}

}  // namespace
}  // namespace stordep::service::resilience
