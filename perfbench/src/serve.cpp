// serve.cpp — the served and clustered phases, and the run's set-up time.
//
// Inputs: 21 hot payloads (the 7 what-if designs x 3 scenarios) and a cold
// pool of every big-grid candidate x 12 scenario variants (142,680 distinct
// payloads), drawn in a seeded order without repeats within a run. A
// request is hot with probability 0.9 on the `hot` workload and never on
// the `cold` one. Every response body must hash equal to the offline
// evaluationToJson bytes for its payload, computed before the phase.
//
// A round (untraced run), in this order, on a stack of one in-process
// Server and a two-node in-process cluster (node A forwards what node B
// owns):
//   * set-up: three timed builds of the stack;
//   * bursts: requests sent back to back over one connection into the
//     server, then into node A; the number is process CPU time per
//     request (servers, cluster nodes and the in-process client);
//   * light windows: a fixed 1,000 req/s open loop into the server, then
//     into node A, for the (ungated) latencies.
// A request's latency is a chain of thread wake-ups that a shared host's
// load stretches from run to run; the CPU the chain costs moves less, but
// still about 30% between the host's fast and slow states after scaling to
// the reference speed, so the served numbers are all ungated and the set-up
// time is the served path's gated number. After the rounds,
// the ladder: on a fresh stack, sqrt(2) rate steps from 1,000 req/s up to
// the first step whose p99 exceeds 20 ms, that has any failure, or whose
// generator lag grows, then bisection below it (ungated).
// The traced run times the server-side stages offline over the same mix
// (Json::parse, parseEvaluateRequest, fingerprintEvaluation, evaluate on a
// miss, evaluationToJson + dump) and reads /metrics around short live
// phases.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <random>
#include <unordered_set>

#include "casestudy/casestudy.hpp"
#include "cluster/node.hpp"
#include "config/design_io.hpp"
#include "core/evaluator.hpp"
#include "engine/fingerprint.hpp"
#include "load.hpp"
#include "phases.hpp"
#include "reference.hpp"
#include "service/client.hpp"
#include "service/json_api.hpp"
#include "service/server.hpp"

namespace perfbench {

namespace {

namespace cs = stordep::casestudy;
namespace cl = stordep::cluster;
namespace eng = stordep::engine;
namespace opt = stordep::optimizer;
namespace svc = stordep::service;
using stordep::config::Json;
using stordep::config::JsonObject;

constexpr double kBaseRate = 1000.0;
/// A rate no server reaches: every connection sends its next request as soon
/// as the last one is answered (a closed loop).
constexpr double kBurstRate = 1e9;
constexpr double kHotShare = 0.9;
constexpr double kP99LimitMs = 20.0;
constexpr double kLagGrowthLimitMs = 2.0;
constexpr int kMaxLadderSteps = 12;
/// A set-up costs about 25 ms of CPU, so one sample is mostly noise; each
/// round times several and serves from the last.
constexpr int kSetupsPerRound = 3;

struct Payload {
  std::string body;
  std::uint64_t expectedHash = 0;
  eng::Fingerprint key;
};

/// Stage spans for the offline path; null tracer = untraced.
struct OfflineStages {
  Tracer* tracer = nullptr;
  /// Keys already evaluated (a served miss evaluates; a hit does not).
  std::unordered_set<eng::Fingerprint, eng::FingerprintHash>* seen = nullptr;
};

/// The bytes `stordep_eval --json` prints for this request body: the
/// oracle every served and clustered response is compared with.
std::string offlineResponse(const std::string& body, eng::Fingerprint* key,
                            OfflineStages stages = {}) {
  Tracer off(false, "");
  Tracer& tracer = stages.tracer != nullptr ? *stages.tracer : off;
  std::optional<Json> json;
  {
    auto stage = tracer.span("config.json_parse");
    json.emplace(Json::parse(body));
  }
  std::optional<svc::EvaluateRequest> request;
  {
    auto stage = tracer.span("service.decode");
    request.emplace(svc::parseEvaluateRequest(*json));
  }
  const svc::EvaluateItem& item = request->items.at(0);
  {
    auto stage = tracer.span("engine.fingerprint_eval");
    *key = eng::fingerprintEvaluation(*item.design, item.scenario);
  }
  if (stages.seen != nullptr && !stages.seen->insert(*key).second) {
    // A served hit: the cached result is encoded, not recomputed.
    const stordep::EvaluationResult result =
        stordep::evaluate(*item.design, item.scenario);
    auto stage = tracer.span("service.encode");
    return svc::evaluationToJson(*item.design, item.scenario, result).dump();
  }
  std::optional<stordep::EvaluationResult> result;
  {
    auto stage = tracer.span("core.evaluate");
    result.emplace(stordep::evaluate(*item.design, item.scenario));
  }
  auto stage = tracer.span("service.encode");
  return svc::evaluationToJson(*item.design, item.scenario, *result).dump();
}

Payload makePayload(const stordep::StorageDesign& design,
                    const stordep::FailureScenario& scenario) {
  Json doc{JsonObject{}};
  doc.set("design", stordep::config::designToJson(design));
  doc.set("scenario", stordep::config::scenarioToJson(scenario));
  Payload payload;
  payload.body = doc.dump();
  payload.expectedHash = hashBytes(offlineResponse(payload.body, &payload.key));
  return payload;
}

std::vector<stordep::FailureScenario> caseStudyFailures() {
  return {cs::objectFailure(), cs::arrayFailure(), cs::siteDisaster()};
}

/// The case-study failures with the restoration point moved back 0-3
/// hours: 12 scenarios, so the cold pool holds 142,680 distinct payloads.
std::vector<stordep::FailureScenario> coldScenarios() {
  std::vector<stordep::FailureScenario> out;
  for (const stordep::FailureScenario& base : caseStudyFailures()) {
    for (int extraHours = 0; extraHours < 4; ++extraHours) {
      stordep::FailureScenario variant = base;
      variant.recoveryTargetAge =
          variant.recoveryTargetAge + stordep::hours(extraHours);
      out.push_back(std::move(variant));
    }
  }
  return out;
}

std::vector<Payload> hotPayloads() {
  std::vector<Payload> out;
  for (const auto& [label, design] : cs::allWhatIfDesigns()) {
    for (const stordep::FailureScenario& scenario : caseStudyFailures()) {
      out.push_back(makePayload(design, scenario));
    }
  }
  return out;
}

/// Big-grid candidates x coldScenarios() in a seeded order; take() hands
/// out payloads that have not been used before in this run.
class ColdPool {
 public:
  ColdPool(std::uint64_t seed, int threads)
      : grid_(opt::enumerateDesignSpace(bigGridOptions())),
        scenarios_(coldScenarios()),
        workload_(cs::celloWorkload()),
        business_(cs::requirements()),
        threads_(threads) {
    order_.resize(grid_.size() * scenarios_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    std::mt19937_64 rng(seed ^ 0xC01DC01DULL);
    std::shuffle(order_.begin(), order_.end(), rng);
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return order_.size() - next_;
  }

  /// Materializes the next `count` payloads (body + oracle hash) in
  /// parallel. Throws when the pool is exhausted.
  std::vector<Payload> take(std::size_t count) {
    if (count > remaining()) {
      throw std::runtime_error("cold payload pool exhausted");
    }
    std::vector<Payload> out(count);
    const std::size_t base = next_;
    parallelIndex(count, threads_, [&](std::size_t i) {
      const std::size_t pick = order_[base + i];
      const stordep::StorageDesign design =
          grid_[pick / scenarios_.size()].build(workload_, business_);
      out[i] = makePayload(design, scenarios_[pick % scenarios_.size()]);
    });
    next_ += count;
    return out;
  }

 private:
  std::vector<opt::CandidateSpec> grid_;
  std::vector<stordep::FailureScenario> scenarios_;
  stordep::WorkloadSpec workload_;
  stordep::BusinessRequirements business_;
  int threads_;
  std::vector<std::size_t> order_;
  std::size_t next_ = 0;
};

/// A phase's requests. `cold` owns the cold payloads the schedule points
/// into.
struct Phase {
  std::vector<Payload> cold;
  std::vector<ScheduledRequest> schedule;
};

/// A server and a two-node cluster, warmed. Servers are declared before
/// the nodes that reference them, so nodes are destroyed first.
struct Stack {
  std::unique_ptr<svc::Server> server;
  std::unique_ptr<svc::Server> serverA;
  std::unique_ptr<svc::Server> serverB;
  std::unique_ptr<cl::ClusterNode> nodeA;
  std::unique_ptr<cl::ClusterNode> nodeB;

  ~Stack() {
    if (nodeB) nodeB->stop();
    if (nodeA) nodeA->stop();
    if (server) server->shutdown();
  }
};

svc::ServerOptions serverOptions(int engineThreads) {
  svc::ServerOptions options;
  options.engineThreads = engineThreads;
  return options;
}

/// Posts each payload once over one connection; counts every request and
/// checks every body.
void warm(std::uint16_t port, const std::vector<Payload>& payloads,
          Report& report, const char* what) {
  svc::Client client("127.0.0.1", port);
  for (const Payload& p : payloads) {
    const svc::HttpClientResponse response = client.post("/v1/evaluate", p.body);
    if (response.status != 200 || hashBytes(response.body) != p.expectedHash) {
      report.checkFailed(std::string(what) + " warm-up response differs (HTTP " +
                         std::to_string(response.status) + ")");
    } else {
      report.ops(1);
    }
  }
}

std::unique_ptr<Stack> startStack(const RunConfig& config,
                                  const std::vector<Payload>& hot,
                                  Report& report) {
  auto stack = std::make_unique<Stack>();
  stack->server =
      std::make_unique<svc::Server>(serverOptions(config.threads));
  stack->server->start();
  warm(stack->server->port(), hot, report, "served");

  const int nodeThreads = std::max(1, config.threads / 2);
  stack->serverA = std::make_unique<svc::Server>(serverOptions(nodeThreads));
  stack->serverB = std::make_unique<svc::Server>(serverOptions(nodeThreads));
  stack->serverA->start();
  stack->serverB->start();
  cl::ClusterNodeOptions a;
  a.nodeId = "node-a";
  a.enableHeartbeat = false;
  cl::ClusterNodeOptions b;
  b.nodeId = "node-b";
  b.enableHeartbeat = false;
  b.seeds.push_back({"127.0.0.1", static_cast<int>(stack->serverA->port())});
  stack->nodeA = std::make_unique<cl::ClusterNode>(*stack->serverA, a);
  stack->nodeB = std::make_unique<cl::ClusterNode>(*stack->serverB, b);
  stack->nodeA->start();
  stack->nodeB->start();
  for (int round = 0; round < 3; ++round) {
    stack->nodeB->gossipOnce();
    stack->nodeA->gossipOnce();
  }
  warm(stack->serverA->port(), hot, report, "clustered");
  return stack;
}

/// `count` requests: hot with probability kHotShare on the hot mix, else
/// the next unused cold payload. `nodeA` (optional) marks requests node A
/// forwards.
Phase makePhase(const RunConfig& config, std::uint64_t phaseId,
                std::size_t count, const std::vector<Payload>& hot,
                ColdPool& pool, cl::ClusterNode* nodeA) {
  std::mt19937_64 rng(config.seed * 0x9E3779B97F4A7C15ULL + phaseId);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<std::size_t> pickHot(0, hot.size() - 1);
  std::vector<const Payload*> picks(count, nullptr);
  std::size_t coldCount = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (config.mix == Mix::kHot && coin(rng) < kHotShare) {
      picks[i] = &hot[pickHot(rng)];
    } else {
      ++coldCount;
    }
  }
  Phase phase;
  phase.cold = pool.take(coldCount);
  std::size_t nextCold = 0;
  phase.schedule.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Payload* p = picks[i] != nullptr ? picks[i] : &phase.cold[nextCold++];
    ScheduledRequest request{&p->body, p->expectedHash, false};
    if (nodeA != nullptr) request.forwarded = !nodeA->ownsEvaluation(p->key, nullptr);
    phase.schedule.push_back(request);
  }
  return phase;
}

std::size_t requestsFor(double rate, double seconds) {
  return static_cast<std::size_t>(std::max(200.0, std::round(rate * seconds)));
}

Json scrapeMetrics(std::uint16_t port) {
  svc::Client client("127.0.0.1", port);
  const svc::HttpClientResponse response = client.get("/metrics");
  return response.status == 200 ? Json::parse(response.body)
                                : Json{JsonObject{}};
}

double number(const Json& doc, std::initializer_list<const char*> path) {
  const Json* node = &doc;
  for (const char* key : path) {
    node = node->find(key);
    if (node == nullptr) return 0.0;
  }
  return node->isNumber() ? node->asNumber() : 0.0;
}

void accountLoad(const LoadResult& load, Report& report, const char* what) {
  report.ops(load.samples.size(), load.failed);
  if (load.mismatched != 0) {
    report.checkFailed(std::to_string(load.mismatched) + " " + what +
                       " response bodies differ from evaluationToJson");
  }
}

Json loadFacts(const LoadResult& load) {
  Json facts{JsonObject{}};
  facts.set("requests", Json(static_cast<double>(load.samples.size())));
  facts.set("achieved_rps", Json(load.achievedRate()));
  facts.set("p50_ms", Json(load.latencyPercentile(0.50)));
  facts.set("p99_ms", Json(load.latencyPercentile(0.99)));
  facts.set("lag_p99_ms", Json(load.lagPercentile(0.99)));
  facts.set("lag_growth_ms", Json(load.lagGrowthMs()));
  facts.set("failed", Json(static_cast<double>(load.failed)));
  return facts;
}

}  // namespace

struct ServedPhase::State {
  State(const RunConfig& c, Report& r)
      : config(c), report(r), pool(c.seed, c.threads) {}

  const RunConfig& config;
  Report& report;
  ColdPool pool;
  std::uint64_t nextPhaseId = 1;
  /// Process CPU seconds of each set-up (scaled to the reference host
  /// speed), and its wall seconds.
  std::vector<double> setupSeconds, setupWallSeconds;
  /// Host slowdown of every set-up batch and window, in order.
  std::vector<double> slowdowns;
  /// Per round: light-rate p50s, and burst CPU microseconds per request
  /// (scaled to the reference host speed).
  std::vector<double> serveP50, serveCpu, clusterFwdP50, clusterCpu;
  /// Every request's latency (failed = infinite), pooled over rounds.
  std::vector<double> serveLatencies, clusterLatencies;

  /// Wall seconds per 1,000 req/s window, and per ladder step.
  [[nodiscard]] double window() const { return 0.025 * config.seconds; }
};

namespace {

void appendLatencies(const LoadResult& load, std::vector<double>& out) {
  for (const Sample& sample : load.samples) {
    out.push_back(sample.latencyOrInfinity());
  }
}

}  // namespace

ServedPhase::ServedPhase(const RunConfig& config, Report& report)
    : state_(std::make_unique<State>(config, report)) {}

ServedPhase::~ServedPhase() = default;

void ServedPhase::round() {
  State& st = *state_;
  const RunConfig& config = st.config;
  Report& report = st.report;
  Tracer untraced(false, "");

  // The set-ups and the bursts run on one CPU (see PinToOneCpu): their CPU
  // time is then mostly the servers' own work, which the reference kernel
  // on that CPU scales well, rather than cross-CPU wake-ups, which it does
  // not. The light-rate windows run after, on every CPU, as users' servers
  // do.
  std::optional<PinToOneCpu> pinned(std::in_place);

  // Set-up: hot inputs with their oracle bytes, server and cluster start,
  // warm passes. Tear-down of the previous stack is not timed.
  std::vector<Payload> hot;
  std::unique_ptr<Stack> stack;
  std::vector<double> setupCpu;
  const double setupSlowdown = slowdownAround([&] {
    for (int i = 0; i < kSetupsPerRound; ++i) {
      stack.reset();
      const auto start = Clock::now();
      const double cpu0 = processCpuSeconds();
      hot = hotPayloads();
      stack = startStack(config, hot, report);
      setupCpu.push_back(processCpuSeconds() - cpu0);
      st.setupWallSeconds.push_back(secondsSince(start));
    }
  });
  st.slowdowns.push_back(setupSlowdown);
  for (const double cpu : setupCpu) {
    st.setupSeconds.push_back(cpu / setupSlowdown);
  }

  // `count` requests into `port` at `rate` over `connections`; returns the
  // process CPU microseconds per request, scaled to the reference host
  // speed.
  const auto window = [&](std::uint16_t port, cl::ClusterNode* nodeA,
                          std::size_t count, double rate, int connections,
                          const char* what, LoadResult& load, Phase& phase) {
    phase = makePhase(config, st.nextPhaseId++, count, hot, st.pool, nodeA);
    double cpu = 0.0;
    const double slowdown = slowdownAround([&] {
      const double cpu0 = processCpuSeconds();
      load = runOpenLoop(port, phase.schedule, rate, connections, untraced, 0);
      cpu = processCpuSeconds() - cpu0;
    });
    st.slowdowns.push_back(slowdown);
    accountLoad(load, report, what);
    return cpu * 1e6 / static_cast<double>(load.samples.size()) / slowdown;
  };
  const std::size_t count = requestsFor(kBaseRate, st.window());
  LoadResult load;
  Phase phase;

  // CPU per request in a burst over one connection, into the server and
  // into node A, which forwards what node B owns.
  st.serveCpu.push_back(window(stack->server->port(), nullptr, count,
                               kBurstRate, 1, "served burst", load, phase));
  st.clusterCpu.push_back(window(stack->serverA->port(), stack->nodeA.get(),
                                 count, kBurstRate, 1, "clustered burst", load,
                                 phase));
  pinned.reset();

  // Latency at the light rate, into the server and into node A.
  window(stack->server->port(), nullptr, count, kBaseRate, config.threads,
         "served", load, phase);
  st.serveP50.push_back(load.latencyPercentile(0.5));
  appendLatencies(load, st.serveLatencies);
  window(stack->serverA->port(), stack->nodeA.get(), count, kBaseRate,
         config.threads, "clustered", load, phase);
  // The forwarded and local requests form two latency modes and the overall
  // median sits between them, so the latency reported for this window is
  // the median of the forwarded ones: the hop it exists to time.
  st.clusterFwdP50.push_back(load.latencyPercentile(0.5, phase.schedule, true));
  appendLatencies(load, st.clusterLatencies);
}

void ServedPhase::finish() {
  State& st = *state_;
  Report& report = st.report;
  report.metric("setup_s", median(st.setupSeconds), "s");
  report.ungated("serve_cpu_us_per_req", median(st.serveCpu), "us");
  report.ungated("cluster_cpu_us_per_req", median(st.clusterCpu), "us");
  report.ungated("serve_p50_ms", median(st.serveP50), "ms");
  report.ungated("cluster_fwd_p50_ms", median(st.clusterFwdP50), "ms");
  report.ungated("serve_p99_ms", quantile(st.serveLatencies, 0.99),
                 "ms");
  report.ungated("cluster_p50_ms", quantile(st.clusterLatencies, 0.5),
                 "ms");
  report.ungated("cluster_p99_ms", quantile(st.clusterLatencies, 0.99),
                 "ms");
  report.ungated("setup_wall_s", median(st.setupWallSeconds), "s");
  report.fact("setup_s_samples", jsonList(st.setupSeconds));
  report.fact("serve_cpu_us_per_req_by_round", jsonList(st.serveCpu));
  report.fact("cluster_cpu_us_per_req_by_round", jsonList(st.clusterCpu));
  report.fact("served_slowdowns", jsonList(st.slowdowns));
  report.fact("serve_p50_ms_by_round", jsonList(st.serveP50));
  report.fact("cluster_fwd_p50_ms_by_round", jsonList(st.clusterFwdP50));
  // Read before the ladder, whose overloaded steps hold a varying number of
  // cold payloads.
  report.metric("peak_rss_mb", peakRssMb(), "MB");
}

void ServedPhase::ladder() {
  State& st = *state_;
  const RunConfig& config = st.config;
  Report& report = st.report;
  Tracer untraced(false, "");
  const std::vector<Payload> hot = hotPayloads();
  const std::unique_ptr<Stack> stack = startStack(config, hot, report);

  // sqrt(2) steps up to the first failing one, then two bisections
  // between the last passing and first failing rate. A step is retried once
  // before it counts as failed, so one host stall does not end the ladder.
  double maxRps = 0.0;
  Json steps{stordep::config::JsonArray{}};
  const auto attempt = [&](double rate) {
    // At least 1,000 requests, so the p99 has ten beyond it.
    const std::size_t count =
        std::max<std::size_t>(1000, requestsFor(rate, st.window()));
    for (int tries = 0; tries < 2 && st.pool.remaining() >= count; ++tries) {
      const Phase phase =
          makePhase(config, st.nextPhaseId++, count, hot, st.pool, nullptr);
      const LoadResult load = runOpenLoop(stack->server->port(), phase.schedule,
                                          rate, config.threads, untraced, 0);
      accountLoad(load, report, "ladder");
      Json facts = loadFacts(load);
      facts.set("offered_rps", Json(rate));
      steps.asArray().push_back(facts);
      if (load.failed == 0 && load.latencyPercentile(0.99) <= kP99LimitMs &&
          load.lagGrowthMs() <= kLagGrowthLimitMs) {
        maxRps = std::max(maxRps, load.achievedRate());
        return true;
      }
    }
    return false;
  };
  double passed = 0.0;
  double failedRate = 0.0;
  for (int step = 0; step < kMaxLadderSteps; ++step) {
    const double rate = kBaseRate * std::pow(std::sqrt(2.0), step);
    if (!attempt(rate)) {
      failedRate = rate;
      break;
    }
    passed = rate;
  }
  for (int i = 0; i < 2 && passed > 0.0 && failedRate > 0.0; ++i) {
    const double rate = std::sqrt(passed * failedRate);
    (attempt(rate) ? passed : failedRate) = rate;
  }
  report.ungated("serve_max_rps", maxRps, "req/s");
  report.fact("serve_ladder", steps);
}

void ServedPhase::traced(Tracer& tracer) {
  State& st = *state_;
  const RunConfig& config = st.config;
  Report& report = st.report;
  const std::vector<Payload> hot = hotPayloads();
  const std::unique_ptr<Stack> stack = startStack(config, hot, report);
  ColdPool& pool = st.pool;
  const int connections = config.threads;
  const double s = config.seconds;

  // Server-side stages, offline, over the served mix.
  {
    const Phase phase = makePhase(config, 3, requestsFor(kBaseRate, 0.1 * s),
                                  hot, pool, nullptr);
    std::unordered_set<eng::Fingerprint, eng::FingerprintHash> seen;
    for (const Payload& p : hot) seen.insert(p.key);  // warmed by the server
    auto root = tracer.span("service.offline");
    for (const ScheduledRequest& request : phase.schedule) {
      eng::Fingerprint key;
      if (hashBytes(offlineResponse(*request.body, &key,
                                    OfflineStages{&tracer, &seen})) !=
          request.expectedHash) {
        report.checkFailed("offline response is not deterministic");
      } else {
        report.ops(1);
      }
    }
  }

  // Live served phase with /metrics read around it.
  {
    const Phase phase = makePhase(config, 4, requestsFor(kBaseRate, 0.1 * s),
                                  hot, pool, nullptr);
    const std::uint16_t port = stack->server->port();
    const Json before = scrapeMetrics(port);
    auto root = tracer.span("service.live");
    const LoadResult load = runOpenLoop(port, phase.schedule, kBaseRate,
                                        connections, tracer, root.id());
    root.end();
    const Json after = scrapeMetrics(port);
    accountLoad(load, report, "served");
    const double serverP50 =
        number(after, {"endpoints", "evaluate", "latencyMs", "p50Ms"});
    const double waves = number(after, {"batching", "waves"}) -
                         number(before, {"batching", "waves"});
    const double slots = number(after, {"batching", "batchedSlots"}) -
                         number(before, {"batching", "batchedSlots"});
    const double hits = number(after, {"evalCache", "interval", "hits"});
    const double misses = number(after, {"evalCache", "interval", "misses"});
    const auto rejected = [](const Json& m) {
      return number(m, {"admission", "rejectedQueueFull"}) +
             number(m, {"admission", "rejectedDraining"}) +
             number(m, {"connections", "rejected"});
    };
    report.metric("service.server_p50_ms", serverP50, "ms");
    report.metric("service.wire_ms", load.latencyPercentile(0.5) - serverP50,
                  "ms");
    report.metric("service.avg_wave_slots", waves > 0 ? slots / waves : 0.0,
                  "slots");
    report.metric("engine.serve_cache_hit_ratio",
                  hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    report.metric("service.generator_lag_ms", load.lagPercentile(0.99), "ms");
    report.metric("service.rejected",
                  static_cast<double>(load.failed) + rejected(after) -
                      rejected(before),
                  "count");
  }

  // Live clustered phase.
  {
    const Phase phase = makePhase(config, 5, requestsFor(kBaseRate, 0.1 * s),
                                  hot, pool, stack->nodeA.get());
    const std::uint16_t port = stack->serverA->port();
    const Json before = scrapeMetrics(port);
    auto root = tracer.span("cluster.live");
    const LoadResult load = runOpenLoop(port, phase.schedule, kBaseRate,
                                        connections, tracer, root.id());
    root.end();
    const Json after = scrapeMetrics(port);
    accountLoad(load, report, "clustered");
    const auto delta = [&](const char* key) {
      return number(after, {"cluster", key}) - number(before, {"cluster", key});
    };
    report.metric("cluster.forwarded_share",
                  delta("evaluateForwarded") /
                      static_cast<double>(phase.schedule.size()),
                  "ratio");
    report.metric("cluster.forward_extra_ms",
                  load.latencyPercentile(0.5, phase.schedule, true) -
                      load.latencyPercentile(0.5, phase.schedule, false),
                  "ms");
    report.metric("cluster.forward_failures", delta("forwardFailures"),
                  "count");
    report.metric("cluster.local_fallbacks", delta("localFallbacks"), "count");
  }

  const auto stats = tracer.summarize();
  const auto meanUs = [&](const char* name) {
    const auto it = stats.find(name);
    return it == stats.end() ? 0.0 : it->second.meanSeconds() * 1e6;
  };
  report.metric("config.json_parse_us", meanUs("config.json_parse"), "us");
  report.metric("service.decode_us", meanUs("service.decode"), "us");
  report.metric("engine.fingerprint_eval_us", meanUs("engine.fingerprint_eval"),
                "us");
  report.metric("core.evaluate_us", meanUs("core.evaluate"), "us");
  report.metric("service.encode_us", meanUs("service.encode"), "us");
}

}  // namespace perfbench
