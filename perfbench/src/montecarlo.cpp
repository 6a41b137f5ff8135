// montecarlo.cpp — the Monte-Carlo phase.
//
// StochasticEvaluator on the weekly-vault full+incremental design at
// min(4, nproc) threads, two ways:
//   * distributionFor(arrayFailure()) at 1,000,000 trials (reduction-bound);
//   * annualizedRisk() at 20,000 trials under bench_stochastic's
//     replay-heavy reliability (30-day MTTF, 12 h repair, 2 site shocks a
//     year), which is mostly trial loop.
// End-to-end rates divide trials by evaluator construction plus the call,
// so the serial reduction after the trial loop is included (the envelope's
// own trialsPerSec times the loop only). The wall-time rates, printed
// ungated, come from the min(4, nproc)-thread runs. The gated rates divide
// by the CPU time of the same two runs at one thread, on the calling thread,
// scaled to the reference host speed: a shared host's load moves that far
// less than wall time, and a run spread over several vCPUs slowed by a
// different factor from the one the reference kernel saw on the calling
// thread (up to 17% apart, against 8% for the serial sweep). Every envelope
// must be bit-identical to a one-thread reference run with the same seed,
// checked untimed.
#include <cmath>
#include <optional>

#include "casestudy/casestudy.hpp"
#include "core/reliability.hpp"
#include "phases.hpp"
#include "reference.hpp"
#include "sim/rp_simulator.hpp"
#include "stochastic/evaluator.hpp"
#include "stochastic/quantile.hpp"
#include "stochastic/trial_plan.hpp"

namespace perfbench {

namespace {

namespace cs = stordep::casestudy;
namespace st = stordep::stochastic;
using stordep::config::Json;

constexpr int kConditionalTrials = 1'000'000;
constexpr int kMissionTrials = 20'000;
/// Trials recorded to time the reduction alone (traced run only).
constexpr int kRecordedTrials = 200'000;

st::StochasticOptions conditionalOptions(std::uint64_t seed, int threads) {
  st::StochasticOptions options;
  options.trials = kConditionalTrials;
  options.seed = seed;
  options.threads = threads;
  options.sim.horizon = stordep::days(250);
  return options;
}

/// bench_stochastic's replay-heavy mission reliability.
stordep::ReliabilitySpec missionReliability(
    const stordep::StorageDesign& design) {
  stordep::ReliabilitySpec spec;
  spec.siteShockAnnualRate = 2.0;
  for (const auto& [device, rel] : resolveReliability(design, spec)) {
    stordep::DeviceReliability heavy;
    heavy.failure = {stordep::ProcessKind::kExponential, stordep::days(30),
                     1.0};
    heavy.repair = {stordep::ProcessKind::kExponential, stordep::hours(12),
                    1.0};
    spec.devices[device->name()] = heavy;
  }
  return spec;
}

st::StochasticOptions missionOptions(const stordep::StorageDesign& design,
                                     std::uint64_t seed, int threads) {
  st::StochasticOptions options = conditionalOptions(seed, threads);
  options.trials = kMissionTrials;
  options.reliability = missionReliability(design);
  return options;
}

bool same(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return a == b;
}

bool same(const st::Distribution& a, const st::Distribution& b) {
  return a.count == b.count && same(a.min, b.min) && same(a.max, b.max) &&
         same(a.mean, b.mean) && same(a.ci95, b.ci95) && same(a.p50, b.p50) &&
         same(a.p95, b.p95) && same(a.p99, b.p99);
}

/// The deterministic envelope (timing fields excluded).
bool same(const st::ScenarioDistribution& a, const st::ScenarioDistribution& b) {
  return a.trials == b.trials && a.unrecoverable == b.unrecoverable &&
         same(a.rt, b.rt) && same(a.dl, b.dl) && same(a.penalty, b.penalty) &&
         same(a.minPayload.bytes(), b.minPayload.bytes()) &&
         same(a.meanPayload.bytes(), b.meanPayload.bytes()) &&
         same(a.maxPayload.bytes(), b.maxPayload.bytes()) &&
         same(a.expectedPenalty.usd(), b.expectedPenalty.usd());
}

bool same(const st::AnnualizedRisk& a, const st::AnnualizedRisk& b) {
  return a.trials == b.trials && same(a.eventsPerYear, b.eventsPerYear) &&
         same(a.unrecoverableTrialFraction, b.unrecoverableTrialFraction) &&
         same(a.expectedAnnualLossBytes.bytes(),
              b.expectedAnnualLossBytes.bytes()) &&
         same(a.expectedAnnualPenalty.usd(), b.expectedAnnualPenalty.usd()) &&
         same(a.expectedAnnualDowntimeHours, b.expectedAnnualDowntimeHours) &&
         same(a.eventRt, b.eventRt) && same(a.eventDl, b.eventDl) &&
         same(a.annualPenalty, b.annualPenalty);
}

/// One timed run: evaluator construction plus the call.
template <typename Result>
struct Timed {
  std::optional<Result> result;
  double constructSeconds = 0.0;
  double callSeconds = 0.0;
  double cpuSeconds = 0.0;  ///< process CPU time of construction + call
  [[nodiscard]] double wall() const { return constructSeconds + callSeconds; }
};

template <typename Result, typename Call>
Timed<Result> timedRun(const stordep::StorageDesign& design,
                       const st::StochasticOptions& options, Call call,
                       Tracer& tracer, Report& report, const char* what) {
  Timed<Result> out;
  auto run = tracer.span("stochastic.run");
  const auto start = Clock::now();
  const double cpuStart = processCpuSeconds();
  std::optional<st::StochasticEvaluator> evaluator;
  {
    auto stage = tracer.span("stochastic.construct");
    evaluator.emplace(design, options);
  }
  const auto constructed = Clock::now();
  auto outcome = [&] {
    auto stage = tracer.span("stochastic.call");
    return call(*evaluator);
  }();
  const auto done = Clock::now();
  out.cpuSeconds = processCpuSeconds() - cpuStart;
  out.constructSeconds = std::chrono::duration<double>(constructed - start).count();
  out.callSeconds = std::chrono::duration<double>(done - constructed).count();
  if (!outcome.ok()) {
    report.checkFailed(std::string(what) + " errored: " +
                       outcome.error().describe());
  } else {
    report.ops(1);
    out.result = std::move(outcome.value());
  }
  return out;
}

}  // namespace

struct MonteCarloPhase::State {
  State(const RunConfig& c, Report& r) : config(c), report(r) {}

  const RunConfig& config;
  Report& report;
  stordep::StorageDesign design = cs::weeklyVaultFullPlusIncremental();
  stordep::FailureScenario scenario = cs::arrayFailure();
  Tracer untraced{false, ""};
  Tracer* tracer = &untraced;
  Timed<st::ScenarioDistribution> condReference;  ///< one thread
  Timed<st::AnnualizedRisk> missionReference;     ///< one thread
  /// Trials per CPU-second and per wall second.
  std::vector<double> condRates, missionRates;
  std::vector<double> condWallRates, missionWallRates;
  std::vector<double> slowdowns;
  std::vector<double> condLoop, condReduce, missionLoop, missionReduce;

  Timed<st::ScenarioDistribution> conditional(int threads) {
    return timedRun<st::ScenarioDistribution>(
        design, conditionalOptions(config.seed, threads),
        [&](const st::StochasticEvaluator& e) {
          return e.distributionFor(scenario);
        },
        *tracer, report, "conditional run");
  }
  Timed<st::AnnualizedRisk> mission(int threads) {
    return timedRun<st::AnnualizedRisk>(
        design, missionOptions(design, config.seed, threads),
        [](const st::StochasticEvaluator& e) { return e.annualizedRisk(); },
        *tracer, report, "mission run");
  }
  void check(const Timed<st::ScenarioDistribution>& run, int threads) {
    if (run.result && condReference.result &&
        !same(*run.result, *condReference.result)) {
      report.checkFailed("conditional envelope at " + std::to_string(threads) +
                         " threads differs from the 1-thread reference");
    }
  }
  void check(const Timed<st::AnnualizedRisk>& run, int threads) {
    if (run.result && missionReference.result &&
        !same(*run.result, *missionReference.result)) {
      report.checkFailed("mission envelope at " + std::to_string(threads) +
                         " threads differs from the 1-thread reference");
    }
  }
};

MonteCarloPhase::MonteCarloPhase(const RunConfig& config, Report& report)
    : state_(std::make_unique<State>(config, report)) {
  State& st = *state_;
  // One-thread references, untimed; every N-thread envelope must match.
  st.condReference = st.conditional(1);
  st.missionReference = st.mission(1);
  // Warm-up pass of each (thread start-up, first-touch allocation).
  st.check(st.conditional(config.threads), config.threads);
  st.check(st.mission(config.threads), config.threads);
}

MonteCarloPhase::~MonteCarloPhase() = default;

void MonteCarloPhase::round() {
  State& st = *state_;
  const int threads = st.config.threads;
  // One thread, for the gated CPU-time rates.
  Timed<st::ScenarioDistribution> serialCond;
  Timed<st::AnnualizedRisk> serialMission;
  const double condSlowdown =
      slowdownAround([&] { serialCond = st.conditional(1); });
  const double missionSlowdown =
      slowdownAround([&] { serialMission = st.mission(1); });
  st.check(serialCond, 1);
  st.check(serialMission, 1);
  if (serialCond.result && serialMission.result) {
    st.slowdowns.push_back(condSlowdown);
    st.slowdowns.push_back(missionSlowdown);
    st.condRates.push_back(kConditionalTrials / serialCond.cpuSeconds *
                           condSlowdown);
    st.missionRates.push_back(kMissionTrials / serialMission.cpuSeconds *
                              missionSlowdown);
  }
  // min(4, nproc) threads, for the wall-time rates users see.
  const auto c = st.conditional(threads);
  st.check(c, threads);
  const auto m = st.mission(threads);
  st.check(m, threads);
  if (!c.result || !m.result) return;
  st.condWallRates.push_back(kConditionalTrials / c.wall());
  st.missionWallRates.push_back(kMissionTrials / m.wall());
  st.condLoop.push_back(c.result->wallSeconds);
  st.condReduce.push_back(c.callSeconds - c.result->wallSeconds);
  st.missionLoop.push_back(m.result->wallSeconds);
  st.missionReduce.push_back(m.callSeconds - m.result->wallSeconds);
}

void MonteCarloPhase::finish() {
  State& st = *state_;
  Report& report = st.report;
  report.metric("mc_conditional_trials_per_cpu_s", median(st.condRates),
                "trials/cpu-s");
  report.metric("mc_mission_trials_per_cpu_s", median(st.missionRates),
                "trials/cpu-s");
  report.ungated("mc_conditional_trials_per_s", median(st.condWallRates),
                 "trials/s");
  report.ungated("mc_mission_trials_per_s", median(st.missionWallRates),
                 "trials/s");
  report.fact("mc_conditional_trials_per_cpu_s_by_round",
              jsonList(st.condRates));
  report.fact("mc_slowdowns", jsonList(st.slowdowns));
  report.fact("mc_conditional_trials_per_s_by_round",
              jsonList(st.condWallRates));
  // The library's trialsPerSec covers the loop only; the split shows where
  // the rest of the end-to-end time goes.
  report.fact("mc_conditional_loop_s", Json(median(st.condLoop)));
  report.fact("mc_conditional_reduce_s", Json(median(st.condReduce)));
  report.fact("mc_mission_loop_s", Json(median(st.missionLoop)));
  report.fact("mc_mission_reduce_s", Json(median(st.missionReduce)));
}

void MonteCarloPhase::traced(Tracer& tracer) {
  State& st = *state_;
  st.tracer = &tracer;
  const RunConfig& config = st.config;
  Report& report = st.report;
  const stordep::StorageDesign& design = st.design;
  const stordep::FailureScenario& scenario = st.scenario;
  const int threads = config.threads;
  const auto& condReference = st.condReference;

  // Construction split into its two public stages.
  for (const auto& options : {conditionalOptions(config.seed, threads),
                              missionOptions(design, config.seed, threads)}) {
    std::optional<stordep::sim::RpLifecycleSimulator> simulator;
    {
      auto stage = tracer.span("sim.lifecycle_build");
      simulator.emplace(design, options.sim);
      simulator->run();
    }
    auto stage = tracer.span("stochastic.plan_compile");
    if (st::TrialPlan::compile(*simulator, options.reliability) == nullptr) {
      report.checkFailed("weekly vault F+I is not plannable");
    }
  }

  const auto c = st.conditional(threads);
  st.check(c, threads);
  const auto m = st.mission(threads);
  st.check(m, threads);
  // A run that errored was already counted as failed; its numbers read 0.
  const auto loop = [](const auto& run) {
    return run.result ? run.result->wallSeconds : 0.0;
  };
  report.metric("stochastic.cond_loop_s", loop(c), "s");
  report.metric("stochastic.cond_reduce_s", c.callSeconds - loop(c), "s");
  report.metric("stochastic.mission_loop_s", loop(m), "s");
  report.metric("stochastic.mission_reduce_s", m.callSeconds - loop(m), "s");
  report.metric("stochastic.loop_scaling",
                loop(c) > 0 ? loop(condReference) / loop(c) : 0.0, "ratio");

  // The reduction alone: recorded conditional samples fed through the
  // accumulators the evaluator uses (rt, dl, penalty).
  st::TrialTrace recorded;
  st::StochasticOptions options = conditionalOptions(config.seed, threads);
  options.trials = kRecordedTrials;
  options.trace = &recorded;
  {
    const st::StochasticEvaluator evaluator(design, options);
    if (!evaluator.distributionFor(scenario).ok()) {
      report.checkFailed("recorded conditional run errored");
    }
  }
  st::DistributionAccumulator rt(kRecordedTrials), dl(kRecordedTrials),
      penalty(kRecordedTrials);
  const auto start = Clock::now();
  {
    auto stage = tracer.span("stochastic.reduce");
    for (const st::ConditionalSample& s : recorded.conditional) {
      if (!s.recoverable) continue;
      rt.add(s.rt);
      dl.add(s.dl);
      penalty.add(s.penalty);
    }
  }
  const double reduceSeconds = secondsSince(start);
  const double observations = static_cast<double>(rt.count() + dl.count() +
                                                  penalty.count());

  const auto stats = tracer.summarize();
  const auto meanMs = [&](const char* name) {
    const auto it = stats.find(name);
    return it == stats.end() ? 0.0 : it->second.meanSeconds() * 1e3;
  };
  report.metric("sim.lifecycle_build_ms", meanMs("sim.lifecycle_build"), "ms");
  report.metric("stochastic.plan_compile_ms", meanMs("stochastic.plan_compile"),
                "ms");
  report.metric("stochastic.reduce_ns_per_obs",
                observations > 0 ? reduceSeconds * 1e9 / observations : 0.0,
                "ns");
}

}  // namespace perfbench
