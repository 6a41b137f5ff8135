// Tests for the Monte-Carlo layer: P² sketches, substream determinism, the
// conditional and mission-window samplers, cancellation, the reliability
// config block, and the ExpectedPenalty search objective.
#include "stochastic/evaluator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "casestudy/casestudy.hpp"
#include "config/design_io.hpp"
#include "core/data_loss.hpp"
#include "core/reliability.hpp"
#include "optimizer/search.hpp"
#include "sim/rng.hpp"
#include "stochastic/quantile.hpp"

namespace stordep::stochastic {
namespace {

namespace cs = casestudy;

// ---- P² quantile sketches --------------------------------------------------

TEST(P2Quantile, ExactBelowFiveObservations) {
  P2Quantile q(0.5);
  q.add(3.0);
  q.add(1.0);
  q.add(2.0);
  EXPECT_DOUBLE_EQ(q.value(), 2.0);
}

TEST(P2Quantile, TracksUniform) {
  sim::Rng rng(1);
  DistributionAccumulator acc(20'000);
  for (int i = 0; i < 20'000; ++i) acc.add(rng.uniform());
  const Distribution d = acc.finalize();
  EXPECT_EQ(d.count, 20'000u);
  EXPECT_GE(d.min, 0.0);
  EXPECT_LT(d.max, 1.0);
  EXPECT_NEAR(d.mean, 0.5, 0.01);
  EXPECT_GT(d.ci95, 0.0);
  EXPECT_NEAR(d.p50, 0.50, 0.02);
  EXPECT_NEAR(d.p95, 0.95, 0.02);
  EXPECT_NEAR(d.p99, 0.99, 0.01);
}

TEST(P2Quantile, TracksExponential) {
  sim::Rng rng(2);
  DistributionAccumulator acc(20'000);
  for (int i = 0; i < 20'000; ++i) acc.add(rng.exponential(2.0));
  const Distribution d = acc.finalize();
  EXPECT_NEAR(d.mean, 2.0, 0.1);
  EXPECT_NEAR(d.p50, 2.0 * std::log(2.0), 0.1);           // 1.386
  EXPECT_NEAR(d.p95, -2.0 * std::log(0.05), 0.3);         // 5.991
  EXPECT_LE(d.p50, d.p95);
  EXPECT_LE(d.p95, d.p99);
  EXPECT_LE(d.p99, d.max);
}

// ---- Substream determinism -------------------------------------------------

TEST(Rng, SubstreamSeedsAreDistinct) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seeds.insert(sim::Rng::substreamSeed(42, i));
  }
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(Rng, SplitIsIndependentOfDrawHistory) {
  sim::Rng a(7);
  sim::Rng b(7);
  for (int i = 0; i < 100; ++i) (void)b.next();  // advance b only
  sim::Rng sa = a.split(3);
  sim::Rng sb = b.split(3);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(sa.next(), sb.next());
}

// ---- Conditional distributions (migrated from RecoverySimulator) -----------

StochasticOptions optionsWith(Duration horizon, int trials,
                              std::uint64_t seed = 5) {
  StochasticOptions opts;
  opts.trials = trials;
  opts.seed = seed;
  opts.threads = 1;
  opts.sim.horizon = horizon;
  return opts;
}

TEST(StochasticEvaluator, FullOnlyPayloadIsConstant) {
  const StochasticEvaluator eval(cs::baseline(),
                                 optionsWith(days(200), 500));
  const auto outcome = eval.distributionFor(cs::arrayFailure());
  ASSERT_TRUE(outcome.ok()) << outcome.error().describe();
  const ScenarioDistribution& dist = outcome.value();
  EXPECT_EQ(dist.trials, 500);
  EXPECT_EQ(dist.unrecoverable, 0);
  // Weekly fulls restore exactly one full image at every instant.
  EXPECT_EQ(dist.minPayload, gigabytes(1360));
  EXPECT_EQ(dist.maxPayload, gigabytes(1360));
  EXPECT_TRUE(dist.rtBoundHolds);
  EXPECT_TRUE(dist.dlBoundHolds);
  EXPECT_NEAR(dist.rtTightness, 1.0, 1e-6);
  EXPECT_NEAR(dist.rt.min, dist.rt.max, 1.0);
  EXPECT_LT(dist.expectedPenalty, dist.worstCasePenalty);
}

TEST(StochasticEvaluator, IncrementalPayloadVariesAcrossTheCycle) {
  const StochasticEvaluator eval(cs::weeklyVaultFullPlusIncremental(),
                                 optionsWith(days(200), 2000, 7));
  const auto outcome = eval.distributionFor(cs::arrayFailure());
  ASSERT_TRUE(outcome.ok()) << outcome.error().describe();
  const ScenarioDistribution& dist = outcome.value();
  EXPECT_EQ(dist.unrecoverable, 0);
  // The lightest restore is never the bare 1360 GB full: the day-1
  // incremental lands before its base full finishes propagating, so every
  // instant replays at least one increment.
  EXPECT_NEAR(dist.minPayload.gigabytes(), 1386.1, 1.0);
  EXPECT_GT(dist.maxPayload.gigabytes(), 1360.0 + 80.0);
  EXPECT_LT(dist.maxPayload.gigabytes(), 1360.0 + 135.0);
  EXPECT_TRUE(dist.rtBoundHolds);
  EXPECT_GT(dist.rtTightness, 0.9);
  EXPECT_LT(dist.rt.min, dist.rt.max);
  EXPECT_LT(dist.rt.mean, dist.rt.max);
}

TEST(StochasticEvaluator, UnrecoverableTrialsCounted) {
  const StochasticEvaluator eval(cs::asyncBatchMirror(1),
                                 optionsWith(hours(6), 100));
  const auto outcome = eval.distributionFor(cs::objectFailure());
  ASSERT_TRUE(outcome.ok()) << outcome.error().describe();
  const ScenarioDistribution& dist = outcome.value();
  // A 24 h rollback has no serving level in a mirror-only design at any
  // instant; with zero recoverable trials the expectation is infinite.
  EXPECT_EQ(dist.unrecoverable, 100);
  EXPECT_EQ(dist.penalty.count, 0u);
  EXPECT_FALSE(dist.expectedPenalty.isFinite());
  EXPECT_TRUE(dist.rtBoundHolds);  // vacuously
}

TEST(StochasticEvaluator, SiteDisasterDistributionBounded) {
  const StochasticEvaluator eval(cs::baseline(),
                                 optionsWith(days(250), 500, 13));
  const auto outcome = eval.distributionFor(cs::siteDisaster());
  ASSERT_TRUE(outcome.ok()) << outcome.error().describe();
  const ScenarioDistribution& dist = outcome.value();
  EXPECT_EQ(dist.unrecoverable, 0);
  EXPECT_TRUE(dist.rtBoundHolds);
  // Site recovery is dominated by the vault round-trip: ~26 h at every
  // sampled instant.
  EXPECT_GT(dist.rt.min, hours(25).secs());
  EXPECT_LT(dist.rt.max, hours(27).secs());
}

TEST(StochasticEvaluator, SampledMeanLossMatchesAnalyticExpectation) {
  const StorageDesign design = cs::baseline();
  const StochasticEvaluator eval(design, optionsWith(days(250), 5000));
  const auto outcome = eval.distributionFor(cs::arrayFailure());
  ASSERT_TRUE(outcome.ok()) << outcome.error().describe();
  const auto source = chooseRecoverySource(design, cs::arrayFailure());
  ASSERT_TRUE(source.has_value());
  const Duration analytic =
      expectedDataLoss(design, source->level, cs::arrayFailure());
  EXPECT_NEAR(outcome.value().dl.mean, analytic.secs(),
              0.05 * analytic.secs());
}

TEST(StochasticEvaluator, RejectsNonPositiveTrialCounts) {
  const StochasticEvaluator eval(cs::baseline(), optionsWith(days(200), 0));
  const auto outcome = eval.distributionFor(cs::arrayFailure());
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, engine::EvalErrorCode::kInvalidDesign);
}

// ---- Determinism across thread counts --------------------------------------

void expectIdentical(const Distribution& a, const Distribution& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.ci95, b.ci95);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p95, b.p95);
  EXPECT_EQ(a.p99, b.p99);
}

TEST(StochasticEvaluator, ThreadCountNeverChangesResults) {
  ScenarioDistribution results[2];
  for (int i = 0; i < 2; ++i) {
    StochasticOptions opts = optionsWith(days(200), 10'000, 11);
    opts.threads = i == 0 ? 1 : 8;
    const StochasticEvaluator eval(cs::weeklyVaultFullPlusIncremental(),
                                   opts);
    const auto outcome = eval.distributionFor(cs::arrayFailure());
    ASSERT_TRUE(outcome.ok()) << outcome.error().describe();
    results[i] = outcome.value();
  }
  EXPECT_EQ(results[0].trials, results[1].trials);
  EXPECT_EQ(results[0].unrecoverable, results[1].unrecoverable);
  expectIdentical(results[0].rt, results[1].rt);
  expectIdentical(results[0].dl, results[1].dl);
  expectIdentical(results[0].penalty, results[1].penalty);
  EXPECT_EQ(results[0].minPayload.bytes(), results[1].minPayload.bytes());
  EXPECT_EQ(results[0].meanPayload.bytes(), results[1].meanPayload.bytes());
  EXPECT_EQ(results[0].maxPayload.bytes(), results[1].maxPayload.bytes());
  EXPECT_EQ(results[0].expectedPenalty.usd(), results[1].expectedPenalty.usd());
}

TEST(StochasticEvaluator, MissionSamplingIsThreadCountInvariant) {
  AnnualizedRisk results[2];
  for (int i = 0; i < 2; ++i) {
    StochasticOptions opts = optionsWith(days(200), 2000, 17);
    opts.threads = i == 0 ? 1 : 8;
    opts.reliability.siteShockAnnualRate = 0.2;
    const StochasticEvaluator eval(cs::baseline(), opts);
    const auto outcome = eval.annualizedRisk();
    ASSERT_TRUE(outcome.ok()) << outcome.error().describe();
    results[i] = outcome.value();
  }
  EXPECT_EQ(results[0].eventsPerYear, results[1].eventsPerYear);
  EXPECT_EQ(results[0].unrecoverableTrialFraction,
            results[1].unrecoverableTrialFraction);
  EXPECT_EQ(results[0].expectedAnnualLossBytes.bytes(),
            results[1].expectedAnnualLossBytes.bytes());
  EXPECT_EQ(results[0].expectedAnnualPenalty.usd(),
            results[1].expectedAnnualPenalty.usd());
  EXPECT_EQ(results[0].expectedAnnualDowntimeHours,
            results[1].expectedAnnualDowntimeHours);
  expectIdentical(results[0].eventRt, results[1].eventRt);
  expectIdentical(results[0].eventDl, results[1].eventDl);
  expectIdentical(results[0].annualPenalty, results[1].annualPenalty);
}

// ---- Cancellation ----------------------------------------------------------

TEST(StochasticEvaluator, CancellationSurfacesPartialProgressError) {
  engine::CancellationSource source;
  source.cancel();
  // One count inside the first trial block, one spanning three blocks.
  for (const int trials : {1000, 2 * StochasticEvaluator::kBlockTrials + 1}) {
    for (const int threads : {1, 4}) {
      StochasticOptions opts = optionsWith(days(200), trials);
      opts.threads = threads;
      opts.token = source.token();
      const StochasticEvaluator eval(cs::baseline(), opts);
      const std::string expected = "stochastic run cancelled after 0 of " +
                                   std::to_string(trials) + " trials";
      const auto outcome = eval.distributionFor(cs::arrayFailure());
      ASSERT_FALSE(outcome.ok());
      EXPECT_EQ(outcome.error().code, engine::EvalErrorCode::kCancelled);
      EXPECT_EQ(outcome.error().message, expected) << "threads=" << threads;
      const auto mission = eval.annualizedRisk();
      ASSERT_FALSE(mission.ok());
      EXPECT_EQ(mission.error().code, engine::EvalErrorCode::kCancelled);
      EXPECT_EQ(mission.error().message, expected) << "threads=" << threads;
    }
  }
}

TEST(StochasticEvaluator, CancellationMidRunNeverReturnsAPartialEnvelope) {
  // A token that fires while trial blocks are running or folding must end
  // the run with kCancelled and the completed-trial count, never with an
  // envelope over the trials folded so far. Where the token fires is up to
  // the scheduler, so the cancel delay is swept across the run's length and
  // every outcome is checked.
  const int trials = 20 * StochasticEvaluator::kBlockTrials;
  StochasticOptions opts = optionsWith(days(200), trials);
  const StochasticEvaluator reference(cs::weeklyVaultFullPlusIncremental(),
                                      opts);
  const auto full = reference.distributionFor(cs::arrayFailure());
  ASSERT_TRUE(full.ok());
  int cancelledMidRun = 0;
  for (const int threads : {1, 4}) {
    for (const int delayUs : {0, 200, 1'000, 5'000, 20'000, 60'000}) {
      engine::CancellationSource source;
      opts.threads = threads;
      opts.token = source.token();
      const StochasticEvaluator eval(cs::weeklyVaultFullPlusIncremental(),
                                     opts);
      std::thread canceller([&source, delayUs] {
        std::this_thread::sleep_for(std::chrono::microseconds(delayUs));
        source.cancel();
      });
      const auto outcome = eval.distributionFor(cs::arrayFailure());
      canceller.join();
      if (outcome.ok()) {
        // The run beat the cancel: it must be the whole envelope.
        EXPECT_EQ(outcome.value().trials, trials);
        EXPECT_EQ(outcome.value().rt.count, full.value().rt.count);
        EXPECT_EQ(outcome.value().penalty.mean, full.value().penalty.mean);
        continue;
      }
      EXPECT_EQ(outcome.error().code, engine::EvalErrorCode::kCancelled);
      const std::string& message = outcome.error().message;
      const std::string prefix = "stochastic run cancelled after ";
      ASSERT_EQ(message.rfind(prefix, 0), 0u) << message;
      const int completed = std::stoi(message.substr(prefix.size()));
      EXPECT_GE(completed, 0);
      EXPECT_LT(completed, trials);
      EXPECT_NE(message.find(" of " + std::to_string(trials) + " trials"),
                std::string::npos)
          << message;
      if (completed > 0) ++cancelledMidRun;
    }
  }
  RecordProperty("cancelledMidRun", cancelledMidRun);
}

// ---- Mission-window sampling -----------------------------------------------

TEST(StochasticEvaluator, MissionEventRateMatchesClosedForm) {
  const StorageDesign design = cs::baseline();
  // Override every storage device with a memoryless 2-year MTBF and a 1 h
  // fixed repair: each device's failures are then (nearly) Poisson at rate
  // 1/2 per year, so total events/year ~= devices / 2.
  ReliabilitySpec spec;
  for (const auto& [device, processes] : resolveReliability(design, {})) {
    DeviceReliability r;
    r.failure = {ProcessKind::kExponential, years(2), 1.0};
    r.repair = {ProcessKind::kFixed, hours(1), 1.0};
    spec.devices[device->name()] = r;
  }
  const double deviceCount = static_cast<double>(spec.devices.size());
  ASSERT_GT(deviceCount, 0.0);

  StochasticOptions opts = optionsWith(days(200), 4000, 3);
  opts.reliability = spec;
  const StochasticEvaluator eval(design, opts);
  const auto outcome = eval.annualizedRisk();
  ASSERT_TRUE(outcome.ok()) << outcome.error().describe();
  const AnnualizedRisk& risk = outcome.value();
  EXPECT_EQ(risk.trials, 4000);
  EXPECT_EQ(risk.missionWindow, years(1));
  const double expectedRate = deviceCount / 2.0;
  EXPECT_NEAR(risk.eventsPerYear, expectedRate, 0.10 * expectedRate);
  EXPECT_GE(risk.expectedAnnualPenalty.usd(), 0.0);
  EXPECT_GE(risk.expectedAnnualDowntimeHours, 0.0);
}

TEST(StochasticEvaluator, SiteShocksRaiseTheEventRate) {
  const StorageDesign design = cs::baseline();
  // Devices effectively never fail on their own; only shocks remain.
  ReliabilitySpec quiet;
  for (const auto& [device, processes] : resolveReliability(design, {})) {
    DeviceReliability r;
    r.failure = {ProcessKind::kExponential, years(100'000), 1.0};
    r.repair = {ProcessKind::kFixed, hours(1), 1.0};
    quiet.devices[device->name()] = r;
  }

  double rates[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    StochasticOptions opts = optionsWith(days(200), 2000, 19);
    opts.reliability = quiet;
    opts.reliability.siteShockAnnualRate = i == 0 ? 0.0 : 0.5;
    const StochasticEvaluator eval(design, opts);
    const auto outcome = eval.annualizedRisk();
    ASSERT_TRUE(outcome.ok()) << outcome.error().describe();
    rates[i] = outcome.value().eventsPerYear;
  }
  EXPECT_NEAR(rates[0], 0.0, 0.01);
  // At least one site draws shocks at 0.5/year.
  EXPECT_GT(rates[1], 0.4);
}

TEST(StochasticEvaluator, MissionRejectsInvalidReliability) {
  {
    StochasticOptions opts = optionsWith(days(200), 100);
    opts.reliability.siteShockAnnualRate = -1.0;
    const StochasticEvaluator eval(cs::baseline(), opts);
    const auto outcome = eval.annualizedRisk();
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, engine::EvalErrorCode::kInvalidDesign);
  }
  {
    StochasticOptions opts = optionsWith(days(200), 100);
    opts.reliability.missionWindow = Duration::zero();
    const StochasticEvaluator eval(cs::baseline(), opts);
    const auto outcome = eval.annualizedRisk();
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, engine::EvalErrorCode::kInvalidDesign);
  }
}

// ---- Reliability config block ----------------------------------------------

TEST(ReliabilityConfig, RoundTripsThroughJson) {
  ReliabilitySpec spec;
  spec.missionWindow = years(2);
  spec.siteShockAnnualRate = 0.02;
  DeviceReliability array;
  array.failure = {ProcessKind::kWeibull, years(10), 1.5};
  array.repair = {ProcessKind::kExponential, hours(12), 1.0};
  spec.devices["primary-array"] = array;
  DeviceReliability vault;
  vault.failure = {ProcessKind::kExponential, Duration::infinite(), 1.0};
  vault.repair = {ProcessKind::kFixed, weeks(1), 1.0};
  spec.devices["vault"] = vault;

  const ReliabilitySpec back =
      config::reliabilityFromJson(config::reliabilityToJson(spec));
  EXPECT_EQ(back, spec);
}

TEST(ReliabilityConfig, DesignDocumentWithoutBlockYieldsNullopt) {
  const config::Json doc = config::designToJson(cs::baseline());
  EXPECT_FALSE(config::reliabilityFromDesignJson(doc).has_value());
}

TEST(ReliabilityConfig, ClassDefaultsCoverEveryStorageDevice) {
  const auto resolved = resolveReliability(cs::baseline(), {});
  EXPECT_FALSE(resolved.empty());
  for (const auto& [device, processes] : resolved) {
    EXPECT_FALSE(device->isTransport());
    // Every storage device repairs in finite time out of the box.
    EXPECT_TRUE(processes.repair.mean.isFinite()) << device->name();
  }
}

// ---- ExpectedPenalty search objective --------------------------------------

std::vector<optimizer::CandidateSpec> smallCandidateSet() {
  using optimizer::BackupChoice;
  using optimizer::CandidateSpec;
  using optimizer::PitChoice;
  CandidateSpec fullWeekly;
  fullWeekly.pit = PitChoice::kSnapshot;
  fullWeekly.backup = BackupChoice::kFullOnly;
  fullWeekly.backupAccW = weeks(1);
  fullWeekly.vault = true;
  fullWeekly.vaultAccW = weeks(1);
  CandidateSpec fullDaily;
  fullDaily.pit = PitChoice::kSnapshot;
  fullDaily.backup = BackupChoice::kFullOnly;
  fullDaily.backupAccW = hours(24);
  fullDaily.vault = true;
  fullDaily.vaultAccW = weeks(1);
  CandidateSpec fiWeekly;
  fiWeekly.pit = PitChoice::kSplitMirror;
  fiWeekly.backup = BackupChoice::kFullPlusIncremental;
  fiWeekly.backupAccW = weeks(1);
  fiWeekly.vault = true;
  fiWeekly.vaultAccW = weeks(1);
  return {fullWeekly, fullDaily, fiWeekly};
}

TEST(ExpectedPenaltyObjective, NeverExceedsWorstCasePenalties) {
  const std::vector<optimizer::CandidateSpec> candidates = smallCandidateSet();
  const WorkloadSpec workload = cs::celloWorkload();
  const BusinessRequirements business = cs::requirements();
  const std::vector<optimizer::ScenarioCase> scenarios =
      optimizer::caseStudyScenarios();

  const optimizer::SearchResult worst = optimizer::searchDesignSpace(
      candidates, workload, business, scenarios, optimizer::SearchOptions{});
  optimizer::SearchOptions expectedOpts;
  expectedOpts.objective = optimizer::Objective::kExpectedPenalty;
  expectedOpts.stochasticTrials = 256;
  const optimizer::SearchResult expected = optimizer::searchDesignSpace(
      candidates, workload, business, scenarios, expectedOpts);

  ASSERT_FALSE(worst.ranked.empty());
  ASSERT_EQ(expected.ranked.size(), worst.ranked.size());
  for (const optimizer::EvaluatedCandidate& e : expected.ranked) {
    const auto match =
        std::find_if(worst.ranked.begin(), worst.ranked.end(),
                     [&](const optimizer::EvaluatedCandidate& w) {
                       return w.label == e.label;
                     });
    ASSERT_NE(match, worst.ranked.end()) << e.label;
    // Expected penalties are a relaxation of the worst case (equality when
    // the sampler is inapplicable and the candidate falls back to analytic).
    EXPECT_LE(e.weightedPenalties.usd(),
              match->weightedPenalties.usd() * (1.0 + 1e-6) + 1.0)
        << e.label;
    EXPECT_EQ(e.outlays.usd(), match->outlays.usd()) << e.label;
  }
}

TEST(ExpectedPenaltyObjective, RankingMatchesFrozenGolden) {
  // Labels and raw cost bits of the 256-trial expected-penalty ranking,
  // frozen from the keyed evaluation path that preceded plan-only sweeps:
  // the per-scenario analytic fallbacks now come from the compiled plan and
  // must not move a bit. Same at every thread count.
  struct Row {
    const char* label;
    double totalCost;
    double outlays;
    double weightedPenalties;
  };
  const Row golden[] = {
      {"snapshot(12 hr x4) + full(1 days) + vault(1 wk)",
       0x1.32dff6ff3d914p+23, 0x1.3e7d615d06039p+19, 0x1.1ef820e96d31p+23},
      {"split-mirror(12 hr x4) + full+incr(1 wk) + vault(1 wk)",
       0x1.52da23cdeec21p+23, 0x1.a1485862ff2ffp+19, 0x1.38c59e47becf1p+23},
      {"snapshot(12 hr x4) + full(1 wk) + vault(1 wk)",
       0x1.081e06fc19915p+24, 0x1.2f2cf422ff2ffp+19, 0x1.fd493eb6032fap+23},
  };
  for (const int threads : {1, 4}) {
    engine::Engine eng(engine::EngineOptions{.threads = threads});
    optimizer::SearchOptions options;
    options.eng = &eng;
    options.objective = optimizer::Objective::kExpectedPenalty;
    options.stochasticTrials = 256;
    const optimizer::SearchResult result = optimizer::searchDesignSpace(
        smallCandidateSet(), cs::celloWorkload(), cs::requirements(),
        optimizer::caseStudyScenarios(), options);
    EXPECT_TRUE(result.rejected.empty());
    ASSERT_EQ(result.ranked.size(), std::size(golden));
    for (std::size_t i = 0; i < std::size(golden); ++i) {
      const optimizer::EvaluatedCandidate& c = result.ranked[i];
      EXPECT_EQ(c.label, golden[i].label) << threads << " threads";
      EXPECT_EQ(c.totalCost.raw(), golden[i].totalCost) << c.label;
      EXPECT_EQ(c.outlays.raw(), golden[i].outlays) << c.label;
      EXPECT_EQ(c.weightedPenalties.raw(), golden[i].weightedPenalties)
          << c.label;
    }
  }
}

TEST(ExpectedPenaltyObjective, DefaultObjectiveStaysBitIdenticalToSerial) {
  const std::vector<optimizer::CandidateSpec> candidates = smallCandidateSet();
  const WorkloadSpec workload = cs::celloWorkload();
  const BusinessRequirements business = cs::requirements();
  const std::vector<optimizer::ScenarioCase> scenarios =
      optimizer::caseStudyScenarios();

  const optimizer::SearchResult viaOptions = optimizer::searchDesignSpace(
      candidates, workload, business, scenarios, optimizer::SearchOptions{});
  const optimizer::SearchResult serial = optimizer::searchDesignSpaceSerial(
      candidates, workload, business, scenarios);

  ASSERT_EQ(viaOptions.ranked.size(), serial.ranked.size());
  for (std::size_t i = 0; i < serial.ranked.size(); ++i) {
    EXPECT_EQ(viaOptions.ranked[i].label, serial.ranked[i].label);
    EXPECT_EQ(viaOptions.ranked[i].totalCost.usd(),
              serial.ranked[i].totalCost.usd());
    EXPECT_EQ(viaOptions.ranked[i].weightedPenalties.usd(),
              serial.ranked[i].weightedPenalties.usd());
  }
}

}  // namespace
}  // namespace stordep::stochastic
