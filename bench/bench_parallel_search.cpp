// bench_parallel_search — throughput of the batch-evaluation engine.
//
// Runs the same ~500-candidate design-space sweep (the paper's automated
// optimization loop, on a grid denser than the default) several ways:
//
//  * the serial reference path (one thread, no plans, direct evaluate());
//  * the engine-backed (plan-routed) search at 1/2/4/8 threads, twice on
//    the same engine (parallel speedup; sweeps do not memoize, so the
//    re-sweep recomputes);
//  * the engine's result cache: every (design, scenario) pair of the sweep
//    through Engine::evaluateBatch, twice — the repeated batch must be
//    served from the cache;
//  * a streaming sweep over a >= 10k-candidate grid, twice on one engine;
//  * the compiled-plan matrix (engine/plan.hpp): plan-routed sweeps
//    (ranking parity with serial, speedup reported), plus the gated
//    compile-once-evaluate-many matrix — every plannable design under 24
//    scenario variants, serial and cold 8-thread, vs a legacy serial loop
//    over the identical pairs.
//
// Emits a JSON document on stdout so the perf trajectory can be tracked
// across PRs, and exits non-zero if the engine's results diverge from the
// serial reference (determinism is part of the contract being benchmarked),
// if a repeated batch falls under a 90% cache hit rate, if the streaming
// sweeps miss their floors against serial, or if the plan path misses its
// throughput gates (see kSeedSerialEvalsPerSec below).
//
// Speedup expectations for the *thread* runs are hardware-relative: thread
// counts above hardwareThreads add scheduling overhead instead of speedup.
// The *plan* gates are not: compiling a design once and folding scenarios
// allocation-free must beat the legacy evaluate() per-eval cost by a wide
// margin on any hardware, so those gates fail the job rather than merely
// noting a slow machine.
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "casestudy/casestudy.hpp"
#include "config/json.hpp"
#include "engine/batch.hpp"
#include "engine/plan.hpp"
#include "optimizer/search.hpp"

namespace {

namespace cs = stordep::casestudy;
namespace opt = stordep::optimizer;
using stordep::config::Json;
using stordep::config::JsonArray;
using stordep::config::JsonObject;

double secondsSince(std::chrono::steady_clock::time_point start) {
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

/// The legacy serial evaluate() throughput recorded when the plan fast path
/// landed (single-core container, RelWithDebInfo): ~143k (design, scenario)
/// evaluations per second. The serial compile-once-evaluate-many loop must
/// clear 5x this absolute floor — the gate that keeps the cold path's
/// per-eval win from regressing silently. The in-run relative gate next to
/// it (plan >= 5x the legacy loop measured in the same process) covers
/// machines meaningfully slower or faster than the one this constant was
/// recorded on.
constexpr double kSeedSerialEvalsPerSec = 143077.0;

/// A denser grid than the default ~200-candidate space: >= 500 structurally
/// valid candidates.
std::vector<opt::CandidateSpec> denseCandidates() {
  opt::DesignSpaceOptions options;
  options.pitAccWs = {stordep::hours(6), stordep::hours(12),
                      stordep::hours(24), stordep::hours(48)};
  options.pitRetentionCounts = {2, 4};
  options.backupAccWs = {stordep::hours(24), stordep::weeks(1),
                         stordep::weeks(2)};
  options.mirrorLinkCounts = {1, 2, 4, 10};
  return opt::enumerateDesignSpace(options);
}

/// A >= 10k-point grid for the streaming sweep: dense enough that the
/// candidate vector is worth not materializing.
opt::DesignSpaceOptions bigGridOptions() {
  opt::DesignSpaceOptions options;
  options.pitAccWs = {stordep::hours(3),  stordep::hours(6),
                      stordep::hours(12), stordep::hours(24),
                      stordep::hours(48)};
  options.pitRetentionCounts = {1, 2, 4, 8};
  options.backupAccWs = {stordep::hours(24), stordep::days(3),
                         stordep::weeks(1), stordep::weeks(2)};
  options.vaultAccWs = {stordep::weeks(1), stordep::weeks(4),
                        stordep::weeks(12)};
  options.mirrorChoices = {opt::MirrorChoice::kNone, opt::MirrorChoice::kAsync,
                           opt::MirrorChoice::kAsyncBatch};
  options.mirrorLinkCounts = {1, 2, 4, 8, 16};
  return options;
}

bool sameRanking(const opt::SearchResult& a, const opt::SearchResult& b) {
  if (a.ranked.size() != b.ranked.size() ||
      a.rejected.size() != b.rejected.size()) {
    return false;
  }
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    if (a.ranked[i].label != b.ranked[i].label ||
        a.ranked[i].totalCost.raw() != b.ranked[i].totalCost.raw() ||
        a.ranked[i].worstRecoveryTime.raw() !=
            b.ranked[i].worstRecoveryTime.raw() ||
        a.ranked[i].worstDataLoss.raw() != b.ranked[i].worstDataLoss.raw()) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  const std::vector<opt::CandidateSpec> candidates = denseCandidates();
  const std::vector<opt::ScenarioCase> scenarios = opt::caseStudyScenarios();
  const stordep::WorkloadSpec workload = cs::celloWorkload();
  const stordep::BusinessRequirements business = cs::requirements();

  const auto serialStart = std::chrono::steady_clock::now();
  const opt::SearchResult serial =
      opt::searchDesignSpaceSerial(candidates, workload, business, scenarios);
  const double serialSeconds = secondsSince(serialStart);

  Json doc{JsonObject{}};
  doc.set("bench", Json("parallel_search"));
  doc.set("candidates", Json(static_cast<std::int64_t>(candidates.size())));
  doc.set("scenarios", Json(static_cast<std::int64_t>(scenarios.size())));
  doc.set("hardwareThreads",
          Json(static_cast<std::int64_t>(
              std::thread::hardware_concurrency())));
  doc.set("serialSeconds", Json(serialSeconds));
  doc.set("serialEvalsPerSec",
          Json(static_cast<double>(candidates.size() * scenarios.size()) /
               serialSeconds));

  // Every (design, scenario) pair of the sweep, for the cache section.
  std::vector<stordep::engine::EvalRequest> requests;
  requests.reserve(candidates.size() * scenarios.size());
  for (const opt::CandidateSpec& spec : candidates) {
    const auto design = std::make_shared<const stordep::StorageDesign>(
        spec.build(workload, business));
    for (const opt::ScenarioCase& sc : scenarios) {
      requests.push_back(stordep::engine::EvalRequest{design, sc.scenario});
    }
  }

  bool ok = true;
  JsonArray runs;
  for (const int threads : {1, 2, 4, 8}) {
    stordep::engine::Engine engine(
        stordep::engine::EngineOptions{.threads = threads});
    opt::SearchOptions options;
    options.eng = &engine;
    options.maxRetries = 0;

    const auto coldStart = std::chrono::steady_clock::now();
    const opt::SearchResult cold = opt::searchDesignSpace(
        candidates, workload, business, scenarios, options);
    const double coldSeconds = secondsSince(coldStart);

    const auto warmStart = std::chrono::steady_clock::now();
    const opt::SearchResult warm = opt::searchDesignSpace(
        candidates, workload, business, scenarios, options);
    const double warmSeconds = secondsSince(warmStart);

    // The result cache: the same pairs through evaluateBatch, twice.
    (void)engine.evaluateBatch(requests);
    const stordep::engine::BatchResult repeated =
        engine.evaluateBatch(requests);
    const double warmHitRate = repeated.stats.cacheHitRate();
    const auto stats = engine.cache().stats();

    if (!sameRanking(serial, cold) || !sameRanking(serial, warm)) {
      std::cerr << "FAIL: engine-backed ranking diverged from serial at "
                << threads << " threads\n";
      ok = false;
    }
    if (warmHitRate < 0.9) {
      std::cerr << "FAIL: repeated batch hit rate " << warmHitRate
                << " < 0.9 at " << threads << " threads\n";
      ok = false;
    }

    Json run{JsonObject{}};
    run.set("threads", Json(threads));
    run.set("coldSeconds", Json(coldSeconds));
    run.set("coldSpeedupVsSerial", Json(serialSeconds / coldSeconds));
    run.set("coldEvalsPerSec",
            Json(static_cast<double>(candidates.size() * scenarios.size()) /
                 coldSeconds));
    run.set("warmSeconds", Json(warmSeconds));
    run.set("warmSpeedupVsSerial", Json(serialSeconds / warmSeconds));
    run.set("warmCacheHitRate", Json(warmHitRate));
    run.set("cacheEntries", Json(static_cast<std::int64_t>(stats.entries)));
    runs.push_back(std::move(run));
  }
  doc.set("runs", Json(std::move(runs)));

  // Streaming sweep over a >= 10k-candidate grid: the cursor drains chunks
  // into the pool without ever materializing the candidate vector. The
  // serial reference runs over the materialized vector (which also validates
  // that the cursor reproduces enumerateDesignSpace exactly), and both
  // streaming rankings — a fresh engine's and the re-sweep on the same
  // engine — must be bit-identical to it. Throughput is hardware-relative
  // like the thread runs above, so the hard guards are loose floors: the
  // re-sweep beats serial, and the first sweep (thread start-up included)
  // stays within 30% of serial even with no cores to fan out to.
  {
    const opt::DesignSpaceOptions bigOptions = bigGridOptions();
    const std::vector<opt::CandidateSpec> bigGrid =
        opt::enumerateDesignSpace(bigOptions);

    const opt::SearchResult bigSerial =
        opt::searchDesignSpaceSerial(bigGrid, workload, business, scenarios);

    stordep::engine::Engine engine(stordep::engine::EngineOptions{});
    opt::SearchOptions searchOptions;
    searchOptions.eng = &engine;

    opt::DesignSpaceCursor coldCursor(bigOptions);
    const opt::SearchResult cold = opt::searchDesignSpaceStreaming(
        coldCursor, workload, business, scenarios, searchOptions);

    opt::DesignSpaceCursor warmCursor(bigOptions);
    const opt::SearchResult warm = opt::searchDesignSpaceStreaming(
        warmCursor, workload, business, scenarios, searchOptions);

    if (bigGrid.size() < 10000) {
      std::cerr << "FAIL: big grid produced only " << bigGrid.size()
                << " candidates (< 10000)\n";
      ok = false;
    }
    if (!sameRanking(bigSerial, cold) || !sameRanking(bigSerial, warm)) {
      std::cerr << "FAIL: streaming sweep ranking diverged from serial on "
                << bigGrid.size() << " candidates\n";
      ok = false;
    }
    if (warm.candidatesPerSec <= bigSerial.candidatesPerSec) {
      std::cerr << "FAIL: warm streaming sweep " << warm.candidatesPerSec
                << " candidates/sec did not beat serial "
                << bigSerial.candidatesPerSec << "\n";
      ok = false;
    }
    if (cold.candidatesPerSec < 0.7 * bigSerial.candidatesPerSec) {
      std::cerr << "FAIL: cold streaming sweep " << cold.candidatesPerSec
                << " candidates/sec fell below 70% of serial "
                << bigSerial.candidatesPerSec << "\n";
      ok = false;
    }

    Json big{JsonObject{}};
    big.set("candidates", Json(static_cast<std::int64_t>(bigGrid.size())));
    big.set("gridCardinality",
            Json(static_cast<std::int64_t>(opt::gridCardinality(bigOptions))));
    big.set("serialSeconds", Json(bigSerial.wallSeconds));
    big.set("serialCandidatesPerSec", Json(bigSerial.candidatesPerSec));
    big.set("coldStreamingSeconds", Json(cold.wallSeconds));
    big.set("coldStreamingCandidatesPerSec", Json(cold.candidatesPerSec));
    big.set("coldStreamingSpeedup",
            Json(cold.candidatesPerSec /
                 (bigSerial.candidatesPerSec > 0.0 ? bigSerial.candidatesPerSec
                                                   : 1.0)));
    big.set("warmStreamingSeconds", Json(warm.wallSeconds));
    big.set("warmStreamingCandidatesPerSec", Json(warm.candidatesPerSec));
    big.set("warmStreamingSpeedup",
            Json(warm.candidatesPerSec /
                 (bigSerial.candidatesPerSec > 0.0 ? bigSerial.candidatesPerSec
                                                   : 1.0)));
    doc.set("bigGrid", Json(std::move(big)));
  }

  // ---- Compiled-plan fast path --------------------------------------------
  // The cold-path scaling target lives here. The workload is the paper's
  // dependability matrix — every design evaluated under a *set* of failure
  // scenarios (object/array/site across a spread of recovery target ages),
  // which is exactly the shape the compile-once plan amortizes over. All of
  // these are HARD gates (they fail the job, not just note a slow machine —
  // the plan's per-eval win is not hardware-relative):
  //
  //  1. serial (1-thread) plan matrix: >= 5x evals/sec vs BOTH the in-run
  //     legacy evaluate() loop over the same pairs and the recorded seed
  //     baseline (kSeedSerialEvalsPerSec);
  //  2. cold 8-thread plan matrix: >= 4x the serial legacy wall time, even
  //     on one core (per-eval win must survive the thread fan-out);
  //  3. the plan-routed candidate *sweep*, best of three, must reproduce
  //     the serial legacy ranking exactly (its speedup is reported but not
  //     gated: a 3-scenario sweep is dominated by candidate build + compile,
  //     which the matrix workload amortizes away).
  {
    // Gate (3): plan-routed sweeps, serial and 8-thread, fresh engine each.
    auto timedPlanSearch = [&](int threads, double& bestSeconds) {
      opt::SearchResult result;
      bestSeconds = -1.0;
      for (int attempt = 0; attempt < 3; ++attempt) {
        stordep::engine::Engine engine(
            stordep::engine::EngineOptions{.threads = threads});
        opt::SearchOptions planOptions;
        planOptions.eng = &engine;
        planOptions.maxRetries = 0;
        const auto start = std::chrono::steady_clock::now();
        result = opt::searchDesignSpace(candidates, workload, business,
                                        scenarios, planOptions);
        const double seconds = secondsSince(start);
        if (bestSeconds < 0.0 || seconds < bestSeconds) bestSeconds = seconds;
      }
      return result;
    };

    double planSerialSweepSeconds = 0.0;
    const opt::SearchResult planSerialSweep =
        timedPlanSearch(1, planSerialSweepSeconds);
    double planColdSweepSeconds = 0.0;
    const opt::SearchResult planColdSweep =
        timedPlanSearch(8, planColdSweepSeconds);
    if (!sameRanking(serial, planSerialSweep) ||
        !sameRanking(serial, planColdSweep)) {
      std::cerr << "FAIL: plan-routed sweep ranking diverged from serial\n";
      ok = false;
    }

    // The matrix workload: every plannable design from the dense grid under
    // 24 scenarios (the 3 case-study failures x 8 recovery target ages).
    // Designs that either path cannot evaluate without throwing are skipped
    // (the sweeps above have per-candidate isolation; these loops have none).
    std::vector<std::shared_ptr<const stordep::StorageDesign>> designs;
    designs.reserve(candidates.size());
    std::vector<stordep::FailureScenario> matrixScenarios;
    for (const opt::ScenarioCase& sc : scenarios) {
      for (const double ageHours : {0.0, 1.0, 6.0, 24.0, 72.0, 168.0, 336.0,
                                    720.0}) {
        stordep::FailureScenario variant = sc.scenario;
        variant.recoveryTargetAge = stordep::hours(ageHours);
        matrixScenarios.push_back(std::move(variant));
      }
    }
    for (const opt::CandidateSpec& spec : candidates) {
      try {
        stordep::StorageDesign design = spec.build(workload, business);
        for (const stordep::FailureScenario& sc : matrixScenarios) {
          (void)stordep::evaluate(design, sc);
        }
        if (stordep::engine::EvalPlan::compile(design) == nullptr) continue;
        designs.push_back(
            std::make_shared<const stordep::StorageDesign>(std::move(design)));
      } catch (const std::exception&) {
        continue;
      }
    }
    const std::size_t pairs = designs.size() * matrixScenarios.size();

    // Legacy serial reference over the same pairs, same order as the
    // matrix's design-major output.
    double legacyChecksum = 0.0;
    const auto legacyStart = std::chrono::steady_clock::now();
    for (const auto& design : designs) {
      for (const stordep::FailureScenario& sc : matrixScenarios) {
        legacyChecksum +=
            stordep::summarizeEvaluation(stordep::evaluate(*design, sc))
                .totalCost.raw();
      }
    }
    const double legacySeconds = secondsSince(legacyStart);
    const double legacyEvalsPerSec =
        static_cast<double>(pairs) / legacySeconds;

    auto matrixChecksum =
        [](const std::vector<stordep::EvaluationMetrics>& rows) {
          double sum = 0.0;
          for (const stordep::EvaluationMetrics& m : rows) {
            sum += m.totalCost.raw();
          }
          return sum;
        };

    // The matrix itself: one plan compile per design, then every (design,
    // scenario) pair against the plans with per-thread bump arenas, in
    // design-major order (the legacy loop's order). Every design above
    // compiled once already, so a null plan here is a failure.
    auto planMatrix = [&](stordep::engine::Engine& engine) {
      std::vector<std::shared_ptr<const stordep::engine::EvalPlan>> plans(
          designs.size());
      engine.parallelFor(designs.size(), [&](std::size_t d) {
        plans[d] = stordep::engine::EvalPlan::compile(*designs[d]);
      });
      std::vector<stordep::EvaluationMetrics> rows(pairs);
      for (const auto& plan : plans) {
        if (plan == nullptr) {
          std::cerr << "FAIL: a matrix design no longer compiles\n";
          ok = false;
          return rows;
        }
      }
      const std::size_t scenarioCount = matrixScenarios.size();
      engine.parallelFor(pairs, [&](std::size_t k) {
        rows[k] = plans[k / scenarioCount]->evaluate(
            matrixScenarios[k % scenarioCount],
            stordep::engine::Engine::threadArena());
      });
      return rows;
    };

    // Gate (1): serial plan matrix (compile included — this is the cold
    // path, nothing is pre-warmed).
    stordep::engine::Engine serialEngine(
        stordep::engine::EngineOptions{.threads = 1});
    const auto planSerialStart = std::chrono::steady_clock::now();
    const std::vector<stordep::EvaluationMetrics> serialMatrix =
        planMatrix(serialEngine);
    const double planSerialSeconds = secondsSince(planSerialStart);
    const double planSerialEvalsPerSec =
        static_cast<double>(pairs) / planSerialSeconds;

    // Gate (2): cold 8-thread plan matrix.
    stordep::engine::Engine coldEngine(
        stordep::engine::EngineOptions{.threads = 8});
    const auto planColdStart = std::chrono::steady_clock::now();
    const std::vector<stordep::EvaluationMetrics> coldMatrix =
        planMatrix(coldEngine);
    const double planColdSeconds = secondsSince(planColdStart);
    const double planColdSpeedup = legacySeconds / planColdSeconds;

    // Every pair agrees with the legacy loop bit-for-bit: identical fold
    // order makes the checksums comparable exactly (the fuzz oracle checks
    // per-field equality; this is the cheap whole-matrix cross-check).
    if (matrixChecksum(serialMatrix) != legacyChecksum ||
        matrixChecksum(coldMatrix) != legacyChecksum) {
      std::cerr << "FAIL: plan matrix checksum diverged from the legacy "
                   "evaluate() loop\n";
      ok = false;
    }
    if (planSerialEvalsPerSec < 5.0 * legacyEvalsPerSec) {
      std::cerr << "FAIL: serial plan matrix " << planSerialEvalsPerSec
                << " evals/sec < 5x in-run legacy " << legacyEvalsPerSec
                << "\n";
      ok = false;
    }
    if (planSerialEvalsPerSec < 5.0 * kSeedSerialEvalsPerSec) {
      std::cerr << "FAIL: serial plan matrix " << planSerialEvalsPerSec
                << " evals/sec < 5x seed baseline " << kSeedSerialEvalsPerSec
                << "\n";
      ok = false;
    }
    if (planColdSpeedup < 4.0) {
      std::cerr << "FAIL: cold 8-thread plan matrix only " << planColdSpeedup
                << "x the serial legacy loop (< 4x)\n";
      ok = false;
    }

    Json plan{JsonObject{}};
    plan.set("matrixDesigns", Json(static_cast<std::int64_t>(designs.size())));
    plan.set("matrixScenarios",
             Json(static_cast<std::int64_t>(matrixScenarios.size())));
    plan.set("matrixPairs", Json(static_cast<std::int64_t>(pairs)));
    plan.set("legacySerialSeconds", Json(legacySeconds));
    plan.set("legacySerialEvalsPerSec", Json(legacyEvalsPerSec));
    plan.set("serialSeconds", Json(planSerialSeconds));
    plan.set("serialEvalsPerSec", Json(planSerialEvalsPerSec));
    plan.set("serialSpeedupVsLegacy",
             Json(planSerialEvalsPerSec / legacyEvalsPerSec));
    plan.set("serialSpeedupVsSeedBaseline",
             Json(planSerialEvalsPerSec / kSeedSerialEvalsPerSec));
    plan.set("seedBaselineEvalsPerSec", Json(kSeedSerialEvalsPerSec));
    plan.set("cold8Seconds", Json(planColdSeconds));
    plan.set("cold8SpeedupVsLegacySerial", Json(planColdSpeedup));
    plan.set("cold8PairsPerSec",
             Json(static_cast<double>(pairs) / planColdSeconds));
    plan.set("cold8ThreadsUsed",
             Json(static_cast<std::int64_t>(coldEngine.threads())));
    plan.set("sweepSerialSeconds", Json(planSerialSweepSeconds));
    plan.set("sweepSerialSpeedupVsSerialSearch",
             Json(serialSeconds / planSerialSweepSeconds));
    plan.set("sweepCold8Seconds", Json(planColdSweepSeconds));
    plan.set("sweepCold8SpeedupVsSerialSearch",
             Json(serialSeconds / planColdSweepSeconds));
    doc.set("plan", Json(std::move(plan)));
  }

  doc.set("ok", Json(ok));

  const std::string out = doc.pretty();
  std::cout << out << "\n";
  std::ofstream file("BENCH_parallel_search.json");
  file << out << "\n";
  return ok ? 0 : 1;
}
