// Tests for the batch-evaluation engine: fingerprint stability and collision
// sanity, cache LRU/stats behavior, thread-pool fan-out and exception
// propagation, and the determinism contract — engine-backed parallel
// evaluation must be bit-identical to the serial reference on the paper's
// case-study designs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "casestudy/casestudy.hpp"
#include "engine/batch.hpp"
#include "engine/eval_cache.hpp"
#include "engine/fingerprint.hpp"
#include "engine/thread_pool.hpp"
#include "multiobject/portfolio.hpp"
#include "optimizer/refine.hpp"
#include "optimizer/search.hpp"

namespace stordep::engine {
namespace {

namespace cs = stordep::casestudy;
namespace opt = stordep::optimizer;

// ---- Fingerprints ----------------------------------------------------------

TEST(Fingerprint, Fnv1aKnownVectors) {
  // Standard FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a64(""), 0xCBF29CE484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xAF63DC4C8601EC8Cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171F73967E8ull);
}

TEST(Fingerprint, StableAcrossIndependentBuilds) {
  // Two independently materialized copies of the same design serialize and
  // fingerprint identically — the key is content, not object identity.
  const StorageDesign a = cs::baseline();
  const StorageDesign b = cs::baseline();
  EXPECT_NE(&a, &b);
  EXPECT_EQ(canonicalSerialization(a), canonicalSerialization(b));
  EXPECT_EQ(fingerprintDesign(a), fingerprintDesign(b));
  EXPECT_EQ(fingerprintScenario(cs::siteDisaster()),
            fingerprintScenario(cs::siteDisaster()));
  EXPECT_EQ(fingerprintEvaluation(a, cs::arrayFailure()),
            fingerprintEvaluation(b, cs::arrayFailure()));
}

TEST(Fingerprint, DistinguishesDesignsScenariosAndOrder) {
  const StorageDesign baseline = cs::baseline();
  const StorageDesign weekly = cs::weeklyVault();
  EXPECT_NE(fingerprintDesign(baseline), fingerprintDesign(weekly));
  EXPECT_NE(fingerprintScenario(cs::arrayFailure()),
            fingerprintScenario(cs::siteDisaster()));

  // combine() is order-sensitive: (a, b) and (b, a) must differ.
  const Fingerprint a = fingerprintDesign(baseline);
  const Fingerprint b = fingerprintScenario(cs::arrayFailure());
  EXPECT_NE(combine(a, b), combine(b, a));
}

TEST(Fingerprint, NoCollisionsAcrossTheDesignSpace) {
  // Every (candidate, scenario) pair in the default sweep keys a distinct
  // cache slot: ~200 designs x 3 scenarios, all 128-bit values unique.
  const auto candidates = opt::enumerateDesignSpace();
  const auto scenarios = opt::caseStudyScenarios();
  std::set<std::string> seen;
  for (const opt::CandidateSpec& spec : candidates) {
    const StorageDesign design =
        spec.build(cs::celloWorkload(), cs::requirements());
    const Fingerprint designFp = fingerprintDesign(design);
    for (const opt::ScenarioCase& sc : scenarios) {
      const Fingerprint key =
          combine(designFp, fingerprintScenario(sc.scenario));
      EXPECT_TRUE(seen.insert(key.toHex()).second)
          << "collision at " << spec.label() << " / " << sc.name;
    }
  }
  EXPECT_EQ(seen.size(), candidates.size() * scenarios.size());
}

TEST(Fingerprint, HexRendering) {
  const Fingerprint fp{0x0123456789ABCDEFull, 0xFEDCBA9876543210ull};
  EXPECT_EQ(fp.toHex(), "0123456789abcdeffedcba9876543210");
}

// ---- EvalCache -------------------------------------------------------------

EvaluationResult markedResult(double marker) {
  EvaluationResult result;
  result.cost.totalOutlays = Money{marker};
  return result;
}

TEST(EvalCache, HitMissInsertCounters) {
  EvalCache cache(/*capacity=*/8, /*shards=*/2);
  const Fingerprint key{1, 2};
  EXPECT_FALSE(cache.lookup(key).has_value());
  cache.insert(key, markedResult(42.0));
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->cost.totalOutlays.usd(), 42.0);

  const EvalCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hitRate(), 0.5);
}

TEST(EvalCache, LruEvictionAtCapacity) {
  // One shard of capacity 4 makes the eviction order fully observable.
  EvalCache cache(/*capacity=*/4, /*shards=*/1);
  for (std::uint64_t i = 0; i < 4; ++i) {
    cache.insert(Fingerprint{i, i}, markedResult(static_cast<double>(i)));
  }
  // Touch key 0 so key 1 becomes the least recently used.
  EXPECT_TRUE(cache.lookup(Fingerprint{0, 0}).has_value());
  cache.insert(Fingerprint{9, 9}, markedResult(9.0));

  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.lookup(Fingerprint{1, 1}).has_value());  // evicted
  EXPECT_TRUE(cache.lookup(Fingerprint{0, 0}).has_value());
  EXPECT_TRUE(cache.lookup(Fingerprint{9, 9}).has_value());
}

TEST(EvalCache, GetOrComputeAndClear) {
  EvalCache cache(16, 4);
  int computes = 0;
  const auto compute = [&]() {
    ++computes;
    return markedResult(7.0);
  };
  (void)cache.getOrCompute(Fingerprint{5, 5}, compute);
  (void)cache.getOrCompute(Fingerprint{5, 5}, compute);
  EXPECT_EQ(computes, 1);  // second call served from cache

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  (void)cache.getOrCompute(Fingerprint{5, 5}, compute);
  EXPECT_EQ(computes, 2);
}

TEST(EvalCache, ShardCountRoundsToPowerOfTwo) {
  EvalCache cache(100, 3);
  EXPECT_EQ(cache.shardCount(), 4u);
  EXPECT_GE(cache.capacity(), 100u);
}

// ---- ThreadPool ------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 10000;
  std::vector<std::atomic<int>> touched(kCount);
  pool.parallelFor(kCount, [&](std::size_t i) {
    touched[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SubmitReturnsValueAndPropagatesException) {
  ThreadPool pool(2);
  auto ok = pool.submit([]() { return 6 * 7; });
  EXPECT_EQ(ok.get(), 42);

  auto bad = pool.submit([]() -> int {
    throw std::runtime_error("task failed");
  });
  EXPECT_THROW((void)bad.get(), std::runtime_error);

  // The pool survives a throwing task.
  auto after = pool.submit([]() { return 1; });
  EXPECT_EQ(after.get(), 1);
}

TEST(ThreadPoolTest, ParallelForRethrowsFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallelFor(1000,
                       [](std::size_t i) {
                         if (i == 537) throw std::invalid_argument("boom");
                       }),
      std::invalid_argument);
  // Still usable afterwards.
  std::atomic<int> count{0};
  pool.parallelFor(64, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // A worker calling parallelFor must make progress even when every other
  // worker is busy: the calling thread participates in the loop.
  ThreadPool pool(1);
  std::atomic<int> total{0};
  auto outer = pool.submit([&]() {
    pool.parallelFor(32, [&](std::size_t) { ++total; });
    return true;
  });
  EXPECT_TRUE(outer.get());
  EXPECT_EQ(total.load(), 32);
}

// ---- Determinism: parallel + cached == serial ------------------------------

void expectBitIdentical(const EvaluationResult& a, const EvaluationResult& b) {
  EXPECT_EQ(a.recovery.recoverable, b.recovery.recoverable);
  EXPECT_EQ(a.recovery.recoveryTime.raw(), b.recovery.recoveryTime.raw());
  EXPECT_EQ(a.recovery.dataLoss.raw(), b.recovery.dataLoss.raw());
  EXPECT_EQ(a.cost.totalOutlays.raw(), b.cost.totalOutlays.raw());
  EXPECT_EQ(a.cost.totalPenalties.raw(), b.cost.totalPenalties.raw());
  EXPECT_EQ(a.cost.totalCost.raw(), b.cost.totalCost.raw());
  EXPECT_EQ(a.utilization.overallBwUtil, b.utilization.overallBwUtil);
  EXPECT_EQ(a.utilization.overallCapUtil, b.utilization.overallCapUtil);
  EXPECT_EQ(a.meetsObjectives, b.meetsObjectives);
  EXPECT_EQ(a.warnings, b.warnings);
}

TEST(Determinism, BatchMatchesSerialOnCaseStudyDesigns) {
  // The Table 5/6/7 designs under all three scenarios: an engine batch at
  // full parallelism, twice (cold cache, then warm), against direct serial
  // evaluate() calls.
  std::vector<EvalRequest> requests;
  std::vector<EvaluationResult> serial;
  for (const auto& [label, design] : cs::allWhatIfDesigns()) {
    auto shared = std::make_shared<const StorageDesign>(design);
    for (const FailureScenario& scenario :
         {cs::objectFailure(), cs::arrayFailure(), cs::siteDisaster()}) {
      requests.push_back(EvalRequest{shared, scenario});
      serial.push_back(evaluate(design, scenario));
    }
  }

  Engine engine(EngineOptions{.threads = 4, .cacheCapacity = 1024});
  const BatchResult cold = engine.evaluateBatch(requests);
  ASSERT_EQ(cold.results.size(), serial.size());
  EXPECT_EQ(cold.stats.requests, serial.size());
  EXPECT_EQ(cold.stats.threadsUsed, 4);
  ASSERT_TRUE(cold.allOk());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expectBitIdentical(cold.results[i].value(), serial[i]);
  }

  const BatchResult warm = engine.evaluateBatch(requests);
  EXPECT_EQ(warm.stats.cacheHits, warm.stats.requests);  // fully memoized
  EXPECT_EQ(warm.stats.evaluations, 0u);
  ASSERT_TRUE(warm.allOk());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expectBitIdentical(warm.results[i].value(), serial[i]);
  }
}

TEST(Determinism, RepeatedPairsInOneBatchAreComputedOnce) {
  // The service batcher coalesces identical concurrent requests into one
  // batch. Each distinct pair must miss the cache exactly once, however the
  // repeats spread over the workers, and every repeat answers bit-identically.
  std::vector<EvalRequest> distinct;
  for (const auto& [label, design] : cs::allWhatIfDesigns()) {
    auto shared = std::make_shared<const StorageDesign>(design);
    for (const FailureScenario& scenario :
         {cs::objectFailure(), cs::arrayFailure(), cs::siteDisaster()}) {
      distinct.push_back(EvalRequest{shared, scenario});
    }
  }
  std::vector<EvalRequest> requests;
  for (int copy = 0; copy < 8; ++copy) {
    requests.insert(requests.end(), distinct.begin(), distinct.end());
  }

  // Injected latency (no faults) keeps each first evaluation in flight
  // while other workers reach its repeats.
  FaultPlan slow;
  slow.latency = std::chrono::microseconds{1000};
  Engine engine(EngineOptions{.threads = 4});
  engine.setFaultInjector(std::make_shared<FaultInjector>(slow));
  const BatchResult batch = engine.evaluateBatch(requests);
  ASSERT_TRUE(batch.allOk());
  EXPECT_EQ(engine.cache().stats().misses, distinct.size());
  EXPECT_EQ(batch.stats.cacheHits, requests.size() - distinct.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    expectBitIdentical(batch.results[i].value(),
                       batch.results[i % distinct.size()].value());
  }
}

/// Every (candidate design, scenario) pair of a sweep as one batch: what the
/// result cache memoizes now that sweeps evaluate through compiled plans.
std::vector<EvalRequest> sweepRequests(
    const std::vector<opt::CandidateSpec>& candidates,
    const std::vector<opt::ScenarioCase>& scenarios) {
  std::vector<EvalRequest> requests;
  requests.reserve(candidates.size() * scenarios.size());
  for (const opt::CandidateSpec& spec : candidates) {
    const auto design = std::make_shared<const StorageDesign>(
        spec.build(cs::celloWorkload(), cs::requirements()));
    for (const opt::ScenarioCase& sc : scenarios) {
      requests.push_back(EvalRequest{design, sc.scenario});
    }
  }
  return requests;
}

TEST(Determinism, EngineBackedSearchMatchesSerialReference) {
  // The acceptance criterion: identical ranked candidate list — same
  // labels, same Money/Duration values — from the engine-backed search and
  // the pre-engine serial path.
  const auto candidates = opt::enumerateDesignSpace();
  const auto scenarios = opt::caseStudyScenarios();

  const opt::SearchResult serial = opt::searchDesignSpaceSerial(
      candidates, cs::celloWorkload(), cs::requirements(), scenarios);

  Engine engine(EngineOptions{.threads = 4});
  opt::SearchOptions options;
  options.eng = &engine;
  options.maxRetries = 0;
  const opt::SearchResult parallel =
      opt::searchDesignSpace(candidates, cs::celloWorkload(),
                             cs::requirements(), scenarios, options);
  // And a second run on the same engine.
  const opt::SearchResult again =
      opt::searchDesignSpace(candidates, cs::celloWorkload(),
                             cs::requirements(), scenarios, options);

  for (const opt::SearchResult* result : {&parallel, &again}) {
    EXPECT_EQ(result->evaluated, serial.evaluated);
    ASSERT_EQ(result->ranked.size(), serial.ranked.size());
    ASSERT_EQ(result->rejected.size(), serial.rejected.size());
    for (std::size_t i = 0; i < serial.ranked.size(); ++i) {
      EXPECT_EQ(result->ranked[i].label, serial.ranked[i].label);
      EXPECT_EQ(result->ranked[i].totalCost.raw(),
                serial.ranked[i].totalCost.raw());
      EXPECT_EQ(result->ranked[i].outlays.raw(),
                serial.ranked[i].outlays.raw());
      EXPECT_EQ(result->ranked[i].weightedPenalties.raw(),
                serial.ranked[i].weightedPenalties.raw());
      EXPECT_EQ(result->ranked[i].worstRecoveryTime.raw(),
                serial.ranked[i].worstRecoveryTime.raw());
      EXPECT_EQ(result->ranked[i].worstDataLoss.raw(),
                serial.ranked[i].worstDataLoss.raw());
    }
  }

  // The same pairs through the cache-backed batch path, twice: the re-run
  // is served from the cache.
  const std::vector<EvalRequest> requests = sweepRequests(candidates, scenarios);
  (void)engine.evaluateBatch(requests);
  (void)engine.evaluateBatch(requests);
  EXPECT_GT(engine.cache().stats().hitRate(), 0.4);  // the re-run was free
}

TEST(Determinism, RepeatedSweepHitRate) {
  // A repeated batch over the same sweep's pairs must be >= 90% cache hits
  // (the engine's headline cache criterion, scaled down to test size).
  Engine engine(EngineOptions{.threads = 2});
  const std::vector<EvalRequest> requests = sweepRequests(
      opt::enumerateDesignSpace(), opt::caseStudyScenarios());
  (void)engine.evaluateBatch(requests);
  const EvalCache::Stats before = engine.cache().stats();
  (void)engine.evaluateBatch(requests);
  const EvalCache::Stats after = engine.cache().stats();

  const auto hits = static_cast<double>(after.hits - before.hits);
  const auto lookups = static_cast<double>((after.hits + after.misses) -
                                           (before.hits + before.misses));
  ASSERT_GT(lookups, 0.0);
  EXPECT_GE(hits / lookups, 0.9);
}

TEST(Determinism, RefineMatchesAcrossEngines) {
  // Hill climbing through a 1-thread engine and a 4-thread engine takes the
  // same steps to the same optimum.
  opt::CandidateSpec start;
  start.pit = opt::PitChoice::kSnapshot;
  start.pitAccW = hours(24);
  start.pitRetentionCount = 4;
  start.mirror = opt::MirrorChoice::kAsyncBatch;
  start.mirrorLinkCount = 10;
  ASSERT_TRUE(start.valid());

  Engine one(EngineOptions{.threads = 1});
  Engine four(EngineOptions{.threads = 4});
  const opt::RefineResult serial =
      opt::refineCandidate(start, cs::celloWorkload(), cs::requirements(),
                           opt::caseStudyScenarios(), {}, &one);
  const opt::RefineResult parallel =
      opt::refineCandidate(start, cs::celloWorkload(), cs::requirements(),
                           opt::caseStudyScenarios(), {}, &four);
  EXPECT_EQ(parallel.best.label, serial.best.label);
  EXPECT_EQ(parallel.best.totalCost.raw(), serial.best.totalCost.raw());
  EXPECT_EQ(parallel.steps, serial.steps);
  EXPECT_EQ(parallel.evaluations, serial.evaluations);
}

TEST(Determinism, PortfolioBatchMatchesSerialRecover) {
  using stordep::multiobject::ObjectSpec;
  using stordep::multiobject::Portfolio;
  using stordep::multiobject::PortfolioRecoveryResult;

  const Portfolio portfolio({
      ObjectSpec{"db", cs::baseline(), {}},
      ObjectSpec{"app", cs::weeklyVault(), {"db"}},
  });
  const std::vector<FailureScenario> scenarios{
      cs::objectFailure(), cs::arrayFailure(), cs::siteDisaster()};

  Engine engine(EngineOptions{.threads = 4});
  const std::vector<PortfolioRecoveryResult> batch =
      portfolio.recoverBatch(scenarios, &engine);
  ASSERT_EQ(batch.size(), scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const PortfolioRecoveryResult direct = portfolio.recover(scenarios[i]);
    EXPECT_EQ(batch[i].allRecoverable, direct.allRecoverable);
    EXPECT_EQ(batch[i].totalRecoveryTime.raw(),
              direct.totalRecoveryTime.raw());
    EXPECT_EQ(batch[i].worstDataLoss.raw(), direct.worstDataLoss.raw());
    ASSERT_EQ(batch[i].objects.size(), direct.objects.size());
    for (std::size_t j = 0; j < direct.objects.size(); ++j) {
      EXPECT_EQ(batch[i].objects[j].completionTime.raw(),
                direct.objects[j].completionTime.raw());
    }
  }
}

TEST(Search, OutlaysRecordedOnceAndScenarioIndependent) {
  // The hoisting fix: a candidate's recorded outlays equal the outlays of a
  // direct evaluation under *any* scenario (they are scenario-independent),
  // and the plan computes them once per candidate.
  opt::CandidateSpec spec;
  spec.pit = opt::PitChoice::kSplitMirror;
  spec.backup = opt::BackupChoice::kFullOnly;
  spec.backupAccW = weeks(1);
  spec.vault = true;
  ASSERT_TRUE(spec.valid());

  Engine engine(EngineOptions{.threads = 1});
  const opt::EvaluatedCandidate candidate = opt::evaluateCandidate(
      spec, cs::celloWorkload(), cs::requirements(),
      opt::caseStudyScenarios(), &engine);

  const StorageDesign design =
      spec.build(cs::celloWorkload(), cs::requirements());
  for (const FailureScenario& scenario :
       {cs::objectFailure(), cs::arrayFailure(), cs::siteDisaster()}) {
    EXPECT_EQ(evaluate(design, scenario).cost.totalOutlays.raw(),
              candidate.outlays.raw());
  }
}

}  // namespace
}  // namespace stordep::engine
