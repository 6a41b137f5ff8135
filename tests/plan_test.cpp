// plan_test.cpp — the compile-once evaluation-plan fast path.
//
// Covers the pieces the plan-vs-legacy fuzz oracle cannot: the BumpArena's
// reuse/rewind protocol, that compiling hashes nothing, that un-plannable
// designs compile to null, that every design-space grid candidate compiles
// (the optimizer has no other path), and that a cold plan-routed search
// returns bit-identical rankings at 1/2/4/8 threads (this binary also runs
// under TSan in CI).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "big_grid.hpp"
#include "casestudy/casestudy.hpp"
#include "core/evaluator.hpp"
#include "core/hierarchy.hpp"
#include "core/technique.hpp"
#include "core/techniques/foreground.hpp"
#include "devices/catalog.hpp"
#include "engine/arena.hpp"
#include "engine/batch.hpp"
#include "engine/fingerprint.hpp"
#include "engine/plan.hpp"
#include "optimizer/design_space.hpp"
#include "optimizer/search.hpp"

namespace {

namespace cs = stordep::casestudy;
namespace opt = stordep::optimizer;
using stordep::engine::BumpArena;
using stordep::engine::Engine;
using stordep::engine::EngineOptions;
using stordep::engine::EvalPlan;

// ---- BumpArena -------------------------------------------------------------

TEST(Arena, ArrayAllocationAlignsAndZeroes) {
  BumpArena arena(/*blockBytes=*/256);
  double* d = arena.array<double>(4);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % alignof(double), 0u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(d[i], 0.0);

  bool* flags = arena.array<bool>(7);
  ASSERT_NE(flags, nullptr);
  for (int i = 0; i < 7; ++i) EXPECT_FALSE(flags[i]);

  EXPECT_GE(arena.used(), 4 * sizeof(double) + 7 * sizeof(bool));
  EXPECT_EQ(arena.highWater(), arena.used());
}

TEST(Arena, ResetKeepsBlocksAndReusesMemory) {
  BumpArena arena(/*blockBytes=*/128);
  void* first = arena.allocate(64, 8);
  ASSERT_NE(first, nullptr);
  const std::size_t blocks = arena.blockCount();
  const std::size_t capacity = arena.capacity();

  arena.reset();
  EXPECT_EQ(arena.used(), 0u);
  EXPECT_EQ(arena.blockCount(), blocks);     // blocks retained...
  EXPECT_EQ(arena.capacity(), capacity);     // ...capacity unchanged
  void* again = arena.allocate(64, 8);
  EXPECT_EQ(again, first);  // same bytes handed out again
}

TEST(Arena, FrameRewindsWithoutFreeing) {
  BumpArena arena(/*blockBytes=*/128);
  (void)arena.allocate(16, 8);
  const std::size_t before = arena.used();
  void* inner1 = nullptr;
  {
    BumpArena::Frame frame(arena);
    inner1 = arena.allocate(32, 8);
    (void)arena.allocate(500, 8);  // forces growth past the first block
    EXPECT_GT(arena.used(), before);
  }
  EXPECT_EQ(arena.used(), before);  // frame rewound the bump position
  // The next frame re-serves the same scratch memory.
  BumpArena::Frame frame(arena);
  EXPECT_EQ(arena.allocate(32, 8), inner1);
}

TEST(Arena, OversizedAllocationGetsItsOwnBlock) {
  BumpArena arena(/*blockBytes=*/64);
  void* big = arena.allocate(1024, 16);
  ASSERT_NE(big, nullptr);
  EXPECT_GE(arena.capacity(), 1024u);
  // High-water tracks the peak across resets.
  const std::size_t peak = arena.highWater();
  arena.reset();
  (void)arena.allocate(8, 8);
  EXPECT_EQ(arena.highWater(), peak);
}

// ---- Plan compilation ------------------------------------------------------

TEST(PlanCompile, CompileHashesNothing) {
  // A plan holds the tables evaluate() reads and nothing else: compiling
  // must not feed the process-wide fingerprint counters.
  const auto designs = cs::allWhatIfDesigns();
  const std::uint64_t before =
      stordep::engine::fingerprintCounters().bytesHashed;
  for (const auto& [label, design] : designs) {
    EXPECT_NE(EvalPlan::compile(design), nullptr) << label;
  }
  EXPECT_EQ(stordep::engine::fingerprintCounters().bytesHashed, before);
}

TEST(PlanCompile, EveryCaseStudyDesignIsPlannable) {
  for (const auto& [label, design] : cs::allWhatIfDesigns()) {
    EXPECT_NE(EvalPlan::compile(design), nullptr) << label;
  }
}

// ---- Plan vs legacy on the case-study designs ------------------------------

void expectMetricsBitIdentical(const stordep::EvaluationMetrics& plan,
                               const stordep::EvaluationMetrics& legacy,
                               const std::string& context) {
  EXPECT_EQ(plan.utilizationFeasible, legacy.utilizationFeasible) << context;
  EXPECT_EQ(plan.recoverable, legacy.recoverable) << context;
  EXPECT_EQ(plan.meetsObjectives, legacy.meetsObjectives) << context;
  EXPECT_EQ(plan.sourceLevel, legacy.sourceLevel) << context;
  EXPECT_EQ(plan.recoveryTime.raw(), legacy.recoveryTime.raw()) << context;
  EXPECT_EQ(plan.dataLoss.raw(), legacy.dataLoss.raw()) << context;
  EXPECT_EQ(plan.payload.raw(), legacy.payload.raw()) << context;
  EXPECT_EQ(plan.totalOutlays.raw(), legacy.totalOutlays.raw()) << context;
  EXPECT_EQ(plan.outagePenalty.raw(), legacy.outagePenalty.raw()) << context;
  EXPECT_EQ(plan.lossPenalty.raw(), legacy.lossPenalty.raw()) << context;
  EXPECT_EQ(plan.totalPenalties.raw(), legacy.totalPenalties.raw()) << context;
  EXPECT_EQ(plan.totalCost.raw(), legacy.totalCost.raw()) << context;
}

TEST(PlanEvaluate, BitIdenticalToLegacyOnCaseStudyMatrix) {
  const std::vector<std::pair<std::string, stordep::FailureScenario>>
      scenarios = {{"object", cs::objectFailure()},
                   {"array", cs::arrayFailure()},
                   {"site", cs::siteDisaster()}};
  BumpArena arena;
  for (const auto& [label, design] : cs::allWhatIfDesigns()) {
    const auto plan = EvalPlan::compile(design);
    ASSERT_NE(plan, nullptr) << label;
    for (const auto& [scenarioName, scenario] : scenarios) {
      const stordep::EvaluationMetrics viaPlan =
          plan->evaluate(scenario, arena);
      const stordep::EvaluationMetrics legacy =
          stordep::summarizeEvaluation(stordep::evaluate(design, scenario));
      expectMetricsBitIdentical(viaPlan, legacy,
                                label + " / " + scenarioName);
    }
  }
}

TEST(PlanEvaluate, RepeatedEvalsReuseArenaWithoutGrowth) {
  const stordep::StorageDesign design = cs::baseline();
  const auto plan = EvalPlan::compile(design);
  ASSERT_NE(plan, nullptr);
  BumpArena arena;
  const stordep::EvaluationMetrics first =
      plan->evaluate(cs::siteDisaster(), arena);
  const std::size_t warmBlocks = arena.blockCount();
  const std::size_t warmCapacity = arena.capacity();
  for (int i = 0; i < 100; ++i) {
    const stordep::EvaluationMetrics again =
        plan->evaluate(cs::siteDisaster(), arena);
    ASSERT_EQ(again.recoveryTime.raw(), first.recoveryTime.raw());
    ASSERT_EQ(again.totalCost.raw(), first.totalCost.raw());
  }
  EXPECT_EQ(arena.blockCount(), warmBlocks);  // no growth once warm
  EXPECT_EQ(arena.capacity(), warmCapacity);
  EXPECT_EQ(arena.used(), 0u);  // every eval rewound its frame
}

// ---- Fallback for un-plannable designs -------------------------------------

/// A technique whose restore path has a missing endpoint: the legacy
/// evaluator reports it via a diagnostic note, which the plan tables cannot
/// represent — compile() must reject the design and the engine must fall
/// back to the legacy evaluator.
class BrokenRestoreTechnique final : public stordep::Technique {
 public:
  explicit BrokenRestoreTechnique(stordep::DevicePtr storage)
      : Technique("broken restore", stordep::TechniqueKind::kBackup),
        storage_(std::move(storage)),
        policy_(stordep::WindowSpec{stordep::hours(24), stordep::hours(1),
                                    stordep::Duration::zero()},
                /*retentionCount=*/2, stordep::days(14)) {}

  [[nodiscard]] const stordep::ProtectionPolicy* policy()
      const noexcept override {
    return &policy_;
  }
  [[nodiscard]] std::vector<stordep::DevicePtr> storageDevices()
      const override {
    return {storage_};
  }
  [[nodiscard]] std::vector<stordep::PlacedDemand> normalModeDemands(
      const stordep::WorkloadSpec&) const override {
    return {};
  }
  [[nodiscard]] std::vector<stordep::RecoveryLeg> recoveryLegs(
      stordep::DevicePtr) const override {
    return {stordep::RecoveryLeg{nullptr, nullptr, nullptr,
                                 stordep::Duration::zero()}};
  }

 private:
  stordep::DevicePtr storage_;
  stordep::ProtectionPolicy policy_;
};

stordep::StorageDesign brokenRestoreDesign() {
  auto primary = stordep::catalog::midrangeDiskArray(
      "primary array", stordep::Location::at("primary site"));
  auto offsite = stordep::catalog::midrangeDiskArray(
      "offsite array", stordep::Location::at("offsite"));
  std::vector<stordep::TechniquePtr> levels;
  levels.push_back(std::make_shared<stordep::PrimaryCopy>(primary));
  levels.push_back(std::make_shared<BrokenRestoreTechnique>(offsite));
  return stordep::StorageDesign("broken restore design", cs::celloWorkload(),
                                cs::requirements(), std::move(levels));
}

TEST(PlanFallback, UnplannableDesignCompilesToNull) {
  EXPECT_EQ(EvalPlan::compile(brokenRestoreDesign()), nullptr);
}

TEST(PlanFallback, SearchStillRanksUnplannableDesignSpaces) {
  // evaluateCandidate runs only through compiled plans; every field must
  // still match the serial reference's direct evaluate() fold, rejection
  // strings included.
  const auto candidates = opt::enumerateDesignSpace();
  const auto scenarios = opt::caseStudyScenarios();
  ASSERT_FALSE(candidates.empty());
  const std::vector<opt::CandidateSpec> sample(candidates.begin(),
                                               candidates.begin() + 16);
  const opt::SearchResult serial = opt::searchDesignSpaceSerial(
      sample, cs::celloWorkload(), cs::requirements(), scenarios);
  std::vector<const opt::EvaluatedCandidate*> reference;
  for (const auto* list : {&serial.ranked, &serial.rejected}) {
    for (const opt::EvaluatedCandidate& c : *list) reference.push_back(&c);
  }
  ASSERT_EQ(reference.size(), sample.size());
  for (const opt::EvaluatedCandidate* legacy : reference) {
    const opt::EvaluatedCandidate viaPlan = opt::evaluateCandidate(
        legacy->spec, cs::celloWorkload(), cs::requirements(), scenarios);
    EXPECT_EQ(viaPlan.label, legacy->label);
    EXPECT_FALSE(viaPlan.error.has_value()) << viaPlan.label;
    EXPECT_EQ(viaPlan.feasible, legacy->feasible);
    EXPECT_EQ(viaPlan.meetsObjectives, legacy->meetsObjectives);
    EXPECT_EQ(viaPlan.rejectionReason, legacy->rejectionReason);
    EXPECT_EQ(viaPlan.totalCost.raw(), legacy->totalCost.raw());
    EXPECT_EQ(viaPlan.outlays.raw(), legacy->outlays.raw());
    EXPECT_EQ(viaPlan.weightedPenalties.raw(),
              legacy->weightedPenalties.raw());
    EXPECT_EQ(viaPlan.worstRecoveryTime.raw(),
              legacy->worstRecoveryTime.raw());
    EXPECT_EQ(viaPlan.worstDataLoss.raw(), legacy->worstDataLoss.raw());
  }
}

// ---- Grid coverage ---------------------------------------------------------

using stordep::testgrid::bigGridOptions;

TEST(PlanCoverage, EveryGridCandidateCompiles) {
  // The optimizer evaluates only through compiled plans and reports a
  // candidate whose plan fails to compile as kInvalidDesign: no grid
  // candidate may ever take that branch.
  const stordep::WorkloadSpec workload = cs::celloWorkload();
  const stordep::BusinessRequirements business = cs::requirements();
  for (const opt::DesignSpaceOptions& grid :
       {opt::DesignSpaceOptions{}, bigGridOptions()}) {
    opt::DesignSpaceCursor cursor(grid);
    opt::CandidateSpec spec;
    std::size_t compiled = 0;
    while (cursor.next(spec)) {
      const stordep::StorageDesign design = spec.build(workload, business);
      ASSERT_NE(EvalPlan::compile(design), nullptr) << spec.label();
      ++compiled;
    }
    EXPECT_EQ(compiled, opt::enumerateDesignSpace(grid).size());
  }
}

// ---- Thread-count determinism (runs under TSan in CI) ----------------------

void expectSameRanking(const opt::SearchResult& a, const opt::SearchResult& b,
                       int threads) {
  ASSERT_EQ(a.ranked.size(), b.ranked.size()) << threads << " threads";
  ASSERT_EQ(a.rejected.size(), b.rejected.size()) << threads << " threads";
  for (std::size_t i = 0; i < a.ranked.size(); ++i) {
    EXPECT_EQ(a.ranked[i].label, b.ranked[i].label)
        << threads << " threads, rank " << i;
    EXPECT_EQ(a.ranked[i].totalCost.raw(), b.ranked[i].totalCost.raw())
        << threads << " threads, rank " << i;
    EXPECT_EQ(a.ranked[i].outlays.raw(), b.ranked[i].outlays.raw());
    EXPECT_EQ(a.ranked[i].weightedPenalties.raw(),
              b.ranked[i].weightedPenalties.raw());
    EXPECT_EQ(a.ranked[i].worstRecoveryTime.raw(),
              b.ranked[i].worstRecoveryTime.raw());
    EXPECT_EQ(a.ranked[i].worstDataLoss.raw(),
              b.ranked[i].worstDataLoss.raw());
  }
  for (std::size_t i = 0; i < a.rejected.size(); ++i) {
    EXPECT_EQ(a.rejected[i].label, b.rejected[i].label);
    EXPECT_EQ(a.rejected[i].rejectionReason, b.rejected[i].rejectionReason);
  }
}

TEST(PlanDeterminism, ColdGridSearchBitIdenticalAcrossThreadCounts) {
  const auto candidates = opt::enumerateDesignSpace();
  const auto scenarios = opt::caseStudyScenarios();
  const stordep::WorkloadSpec workload = cs::celloWorkload();
  const stordep::BusinessRequirements business = cs::requirements();

  std::optional<opt::SearchResult> reference;
  for (const int threads : {1, 2, 4, 8}) {
    // A fresh engine per thread count: every sweep is fully cold.
    Engine engine(EngineOptions{.threads = threads});
    opt::SearchOptions options;
    options.eng = &engine;
    options.maxRetries = 0;
    const opt::SearchResult result = opt::searchDesignSpace(
        candidates, workload, business, scenarios, options);
    EXPECT_EQ(result.evaluated, static_cast<int>(candidates.size()));
    if (!reference) {
      reference = result;
      ASSERT_FALSE(reference->ranked.empty());
    } else {
      expectSameRanking(*reference, result, threads);
    }
  }
}

}  // namespace
