// Tests for the design-space optimizer: enumeration validity, candidate
// construction, constraint enforcement (RTO/RPO), and that the search
// rediscovers the paper's Table 7 punchline.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "casestudy/casestudy.hpp"
#include "engine/batch.hpp"
#include "engine/fingerprint.hpp"
#include "engine/plan.hpp"
#include "optimizer/refine.hpp"
#include "optimizer/search.hpp"

namespace stordep::optimizer {
namespace {

namespace cs = stordep::casestudy;

TEST(DesignSpace, EnumerationIsNonTrivialAndValid) {
  const auto candidates = enumerateDesignSpace();
  EXPECT_GT(candidates.size(), 100u);
  for (const CandidateSpec& spec : candidates) {
    EXPECT_TRUE(spec.valid()) << spec.label();
  }
}

TEST(DesignSpace, InvalidCombinationsRejected) {
  CandidateSpec spec;
  // Vault without backup.
  spec.vault = true;
  spec.backup = BackupChoice::kNone;
  spec.pit = PitChoice::kSplitMirror;
  EXPECT_FALSE(spec.valid());
  // Backup without a PiT source image.
  spec = {};
  spec.backup = BackupChoice::kFullOnly;
  spec.pit = PitChoice::kNone;
  EXPECT_FALSE(spec.valid());
  // No protection at all.
  spec = {};
  EXPECT_FALSE(spec.valid());
  // Incrementals need room inside the cycle.
  spec = {};
  spec.pit = PitChoice::kSplitMirror;
  spec.backup = BackupChoice::kFullPlusIncremental;
  spec.backupAccW = hours(24);
  EXPECT_FALSE(spec.valid());
  EXPECT_THROW((void)spec.build(cs::celloWorkload(), cs::requirements()),
               DesignError);
}

TEST(DesignSpace, LabelsAreDescriptive) {
  CandidateSpec spec;
  spec.pit = PitChoice::kSplitMirror;
  spec.pitAccW = hours(12);
  spec.pitRetentionCount = 4;
  spec.backup = BackupChoice::kFullOnly;
  spec.backupAccW = weeks(1);
  spec.vault = true;
  spec.vaultAccW = weeks(4);
  const std::string label = spec.label();
  EXPECT_NE(label.find("split-mirror"), std::string::npos);
  EXPECT_NE(label.find("full"), std::string::npos);
  EXPECT_NE(label.find("vault"), std::string::npos);
}

TEST(DesignSpace, BuildsEvaluableDesigns) {
  CandidateSpec spec;
  spec.pit = PitChoice::kSplitMirror;
  spec.backup = BackupChoice::kFullOnly;
  spec.backupAccW = weeks(1);
  spec.vault = true;
  const StorageDesign design =
      spec.build(cs::celloWorkload(), cs::requirements());
  const EvaluationResult result = evaluate(design, cs::arrayFailure());
  EXPECT_TRUE(result.utilization.feasible());
  EXPECT_TRUE(result.recovery.recoverable);
  // This candidate is close to the paper's baseline: same DL structure.
  EXPECT_GT(result.recovery.dataLoss, hours(100));
}

TEST(Search, RanksByTotalCost) {
  const auto candidates = enumerateDesignSpace();
  const SearchResult result = searchDesignSpace(
      candidates, cs::celloWorkload(), cs::requirements(),
      caseStudyScenarios());
  EXPECT_EQ(result.evaluated, static_cast<int>(candidates.size()));
  ASSERT_FALSE(result.ranked.empty());
  for (size_t i = 1; i < result.ranked.size(); ++i) {
    EXPECT_LE(result.ranked[i - 1].totalCost.usd(),
              result.ranked[i].totalCost.usd());
  }
  // Every ranked candidate is feasible and meets (absent) objectives.
  for (const auto& c : result.ranked) {
    EXPECT_TRUE(c.feasible);
    EXPECT_TRUE(c.meetsObjectives);
    EXPECT_TRUE(c.totalCost.isFinite());
  }
}

TEST(Search, MirroringWinsWhenLossIsExpensive) {
  // With the case study's high loss penalty and all three scenarios in
  // play, tape-only designs pay enormous site-disaster loss penalties;
  // the best designs must include mirroring (echoing Table 7's punchline).
  const SearchResult result = searchDesignSpace(
      enumerateDesignSpace(), cs::celloWorkload(), cs::requirements(),
      caseStudyScenarios());
  ASSERT_FALSE(result.ranked.empty());
  EXPECT_NE(result.ranked.front().spec.mirror, MirrorChoice::kNone);
  // And because a 24 h-rollback object failure is in the scenario set, the
  // winner must also retain history (a PiT level or backup), not mirroring
  // alone.
  const auto& best = result.ranked.front().spec;
  EXPECT_TRUE(best.pit != PitChoice::kNone ||
              best.backup != BackupChoice::kNone)
      << result.ranked.front().label;
}

TEST(Search, RtoRpoConstraintsFilter) {
  BusinessRequirements strict = cs::requirements();
  strict.rto = hours(12);
  strict.rpo = hours(1);
  const SearchResult result =
      searchDesignSpace(enumerateDesignSpace(), cs::celloWorkload(), strict,
                        caseStudyScenarios());
  // An RPO of 1 hour across a site disaster forces mirroring; plain
  // tape hierarchies get rejected.
  for (const auto& c : result.ranked) {
    EXPECT_NE(c.spec.mirror, MirrorChoice::kNone) << c.label;
    EXPECT_LE(c.worstDataLoss, hours(1)) << c.label;
    EXPECT_LE(c.worstRecoveryTime, hours(12)) << c.label;
  }
  EXPECT_FALSE(result.rejected.empty());
  bool sawObjectiveRejection = false;
  for (const auto& c : result.rejected) {
    if (c.rejectionReason.find("RTO/RPO") != std::string::npos) {
      sawObjectiveRejection = true;
    }
  }
  EXPECT_TRUE(sawObjectiveRejection);
}

TEST(Search, UnrecoverableCandidatesRejected) {
  // Mirror-only candidates cannot serve the 24 h rollback scenario.
  CandidateSpec spec;
  spec.mirror = MirrorChoice::kAsyncBatch;
  spec.mirrorLinkCount = 1;
  ASSERT_TRUE(spec.valid());
  const EvaluatedCandidate result = evaluateCandidate(
      spec, cs::celloWorkload(), cs::requirements(), caseStudyScenarios());
  EXPECT_FALSE(result.feasible);
  EXPECT_NE(result.rejectionReason.find("unrecoverable"), std::string::npos);
}

TEST(Search, WeightsScalePenalties) {
  CandidateSpec spec;
  spec.pit = PitChoice::kSplitMirror;
  spec.backup = BackupChoice::kFullOnly;
  spec.backupAccW = weeks(1);
  spec.vault = true;

  std::vector<ScenarioCase> scenarios{
      {"array", cs::arrayFailure(), 1.0},
  };
  const EvaluatedCandidate base = evaluateCandidate(
      spec, cs::celloWorkload(), cs::requirements(), scenarios);
  scenarios[0].weight = 2.0;
  const EvaluatedCandidate doubled = evaluateCandidate(
      spec, cs::celloWorkload(), cs::requirements(), scenarios);
  EXPECT_NEAR(doubled.weightedPenalties.usd(),
              2.0 * base.weightedPenalties.usd(), 1.0);
  EXPECT_DOUBLE_EQ(doubled.outlays.usd(), base.outlays.usd());
}

TEST(Search, BestAccessor) {
  SearchResult empty;
  EXPECT_EQ(empty.best(), nullptr);
  const SearchResult result = searchDesignSpace(
      enumerateDesignSpace(), cs::celloWorkload(), cs::requirements(),
      caseStudyScenarios());
  ASSERT_NE(result.best(), nullptr);
  EXPECT_EQ(result.best()->label, result.ranked.front().label);
}

TEST(Pareto, FrontierIsMutuallyNonDominated) {
  const SearchResult result = searchDesignSpace(
      enumerateDesignSpace(), cs::celloWorkload(), cs::requirements(),
      caseStudyScenarios());
  std::vector<EvaluatedCandidate> all = result.ranked;
  all.insert(all.end(), result.rejected.begin(), result.rejected.end());
  const auto frontier = paretoFrontier(all);
  ASSERT_GE(frontier.size(), 3u);  // real trade-offs exist
  EXPECT_LT(frontier.size(), result.ranked.size());  // most are dominated

  // No frontier member dominates another.
  for (const auto& a : frontier) {
    for (const auto& b : frontier) {
      if (&a == &b) continue;
      const bool aDominatesB =
          a.outlays <= b.outlays &&
          a.worstRecoveryTime <= b.worstRecoveryTime &&
          a.worstDataLoss <= b.worstDataLoss &&
          (a.outlays < b.outlays || a.worstRecoveryTime < b.worstRecoveryTime ||
           a.worstDataLoss < b.worstDataLoss);
      EXPECT_FALSE(aDominatesB) << a.label << " dominates " << b.label;
    }
  }

  // Every feasible non-frontier candidate is dominated by some frontier
  // member.
  for (const auto& candidate : all) {
    if (!candidate.feasible) continue;
    const bool onFrontier =
        std::any_of(frontier.begin(), frontier.end(),
                    [&](const EvaluatedCandidate& f) {
                      return f.label == candidate.label;
                    });
    if (onFrontier) continue;
    const bool dominated = std::any_of(
        frontier.begin(), frontier.end(), [&](const EvaluatedCandidate& f) {
          return f.outlays <= candidate.outlays &&
                 f.worstRecoveryTime <= candidate.worstRecoveryTime &&
                 f.worstDataLoss <= candidate.worstDataLoss;
        });
    EXPECT_TRUE(dominated) << candidate.label;
  }

  // Sorted by outlays.
  for (size_t i = 1; i < frontier.size(); ++i) {
    EXPECT_LE(frontier[i - 1].outlays.usd(), frontier[i].outlays.usd());
  }
}

TEST(Pareto, EmptyAndInfeasibleInputs) {
  EXPECT_TRUE(paretoFrontier({}).empty());
  EvaluatedCandidate infeasible;
  infeasible.feasible = false;
  EXPECT_TRUE(paretoFrontier({infeasible}).empty());
}

TEST(Refine, NeighborsAreValidOneKnobMoves) {
  CandidateSpec spec;
  spec.pit = PitChoice::kSplitMirror;
  spec.pitAccW = hours(12);
  spec.pitRetentionCount = 4;
  spec.backup = BackupChoice::kFullOnly;
  spec.backupAccW = weeks(1);
  spec.vault = true;
  spec.vaultAccW = weeks(4);
  spec.mirror = MirrorChoice::kAsyncBatch;
  spec.mirrorLinkCount = 2;
  const auto moves = neighbors(spec);
  EXPECT_GE(moves.size(), 8u);
  for (const CandidateSpec& next : moves) {
    EXPECT_TRUE(next.valid()) << next.label();
  }
  // Link count 1 prunes the -1 move.
  spec.mirrorLinkCount = 1;
  for (const CandidateSpec& next : neighbors(spec)) {
    EXPECT_GE(next.mirrorLinkCount, 1);
  }
}

TEST(Refine, NeverWorsensAndConverges) {
  CandidateSpec start;
  start.pit = PitChoice::kSnapshot;
  start.pitAccW = hours(24);
  start.pitRetentionCount = 4;
  start.mirror = MirrorChoice::kAsyncBatch;
  start.mirrorLinkCount = 10;  // deliberately over-provisioned
  ASSERT_TRUE(start.valid());

  const RefineResult result =
      refineCandidate(start, cs::celloWorkload(), cs::requirements(),
                      caseStudyScenarios());
  ASSERT_TRUE(result.best.feasible);
  EXPECT_GE(result.improvement.usd(), 0.0);
  // Ten links of OC-3 rent dwarf their penalty savings here: refinement
  // must shed most of them.
  EXPECT_LT(result.best.spec.mirrorLinkCount, 10);
  EXPECT_GT(result.improvement.millionUsd(), 1.0);
  EXPECT_GT(result.steps, 0);
  EXPECT_GT(result.evaluations, result.steps);
}

TEST(Refine, ImprovesTheGridWinner) {
  // The grid's best candidate sits on grid points; the refiner can tune
  // off-grid and must never come back worse.
  const SearchResult grid = searchDesignSpace(
      enumerateDesignSpace(), cs::celloWorkload(), cs::requirements(),
      caseStudyScenarios());
  ASSERT_NE(grid.best(), nullptr);
  const RefineResult refined =
      refineCandidate(grid.best()->spec, cs::celloWorkload(),
                      cs::requirements(), caseStudyScenarios());
  EXPECT_LE(refined.best.totalCost.usd(), grid.best()->totalCost.usd());
}

TEST(Refine, InfeasibleStartReturnsUnrefined) {
  CandidateSpec start;
  start.mirror = MirrorChoice::kAsyncBatch;  // cannot serve the rollback
  const RefineResult result =
      refineCandidate(start, cs::celloWorkload(), cs::requirements(),
                      caseStudyScenarios());
  EXPECT_FALSE(result.best.feasible);
  EXPECT_EQ(result.steps, 0);
  EXPECT_DOUBLE_EQ(result.improvement.usd(), 0.0);
}

TEST(ChoiceNames, Render) {
  EXPECT_EQ(toString(PitChoice::kSnapshot), "snapshot");
  EXPECT_EQ(toString(BackupChoice::kFullPlusIncremental), "full+incr");
  EXPECT_EQ(toString(MirrorChoice::kAsyncBatch), "asyncB-mirror");
}

// ---- Catalog device sets -------------------------------------------------

CandidateSpec fullyProtectedSpec() {
  CandidateSpec spec;
  spec.pit = PitChoice::kSnapshot;
  spec.backup = BackupChoice::kFullOnly;
  spec.vault = true;
  spec.mirror = MirrorChoice::kAsyncBatch;
  spec.mirrorLinkCount = 4;
  return spec;
}

TEST(CandidateDevices, PublicBuildsShareNoDevice) {
  // Portfolio aggregation merges demands by device identity: two public
  // builds of one spec must stay two sets of hardware.
  const CandidateSpec spec = fullyProtectedSpec();
  const StorageDesign a = spec.build(cs::celloWorkload(), cs::requirements());
  const StorageDesign b = spec.build(cs::celloWorkload(), cs::requirements());
  const std::vector<DevicePtr> devicesA = a.devices();
  const std::vector<DevicePtr> devicesB = b.devices();
  EXPECT_EQ(devicesA.size(), 6u);  // arrays, links, library, vault, courier
  for (const DevicePtr& d : devicesA) {
    for (const DevicePtr& other : devicesB) {
      EXPECT_NE(d.get(), other.get()) << d->name();
    }
  }
}

TEST(CandidateDevices, SharedSetBuildMatchesPublicBuild) {
  // Every grid candidate (all four mirror modes), built over one shared set:
  // same structural fingerprint and same plan metrics, bit for bit, as the
  // public build under each case-study scenario; and it really draws its
  // catalog devices from the set.
  const WorkloadSpec workload = cs::celloWorkload();
  const BusinessRequirements business = cs::requirements();
  const std::vector<ScenarioCase> scenarios = caseStudyScenarios();
  const CandidateDevices shared;
  DesignSpaceOptions grid;
  grid.mirrorChoices = {MirrorChoice::kNone, MirrorChoice::kSync,
                        MirrorChoice::kAsync, MirrorChoice::kAsyncBatch};
  engine::BumpArena& arena = engine::Engine::threadArena();
  std::size_t checked = 0;
  for (const CandidateSpec& spec : enumerateDesignSpace(grid)) {
    const StorageDesign fresh = spec.build(workload, business);
    const StorageDesign reused =
        spec.build(workload, business, shared, spec.label());
    ASSERT_EQ(reused.primary().array(), shared.primaryArray);
    EXPECT_EQ(reused.name(), fresh.name());
    EXPECT_EQ(engine::fingerprintDesign(reused),
              engine::fingerprintDesign(fresh))
        << spec.label();

    const auto freshPlan = engine::EvalPlan::compile(fresh);
    const auto reusedPlan = engine::EvalPlan::compile(reused);
    ASSERT_NE(freshPlan, nullptr) << spec.label();
    ASSERT_NE(reusedPlan, nullptr) << spec.label();
    for (const ScenarioCase& sc : scenarios) {
      const EvaluationMetrics x = freshPlan->evaluate(sc.scenario, arena);
      const EvaluationMetrics y = reusedPlan->evaluate(sc.scenario, arena);
      const std::string where = spec.label() + " / " + sc.name;
      EXPECT_EQ(x.utilizationFeasible, y.utilizationFeasible) << where;
      EXPECT_EQ(x.recoverable, y.recoverable) << where;
      EXPECT_EQ(x.meetsObjectives, y.meetsObjectives) << where;
      EXPECT_EQ(x.sourceLevel, y.sourceLevel) << where;
      EXPECT_EQ(x.recoveryTime.raw(), y.recoveryTime.raw()) << where;
      EXPECT_EQ(x.dataLoss.raw(), y.dataLoss.raw()) << where;
      EXPECT_EQ(x.payload.raw(), y.payload.raw()) << where;
      EXPECT_EQ(x.totalOutlays.raw(), y.totalOutlays.raw()) << where;
      EXPECT_EQ(x.totalPenalties.raw(), y.totalPenalties.raw()) << where;
      EXPECT_EQ(x.totalCost.raw(), y.totalCost.raw()) << where;
    }
    ++checked;
  }
  EXPECT_GT(checked, 300u);
}

}  // namespace
}  // namespace stordep::optimizer
