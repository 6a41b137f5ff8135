// stochastic_golden_test.cpp — frozen digests of Monte-Carlo envelopes.
//
// The evaluator runs trials in fixed-size blocks and folds each block into
// the streaming accumulators in trial order. These digests pin every
// deterministic field of the conditional and mission envelopes at trial
// counts on both sides of a block boundary (one short of a block, exactly
// one, one over, and many blocks with a ragged tail), at one and four
// threads and through the legacy trial loop, so a change to the block loop,
// the fold or the accumulators that moves any bit shows here. The plan-vs-
// legacy and thread-count checks elsewhere compare two runs of the same
// fold, so they cannot see such a change.
//
// The constants were frozen from the unblocked evaluator. They are never
// re-frozen to make a failing run pass; only an intentional result change
// may move them, and the change must say so.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "casestudy/casestudy.hpp"
#include "core/reliability.hpp"
#include "stochastic/evaluator.hpp"

namespace stordep::stochastic {
namespace {

namespace cs = casestudy;

/// 64-bit FNV-1a over the raw bits of each field, fed in a fixed order.
class Digest {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ull;
    }
  }
  void real(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void dist(const Distribution& d) {
    u64(d.count);
    real(d.min);
    real(d.max);
    real(d.mean);
    real(d.ci95);
    real(d.p50);
    real(d.p95);
    real(d.p99);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// Every field of the conditional envelope but the run-varying timings.
std::uint64_t digestOf(const ScenarioDistribution& d) {
  Digest h;
  h.u64(static_cast<std::uint64_t>(d.trials));
  h.u64(static_cast<std::uint64_t>(d.unrecoverable));
  h.dist(d.rt);
  h.dist(d.dl);
  h.dist(d.penalty);
  h.real(d.minPayload.bytes());
  h.real(d.meanPayload.bytes());
  h.real(d.maxPayload.bytes());
  h.real(d.analyticWorstRt.secs());
  h.real(d.analyticWorstDl.secs());
  h.real(d.dlSlack.secs());
  h.u64((d.rtBoundHolds ? 1u : 0u) | (d.dlBoundHolds ? 2u : 0u) |
        (d.usedPlan ? 4u : 0u));
  h.real(d.rtTightness);
  h.real(d.expectedPenalty.usd());
  h.real(d.worstCasePenalty.usd());
  return h.value();
}

/// Every field of the mission envelope but the run-varying timings.
std::uint64_t digestOf(const AnnualizedRisk& r) {
  Digest h;
  h.u64(static_cast<std::uint64_t>(r.trials));
  h.real(r.missionWindow.secs());
  h.real(r.eventsPerYear);
  h.real(r.unrecoverableTrialFraction);
  h.real(r.expectedAnnualLossBytes.bytes());
  h.real(r.lossBytesCi95.bytes());
  h.real(r.expectedAnnualPenalty.usd());
  h.real(r.penaltyCi95.usd());
  h.real(r.expectedAnnualDowntimeHours);
  h.dist(r.eventRt);
  h.dist(r.eventDl);
  h.dist(r.annualPenalty);
  h.u64(r.usedPlan ? 1u : 0u);
  return h.value();
}

StochasticOptions conditionalOptions(int trials, int threads, bool usePlan) {
  StochasticOptions options;
  options.trials = trials;
  options.seed = 7;
  options.threads = threads;
  options.usePlan = usePlan;
  options.sim.horizon = days(250);
  return options;
}

/// bench_stochastic's replay-heavy mission reliability: every storage
/// device fails every ~30 days and repairs in ~12 hours, plus two site
/// shocks a year.
ReliabilitySpec heavyReliability(const StorageDesign& design) {
  ReliabilitySpec spec;
  spec.siteShockAnnualRate = 2.0;
  for (const auto& [device, rel] : resolveReliability(design, spec)) {
    DeviceReliability heavy;
    heavy.failure = {ProcessKind::kExponential, days(30), 1.0};
    heavy.repair = {ProcessKind::kExponential, hours(12), 1.0};
    spec.devices[device->name()] = heavy;
  }
  return spec;
}

struct ConditionalCase {
  bool siteDisaster;
  int trials;
  int threads;
  bool usePlan;
  std::uint64_t digest;
};

// Weekly vault F+I, seed 7, 250-day horizon.
constexpr ConditionalCase kConditional[] = {
    {false, 8'191, 1, true, 0xee6e885ca5215fedull},
    {false, 8'191, 4, true, 0xee6e885ca5215fedull},
    {false, 8'192, 1, true, 0xe2dcc77713d8d00ull},
    {false, 8'192, 4, true, 0xe2dcc77713d8d00ull},
    {false, 8'193, 1, true, 0xd856ffc00915efb7ull},
    {false, 8'193, 4, true, 0xd856ffc00915efb7ull},
    {false, 100'003, 1, true, 0xa85ec82b01ec556cull},
    {false, 100'003, 4, true, 0xa85ec82b01ec556cull},
    {false, 8'193, 1, false, 0x7dfc81a89a7842c3ull},
    {true, 8'191, 1, true, 0x32270385c82053f4ull},
    {true, 8'191, 4, true, 0x32270385c82053f4ull},
    {true, 8'192, 1, true, 0x98a48359f5a68a3cull},
    {true, 8'192, 4, true, 0x98a48359f5a68a3cull},
    {true, 8'193, 1, true, 0xe50c159e559b2069ull},
    {true, 8'193, 4, true, 0xe50c159e559b2069ull},
    {true, 100'003, 1, true, 0xae05fa7145c7a129ull},
    {true, 100'003, 4, true, 0xae05fa7145c7a129ull},
    {true, 8'193, 1, false, 0x34eedea1e03b4e5dull},
};

struct MissionCase {
  int trials;
  int threads;
  std::uint64_t digest;
};

// Weekly vault F+I under the heavy reliability, seed 7, 250-day horizon.
constexpr MissionCase kMission[] = {
    {5'003, 1, 0x66f8516ff3c460c0ull},
    {5'003, 4, 0x66f8516ff3c460c0ull},
    {16'385, 1, 0xec426feeb1fc119ull},
    {16'385, 4, 0xec426feeb1fc119ull},
};

std::string describe(const ConditionalCase& c) {
  return std::string(c.siteDisaster ? "site disaster" : "array failure") +
         ", " + std::to_string(c.trials) + " trials, " +
         std::to_string(c.threads) + " threads" +
         (c.usePlan ? "" : ", legacy loop");
}

TEST(StochasticGolden, ConditionalEnvelopesMatchFrozenDigests) {
  const StorageDesign design = cs::weeklyVaultFullPlusIncremental();
  for (const ConditionalCase& c : kConditional) {
    const StochasticEvaluator evaluator(
        design, conditionalOptions(c.trials, c.threads, c.usePlan));
    const auto outcome = evaluator.distributionFor(
        c.siteDisaster ? cs::siteDisaster() : cs::arrayFailure());
    ASSERT_TRUE(outcome.ok()) << describe(c);
    EXPECT_EQ(outcome.value().usedPlan, c.usePlan) << describe(c);
    const std::uint64_t digest = digestOf(outcome.value());
    EXPECT_EQ(digest, c.digest)
        << describe(c) << ": digest 0x" << std::hex << digest;
  }
}

TEST(StochasticGolden, MissionEnvelopesMatchFrozenDigests) {
  const StorageDesign design = cs::weeklyVaultFullPlusIncremental();
  for (const MissionCase& c : kMission) {
    StochasticOptions options = conditionalOptions(c.trials, c.threads, true);
    options.reliability = heavyReliability(design);
    const StochasticEvaluator evaluator(design, options);
    const auto outcome = evaluator.annualizedRisk();
    ASSERT_TRUE(outcome.ok()) << c.trials << " trials";
    EXPECT_TRUE(outcome.value().usedPlan);
    const std::uint64_t digest = digestOf(outcome.value());
    EXPECT_EQ(digest, c.digest) << c.trials << " trials, " << c.threads
                                << " threads: digest 0x" << std::hex << digest;
  }
}

}  // namespace
}  // namespace stordep::stochastic
