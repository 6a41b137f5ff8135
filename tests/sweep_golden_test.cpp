// sweep_golden_test.cpp — a frozen digest of the whole big-grid sweep.
//
// The ranking checks elsewhere compare the plan-routed sweep with
// searchDesignSpaceSerial. Both paths share CandidateSpec::label,
// CandidateSpec::build and core::computeOutlays, so a change to any of those
// moves both sides together and those checks stay green. This suite closes
// that gap: it hashes every one of the 11,890 big-grid candidates (label,
// rejection reason, flags, the raw bits of every metric, and the structural
// fingerprint of the built design) and compares the digest with a constant
// frozen from a known-good build.
//
// The constants are never re-frozen to make a failing run pass. Only an
// intentional model change may move them, and the change must say so.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string_view>
#include <vector>

#include "big_grid.hpp"
#include "casestudy/casestudy.hpp"
#include "engine/batch.hpp"
#include "engine/fingerprint.hpp"
#include "optimizer/design_space.hpp"
#include "optimizer/search.hpp"

namespace {

namespace cs = stordep::casestudy;
namespace opt = stordep::optimizer;
using stordep::engine::Engine;
using stordep::engine::EngineOptions;
using stordep::testgrid::bigGridOptions;

constexpr std::size_t kBigGridCandidates = 11890;

// The frozen digests. The ranking digest is the same for the plan sweep and
// the serial reference: the two paths are bit-identical.
constexpr std::uint64_t kPerCandidateDigest = 0xed3a4d53964f7c48ull;
constexpr std::uint64_t kRankingDigest = 0xcf534125ffc33d7full;
constexpr std::uint64_t kDesignFingerprintDigest = 0xb4ed4fcc4b603525ull;

/// 64-bit FNV-1a, fed field by field; strings carry their length so
/// adjacent fields cannot alias.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001B3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void real(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

void addCandidate(Digest& d, const opt::EvaluatedCandidate& c) {
  d.str(c.label);
  d.str(c.rejectionReason);
  d.u64((c.feasible ? 1u : 0u) | (c.meetsObjectives ? 2u : 0u) |
        (c.error ? 4u : 0u));
  d.real(c.outlays.raw());
  d.real(c.weightedPenalties.raw());
  d.real(c.totalCost.raw());
  d.real(c.worstRecoveryTime.raw());
  d.real(c.worstDataLoss.raw());
}

void addRanking(Digest& d, const opt::SearchResult& result) {
  d.u64(result.ranked.size());
  for (const opt::EvaluatedCandidate& c : result.ranked) addCandidate(d, c);
  d.u64(result.rejected.size());
  for (const opt::EvaluatedCandidate& c : result.rejected) addCandidate(d, c);
}

TEST(SweepGolden, BigGridPlanSweepMatchesFrozenDigest) {
  // The production sweep on a multi-threaded engine, hashed twice: every
  // candidate in enumeration order as its wave finishes, then the ranking.
  const stordep::WorkloadSpec workload = cs::celloWorkload();
  const stordep::BusinessRequirements business = cs::requirements();
  const auto scenarios = opt::caseStudyScenarios();
  Engine engine(EngineOptions{.threads = 4});

  Digest perCandidate;
  std::size_t seen = 0;
  opt::SearchOptions options;
  options.eng = &engine;
  options.maxRetries = 0;
  options.onCandidates = [&](const std::vector<opt::EvaluatedCandidate>& wave) {
    for (const opt::EvaluatedCandidate& c : wave) addCandidate(perCandidate, c);
    seen += wave.size();
  };
  opt::DesignSpaceCursor cursor(bigGridOptions());
  const opt::SearchResult result = opt::searchDesignSpaceStreaming(
      cursor, workload, business, scenarios, options);
  ASSERT_EQ(seen, kBigGridCandidates);
  ASSERT_EQ(static_cast<std::size_t>(result.evaluated), kBigGridCandidates);
  EXPECT_EQ(result.failed, 0);

  Digest ranking;
  addRanking(ranking, result);

  EXPECT_EQ(perCandidate.value(), kPerCandidateDigest)
      << std::hex << perCandidate.value();
  EXPECT_EQ(ranking.value(), kRankingDigest) << std::hex << ranking.value();
}

TEST(SweepGolden, BigGridSerialReferenceMatchesFrozenDigest) {
  // The reference path: core evaluate() per (candidate, scenario).
  const opt::SearchResult result = opt::searchDesignSpaceSerial(
      opt::enumerateDesignSpace(bigGridOptions()), cs::celloWorkload(),
      cs::requirements(), opt::caseStudyScenarios());
  ASSERT_EQ(static_cast<std::size_t>(result.evaluated), kBigGridCandidates);
  Digest ranking;
  addRanking(ranking, result);
  EXPECT_EQ(ranking.value(), kRankingDigest) << std::hex << ranking.value();
}

TEST(SweepGolden, BigGridDesignFingerprintsMatchFrozenDigest) {
  // The public build's design, structurally: name, workload, every level's
  // policy and device parameters.
  const stordep::WorkloadSpec workload = cs::celloWorkload();
  const stordep::BusinessRequirements business = cs::requirements();
  Digest d;
  std::size_t count = 0;
  opt::DesignSpaceCursor cursor(bigGridOptions());
  opt::CandidateSpec spec;
  while (cursor.next(spec)) {
    const stordep::engine::Fingerprint fp =
        stordep::engine::fingerprintDesign(spec.build(workload, business));
    d.u64(fp.hi);
    d.u64(fp.lo);
    ++count;
  }
  ASSERT_EQ(count, kBigGridCandidates);
  EXPECT_EQ(d.value(), kDesignFingerprintDigest) << std::hex << d.value();
}

}  // namespace
