// plan.hpp — compile-once / evaluate-many fast path for the evaluator core.
//
// The optimizer's inner loop evaluates one design under many scenarios and
// thousands of designs per sweep. The legacy evaluate() walks the design's
// pointer graph from scratch for every (design, scenario) pair: every level
// re-materializes its normal-mode demand vector (strings included), every
// availableBandwidth() call re-enumerates every level's demands, and the
// result carries vectors of diagnostic strings that are built only to be
// thrown away by the candidate fold. An EvalPlan front-loads all of that
// into one compile step per design:
//
//   compile    flattens the design into contiguous structure-of-arrays
//              tables — device rows (name, location, spare), per-level
//              recovery-window scalars (lag, oldest retained age, in-range
//              loss), restore-leg rows with device indices, and a flat
//              (level, bandwidth) contribution table per device for the
//              available-bandwidth fold. The scenario-independent half of
//              an evaluation (utilization feasibility, outlay totals) is
//              resolved here once.
//   evaluate   runs one scenario against the tables: destroyed-device and
//              destroyed-level flags, recovery-source choice, and the leg
//              walk are plain indexed loops over the rows, allocating
//              nothing but a few scratch arrays from the caller's BumpArena
//              (rewound per eval via an arena Frame).
//
// Bit-identity contract: every arithmetic expression in evaluate() mirrors
// the legacy path (data_loss.cpp, recovery.cpp, cost.cpp, business.hpp)
// operation for operation, in the same order, over the same values — so the
// returned EvaluationMetrics equals summarizeEvaluation(evaluate(design,
// scenario)) bit for bit. The plan-vs-legacy differential oracle
// (src/verify/differential.cpp) enforces this over the generated corpus.
//
// A plan holds only the tables its evaluation entry points read; it has no
// hash or cache key of its own, because nothing caches plans.
//
// Not every design is plannable: compile() returns nullptr for designs the
// table layout cannot represent faithfully (currently: restore legs with
// missing endpoints, whose legacy behaviour is a diagnostic note). The
// optimizer reports such a candidate as kInvalidDesign; the Monte-Carlo
// layer runs its legacy trial loops for it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "engine/arena.hpp"

namespace stordep::engine {

class EvalPlan {
 public:
  /// Flattens `design` into an immutable plan. Returns nullptr when the
  /// design is not plannable.
  /// The plan holds shared ownership of the design's devices, techniques
  /// and a copy of its workload/business inputs; the StorageDesign itself
  /// may be destroyed afterwards.
  [[nodiscard]] static std::shared_ptr<const EvalPlan> compile(
      const StorageDesign& design);

  /// Evaluates one scenario against the plan. Scratch memory comes from
  /// `arena` and is rewound before returning; after the arena has warmed up
  /// (one eval), this performs no heap allocation.
  [[nodiscard]] EvaluationMetrics evaluate(const FailureScenario& scenario,
                                           BumpArena& arena) const;

  /// Scenario-independent results, hoisted out of the per-eval path.
  [[nodiscard]] bool utilizationFeasible() const noexcept {
    return utilFeasible_;
  }
  /// First utilization diagnostic (what UtilizationResult::errors[0] would
  /// say); empty when feasible.
  [[nodiscard]] const std::string& utilizationError() const noexcept {
    return utilError_;
  }
  [[nodiscard]] Money totalOutlays() const noexcept { return totalOutlays_; }

  [[nodiscard]] int levelCount() const noexcept {
    return static_cast<int>(levels_.size());
  }

  // ---- Stochastic trial-plan support ---------------------------------
  // The Monte-Carlo layer (stochastic::TrialPlan) replays recoverFrom() at
  // thousands of sampled failure instants per scenario. Everything in that
  // walk except the payload is a pure function of the scenario: endpoint
  // resolution (spare / facility / unviable), via/transit decisions, and
  // the normal-mode demand folds. resolveRecovery() computes those once per
  // (scenario, source level); runResolvedLegs() replays only the
  // payload-dependent arithmetic — the same FP expressions recoverFrom()
  // evaluates, in the same order, so recovery times stay bit-identical.

  /// One restore leg with its scenario-dependent parts resolved. Device
  /// pointers are kept only for transferBandwidth() (payload-dependent
  /// virtual); the plan's DeviceRow owns them.
  struct ResolvedLeg {
    const DeviceModel* from = nullptr;
    const DeviceModel* to = nullptr;
    /// Transport to drain through; null when the leg resolved same-site or
    /// ships physically (no bandwidth term either way).
    const DeviceModel* via = nullptr;
    bool physical = false;  ///< courier: one transit, no drain/apply
    bool fromFresh = false;
    bool toFresh = false;
    Duration transit = Duration::zero();
    Duration serFix = Duration::zero();
    Duration fromParFix = Duration::zero();
    Duration toParFix = Duration::zero();
    /// availableBandwidth()'s demand subtrahends under this scenario's
    /// destroyed-level mask (payload-independent).
    Bandwidth fromDemands = Bandwidth::zero();
    Bandwidth viaDemands = Bandwidth::zero();
    Bandwidth toDemands = Bandwidth::zero();
  };

  struct ResolvedRecovery {
    /// Some endpoint is destroyed with no spare or facility: the walk is
    /// unrecoverable regardless of payload (legs stop at the lost one).
    bool pathLost = false;
    /// False mirrors "source level has no restore path": unrecoverable.
    bool hasLegs = false;
    std::vector<ResolvedLeg> legs;
  };

  /// Resolves `sourceLevel`'s restore path under `scenario`.
  [[nodiscard]] ResolvedRecovery resolveRecovery(const FailureScenario& scenario,
                                                 int sourceLevel) const;

  /// levelDestroyed(design, level, scenario) for every level.
  [[nodiscard]] std::vector<char> destroyedLevels(
      const FailureScenario& scenario) const;

  /// recoverFrom()'s drain/apply clock over a resolved path. Infinite when
  /// the path cannot stream the payload (or pathLost).
  [[nodiscard]] static Duration runResolvedLegs(const ResolvedRecovery& path,
                                                Bytes payload);

 private:
  EvalPlan() = default;

  /// One distinct device the per-eval loops query (storage devices and leg
  /// endpoints/transports).
  struct DeviceRow {
    DevicePtr device;  ///< kept for transferBandwidth() (payload-dependent)
    std::string name;
    Location location;
    /// device->spec().spare.type != kNone (spares rescue kArray failures)
    bool hasSpare = false;
    Duration spareProvisioningTime = Duration::zero();
    /// Span into contribLevel_/contribBandwidth_: this device's normal-mode
    /// bandwidth demands, in (level, demand) order.
    std::uint32_t contribBegin = 0;
    std::uint32_t contribEnd = 0;
  };

  /// One restore leg, endpoints resolved to device-row indices.
  struct LegRow {
    std::int32_t from = -1;
    std::int32_t to = -1;
    std::int32_t via = -1;  ///< -1 = none
    bool originallyCrossSite = false;
    bool viaPhysical = false;
    Duration viaTransit = Duration::zero();
    Duration serializedFix = Duration::zero();
  };

  struct LevelRow {
    TechniquePtr technique;  ///< kept for restorePayload() (virtual)
    Duration lag = Duration::zero();        ///< rpTimeLag
    Duration oldestAge = Duration::zero();  ///< guaranteedRange().oldestAge
    /// Data loss when the target falls within the retained range:
    /// policy()->effectiveAccW(), or zero for the (policy-free) primary.
    Duration withinLoss = Duration::zero();
    /// restorePayload(workload, workload.dataCap()) — the payload when the
    /// scenario does not override the recovery size.
    Bytes defaultPayload{0};
    /// Span into storageIdx_: this level's storage devices.
    std::uint32_t storageBegin = 0;
    std::uint32_t storageEnd = 0;
    /// Span into legs_: this level's restore path.
    std::uint32_t legBegin = 0;
    std::uint32_t legEnd = 0;
  };

  /// Mirror of availableBandwidth(design, device, payload, fresh, &scenario)
  /// over the flattened contribution table.
  [[nodiscard]] Bandwidth availableBw(std::int32_t devIdx, Bytes payload,
                                      bool fresh,
                                      const bool* lvlDestroyed) const;

  std::vector<DeviceRow> devices_;
  std::vector<LevelRow> levels_;
  std::vector<LegRow> legs_;
  std::vector<std::uint32_t> storageIdx_;
  std::vector<std::int32_t> contribLevel_;
  std::vector<Bandwidth> contribBandwidth_;

  bool hasFacility_ = false;
  Location facilityLocation_;
  Duration facilityProvisioningTime_ = Duration::zero();

  BusinessRequirements business_;
  std::optional<WorkloadSpec> workload_;

  bool utilFeasible_ = true;
  std::string utilError_;
  Money totalOutlays_ = Money::zero();
};

}  // namespace stordep::engine
