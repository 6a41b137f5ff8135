#include "engine/plan.hpp"

#include <algorithm>

#include "core/propagation.hpp"

namespace stordep::engine {

namespace {

const std::string kNoDeviceName;

}  // namespace

std::shared_ptr<const EvalPlan> EvalPlan::compile(const StorageDesign& design) {
  if (design.levelCount() == 0) return nullptr;
  const DevicePtr primaryArray = design.primary().array();
  if (!primaryArray) return nullptr;

  auto plan = std::shared_ptr<EvalPlan>(new EvalPlan());
  const WorkloadSpec& workload = design.workload();
  plan->workload_ = workload;
  plan->business_ = design.business();
  if (design.facility()) {
    plan->hasFacility_ = true;
    plan->facilityLocation_ = design.facility()->location;
    plan->facilityProvisioningTime_ = design.facility()->provisioningTime;
  }

  // Pass 1, level by level: the scalar rows, plus each level's storage
  // devices, restore legs and normal-mode demands, queried once so every
  // table below is sized before it fills.
  struct LevelParts {
    std::vector<DevicePtr> storage;
    std::vector<RecoveryLeg> legs;
    std::vector<PlacedDemand> demands;
  };
  const int levelCount = design.levelCount();
  std::vector<LevelParts> parts(static_cast<std::size_t>(levelCount));
  plan->levels_.reserve(parts.size());
  std::size_t storageCount = 0;
  std::size_t legCount = 0;
  std::size_t demandCount = 0;
  for (int i = 0; i < levelCount; ++i) {
    const Technique& tech = design.level(i);
    LevelParts& p = parts[static_cast<std::size_t>(i)];
    LevelRow row;
    row.technique = design.levelPtr(i);

    const LevelRecoveryWindow window = levelRecoveryWindow(design, i);
    row.lag = window.lag;
    row.oldestAge = window.oldestAge;
    row.withinLoss = tech.policy() != nullptr ? tech.policy()->effectiveAccW()
                                              : Duration::zero();
    if (i > 0) {
      row.defaultPayload = tech.restorePayload(workload, workload.dataCap());
    }

    p.storage = tech.storageDevices();
    for (const DevicePtr& d : p.storage) {
      if (!d) return nullptr;
    }
    p.legs = tech.recoveryLegs(primaryArray);
    for (const RecoveryLeg& leg : p.legs) {
      // A leg with a missing endpoint is a diagnostic-note path in the
      // legacy evaluator; such designs stay on the legacy path.
      if (!leg.from || !leg.to) return nullptr;
    }
    p.demands = tech.normalModeDemands(workload);
    storageCount += p.storage.size();
    legCount += p.legs.size();
    demandCount += p.demands.size();
    plan->levels_.push_back(std::move(row));
  }

  // Pass 2: distinct device rows, first-seen order: storage devices level
  // by level, then restore-leg endpoints/transports level by level.
  plan->storageIdx_.reserve(storageCount);
  plan->legs_.reserve(legCount);
  plan->devices_.reserve(storageCount + 3 * legCount);  // distinct <= this
  auto addDevice = [&](const DevicePtr& d) -> std::int32_t {
    for (std::size_t i = 0; i < plan->devices_.size(); ++i) {
      if (plan->devices_[i].device.get() == d.get()) {
        return static_cast<std::int32_t>(i);
      }
    }
    DeviceRow row;
    row.device = d;
    row.name = d->name();
    row.location = d->location();
    row.hasSpare = d->spec().spare.type != SpareType::kNone;
    row.spareProvisioningTime = d->spareProvisioningTime();
    plan->devices_.push_back(std::move(row));
    return static_cast<std::int32_t>(plan->devices_.size() - 1);
  };

  for (std::size_t i = 0; i < parts.size(); ++i) {
    LevelRow& row = plan->levels_[i];
    row.storageBegin = static_cast<std::uint32_t>(plan->storageIdx_.size());
    for (const DevicePtr& d : parts[i].storage) {
      plan->storageIdx_.push_back(static_cast<std::uint32_t>(addDevice(d)));
    }
    row.storageEnd = static_cast<std::uint32_t>(plan->storageIdx_.size());

    row.legBegin = static_cast<std::uint32_t>(plan->legs_.size());
    for (const RecoveryLeg& leg : parts[i].legs) {
      LegRow lr;
      lr.from = addDevice(leg.from);
      lr.to = addDevice(leg.to);
      lr.originallyCrossSite =
          leg.from->location().site != leg.to->location().site;
      lr.serializedFix = leg.serializedFix;
      if (leg.via) {
        lr.via = addDevice(leg.via);
        lr.viaPhysical = leg.via->deliversPhysically();
        lr.viaTransit = leg.via->accessDelay();
      }
      plan->legs_.push_back(lr);
    }
    row.legEnd = static_cast<std::uint32_t>(plan->legs_.size());
  }

  // Flat per-device bandwidth-contribution table for the availableBw fold,
  // in the exact order the legacy fold adds them: levels outer, each
  // level's demand vector inner.
  plan->contribLevel_.reserve(demandCount);
  plan->contribBandwidth_.reserve(demandCount);
  for (DeviceRow& row : plan->devices_) {
    row.contribBegin = static_cast<std::uint32_t>(plan->contribLevel_.size());
    for (int i = 0; i < levelCount; ++i) {
      for (const PlacedDemand& pd : parts[static_cast<std::size_t>(i)].demands) {
        if (pd.device.get() != row.device.get()) continue;
        plan->contribLevel_.push_back(i);
        plan->contribBandwidth_.push_back(pd.demand.bandwidth);
      }
    }
    row.contribEnd = static_cast<std::uint32_t>(plan->contribLevel_.size());
  }

  // Scenario-independent half of the evaluation, resolved once. The demand
  // vector is assembled exactly like StorageDesign::allDemands() (level
  // order), so both folds see the legacy operand order.
  std::vector<PlacedDemand> all;
  all.reserve(demandCount);
  for (LevelParts& p : parts) {
    all.insert(all.end(), std::make_move_iterator(p.demands.begin()),
               std::make_move_iterator(p.demands.end()));
  }
  UtilizationFeasibility feasibility = computeUtilizationFeasibility(all);
  plan->utilFeasible_ = feasibility.feasible;
  plan->utilError_ = std::move(feasibility.firstError);
  for (const TechniqueOutlay& o : computeOutlays(all)) {
    plan->totalOutlays_ += o.total();
  }

  return plan;
}

Bandwidth EvalPlan::availableBw(std::int32_t devIdx, Bytes payload, bool fresh,
                                const bool* lvlDestroyed) const {
  const DeviceRow& row = devices_[static_cast<std::size_t>(devIdx)];
  const Bandwidth base = row.device->transferBandwidth(payload);
  if (fresh) return base;
  Bandwidth demands = Bandwidth::zero();
  for (std::uint32_t c = row.contribBegin; c < row.contribEnd; ++c) {
    const std::int32_t lvl = contribLevel_[c];
    if (lvlDestroyed[lvl]) continue;
    if (lvl > 0 && lvlDestroyed[lvl - 1]) continue;
    demands += contribBandwidth_[c];
  }
  if (demands >= base) return Bandwidth::zero();
  return base - demands;
}

std::vector<char> EvalPlan::destroyedLevels(
    const FailureScenario& scenario) const {
  std::vector<char> out(levels_.size(), 0);
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    bool all = true;
    for (std::uint32_t s = levels_[i].storageBegin; s < levels_[i].storageEnd;
         ++s) {
      const DeviceRow& row = devices_[storageIdx_[s]];
      if (!scenario.destroys(row.name, row.location)) {
        all = false;
        break;
      }
    }
    out[i] = all ? 1 : 0;
  }
  return out;
}

EvalPlan::ResolvedRecovery EvalPlan::resolveRecovery(
    const FailureScenario& scenario, int sourceLevel) const {
  ResolvedRecovery out;
  if (sourceLevel <= 0 || sourceLevel >= levelCount()) return out;
  const LevelRow& src = levels_[static_cast<std::size_t>(sourceLevel)];
  if (src.legBegin == src.legEnd) return out;
  out.hasLegs = true;

  const std::size_t nDev = devices_.size();
  std::vector<char> devDestroyed(nDev, 0);
  for (std::size_t i = 0; i < nDev; ++i) {
    devDestroyed[i] =
        scenario.destroys(devices_[i].name, devices_[i].location) ? 1 : 0;
  }
  const std::vector<char> lvlDestroyed = destroyedLevels(scenario);

  // The demand half of availableBandwidth(), in the legacy fold order.
  const auto demandFold = [&](std::int32_t devIdx) {
    const DeviceRow& row = devices_[static_cast<std::size_t>(devIdx)];
    Bandwidth demands = Bandwidth::zero();
    for (std::uint32_t c = row.contribBegin; c < row.contribEnd; ++c) {
      const std::int32_t lvl = contribLevel_[c];
      if (lvlDestroyed[static_cast<std::size_t>(lvl)]) continue;
      if (lvl > 0 && lvlDestroyed[static_cast<std::size_t>(lvl - 1)]) continue;
      demands += contribBandwidth_[c];
    }
    return demands;
  };

  // resolveNode (recovery.cpp), minus the diagnostics.
  struct Resolved {
    const Location* loc;
    Duration parFix;
    bool fresh;
    bool viable;
  };
  const auto resolve = [&](std::int32_t idx) -> Resolved {
    const DeviceRow& row = devices_[static_cast<std::size_t>(idx)];
    if (!devDestroyed[static_cast<std::size_t>(idx)]) {
      return {&row.location, Duration::zero(), false, true};
    }
    if (scenario.scope == FailureScope::kArray && row.hasSpare) {
      return {&row.location, row.spareProvisioningTime, true, true};
    }
    if (hasFacility_ && !scenario.destroys(kNoDeviceName, facilityLocation_)) {
      return {&facilityLocation_, facilityProvisioningTime_, true, true};
    }
    return {&row.location, Duration::zero(), false, false};
  };

  out.legs.reserve(src.legEnd - src.legBegin);
  for (std::uint32_t l = src.legBegin; l < src.legEnd; ++l) {
    const LegRow& leg = legs_[l];
    const Resolved from = resolve(leg.from);
    const Resolved to = resolve(leg.to);
    if (!from.viable || !to.viable) {
      // recoverFrom() returns unrecoverable at the first unviable leg; the
      // legs after it are never walked.
      out.pathLost = true;
      break;
    }
    ResolvedLeg r;
    r.from = devices_[static_cast<std::size_t>(leg.from)].device.get();
    r.to = devices_[static_cast<std::size_t>(leg.to)].device.get();
    const bool resolvedSameSite = from.loc->site == to.loc->site;
    const bool useVia =
        leg.via >= 0 && !(leg.originallyCrossSite && resolvedSameSite);
    r.physical = useVia && leg.viaPhysical;
    r.transit = useVia ? leg.viaTransit : Duration::zero();
    r.serFix = r.physical ? Duration::zero() : leg.serializedFix;
    r.fromFresh = from.fresh;
    r.toFresh = to.fresh;
    r.fromParFix = from.parFix;
    r.toParFix = to.parFix;
    if (!r.physical) {
      if (!from.fresh) r.fromDemands = demandFold(leg.from);
      if (useVia) {
        r.via = devices_[static_cast<std::size_t>(leg.via)].device.get();
        r.viaDemands = demandFold(leg.via);
      }
      if (!to.fresh) r.toDemands = demandFold(leg.to);
    }
    out.legs.push_back(r);
  }
  return out;
}

Duration EvalPlan::runResolvedLegs(const ResolvedRecovery& path,
                                   Bytes payload) {
  if (path.pathLost || !path.hasLegs) return Duration::infinite();
  // availableBandwidth() with the demand fold precomputed: same subtraction,
  // same saturation comparison, same operand order.
  const auto remainingBw = [&](const DeviceModel& device, bool fresh,
                               Bandwidth demands) {
    const Bandwidth base = device.transferBandwidth(payload);
    if (fresh) return base;
    if (demands >= base) return Bandwidth::zero();
    return base - demands;
  };
  Duration clock = Duration::zero();
  for (const ResolvedLeg& leg : path.legs) {
    const Duration sendReady = std::max(clock, leg.fromParFix);
    Duration drainTime = Duration::zero();
    Duration applyTime = Duration::zero();
    if (!leg.physical) {
      Bandwidth drainRate = remainingBw(*leg.from, leg.fromFresh,
                                        leg.fromDemands);
      if (leg.via != nullptr) {
        drainRate =
            std::min(drainRate, remainingBw(*leg.via, false, leg.viaDemands));
      }
      drainTime = drainRate.bytesPerSec() > 0 ? payload / drainRate
                                              : Duration::infinite();
      const Bandwidth destRate = remainingBw(*leg.to, leg.toFresh,
                                             leg.toDemands);
      applyTime = destRate.bytesPerSec() > 0 ? payload / destRate
                                             : Duration::infinite();
    }
    const Duration drainDone = sendReady + leg.transit + leg.serFix + drainTime;
    const Duration ready = std::max(drainDone, leg.toParFix) + applyTime;
    clock = ready;
    if (!clock.isFinite()) break;
  }
  return clock;
}

EvaluationMetrics EvalPlan::evaluate(const FailureScenario& scenario,
                                     BumpArena& arena) const {
  BumpArena::Frame frame(arena);
  EvaluationMetrics m;
  m.utilizationFeasible = utilFeasible_;
  m.totalOutlays = totalOutlays_;

  const std::size_t nDev = devices_.size();
  bool* devDestroyed = arena.array<bool>(nDev);
  for (std::size_t i = 0; i < nDev; ++i) {
    devDestroyed[i] = scenario.destroys(devices_[i].name, devices_[i].location);
  }

  const std::size_t nLvl = levels_.size();
  bool* lvlDestroyed = arena.array<bool>(nLvl);
  for (std::size_t i = 0; i < nLvl; ++i) {
    bool all = true;
    for (std::uint32_t s = levels_[i].storageBegin; s < levels_[i].storageEnd;
         ++s) {
      if (!devDestroyed[storageIdx_[s]]) {
        all = false;
        break;
      }
    }
    lvlDestroyed[i] = all;
  }

  // Recovery-source choice: assessLevel + chooseRecoverySource, branch for
  // branch (data_loss.cpp). Levels whose assessed loss is infinite
  // (destroyed, corrupted primary, or target beyond retention) are skipped;
  // strictly smaller loss wins, ties keep the lower level.
  const Duration targetAge = scenario.recoveryTargetAge;
  int bestLevel = -1;
  Duration bestLoss = Duration::infinite();
  for (std::size_t i = 0; i < nLvl; ++i) {
    if (lvlDestroyed[i]) continue;
    if (i == 0 && scenario.scope == FailureScope::kDataObject) continue;
    const LevelRow& row = levels_[i];
    Duration loss;
    if (targetAge < row.lag) {
      loss = row.lag - targetAge;
    } else if (targetAge <= row.oldestAge) {
      loss = row.withinLoss;
    } else {
      continue;
    }
    if (!loss.isFinite()) continue;
    if (bestLevel < 0 || loss < bestLoss) {
      bestLevel = static_cast<int>(i);
      bestLoss = loss;
    }
  }

  // Defaults already mirror the no-source case (computeRecovery with no
  // surviving RP): unrecoverable, sourceLevel -1, infinite RT/DL.
  if (bestLevel >= 0) {
    m.sourceLevel = bestLevel;
    m.dataLoss = bestLoss;
    if (bestLevel == 0) {
      // Recovering from the primary itself: nothing to restore.
      m.recoverable = true;
      m.recoveryTime = Duration::zero();
      m.payload = Bytes{0};
    } else {
      const LevelRow& src = levels_[static_cast<std::size_t>(bestLevel)];
      m.payload = scenario.recoverySize
                      ? src.technique->restorePayload(*workload_,
                                                      *scenario.recoverySize)
                      : src.defaultPayload;
      if (src.legBegin == src.legEnd) {
        // "source level has no restore path": unrecoverable, RT stays
        // infinite, DL keeps the source assessment.
      } else {
        // Leg walk: recoverFrom (recovery.cpp), minus the reporting.
        struct Resolved {
          const Location* loc;
          Duration parFix;
          bool fresh;
          bool viable;
        };
        auto resolve = [&](std::int32_t idx) -> Resolved {
          const DeviceRow& row = devices_[static_cast<std::size_t>(idx)];
          if (!devDestroyed[idx]) {
            return {&row.location, Duration::zero(), false, true};
          }
          if (scenario.scope == FailureScope::kArray && row.hasSpare) {
            return {&row.location, row.spareProvisioningTime, true, true};
          }
          if (hasFacility_ &&
              !scenario.destroys(kNoDeviceName, facilityLocation_)) {
            return {&facilityLocation_, facilityProvisioningTime_, true, true};
          }
          return {&row.location, Duration::zero(), false, false};
        };

        Duration clock = Duration::zero();
        bool pathLost = false;
        for (std::uint32_t l = src.legBegin; l < src.legEnd; ++l) {
          const LegRow& leg = legs_[l];
          const Resolved from = resolve(leg.from);
          const Resolved to = resolve(leg.to);
          if (!from.viable || !to.viable) {
            // An RP survives but there is nowhere to restore it.
            m.dataLoss = Duration::infinite();
            m.recoveryTime = Duration::infinite();
            m.recoverable = false;
            pathLost = true;
            break;
          }
          const bool resolvedSameSite = from.loc->site == to.loc->site;
          const bool useVia =
              leg.via >= 0 && !(leg.originallyCrossSite && resolvedSameSite);
          const bool physical = useVia && leg.viaPhysical;
          const Duration transit = useVia ? leg.viaTransit : Duration::zero();

          const Duration sendReady = std::max(clock, from.parFix);
          Duration drainTime = Duration::zero();
          Duration applyTime = Duration::zero();
          if (!physical) {
            Bandwidth drainRate =
                availableBw(leg.from, m.payload, from.fresh, lvlDestroyed);
            if (useVia) {
              drainRate = std::min(
                  drainRate,
                  availableBw(leg.via, m.payload, false, lvlDestroyed));
            }
            drainTime = drainRate.bytesPerSec() > 0 ? m.payload / drainRate
                                                    : Duration::infinite();
            const Bandwidth destRate =
                availableBw(leg.to, m.payload, to.fresh, lvlDestroyed);
            applyTime = destRate.bytesPerSec() > 0 ? m.payload / destRate
                                                   : Duration::infinite();
          }
          const Duration serFix =
              physical ? Duration::zero() : leg.serializedFix;
          const Duration drainDone = sendReady + transit + serFix + drainTime;
          const Duration ready = std::max(drainDone, to.parFix) + applyTime;
          clock = ready;
          if (!clock.isFinite()) break;
        }
        if (!pathLost) {
          m.recoverable = clock.isFinite();
          m.recoveryTime = clock;
        }
      }
    }
  }

  // computeCosts + meetsObjectives (cost.cpp, business.hpp).
  m.outagePenalty = business_.outagePenalty(m.recoveryTime);
  m.lossPenalty = business_.lossPenalty(m.dataLoss);
  m.totalPenalties = m.outagePenalty + m.lossPenalty;
  m.totalCost = m.totalOutlays + m.totalPenalties;
  m.meetsObjectives = business_.meetsObjectives(m.recoveryTime, m.dataLoss);
  return m;
}

}  // namespace stordep::engine
