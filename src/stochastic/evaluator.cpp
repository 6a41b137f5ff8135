#include "stochastic/evaluator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "core/data_loss.hpp"
#include "core/propagation.hpp"
#include "core/recovery.hpp"
#include "engine/batch.hpp"
#include "engine/thread_pool.hpp"
#include "sim/rng.hpp"

namespace stordep::stochastic {
namespace {

/// Matches the analytic-vs-simulated comparison tolerance used by the
/// differential oracles: bound * (1 + 1e-9) + 1e-6 absorbs the restore-leg
/// floating-point noise without hiding real violations.
[[nodiscard]] bool withinRtBound(double observedMax, Duration bound) {
  if (!bound.isFinite()) return true;
  return observedMax <= bound.secs() * (1.0 + 1e-9) + 1e-6;
}

[[nodiscard]] bool withinDlBound(double observedMax, Duration bound) {
  if (!bound.isFinite()) return true;
  const double b = bound.secs();
  return observedMax <= b + 1e-6 * std::max(1.0, b);
}

/// One draw from a duration process, in seconds. Infinite means "never".
[[nodiscard]] double sampleSecs(const ProcessSpec& process, sim::Rng& rng) {
  if (!process.mean.isFinite()) {
    return std::numeric_limits<double>::infinity();
  }
  switch (process.kind) {
    case ProcessKind::kExponential:
      return rng.exponential(process.mean.secs());
    case ProcessKind::kWeibull:
      return rng.weibull(process.mean.secs(), process.shape);
    case ProcessKind::kFixed:
      return process.mean.secs();
  }
  return std::numeric_limits<double>::infinity();
}

/// Runaway guard for degenerate processes (zero/near-zero means): no sane
/// reliability config produces this many arrivals in one mission window.
constexpr int kMaxArrivalsPerProcess = 100'000;

struct MissionEvent {
  double time = 0;
  int kind = 0;  ///< 0 = device failure, 1 = site shock
  int index = 0;
};

/// Seconds elapsed since `start`.
[[nodiscard]] double secsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Slot layout: the plan kernel and the legacy body fill the same sample
/// fields, so the block fold below is shared between both paths. `filled`
/// counts the trials a cancelled fan-out reached.
struct ConditionalTrial : ConditionalSample {
  bool filled = false;
};

struct MissionTrial : MissionSample {
  bool filled = false;
};

/// A block fold split into `parts` independent parts (one per accumulator
/// or group of scalars): run(n, mask) feeds every part whose bit is set in
/// `mask` from the block's first n slots, in trial order. Part k is bit k.
struct BlockFold {
  unsigned parts = 0;
  std::function<void(std::size_t, unsigned)> run;
};

/// Where one evaluation's trials and fold parts run: inline at one thread,
/// on the process-wide pool at 0, or on a pool of N threads made once per
/// evaluation.
class Fanout {
 public:
  explicit Fanout(int threads) {
    if (threads <= 0) {
      pool_ = &engine::ThreadPool::shared();
    } else if (threads > 1) {
      pool_ = &own_.emplace(threads);
    }
  }

  /// Runs body(i) for i in [0, n), polling `token`. Returns false when
  /// cancellation skipped any index.
  bool trials(std::size_t n, const std::function<void(std::size_t)>& body,
              const engine::CancellationToken& token) {
    if (pool_ == nullptr) {
      for (std::size_t i = 0; i < n; ++i) {
        if (token.cancelled()) return false;
        body(i);
      }
      return true;
    }
    // The pool only drains promptly on cancellation; polling inside the
    // wrapped body keeps the completed-trial accounting tight.
    return pool_->parallelForCancellable(
        n,
        [&](std::size_t i) {
          if (!token.cancelled()) body(i);
        },
        token);
  }

  /// Folds a block of n slots: inline, every part in one pass (the
  /// accumulators' independent update chains overlap in the core), or one
  /// task per part across the pool.
  void fold(const BlockFold& blockFold, std::size_t n) {
    if (pool_ == nullptr) {
      blockFold.run(n, (1u << blockFold.parts) - 1);
      return;
    }
    pool_->parallelFor(
        blockFold.parts, [&](std::size_t k) { blockFold.run(n, 1u << k); },
        /*grain=*/1);
  }

 private:
  std::optional<engine::ThreadPool> own_;
  engine::ThreadPool* pool_ = nullptr;
};

/// What runBlocks reports: trials completed (== the requested count unless
/// cancelled) and the summed wall time of the trial and fold phases.
struct BlockRun {
  int completed = 0;
  double trialSeconds = 0;
  double foldSeconds = 0;
};

/// Runs trials [0, count) in blocks of kBlockTrials over one reused block
/// of slots. For each block, trial(slot, i) fills `slot` for trial i (fanned
/// out), then `fold` consumes the block before the next one runs, and the
/// block is appended to `trace` when set. Stops at the first block that
/// cancellation cut short.
template <typename Slot, typename Sample>
BlockRun runBlocks(int count, int threads,
                   const engine::CancellationToken& token,
                   const std::function<void(Slot&, std::size_t)>& trial,
                   const BlockFold& fold, std::vector<Slot>& slots,
                   std::vector<Sample>* trace) {
  constexpr auto kBlock =
      static_cast<std::size_t>(StochasticEvaluator::kBlockTrials);
  const auto total = static_cast<std::size_t>(count);
  slots.resize(std::min(total, kBlock));
  if (trace != nullptr) trace->clear();
  Fanout fanout(threads);
  BlockRun run;
  for (std::size_t begin = 0; begin < total; begin += kBlock) {
    const std::size_t n = std::min(kBlock, total - begin);
    for (std::size_t j = 0; j < n; ++j) slots[j].filled = false;
    auto start = std::chrono::steady_clock::now();
    const bool ranAll = fanout.trials(
        n,
        [&](std::size_t j) {
          Slot& slot = slots[j];
          trial(slot, begin + j);
          slot.filled = true;
        },
        token);
    run.trialSeconds += secsSince(start);
    std::size_t filled = n;
    if (!ranAll) {
      filled = 0;
      for (std::size_t j = 0; j < n; ++j) filled += slots[j].filled ? 1 : 0;
    }
    run.completed += static_cast<int>(filled);
    if (filled < n) return run;
    start = std::chrono::steady_clock::now();
    fanout.fold(fold, n);
    run.foldSeconds += secsSince(start);
    if (trace != nullptr) {
      trace->insert(trace->end(), slots.begin(),
                    slots.begin() + static_cast<std::ptrdiff_t>(n));
    }
  }
  return run;
}

[[nodiscard]] engine::EvalError cancelledError(
    const engine::CancellationToken& token, int completed, int trials) {
  return engine::EvalError{token.reason(),
                           "stochastic run cancelled after " +
                               std::to_string(completed) + " of " +
                               std::to_string(trials) + " trials"};
}

}  // namespace

StochasticEvaluator::StochasticEvaluator(StorageDesign design,
                                         StochasticOptions options)
    : options_(std::move(options)),
      sim_(std::make_unique<sim::RpLifecycleSimulator>(std::move(design),
                                                       options_.sim)) {
  sim_->run();
  recovery_ = std::make_unique<sim::RecoverySimulator>(*sim_);
  if (options_.usePlan) {
    plan_ = TrialPlan::compile(*sim_, options_.reliability);
  }
}

StochasticEvaluator::~StochasticEvaluator() = default;

const StorageDesign& StochasticEvaluator::design() const noexcept {
  return sim_->design();
}

engine::Expected<ScenarioDistribution> StochasticEvaluator::distributionFor(
    const FailureScenario& scenario) const {
  if (options_.trials <= 0) {
    return engine::EvalError{engine::EvalErrorCode::kInvalidDesign,
                             "stochastic trials must be positive"};
  }
  const double lo = sim_->warmupTime();
  const double hi = sim_->horizon();
  if (!(lo < hi)) {
    return engine::EvalError{
        engine::EvalErrorCode::kInvalidDesign,
        "simulation horizon too short to reach steady state; raise "
        "StochasticOptions::sim.horizon"};
  }

  const StorageDesign& design = sim_->design();
  const BusinessRequirements& business = design.business();
  const int trials = options_.trials;
  const sim::Rng root(options_.seed);

  // Per-trial sampling. DL comes from the simulator's bestVisibleRp view
  // (the quantity the FailureInjector oracle bounds by analytic +
  // rpCaptureSlack); RT and payload come from the restorable-RP replay (the
  // quantity bounded by the analytic worst-case recovery time). The plan
  // kernel replays the same draws through the compiled tables,
  // bit-identically.
  std::function<void(ConditionalTrial&, std::size_t)> trial;
  TrialPlan::ScenarioRow row;
  if (plan_ != nullptr) {
    row = plan_->compileScenario(scenario);
    trial = [&](ConditionalTrial& t, std::size_t i) {
      sim::Rng rng = root.split(i);
      plan_->conditionalTrial(row, rng, t);
    };
  } else {
    trial = [&](ConditionalTrial& t, std::size_t i) {
      sim::Rng rng = root.split(i);
      static_cast<ConditionalSample&>(t) = ConditionalSample{};
      const double failTime = rng.uniform(lo, hi);
      const auto obs = recovery_->observedRecovery(scenario, failTime);
      const Duration dl = sim_->observedDataLoss(scenario, failTime);
      if (obs && obs->recoveryTime.isFinite() && dl.isFinite()) {
        t.recoverable = true;
        t.rt = obs->recoveryTime.secs();
        t.dl = dl.secs();
        t.payload = obs->payload.bytes();
        t.penalty = (business.outagePenalty(obs->recoveryTime) +
                     business.lossPenalty(dl))
                        .usd();
      }
    };
  }

  // Block fold: each part feeds one accumulator (or the scalars) in trial
  // order, so the summaries are bit-identical at any thread count.
  std::vector<ConditionalTrial> slots;
  const auto expected = static_cast<std::uint64_t>(trials);
  DistributionAccumulator rtAcc(expected, options_.ciBatches);
  DistributionAccumulator dlAcc(expected, options_.ciBatches);
  DistributionAccumulator penAcc(expected, options_.ciBatches);
  int unrecoverable = 0;
  std::uint64_t recovered = 0;
  double paySum = 0;
  double payMin = 0;
  double payMax = 0;
  constexpr unsigned kRt = 1u << 0;
  constexpr unsigned kDl = 1u << 1;
  constexpr unsigned kPenalty = 1u << 2;
  constexpr unsigned kScalars = 1u << 3;
  const auto feed = [&](std::size_t n, unsigned mask) {
    for (std::size_t j = 0; j < n; ++j) {
      const ConditionalTrial& t = slots[j];
      if (!t.recoverable) {
        if (mask & kScalars) ++unrecoverable;
        continue;
      }
      if (mask & kRt) rtAcc.add(t.rt);
      if (mask & kDl) dlAcc.add(t.dl);
      if (mask & kPenalty) penAcc.add(t.penalty);
      if (mask & kScalars) {
        if (recovered == 0) {
          payMin = t.payload;
          payMax = t.payload;
        } else {
          payMin = std::min(payMin, t.payload);
          payMax = std::max(payMax, t.payload);
        }
        ++recovered;
        paySum += t.payload;
      }
    }
  };
  const BlockFold fold{4, feed};

  const BlockRun run = runBlocks(
      trials, options_.threads, options_.token, trial, fold, slots,
      options_.trace != nullptr ? &options_.trace->conditional : nullptr);
  if (run.completed < trials) {
    return cancelledError(options_.token, run.completed, trials);
  }

  ScenarioDistribution out;
  out.trials = trials;
  out.unrecoverable = unrecoverable;
  out.wallSeconds = run.trialSeconds;
  out.trialsPerSec = run.trialSeconds > 0
                         ? static_cast<double>(trials) / run.trialSeconds
                         : 0.0;
  out.foldSeconds = run.foldSeconds;
  out.usedPlan = plan_ != nullptr;
  out.rt = rtAcc.finalize();
  out.dl = dlAcc.finalize();
  out.penalty = penAcc.finalize();
  if (recovered > 0) {
    out.minPayload = Bytes{payMin};
    out.meanPayload = Bytes{paySum / static_cast<double>(recovered)};
    out.maxPayload = Bytes{payMax};
  }

  // Analytic worst case and bound checks.
  const RecoveryResult analytic = computeRecovery(design, scenario);
  out.analyticWorstRt = analytic.recoveryTime;
  out.analyticWorstDl = analytic.dataLoss;
  if (analytic.recoverable) {
    out.worstCasePenalty = business.outagePenalty(analytic.recoveryTime) +
                           business.lossPenalty(analytic.dataLoss);
  } else {
    out.worstCasePenalty =
        dollars(std::numeric_limits<double>::infinity());
  }
  if (const auto source = chooseRecoverySource(design, scenario)) {
    out.dlSlack = rpCaptureSlack(design, source->level);
  }
  if (out.rt.count > 0) {
    out.rtBoundHolds = withinRtBound(out.rt.max, analytic.recoveryTime);
    if (analytic.recoveryTime.isFinite() && analytic.recoveryTime.secs() > 0) {
      out.rtTightness = out.rt.max / analytic.recoveryTime.secs();
    } else {
      out.rtTightness = 1.0;
    }
  }
  if (out.dl.count > 0) {
    out.dlBoundHolds = withinDlBound(out.dl.max, analytic.dataLoss + out.dlSlack);
  }

  // Unrecoverable trials carry no finite penalty; they are excluded from the
  // mean and surfaced through `unrecoverable` instead. A scenario with no
  // recoverable instant at all is infinitely expensive.
  out.expectedPenalty =
      recovered > 0 ? dollars(out.penalty.mean)
                    : dollars(std::numeric_limits<double>::infinity());
  return out;
}

engine::Expected<AnnualizedRisk> StochasticEvaluator::annualizedRisk() const {
  if (options_.trials <= 0) {
    return engine::EvalError{engine::EvalErrorCode::kInvalidDesign,
                             "stochastic trials must be positive"};
  }
  const double lo = sim_->warmupTime();
  const double hi = sim_->horizon();
  if (!(lo < hi)) {
    return engine::EvalError{
        engine::EvalErrorCode::kInvalidDesign,
        "simulation horizon too short to reach steady state; raise "
        "StochasticOptions::sim.horizon"};
  }
  const double window = options_.reliability.missionWindow.secs();
  if (!(window > 0) || !options_.reliability.missionWindow.isFinite()) {
    return engine::EvalError{engine::EvalErrorCode::kInvalidDesign,
                             "mission window must be positive and finite"};
  }
  if (options_.reliability.siteShockAnnualRate < 0) {
    return engine::EvalError{engine::EvalErrorCode::kInvalidDesign,
                             "site shock rate must be non-negative"};
  }

  const StorageDesign& design = sim_->design();
  const BusinessRequirements& business = design.business();
  const auto resolved = resolveReliability(design, options_.reliability);
  if (resolved.empty()) {
    return engine::EvalError{engine::EvalErrorCode::kInvalidDesign,
                             "design has no storage devices to fail"};
  }

  // Scenario per failure source, built once: device failures plus (when the
  // common-shock rate is set) one whole-site disaster per distinct site.
  std::vector<FailureScenario> deviceScenarios;
  deviceScenarios.reserve(resolved.size());
  for (const auto& [device, rel] : resolved) {
    deviceScenarios.push_back(FailureScenario::arrayFailure(device->name()));
  }
  std::vector<std::string> sites;
  for (const auto& [device, rel] : resolved) {
    const std::string& site = device->location().site;
    if (std::find(sites.begin(), sites.end(), site) == sites.end()) {
      sites.push_back(site);
    }
  }
  std::vector<FailureScenario> siteScenarios;
  siteScenarios.reserve(sites.size());
  for (const std::string& site : sites) {
    siteScenarios.push_back(FailureScenario::siteDisaster(site));
  }
  const double shockRate = options_.reliability.siteShockAnnualRate;
  const double shockMeanSecs =
      shockRate > 0 ? Duration::kYear / shockRate
                    : std::numeric_limits<double>::infinity();

  const int trials = options_.trials;
  const sim::Rng root(options_.seed);

  const auto sampleMissionWindow = [&](MissionTrial& t, std::size_t i) {
    sim::Rng rng = root.split(i);
    t.clear();

    // Event staging reused across this thread's trials: reserved once,
    // cleared per trial (the per-trial churn was the allocator hot spot).
    static thread_local std::vector<MissionEvent> events;
    events.clear();

    // Renewal process per device: fail, stay down for a repair draw, run
    // until the next failure draw; repeat across the mission window. The
    // repair draw precedes the next failure draw (the plan kernel relies
    // on this order being pinned down).
    for (std::size_t d = 0; d < resolved.size(); ++d) {
      const DeviceReliability& rel = resolved[d].second;
      double time = sampleSecs(rel.failure, rng);
      int arrivals = 0;
      while (time < window && arrivals < kMaxArrivalsPerProcess) {
        events.push_back({time, 0, static_cast<int>(d)});
        ++arrivals;
        const double repairDraw = sampleSecs(rel.repair, rng);
        const double failureDraw = sampleSecs(rel.failure, rng);
        const double gap = repairDraw + failureDraw;
        if (!(gap > 0)) break;
        time += gap;
      }
    }
    // Marshall–Olkin-style common shocks: a Poisson stream per site that
    // takes out every device there at once (correlated failures).
    if (shockRate > 0) {
      for (std::size_t s = 0; s < sites.size(); ++s) {
        double time = rng.exponential(shockMeanSecs);
        int arrivals = 0;
        while (time < window && arrivals < kMaxArrivalsPerProcess) {
          events.push_back({time, 1, static_cast<int>(s)});
          ++arrivals;
          time += rng.exponential(shockMeanSecs);
        }
      }
    }
    std::sort(events.begin(), events.end(),
              [](const MissionEvent& a, const MissionEvent& b) {
                if (a.time != b.time) return a.time < b.time;
                if (a.kind != b.kind) return a.kind < b.kind;
                return a.index < b.index;
              });

    // Replay each outage at an independent uniformly drawn phase of the
    // steady-state backup cycle (the mission clock and the RP-schedule
    // clock are incommensurable, so the phase at failure is ~uniform).
    t.eventRtDl.reserve(events.size());
    for (const MissionEvent& e : events) {
      const FailureScenario& scenario =
          e.kind == 0 ? deviceScenarios[static_cast<std::size_t>(e.index)]
                      : siteScenarios[static_cast<std::size_t>(e.index)];
      const double failTime = rng.uniform(lo, hi);
      const auto obs = recovery_->observedRecovery(scenario, failTime);
      const Duration dl = sim_->observedDataLoss(scenario, failTime);
      ++t.events;
      if (!obs || !obs->recoveryTime.isFinite() || !dl.isFinite()) {
        ++t.unrecoverable;
        t.lossBytes += design.workload().dataCap().bytes();
        continue;
      }
      const double rt = obs->recoveryTime.secs();
      t.eventRtDl.emplace_back(rt, dl.secs());
      t.penalty +=
          (business.outagePenalty(obs->recoveryTime) + business.lossPenalty(dl))
              .usd();
      t.lossBytes += design.workload().uniqueBytes(dl).bytes();
      t.downtimeSecs += rt;
    }
  };

  std::function<void(MissionTrial&, std::size_t)> trial;
  if (plan_ != nullptr && plan_->missionReady()) {
    trial = [&](MissionTrial& t, std::size_t i) {
      sim::Rng rng = root.split(i);
      plan_->missionTrial(rng, engine::Engine::threadArena(), t);
    };
  } else {
    trial = sampleMissionWindow;
  }

  // Block fold: each part feeds one accumulator (or the scalar sums) in
  // trial order; annual figures scale by the window.
  std::vector<MissionTrial> slots;
  const double scale = Duration::kYear / window;
  const auto expected = static_cast<std::uint64_t>(trials);
  DistributionAccumulator penAcc(expected, options_.ciBatches);
  DistributionAccumulator lossAcc(expected, options_.ciBatches);
  DistributionAccumulator eventRtAcc;
  DistributionAccumulator eventDlAcc;
  std::uint64_t eventSum = 0;
  int unrecoverableTrials = 0;
  double downtimeSum = 0;
  constexpr unsigned kPenalty = 1u << 0;
  constexpr unsigned kLoss = 1u << 1;
  constexpr unsigned kEventRt = 1u << 2;
  constexpr unsigned kEventDl = 1u << 3;
  constexpr unsigned kScalars = 1u << 4;
  const auto feed = [&](std::size_t n, unsigned mask) {
    for (std::size_t j = 0; j < n; ++j) {
      const MissionTrial& t = slots[j];
      if (mask & kScalars) {
        eventSum += static_cast<std::uint64_t>(t.events);
        if (t.unrecoverable > 0) ++unrecoverableTrials;
        downtimeSum += t.downtimeSecs;
      }
      if (mask & kPenalty) penAcc.add(t.penalty * scale);
      if (mask & kLoss) lossAcc.add(t.lossBytes * scale);
      if (mask & (kEventRt | kEventDl)) {
        for (const auto& [rt, dl] : t.eventRtDl) {
          if (mask & kEventRt) eventRtAcc.add(rt);
          if (mask & kEventDl) eventDlAcc.add(dl);
        }
      }
    }
  };
  const BlockFold fold{5, feed};

  const BlockRun run = runBlocks(
      trials, options_.threads, options_.token, trial, fold, slots,
      options_.trace != nullptr ? &options_.trace->mission : nullptr);
  if (run.completed < trials) {
    return cancelledError(options_.token, run.completed, trials);
  }

  AnnualizedRisk out;
  out.trials = trials;
  out.missionWindow = options_.reliability.missionWindow;
  out.wallSeconds = run.trialSeconds;
  out.trialsPerSec = run.trialSeconds > 0
                         ? static_cast<double>(trials) / run.trialSeconds
                         : 0.0;
  out.foldSeconds = run.foldSeconds;
  out.usedPlan = plan_ != nullptr && plan_->missionReady();
  const auto n = static_cast<double>(trials);
  out.eventsPerYear = static_cast<double>(eventSum) / n * scale;
  out.unrecoverableTrialFraction = static_cast<double>(unrecoverableTrials) / n;
  out.annualPenalty = penAcc.finalize();
  out.expectedAnnualPenalty = dollars(out.annualPenalty.mean);
  out.penaltyCi95 = dollars(out.annualPenalty.ci95);
  const Distribution loss = lossAcc.finalize();
  out.expectedAnnualLossBytes = Bytes{loss.mean};
  out.lossBytesCi95 = Bytes{loss.ci95};
  out.expectedAnnualDowntimeHours = downtimeSum / n * scale / Duration::kHour;
  out.eventRt = eventRtAcc.finalize();
  out.eventDl = eventDlAcc.finalize();
  return out;
}

}  // namespace stordep::stochastic
