#include "optimizer/search.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "casestudy/casestudy.hpp"
#include "optimizer/checkpoint.hpp"
#include "stochastic/evaluator.hpp"

namespace stordep::optimizer {

namespace {

/// Expected-penalty objective parameters; null pointer = worst-case mode
/// (the default, kept bit-identical to the serial reference).
struct StochasticObjectiveSpec {
  int trials = 512;
  std::uint64_t seed = 1;
};

/// What every candidate evaluation of one sweep shares.
struct CandidateContext {
  const WorkloadSpec& workload;
  const BusinessRequirements& business;
  const std::vector<ScenarioCase>& scenarios;
  /// The engine's fault injector (null = none). When set, every scenario
  /// evaluation first passes its kEvaluate probe, keyed by
  /// combine(fingerprintDesign, scenario fingerprint) and retried within
  /// `retry`; `scenarioFps` holds the scenario halves of those keys.
  engine::FaultInjector* injector = nullptr;
  std::vector<engine::Fingerprint> scenarioFps;
  engine::BatchOptions retry;
  const StochasticObjectiveSpec* stochastic = nullptr;

  CandidateContext(const WorkloadSpec& w, const BusinessRequirements& b,
                   const std::vector<ScenarioCase>& s, engine::Engine& eng,
                   const engine::BatchOptions& retryOptions)
      : workload(w), business(b), scenarios(s),
        injector(eng.faultInjector().get()), retry(retryOptions) {
    if (injector != nullptr) {
      scenarioFps.reserve(scenarios.size());
      for (const ScenarioCase& sc : scenarios) {
        scenarioFps.push_back(engine::fingerprintScenario(sc.scenario));
      }
    }
  }
};

/// Folds one scenario evaluation into the candidate summary. Returns false
/// when the candidate is infeasible and the scenario loop should stop (the
/// same early-out the serial reference takes).
bool foldScenario(EvaluatedCandidate& out, const EvaluationResult& result,
                  const ScenarioCase& sc, bool& outlaysRecorded) {
  if (!result.utilization.feasible()) {
    out.feasible = false;
    out.rejectionReason = "over-utilized: " + result.utilization.errors[0];
    return false;
  }
  if (!result.recovery.recoverable) {
    out.feasible = false;
    out.rejectionReason = "unrecoverable under scenario '" + sc.name + "'";
    return false;
  }
  if (!result.meetsObjectives) {
    out.meetsObjectives = false;
    out.rejectionReason = "misses RTO/RPO under scenario '" + sc.name + "'";
  }
  if (!outlaysRecorded) {
    out.outlays = result.cost.totalOutlays;  // scenario-independent
    outlaysRecorded = true;
  }
  out.weightedPenalties += result.cost.totalPenalties * sc.weight;
  out.worstRecoveryTime =
      std::max(out.worstRecoveryTime, result.recovery.recoveryTime);
  out.worstDataLoss = std::max(out.worstDataLoss, result.recovery.dataLoss);
  return true;
}

/// Replaces the worst-case penalty term with the Monte-Carlo expectation.
/// Trials run serially (the candidate loop is already parallel) from a fixed
/// root seed, so rankings stay deterministic. Scenarios the simulation
/// cannot serve keep their worst-case contribution in `analyticPenalties`;
/// a design the simulator rejects outright keeps all of them.
void applyExpectedPenalties(EvaluatedCandidate& out, const StorageDesign& design,
                            const CandidateContext& ctx,
                            const std::vector<Money>& analyticPenalties) {
  try {
    stochastic::StochasticOptions sopt;
    sopt.trials = ctx.stochastic->trials;
    sopt.seed = ctx.stochastic->seed;
    sopt.threads = 1;
    const stochastic::StochasticEvaluator sampler(design, sopt);
    Money expected = Money::zero();
    for (std::size_t j = 0; j < ctx.scenarios.size(); ++j) {
      const ScenarioCase& sc = ctx.scenarios[j];
      const auto dist = sampler.distributionFor(sc.scenario);
      if (dist.ok() && dist.value().expectedPenalty.isFinite()) {
        expected += dist.value().expectedPenalty * sc.weight;
      } else {
        expected += analyticPenalties[j];
      }
    }
    out.weightedPenalties = expected;
  } catch (...) {
    // Simulator rejected the design; the analytic worst-case penalties
    // already accumulated stand.
  }
}

/// Evaluates one candidate: the design is built over the calling thread's
/// catalog device set, compiled into an engine::EvalPlan once, and
/// every scenario folds through EvalPlan::evaluate on the calling thread's
/// bump arena — no per-eval heap allocation, no cache traffic, no shard
/// locks. Field for field this reproduces the serial reference's
/// foldScenario (the plan contract guarantees bit-identical metrics),
/// including the exact rejection strings. Never throws: a build failure, a
/// design the plan compiler rejects (kInvalidDesign) or an injected fault
/// past the retry budget is captured as EvaluatedCandidate::error,
/// isolating the failure to this candidate.
EvaluatedCandidate evaluateWithPlan(const CandidateSpec& spec,
                                    const CandidateContext& ctx) {
  EvaluatedCandidate out;
  out.spec = spec;
  out.label = spec.label();
  out.feasible = true;
  out.meetsObjectives = true;

  try {
    // Built once per thread and shared read-only by every candidate the
    // thread evaluates: no design built here outlives this call, and no two
    // threads touch one set's reference counts.
    thread_local const CandidateDevices devices;
    const StorageDesign design =
        spec.build(ctx.workload, ctx.business, devices, out.label);
    const std::shared_ptr<const engine::EvalPlan> plan =
        engine::EvalPlan::compile(design);
    if (plan == nullptr) {
      throw engine::EvalException(engine::EvalError{
          engine::EvalErrorCode::kInvalidDesign,
          "design does not compile to an evaluation plan"});
    }
    const engine::Fingerprint designFp = ctx.injector != nullptr
                                             ? engine::fingerprintDesign(design)
                                             : engine::Fingerprint{};
    bool outlaysRecorded = false;
    // Per-scenario worst-case penalty contributions, kept in fold order so
    // the expected-penalty objective can fall back scenario-by-scenario.
    std::vector<Money> analyticPenalties;

    for (std::size_t j = 0; j < ctx.scenarios.size(); ++j) {
      const ScenarioCase& sc = ctx.scenarios[j];
      if (ctx.injector != nullptr) {
        const engine::Fingerprint key =
            engine::combine(designFp, ctx.scenarioFps[j]);
        if (std::optional<engine::EvalError> error =
                engine::retryTransient(ctx.retry, [&] {
                  ctx.injector->maybeInject(engine::FaultSite::kEvaluate, key);
                })) {
          out.error = std::move(*error);
          break;
        }
      }
      // Scenario-independent, but checked inside the loop so an empty
      // scenario set leaves the candidate untouched, like the serial fold.
      if (!plan->utilizationFeasible()) {
        out.feasible = false;
        out.rejectionReason = "over-utilized: " + plan->utilizationError();
        break;
      }
      const EvaluationMetrics m =
          plan->evaluate(sc.scenario, engine::Engine::threadArena());
      if (!m.recoverable) {
        out.feasible = false;
        out.rejectionReason = "unrecoverable under scenario '" + sc.name + "'";
        break;
      }
      if (!m.meetsObjectives) {
        out.meetsObjectives = false;
        out.rejectionReason = "misses RTO/RPO under scenario '" + sc.name + "'";
      }
      if (!outlaysRecorded) {
        out.outlays = m.totalOutlays;  // scenario-independent
        outlaysRecorded = true;
      }
      out.weightedPenalties += m.totalPenalties * sc.weight;
      out.worstRecoveryTime = std::max(out.worstRecoveryTime, m.recoveryTime);
      out.worstDataLoss = std::max(out.worstDataLoss, m.dataLoss);
      if (ctx.stochastic != nullptr) {
        analyticPenalties.push_back(m.totalPenalties * sc.weight);
      }
    }

    if (ctx.stochastic != nullptr && !out.error && out.feasible &&
        out.meetsObjectives &&
        analyticPenalties.size() == ctx.scenarios.size()) {
      applyExpectedPenalties(out, design, ctx, analyticPenalties);
    }
  } catch (...) {
    out.error = engine::errorFromCurrentException();
  }

  if (out.error) {
    out.feasible = false;
    out.rejectionReason = "evaluation failed: " + out.error->describe();
  }
  out.totalCost = out.outlays + out.weightedPenalties;
  return out;
}

/// Deterministic ranking shared by all search paths.
void rankCandidates(SearchResult& result,
                    std::vector<EvaluatedCandidate> evaluated) {
  for (EvaluatedCandidate& candidate : evaluated) {
    ++result.evaluated;
    if (candidate.error) ++result.failed;
    if (candidate.feasible && candidate.meetsObjectives) {
      result.ranked.push_back(std::move(candidate));
    } else {
      result.rejected.push_back(std::move(candidate));
    }
  }
  std::sort(result.ranked.begin(), result.ranked.end(),
            [](const EvaluatedCandidate& a, const EvaluatedCandidate& b) {
              if (a.totalCost != b.totalCost) return a.totalCost < b.totalCost;
              return a.label < b.label;  // deterministic tie-break
            });
}

/// Fills the throughput fields every search path reports (evaluated counts
/// both computed and journal-restored candidates).
void finalizeThroughput(SearchResult& result,
                        std::chrono::steady_clock::time_point start) {
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  result.wallSeconds = elapsed.count();
  result.candidatesPerSec =
      result.wallSeconds > 0.0
          ? static_cast<double>(result.evaluated) / result.wallSeconds
          : 0.0;
}

/// The retry budget a sweep's injected-fault probes run under.
engine::BatchOptions retryBudget(const SearchOptions& options) {
  engine::BatchOptions retry;
  retry.maxRetries = options.maxRetries;
  retry.retryBackoff = options.retryBackoff;
  return retry;
}

/// One fault-tolerant sweep's state, shared by the vector and streaming
/// searches: the candidate context, the cancellation token and the
/// checkpoint journal. Candidates are evaluated in waves, each fanned out at
/// candidate granularity across the engine's pool; every result lands in
/// its own slot, so the ranking sees exactly the serial order.
class Sweep {
 public:
  Sweep(const WorkloadSpec& workload, const BusinessRequirements& business,
        const std::vector<ScenarioCase>& scenarios,
        const SearchOptions& options)
      : start_(std::chrono::steady_clock::now()),
        engine_(options.eng != nullptr ? *options.eng
                                       : engine::Engine::shared()),
        ctx_(workload, business, scenarios, engine_, retryBudget(options)),
        stochastic_{options.stochasticTrials, options.stochasticSeed},
        token_(options.deadline.count() > 0
                   ? options.token.withDeadline(options.deadline)
                   : options.token) {
    if (options.objective == Objective::kExpectedPenalty) {
      ctx_.stochastic = &stochastic_;
    }
    if (!options.checkpointPath.empty()) {
      journal_ = std::make_unique<CheckpointJournal>(
          options.checkpointPath,
          fingerprintSearchContext(workload, business, scenarios),
          options.checkpointEvery);
    }
  }

  /// Evaluates one wave: journaled candidates are restored, the rest are
  /// evaluated and journaled. `done` receives the finished candidates in
  /// wave order. Returns false when cancellation or the deadline left some
  /// candidate of the wave un-evaluated.
  bool runWave(const std::vector<CandidateSpec>& wave,
               std::vector<EvaluatedCandidate>& done) {
    // `completed` marks the slots that hold a finished evaluation
    // (vector<char>: written concurrently per index).
    evaluated_.assign(wave.size(), EvaluatedCandidate{});
    completed_.assign(wave.size(), 0);
    if (journal_) {
      // Resume: restore journaled candidates before fanning out, so the
      // sweep spends its budget only on un-finished work.
      keys_.clear();
      keys_.reserve(wave.size());
      for (std::size_t i = 0; i < wave.size(); ++i) {
        keys_.push_back(fingerprintCandidate(wave[i]));
        if (const EvaluatedCandidate* record = journal_->find(keys_[i])) {
          evaluated_[i] = *record;
          evaluated_[i].spec = wave[i];  // journal stores metrics only
          completed_[i] = 1;
          ++skipped_;
        }
      }
    }

    const bool cancellable = token_.cancellable();
    const bool ranAll = engine_.parallelForCancellable(
        wave.size(),
        [&](std::size_t i) {
          if (completed_[i] != 0) return;  // restored from the journal
          if (cancellable && token_.cancelled()) return;
          evaluated_[i] = evaluateWithPlan(wave[i], ctx_);
          completed_[i] = 1;
          // Only clean evaluations are journaled: a transiently-failed
          // candidate should be re-attempted on resume, not pinned.
          if (journal_ && !evaluated_[i].error) {
            journal_->record(keys_[i], evaluated_[i]);
          }
        },
        token_);

    done.clear();
    bool complete = ranAll;
    for (std::size_t i = 0; i < wave.size(); ++i) {
      if (completed_[i] != 0) {
        done.push_back(std::move(evaluated_[i]));
      } else {
        complete = false;
      }
    }
    return complete;
  }

  /// Flushes the journal and ranks everything the sweep finished.
  SearchResult finish(std::vector<EvaluatedCandidate> finished,
                      bool cancelled) {
    if (journal_) journal_->flush();
    SearchResult result;
    result.skipped = skipped_;
    result.cancelled = cancelled;
    rankCandidates(result, std::move(finished));
    finalizeThroughput(result, start_);
    return result;
  }

 private:
  std::chrono::steady_clock::time_point start_;
  engine::Engine& engine_;
  CandidateContext ctx_;
  StochasticObjectiveSpec stochastic_;
  engine::CancellationToken token_;
  std::unique_ptr<CheckpointJournal> journal_;
  int skipped_ = 0;  ///< candidates restored from the journal
  // Wave buffers, reused across waves.
  std::vector<engine::Fingerprint> keys_;
  std::vector<EvaluatedCandidate> evaluated_;
  std::vector<char> completed_;
};

}  // namespace

SearchResult rankEvaluated(std::vector<EvaluatedCandidate> evaluated) {
  SearchResult result;
  rankCandidates(result, std::move(evaluated));
  return result;
}

EvaluatedCandidate evaluateCandidate(
    const CandidateSpec& spec, const WorkloadSpec& workload,
    const BusinessRequirements& business,
    const std::vector<ScenarioCase>& scenarios, engine::Engine* eng) {
  engine::Engine& resolved = eng != nullptr ? *eng : engine::Engine::shared();
  const CandidateContext ctx(workload, business, scenarios, resolved,
                             engine::BatchOptions{});
  return evaluateWithPlan(spec, ctx);
}

SearchResult searchDesignSpace(const std::vector<CandidateSpec>& candidates,
                               const WorkloadSpec& workload,
                               const BusinessRequirements& business,
                               const std::vector<ScenarioCase>& scenarios,
                               engine::Engine* eng) {
  SearchOptions options;
  options.eng = eng;
  options.maxRetries = 0;
  return searchDesignSpace(candidates, workload, business, scenarios, options);
}

SearchResult searchDesignSpace(const std::vector<CandidateSpec>& candidates,
                               const WorkloadSpec& workload,
                               const BusinessRequirements& business,
                               const std::vector<ScenarioCase>& scenarios,
                               const SearchOptions& options) {
  Sweep sweep(workload, business, scenarios, options);
  std::vector<EvaluatedCandidate> finished;
  const bool complete = sweep.runWave(candidates, finished);
  return sweep.finish(std::move(finished), !complete);
}

SearchResult searchDesignSpaceStreaming(DesignSpaceCursor& cursor,
                                        const WorkloadSpec& workload,
                                        const BusinessRequirements& business,
                                        const std::vector<ScenarioCase>& scenarios,
                                        const SearchOptions& options) {
  Sweep sweep(workload, business, scenarios, options);
  std::vector<EvaluatedCandidate> finished;

  // Waves of at most streamChunk candidates: peak memory is O(streamChunk)
  // materialized candidates regardless of grid size.
  const std::size_t chunkSize = std::max<std::size_t>(1, options.streamChunk);
  std::vector<CandidateSpec> chunk;
  chunk.reserve(chunkSize);
  std::vector<EvaluatedCandidate> waveFinished;

  bool stopped = false;
  CandidateSpec spec;
  while (!stopped) {
    chunk.clear();
    while (chunk.size() < chunkSize && cursor.next(spec)) {
      chunk.push_back(spec);
    }
    if (chunk.empty()) break;

    stopped = !sweep.runWave(chunk, waveFinished);
    if (options.onCandidates) options.onCandidates(waveFinished);
    for (EvaluatedCandidate& c : waveFinished) {
      finished.push_back(std::move(c));
    }
    if (options.onProgress) options.onProgress(finished.size());
    if (options.waveDelay.count() > 0 && !stopped) {
      std::this_thread::sleep_for(options.waveDelay);
    }
  }
  return sweep.finish(std::move(finished), stopped);
}

SearchResult searchDesignSpaceSerial(
    const std::vector<CandidateSpec>& candidates, const WorkloadSpec& workload,
    const BusinessRequirements& business,
    const std::vector<ScenarioCase>& scenarios) {
  const auto startTime = std::chrono::steady_clock::now();
  std::vector<EvaluatedCandidate> evaluated;
  evaluated.reserve(candidates.size());
  for (const CandidateSpec& spec : candidates) {
    EvaluatedCandidate out;
    out.spec = spec;
    out.label = spec.label();
    out.feasible = true;
    out.meetsObjectives = true;

    const StorageDesign design = spec.build(workload, business);
    bool outlaysRecorded = false;
    for (const ScenarioCase& sc : scenarios) {
      const EvaluationResult result = evaluate(design, sc.scenario);
      if (!foldScenario(out, result, sc, outlaysRecorded)) break;
    }
    out.totalCost = out.outlays + out.weightedPenalties;
    evaluated.push_back(std::move(out));
  }

  SearchResult result;
  rankCandidates(result, std::move(evaluated));
  finalizeThroughput(result, startTime);
  return result;
}

std::vector<EvaluatedCandidate> paretoFrontier(
    const std::vector<EvaluatedCandidate>& candidates) {
  auto dominates = [](const EvaluatedCandidate& a,
                      const EvaluatedCandidate& b) {
    const bool geAll = a.outlays <= b.outlays &&
                       a.worstRecoveryTime <= b.worstRecoveryTime &&
                       a.worstDataLoss <= b.worstDataLoss;
    const bool gtAny = a.outlays < b.outlays ||
                       a.worstRecoveryTime < b.worstRecoveryTime ||
                       a.worstDataLoss < b.worstDataLoss;
    return geAll && gtAny;
  };

  std::vector<EvaluatedCandidate> frontier;
  for (const EvaluatedCandidate& candidate : candidates) {
    if (!candidate.feasible) continue;
    bool dominated = false;
    for (const EvaluatedCandidate& other : candidates) {
      if (!other.feasible) continue;
      if (dominates(other, candidate)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) frontier.push_back(candidate);
  }
  std::sort(frontier.begin(), frontier.end(),
            [](const EvaluatedCandidate& a, const EvaluatedCandidate& b) {
              if (a.outlays != b.outlays) return a.outlays < b.outlays;
              return a.label < b.label;
            });
  // Identical metric triples would all survive domination; keep the first
  // of each (deterministic by label through the sort above).
  std::vector<EvaluatedCandidate> unique;
  for (auto& candidate : frontier) {
    const bool duplicate =
        !unique.empty() && unique.back().outlays == candidate.outlays &&
        unique.back().worstRecoveryTime == candidate.worstRecoveryTime &&
        unique.back().worstDataLoss == candidate.worstDataLoss;
    if (!duplicate) unique.push_back(std::move(candidate));
  }
  return unique;
}

std::vector<ScenarioCase> caseStudyScenarios() {
  return {
      ScenarioCase{"object failure", casestudy::objectFailure(), 1.0},
      ScenarioCase{"array failure", casestudy::arrayFailure(), 1.0},
      ScenarioCase{"site disaster", casestudy::siteDisaster(), 1.0},
  };
}

}  // namespace stordep::optimizer
