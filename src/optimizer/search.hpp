// search.hpp — exhaustive evaluation over the design space.
//
// For each candidate design, evaluates every failure scenario in the given
// set, rejects candidates that are infeasible (over-utilized hardware or an
// unrecoverable scenario) or that miss the business RTO/RPO, and ranks the
// survivors by scenario-weighted total cost. This is the paper's "automated
// optimization loop" realized over the analytic models — fast enough to
// evaluate hundreds of candidates in milliseconds.
//
// Evaluation has one path: each candidate is built, compiled once into an
// engine::EvalPlan (src/engine/plan.hpp) and every scenario is folded
// against the plan allocation-free. Candidates fan out across an
// engine::Engine's thread pool. Sweeps do not memoize: recomputing a
// compiled plan is cheaper than fingerprinting a pair and probing a cache,
// so a repeated sweep simply runs again. The result is bit-identical to the
// serial reference (`searchDesignSpaceSerial`): the plan contract makes
// every metric equal to evaluate()'s, candidates are written to indexed
// slots, and the ranking uses the same deterministic comparison. A design
// the plan compiler rejects is an engine::EvalError (kInvalidDesign) on
// that candidate; an engine's installed FaultInjector is consulted at its
// kEvaluate site once per (candidate, scenario).
// Robustness: candidate evaluation is isolated — a candidate whose build or
// evaluation fails carries a structured engine::EvalError instead of
// aborting the sweep — and the SearchOptions overload adds cooperative
// cancellation, a wall-clock deadline, transient-failure retries and
// crash-safe checkpoint/resume (optimizer/checkpoint.hpp): completed
// candidates are journaled, and a resumed sweep skips them while producing
// the exact ranking of an uninterrupted run.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "engine/batch.hpp"
#include "optimizer/design_space.hpp"

namespace stordep::optimizer {

/// One scenario to design against, with an importance weight used when
/// combining penalty costs across scenarios.
struct ScenarioCase {
  std::string name;
  FailureScenario scenario;
  double weight = 1.0;
};

/// A candidate with its evaluation summary across all scenarios.
struct EvaluatedCandidate {
  CandidateSpec spec;
  std::string label;
  bool feasible = false;         ///< hardware fits and everything recovers
  bool meetsObjectives = false;  ///< RTO/RPO satisfied in every scenario
  Money outlays;                 ///< annual outlays (scenario-independent)
  Money weightedPenalties;       ///< sum of weight x penalties
  Money totalCost;               ///< outlays + weighted penalties
  Duration worstRecoveryTime;    ///< max across scenarios
  Duration worstDataLoss;        ///< max across scenarios
  std::string rejectionReason;   ///< set when infeasible / objective-missed
  /// Set when the candidate could not be evaluated at all (its build threw,
  /// or an evaluation failed past the retry budget). Errored candidates are
  /// never feasible and land in SearchResult::rejected.
  std::optional<engine::EvalError> error;
};

struct SearchResult {
  /// Feasible, objective-meeting candidates, cheapest first.
  std::vector<EvaluatedCandidate> ranked;
  /// Everything else, with reasons.
  std::vector<EvaluatedCandidate> rejected;
  int evaluated = 0;
  /// Candidates restored from a checkpoint journal instead of re-evaluated.
  int skipped = 0;
  /// Candidates whose evaluation errored (they appear in `rejected` with
  /// EvaluatedCandidate::error set).
  int failed = 0;
  /// True when the sweep stopped early (cancellation or deadline); ranked/
  /// rejected then cover only the candidates that completed — with a
  /// checkpoint journal, a later run resumes the rest.
  bool cancelled = false;
  /// Sweep wall time and throughput (evaluated + skipped per second);
  /// filled by every search path for the perf trajectory.
  double wallSeconds = 0.0;
  double candidatesPerSec = 0.0;

  [[nodiscard]] const EvaluatedCandidate* best() const noexcept {
    return ranked.empty() ? nullptr : &ranked.front();
  }
};

/// What the penalty component of a candidate's total cost measures.
enum class Objective {
  /// The paper's objective: scenario-weighted *worst-case* penalties from
  /// the analytic models. Deterministic and bit-identical to the serial
  /// reference.
  kWorstCase,
  /// Scenario-weighted *expected* penalties from the Monte-Carlo layer
  /// (stochastic::StochasticEvaluator, fixed seed, serial trials — still
  /// deterministic). Candidates where the simulation is inapplicable (e.g.
  /// cycles longer than the simulated horizon) fall back to their
  /// worst-case penalty, so rankings are always total.
  kExpectedPenalty,
};

/// Knobs for the fault-tolerant search overload (all default to "off").
struct SearchOptions {
  /// Engine to evaluate through (null = Engine::shared()).
  engine::Engine* eng = nullptr;
  /// Cooperative cancellation; polled per candidate.
  engine::CancellationToken token;
  /// Wall-clock budget for the whole sweep (0 = none); candidates not
  /// started before it elapses are left un-evaluated and the result is
  /// marked cancelled.
  std::chrono::milliseconds deadline{0};
  /// Bounded retries for transient evaluation failures (injected kEvaluate
  /// faults; see engine::retryTransient).
  int maxRetries = 2;
  std::chrono::milliseconds retryBackoff{1};
  /// Journal file for checkpoint/resume (empty = no journaling). A journal
  /// written by a previous run over the same workload/business/scenarios is
  /// resumed: journaled candidates are skipped, the final ranking is
  /// identical to an uninterrupted sweep.
  std::string checkpointPath;
  /// Journal flush cadence (records per flush).
  std::size_t checkpointEvery = 16;
  /// Streaming sweep only: candidates drained from the cursor per fan-out
  /// wave. Bounds peak memory at O(streamChunk) materialized candidates.
  std::size_t streamChunk = 1024;
  /// Streaming sweep only: called on the sweeping thread after every wave
  /// with the cumulative number of candidates dispatched (evaluated +
  /// resumed from checkpoint) so far. Lets a long sweep report progress
  /// (the service's /v1/search streams one chunk per callback). Must not
  /// throw; keep it cheap — it runs between waves, on the critical path.
  std::function<void(std::size_t done)> onProgress;
  /// Streaming sweep only: called on the sweeping thread after every wave
  /// with the candidates that wave finished (journal-restored ones
  /// included), before they are merged into the final ranking. The cluster
  /// sweep workers stream these back to the coordinator as NDJSON. Same
  /// contract as onProgress: cheap, non-throwing.
  std::function<void(const std::vector<EvaluatedCandidate>& wave)>
      onCandidates;
  /// Streaming sweep only: sleep inserted between waves (0 = none). Exists
  /// for tests and smoke scripts that must kill a node *mid*-sweep
  /// deterministically — pacing the waves keeps the sweep alive long enough
  /// to die at a controlled point.
  std::chrono::milliseconds waveDelay{0};
  /// Ranking objective. kWorstCase leaves every result bit-identical to the
  /// serial reference; kExpectedPenalty replaces the penalty term with the
  /// Monte-Carlo expectation. Checkpoint journals record the penalty totals,
  /// so do not share one journal file across objectives.
  Objective objective = Objective::kWorstCase;
  /// Monte-Carlo trials per (candidate, scenario) for kExpectedPenalty.
  int stochasticTrials = 512;
  /// Root seed for the expected-penalty sampler (same seed -> same ranking).
  std::uint64_t stochasticSeed = 1;
};

/// Evaluates one candidate against the scenario set through its compiled
/// plan. `eng` (null = the process-wide Engine::shared()) only supplies the
/// fault injector, if one is installed; no retries are attempted.
[[nodiscard]] EvaluatedCandidate evaluateCandidate(
    const CandidateSpec& spec, const WorkloadSpec& workload,
    const BusinessRequirements& business,
    const std::vector<ScenarioCase>& scenarios,
    engine::Engine* eng = nullptr);

/// Evaluates all candidates and ranks them. Candidates fan out across the
/// engine's thread pool; results are identical to the serial reference.
[[nodiscard]] SearchResult searchDesignSpace(
    const std::vector<CandidateSpec>& candidates, const WorkloadSpec& workload,
    const BusinessRequirements& business,
    const std::vector<ScenarioCase>& scenarios,
    engine::Engine* eng = nullptr);

/// The fault-tolerant sweep: per-candidate error isolation, cooperative
/// cancellation and deadline, transient-failure retries, and checkpoint/
/// resume through an append-only journal. With default options it produces
/// exactly the same result as the overload above.
[[nodiscard]] SearchResult searchDesignSpace(
    const std::vector<CandidateSpec>& candidates, const WorkloadSpec& workload,
    const BusinessRequirements& business,
    const std::vector<ScenarioCase>& scenarios, const SearchOptions& options);

/// Streaming sweep: drains `cursor` in SearchOptions::streamChunk-sized
/// waves, fanning each wave across the engine's pool, so a million-point
/// grid is searched in bounded memory (never materialized as a vector).
/// Composes with checkpoint/resume exactly like the vector overload, and
/// the result is identical to searchDesignSpace(enumerateDesignSpace(...)).
[[nodiscard]] SearchResult searchDesignSpaceStreaming(
    DesignSpaceCursor& cursor, const WorkloadSpec& workload,
    const BusinessRequirements& business,
    const std::vector<ScenarioCase>& scenarios,
    const SearchOptions& options = {});

/// The reference implementation: one thread, no plans, direct evaluate()
/// calls. Kept as the determinism baseline for tests and benchmarks.
[[nodiscard]] SearchResult searchDesignSpaceSerial(
    const std::vector<CandidateSpec>& candidates, const WorkloadSpec& workload,
    const BusinessRequirements& business,
    const std::vector<ScenarioCase>& scenarios);

/// Ranks already-evaluated candidates with the deterministic comparison
/// every search path shares (totalCost, then label) and fills the count
/// fields. The cluster sweep merges per-range worker results through this,
/// which is why an N-node sweep ranks bit-identically to one node: the
/// comparison is a total order over the union of the ranges. wallSeconds /
/// candidatesPerSec / skipped / cancelled are left for the caller.
[[nodiscard]] SearchResult rankEvaluated(
    std::vector<EvaluatedCandidate> evaluated);

/// The case study's scenario set (object, array, site), equally weighted.
[[nodiscard]] std::vector<ScenarioCase> caseStudyScenarios();

/// The Pareto-optimal subset of the feasible candidates over the three
/// axes a designer actually trades off — annual outlays, worst recovery
/// time, worst data loss. A candidate is dominated when another is at
/// least as good on all three axes and strictly better on one; penalties
/// are deliberately excluded so the frontier is independent of the penalty
/// rates (picking a point on it is where the rates come back in).
/// Returned sorted by outlays, cheapest first.
[[nodiscard]] std::vector<EvaluatedCandidate> paretoFrontier(
    const std::vector<EvaluatedCandidate>& candidates);

}  // namespace stordep::optimizer
