#include "optimizer/refine.hpp"

namespace stordep::optimizer {

std::vector<CandidateSpec> neighbors(const CandidateSpec& spec,
                                     const RefineOptions& options) {
  std::vector<CandidateSpec> out;
  // Upper bound on the neighborhood: window-factor moves on up to three
  // axes plus the retention and link-count tweaks.
  out.reserve(3 * options.windowFactors.size() + 5);
  auto push = [&](CandidateSpec next) {
    if (next.valid()) out.push_back(std::move(next));
  };

  if (spec.pit != PitChoice::kNone) {
    for (const double f : options.windowFactors) {
      CandidateSpec next = spec;
      next.pitAccW = spec.pitAccW * f;
      push(std::move(next));
    }
    for (const int delta : {-1, +1}) {
      CandidateSpec next = spec;
      next.pitRetentionCount = spec.pitRetentionCount + delta;
      push(std::move(next));
    }
    {
      CandidateSpec next = spec;
      next.pitRetentionCount = spec.pitRetentionCount * 2;
      push(std::move(next));
    }
  }
  if (spec.backup != BackupChoice::kNone) {
    for (const double f : options.windowFactors) {
      CandidateSpec next = spec;
      next.backupAccW = spec.backupAccW * f;
      push(std::move(next));
    }
  }
  if (spec.vault) {
    for (const double f : options.windowFactors) {
      CandidateSpec next = spec;
      next.vaultAccW = spec.vaultAccW * f;
      push(std::move(next));
    }
  }
  if (spec.mirror != MirrorChoice::kNone) {
    for (const int delta : {-1, +1}) {
      CandidateSpec next = spec;
      next.mirrorLinkCount = spec.mirrorLinkCount + delta;
      push(std::move(next));
    }
  }
  return out;
}

RefineResult refineCandidate(const CandidateSpec& start,
                             const WorkloadSpec& workload,
                             const BusinessRequirements& business,
                             const std::vector<ScenarioCase>& scenarios,
                             const RefineOptions& options,
                             engine::Engine* eng) {
  engine::Engine& resolved = eng != nullptr ? *eng : engine::Engine::shared();

  RefineResult result;
  result.best =
      evaluateCandidate(start, workload, business, scenarios, &resolved);
  ++result.evaluations;
  const Money startCost = result.best.totalCost;
  if (!result.best.feasible) {
    result.improvement = Money::zero();
    return result;
  }

  const bool cancellable = options.token.cancellable();
  for (int step = 0; step < options.maxSteps; ++step) {
    // Poll between steps: the climb stops cleanly at the last accepted
    // move instead of abandoning a half-evaluated neighborhood.
    if (cancellable && options.token.cancelled()) {
      result.cancelled = true;
      break;
    }
    const std::vector<CandidateSpec> moves =
        neighbors(result.best.spec, options);
    // Evaluate the whole neighborhood in parallel, then pick the accepted
    // move serially in neighbor order (first-wins on cost ties), exactly
    // like the serial climb.
    std::vector<EvaluatedCandidate> evaluated(moves.size());
    resolved.parallelFor(moves.size(), [&](std::size_t i) {
      evaluated[i] = evaluateCandidate(moves[i], workload, business,
                                       scenarios, &resolved);
    });
    result.evaluations += static_cast<int>(moves.size());

    std::size_t accepted = evaluated.size();
    for (std::size_t i = 0; i < evaluated.size(); ++i) {
      const EvaluatedCandidate& candidate = evaluated[i];
      if (!candidate.feasible || !candidate.meetsObjectives) continue;
      if (candidate.totalCost < result.best.totalCost &&
          (accepted == evaluated.size() ||
           candidate.totalCost < evaluated[accepted].totalCost)) {
        accepted = i;
      }
    }
    if (accepted == evaluated.size()) break;  // local optimum
    result.best = std::move(evaluated[accepted]);
    ++result.steps;
  }
  result.improvement = startCost - result.best.totalCost;
  return result;
}

}  // namespace stordep::optimizer
