// design_advisor — automated dependable-storage design (paper Sec 1's
// "inner-most loop of an automated optimization loop", and [13]).
//
// Enumerates a space of candidate designs (PiT technique x backup policy x
// vaulting x mirroring over the case-study hardware catalog), evaluates
// every candidate under the object/array/site failure scenarios, filters by
// the requested RTO/RPO, and prints the cheapest feasible designs.
//
//   $ ./design_advisor                  # unconstrained: rank by total cost
//   $ ./design_advisor 48 12            # RTO 48 h, RPO 12 h
//
// Long sweeps can be bounded and made restartable:
//   --deadline=SECONDS    stop handing out candidates once the wall-clock
//                         budget elapses (the partial ranking is printed)
//   --checkpoint=PATH     journal completed candidates to PATH; re-running
//                         with the same arguments resumes where it stopped
//                         and produces the exact uninterrupted ranking
//   --retries=N           retry transient evaluation failures up to N times
//
// Note that the scenario set includes a 24-hour-rollback object failure, so
// very tight RPOs (e.g. 1 h) are unsatisfiable by construction: a level that
// retains a day-old version cannot also be one hour fresh unless it keeps
// sub-hour RPs for a day — outside the default grid. The advisor then lists
// the nearest misses and why they were rejected.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "casestudy/casestudy.hpp"
#include "optimizer/refine.hpp"
#include "optimizer/search.hpp"
#include "report/report.hpp"

namespace {

/// "$<millions, 2 decimals>M". Appended: GCC 12 at -O3 reports a false
/// -Wrestrict overlap on `"$" + std::string`.
std::string millions(stordep::Money amount) {
  std::string out = "$";
  return out.append(stordep::report::fixed(amount.millionUsd(), 2))
      .append("M");
}

}  // namespace

int main(int argc, char** argv) {
  namespace cs = stordep::casestudy;
  namespace opt = stordep::optimizer;
  using stordep::report::Align;
  using stordep::report::TextTable;
  using stordep::report::fixed;

  stordep::BusinessRequirements business = cs::requirements();
  opt::SearchOptions searchOptions;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--checkpoint=", 0) == 0) {
      searchOptions.checkpointPath = arg.substr(13);
    } else if (arg.rfind("--deadline=", 0) == 0) {
      searchOptions.deadline = std::chrono::milliseconds(
          static_cast<long long>(std::atof(arg.c_str() + 11) * 1000.0));
    } else if (arg.rfind("--retries=", 0) == 0) {
      searchOptions.maxRetries = std::atoi(arg.c_str() + 10);
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown option " << arg << "\n";
      return 2;
    } else if (positional == 0) {
      business.rto = stordep::hours(std::atof(arg.c_str()));
      ++positional;
    } else {
      business.rpo = stordep::hours(std::atof(arg.c_str()));
      ++positional;
    }
  }

  std::cout << "Designing for: cello workload (1.33 TB), penalties $50k/hr";
  if (business.rto) {
    std::cout << ", RTO " << toString(*business.rto);
  }
  if (business.rpo) {
    std::cout << ", RPO " << toString(*business.rpo);
  }
  std::cout << "\n\n";

  const auto candidates = opt::enumerateDesignSpace();
  const opt::SearchResult result =
      opt::searchDesignSpace(candidates, cs::celloWorkload(), business,
                             opt::caseStudyScenarios(), searchOptions);

  std::cout << "evaluated " << result.evaluated << " candidate designs ("
            << result.ranked.size() << " feasible and objective-meeting, "
            << result.rejected.size() << " rejected)\n";
  if (result.skipped > 0) {
    std::cout << "resumed " << result.skipped
              << " candidates from checkpoint "
              << searchOptions.checkpointPath << "\n";
  }
  if (result.failed > 0) {
    // Break the failures down by the engine's error taxonomy so a partial
    // sweep says *what* went wrong, not just how much.
    std::map<std::string, int> byCode;
    for (const auto& candidate : result.rejected) {
      if (candidate.error) {
        ++byCode[std::string(stordep::engine::toString(candidate.error->code))];
      }
    }
    std::cout << result.failed << " candidates failed to evaluate (";
    bool first = true;
    for (const auto& [code, count] : byCode) {
      if (!first) std::cout << ", ";
      std::cout << count << " " << code;
      first = false;
    }
    std::cout << ")\n";
  }
  if (result.cancelled) {
    std::cout << "sweep stopped at the deadline with "
              << (candidates.size() - static_cast<size_t>(result.evaluated))
              << " candidates un-evaluated";
    if (!searchOptions.checkpointPath.empty()) {
      std::cout << "; re-run with the same arguments to resume";
    }
    std::cout << "\n";
  }
  std::cout << "\n";

  TextTable table({"#", "Design", "Outlays/yr", "Worst RT", "Worst DL",
                   "Total cost"});
  table.align(2, Align::kRight).align(3, Align::kRight)
      .align(4, Align::kRight).align(5, Align::kRight);
  table.title("Top designs by total annual cost (outlays + penalties over "
              "the scenario set)");
  const size_t top = std::min<size_t>(10, result.ranked.size());
  for (size_t i = 0; i < top; ++i) {
    const auto& c = result.ranked[i];
    table.addRow({std::to_string(i + 1), c.label,
                  millions(c.outlays), toString(c.worstRecoveryTime),
                  toString(c.worstDataLoss), millions(c.totalCost)});
  }
  std::cout << table.render() << "\n";

  // The Pareto frontier: the designs worth considering regardless of how
  // the business prices outage vs loss vs budget.
  std::vector<opt::EvaluatedCandidate> all = result.ranked;
  all.insert(all.end(), result.rejected.begin(), result.rejected.end());
  const auto frontier = opt::paretoFrontier(all);
  TextTable pareto({"Design", "Outlays/yr", "Worst RT", "Worst DL"});
  pareto.align(1, Align::kRight).align(2, Align::kRight)
      .align(3, Align::kRight);
  pareto.title("Pareto frontier over (outlays, worst RT, worst DL) — " +
               std::to_string(frontier.size()) + " of " +
               std::to_string(result.evaluated) + " candidates");
  for (size_t i = 0; i < std::min<size_t>(8, frontier.size()); ++i) {
    const auto& c = frontier[i];
    pareto.addRow({c.label, millions(c.outlays), toString(c.worstRecoveryTime),
                   toString(c.worstDataLoss)});
  }
  std::cout << pareto.render() << "\n";

  if (const auto* best = result.best()) {
    // Hill-climb the grid winner's knobs off-grid.
    const opt::RefineResult refined = opt::refineCandidate(
        best->spec, cs::celloWorkload(), business, opt::caseStudyScenarios());
    std::cout << "Recommendation: " << refined.best.label << "\n";
    if (refined.improvement.usd() > 1.0) {
      std::cout << "  (refined from '" << best->label << "', saving "
                << toString(refined.improvement) << "/yr in " << refined.steps
                << " hill-climbing steps, " << refined.evaluations
                << " evaluations)\n";
    }
  } else {
    std::cout << "No design in the space meets the objectives; the nearest "
                 "misses were:\n";
    for (size_t i = 0; i < std::min<size_t>(5, result.rejected.size()); ++i) {
      std::cout << "  " << result.rejected[i].label << " — "
                << result.rejected[i].rejectionReason << "\n";
    }
  }
  // A sweep with errored candidates produced a ranking over an incomplete
  // space: exit non-zero so scripted callers notice the partial failure.
  return result.failed > 0 ? 1 : 0;
}
