#include "report/report.hpp"

#include <array>
#include <cstdio>
#include <sstream>

#include "core/propagation.hpp"

namespace stordep::report {

std::string fixed(double value, int precision) {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), "%.*f", precision, value);
  return buf.data();
}

std::string percent(double fraction, int precision) {
  return fixed(fraction * 100.0, precision) + "%";
}

TextTable utilizationTable(const UtilizationResult& result) {
  TextTable table({"Device", "Technique", "Bandwidth", "Capacity"});
  table.align(2, Align::kRight).align(3, Align::kRight);
  bool first = true;
  for (const auto& dev : result.devices) {
    if (!first) table.addSeparator();
    first = false;
    for (const auto& share : dev.shares) {
      table.addRow({dev.device, share.technique, percent(share.bwUtil),
                    percent(share.capUtil)});
    }
    table.addRow({dev.device, "overall",
                  percent(dev.bwUtil) + " (" + toString(dev.bwDemand) + ")",
                  percent(dev.capUtil) + " (" + toString(dev.capDemand) + ")"});
  }
  return table;
}

std::string recoverySummaryLine(const FailureScenario& scenario,
                                const RecoveryResult& recovery) {
  std::ostringstream os;
  os << toString(scenario.scope) << ": source=";
  os << (recovery.sourceLevel >= 0 ? recovery.sourceName : "none");
  if (recovery.recoverable) {
    os << ", recovery time=" << toString(recovery.recoveryTime)
       << ", recent data loss=" << toString(recovery.dataLoss);
  } else {
    os << ", UNRECOVERABLE (entire data object lost)";
  }
  return os.str();
}

TextTable costTable(const CostResult& cost) {
  TextTable table({"Cost component", "Annual cost"});
  table.align(1, Align::kRight);
  for (const auto& outlay : cost.outlays) {
    table.addRow({"outlay: " + outlay.technique,
                  toString(outlay.total())});
  }
  table.addSeparator();
  table.addRow({"total outlays", toString(cost.totalOutlays)});
  table.addRow({"data outage penalty", toString(cost.outagePenalty)});
  table.addRow({"recent data loss penalty", toString(cost.lossPenalty)});
  table.addSeparator();
  table.addRow({"TOTAL", toString(cost.totalCost)});
  return table;
}

TextTable recoveryTimelineTable(const RecoveryResult& recovery) {
  TextTable table({"Step", "Via", "Start", "Ready", "parFix", "Transit",
                   "serFix", "Transfer", "Rate"});
  for (size_t c = 2; c < 9; ++c) table.align(c, Align::kRight);
  for (const auto& step : recovery.timeline) {
    table.addRow({step.description,
                  step.viaDevice.empty() ? "-" : step.viaDevice,
                  toString(step.startTime), toString(step.readyTime),
                  toString(step.parFix), toString(step.transit),
                  toString(step.serFix), toString(step.serXfer),
                  step.rate.bytesPerSec() > 0 ? toString(step.rate) : "-"});
  }
  return table;
}

TextTable rpRangeTable(const StorageDesign& design) {
  TextTable table({"Level", "Technique", "Transit", "Lag (youngest RP)",
                   "Oldest RP", "Guaranteed range"});
  for (int i = 0; i < design.levelCount(); ++i) {
    const RpRange range = guaranteedRange(design, i);
    // Appended, not `"[" + ...`: GCC 12 at -O3 reports a false -Wrestrict
    // overlap on a string literal prepended to a std::string temporary.
    std::string guaranteed = "(single floating RP)";
    if (!range.empty()) {
      guaranteed = "[";
      guaranteed.append(toString(range.youngestAge))
          .append(" .. ")
          .append(toString(range.oldestAge))
          .append("] ago");
    }
    table.addRow({std::to_string(i), design.level(i).name(),
                  toString(rpTransitTime(design, i)),
                  toString(range.youngestAge), toString(range.oldestAge),
                  guaranteed});
  }
  return table;
}

std::string fullReport(const StorageDesign& design,
                       const FailureScenario& scenario,
                       const EvaluationResult& result) {
  std::ostringstream os;
  os << "=== Design: " << design.name() << " ===\n";
  os << "Workload: " << design.workload().name() << " ("
     << toString(design.workload().dataCap()) << ", "
     << toString(design.workload().avgUpdateRate()) << " updates)\n";
  os << "Scenario: " << toString(scenario.scope);
  if (!scenario.target.empty()) os << " (" << scenario.target << ")";
  if (scenario.recoveryTargetAge > Duration::zero()) {
    os << ", restore to " << toString(scenario.recoveryTargetAge) << " ago";
  }
  os << "\n\n";

  os << "-- Normal-mode utilization --\n"
     << utilizationTable(result.utilization).render();
  os << "overall: bandwidth " << percent(result.utilization.overallBwUtil)
     << " (max: " << result.utilization.maxBwDevice << "), capacity "
     << percent(result.utilization.overallCapUtil)
     << " (max: " << result.utilization.maxCapDevice << ")\n\n";

  os << "-- Retrieval point ranges --\n" << rpRangeTable(design).render()
     << "\n";

  os << "-- Recovery --\n"
     << recoverySummaryLine(scenario, result.recovery) << "\n";
  if (!result.recovery.timeline.empty()) {
    os << recoveryTimelineTable(result.recovery).render();
  }
  for (const auto& note : result.recovery.notes) {
    os << "note: " << note << "\n";
  }
  os << "\n-- Costs --\n" << costTable(result.cost).render();

  if (!result.utilization.errors.empty()) {
    os << "\nERRORS:\n";
    for (const auto& e : result.utilization.errors) os << "  " << e << "\n";
  }
  if (!result.warnings.empty()) {
    os << "\nWarnings:\n";
    for (const auto& w : result.warnings) os << "  " << w << "\n";
  }
  return os.str();
}

std::string markdownReport(const StorageDesign& design,
                           const FailureScenario& scenario,
                           const EvaluationResult& result) {
  std::ostringstream os;
  os << "# Dependability report: " << design.name() << "\n\n";
  os << "*Workload:* " << design.workload().name() << " ("
     << toString(design.workload().dataCap()) << ", "
     << toString(design.workload().avgUpdateRate()) << " updates). "
     << "*Scenario:* " << toString(scenario.scope);
  if (!scenario.target.empty()) os << " (`" << scenario.target << "`)";
  if (scenario.recoveryTargetAge > Duration::zero()) {
    os << ", restore to " << toString(scenario.recoveryTargetAge) << " ago";
  }
  os << ".\n\n";

  os << "## Summary\n\n";
  if (result.recovery.recoverable) {
    os << "| Metric | Value |\n| --- | ---: |\n";
    os << "| Recovery source | " << result.recovery.sourceName << " |\n";
    os << "| Worst-case recovery time | "
       << toString(result.recovery.recoveryTime) << " |\n";
    os << "| Worst-case recent data loss | "
       << toString(result.recovery.dataLoss) << " |\n";
    os << "| Annual outlays | " << toString(result.cost.totalOutlays)
       << " |\n";
    os << "| Scenario penalties | " << toString(result.cost.totalPenalties)
       << " |\n";
    os << "| Total cost | " << toString(result.cost.totalCost) << " |\n";
    os << "| Meets RTO/RPO | " << (result.meetsObjectives ? "yes" : "**NO**")
       << " |\n\n";
  } else {
    os << "**UNRECOVERABLE** — no surviving level retains an RP for the "
          "recovery target.\n\n";
  }

  os << "## Normal-mode utilization\n\n"
     << utilizationTable(result.utilization).renderMarkdown() << "\n";
  os << "## Retrieval point ranges\n\n"
     << rpRangeTable(design).renderMarkdown() << "\n";
  if (!result.recovery.timeline.empty()) {
    os << "## Recovery timeline\n\n"
       << recoveryTimelineTable(result.recovery).renderMarkdown() << "\n";
  }
  for (const auto& note : result.recovery.notes) {
    os << "> " << note << "\n";
  }
  os << "\n## Costs\n\n" << costTable(result.cost).renderMarkdown();
  if (!result.warnings.empty()) {
    os << "\n## Warnings\n\n";
    for (const auto& warning : result.warnings) {
      os << "* " << warning << "\n";
    }
  }
  return os.str();
}

}  // namespace stordep::report
