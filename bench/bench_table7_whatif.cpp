// bench_table7_whatif — regenerates paper Table 7.
//
// "Recovery time (RT), recent data loss (DL) and cost results for what-if
// scenarios": all seven designs x {array failure, site disaster}, with the
// paper's published values interleaved for comparison, plus a CSV export
// for downstream plotting.
#include <iostream>

#include "casestudy/casestudy.hpp"
#include "report/csv.hpp"
#include "report/report.hpp"

namespace {

struct PaperRow {
  const char* label;
  double outlaysM;
  double arrayRt, arrayDl, arrayTotalM;
  double siteRt, siteDl, siteTotalM;
};

// Published Table 7 (site totals for the tape rows recomputed from the
// paper's own RT/DL at $50k/hr; see EXPERIMENTS.md on the paper's
// arithmetic inconsistency in the baseline site row).
constexpr PaperRow kPaper[] = {
    {"Baseline", 0.97, 2.4, 217, 11.94, 26.4, 1429, 73.74},
    {"Weekly vault", 0.99, 2.4, 217, 11.96, 26.4, 253, 14.96},
    {"Weekly vault, F+I", 0.99, 4.0, 73, 4.84, 26.4, 253, 14.96},
    {"Weekly vault, daily F", 1.01, 2.4, 37, 2.98, 26.4, 217, 13.18},
    {"Weekly vault, daily F, snapshot", 0.76, 2.4, 37, 2.73, 26.4, 217,
     12.93},
    {"AsyncB mirror, 1 link", 0.93, 21.7, 0.03, 2.01, 21.7, 0.03, 2.01},
    {"AsyncB mirror, 10 links", 5.03, 2.8, 0.03, 5.18, 9.8, 0.03, 5.52},
};

std::string m(double millions) {
  // Appended: GCC 12 at -O3 reports a false -Wrestrict on `"$" + string`.
  std::string out = "$";
  return out.append(stordep::report::fixed(millions, 2)).append("M");
}

std::string h(stordep::Duration d) {
  return stordep::report::fixed(d.hrs(), d.hrs() < 1 ? 2 : 1);
}

}  // namespace

int main() {
  namespace cs = stordep::casestudy;
  using stordep::report::Align;
  using stordep::report::CsvWriter;
  using stordep::report::TextTable;
  using stordep::report::fixed;

  const auto designs = cs::allWhatIfDesigns();

  TextTable table({"Design", "Outlays", "ArrRT hr", "ArrDL hr", "ArrTotal",
                   "SiteRT hr", "SiteDL hr", "SiteTotal"});
  for (size_t c = 1; c < 8; ++c) table.align(c, Align::kRight);
  table.title(
      "Table 7: what-if scenario results — model rows above paper rows");

  CsvWriter csv({"design", "source", "outlays_musd", "array_rt_hr",
                 "array_dl_hr", "array_total_musd", "site_rt_hr",
                 "site_dl_hr", "site_total_musd"});

  for (size_t i = 0; i < designs.size(); ++i) {
    const auto& [label, design] = designs[i];
    const auto array = evaluate(design, cs::arrayFailure());
    const auto site = evaluate(design, cs::siteDisaster());
    const PaperRow& paper = kPaper[i];

    table.addRow({label + " (model)",
                  m(array.cost.totalOutlays.millionUsd()),
                  h(array.recovery.recoveryTime), h(array.recovery.dataLoss),
                  m(array.cost.totalCost.millionUsd()),
                  h(site.recovery.recoveryTime), h(site.recovery.dataLoss),
                  m(site.cost.totalCost.millionUsd())});
    table.addRow({"         (paper)", m(paper.outlaysM),
                  fixed(paper.arrayRt, 1), fixed(paper.arrayDl, 1),
                  m(paper.arrayTotalM), fixed(paper.siteRt, 1),
                  fixed(paper.siteDl, 1), m(paper.siteTotalM)});
    if (i + 1 < designs.size()) table.addSeparator();

    csv.addRow({label, "model",
                fixed(array.cost.totalOutlays.millionUsd(), 3),
                fixed(array.recovery.recoveryTime.hrs(), 3),
                fixed(array.recovery.dataLoss.hrs(), 3),
                fixed(array.cost.totalCost.millionUsd(), 3),
                fixed(site.recovery.recoveryTime.hrs(), 3),
                fixed(site.recovery.dataLoss.hrs(), 3),
                fixed(site.cost.totalCost.millionUsd(), 3)});
    csv.addRow({label, "paper", fixed(paper.outlaysM, 3),
                fixed(paper.arrayRt, 3), fixed(paper.arrayDl, 3),
                fixed(paper.arrayTotalM, 3), fixed(paper.siteRt, 3),
                fixed(paper.siteDl, 3), fixed(paper.siteTotalM, 3)});
  }
  std::cout << table.render();

  const std::string csvPath = "table7_whatif.csv";
  csv.writeFile(csvPath);
  std::cout << "\nCSV written to " << csvPath << "\n";

  // The orderings the paper draws conclusions from must hold exactly.
  auto total = [&](size_t i, const stordep::FailureScenario& s) {
    return evaluate(designs[i].second, s).cost.totalCost.usd();
  };
  const auto site = cs::siteDisaster();
  const auto array = cs::arrayFailure();
  const bool ordering =
      total(1, site) < total(0, site) &&        // weekly vault helps sites
      total(2, array) < total(1, array) &&      // F+I helps arrays
      total(3, array) < total(2, array) &&      // daily fulls help more
      total(4, array) < total(3, array) &&      // snapshots shave outlays
      total(5, array) < total(6, array) &&      // 1 link cheaper than 10
      total(5, array) < total(4, array);        // mirror cheapest overall
  std::cout << "paper orderings reproduced: " << (ordering ? "yes" : "NO")
            << "\n";
  return ordering ? 0 : 1;
}
