// stordep_perfbench — one benchmark run of the four stordep user paths.
//
//   stordep_perfbench --workload hot|cold --seed N --seconds S --trace 0|1
//                     [--out-dir DIR] [--git-rev REV]
//
// A run measures the big-grid design-space sweep, the Monte-Carlo runs, and
// the served and clustered /v1/evaluate paths in interleaved rounds, then
// the served rate ladder; the workload picks the served request mix (hot:
// 90% repeated payloads, cold: only distinct ones). With --trace 0 it prints
// the end-to-end metrics; with --trace 1 it runs the traced variants
// instead, prints the per-layer metrics, and writes every span to
// DIR/trace-<workload>-<seed>.csv.
//
// Output: detail lines, then one JSON line
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// Exit code 0 when the run completed, whether or not every check passed
// (the JSON says which); 2 on bad arguments or an unexpected exception.
#include <algorithm>
#include <iostream>
#include <string>
#include <thread>

#include "common.hpp"
#include "phases.hpp"
#include "trace.hpp"

namespace {

using perfbench::Report;
using perfbench::RunConfig;
using stordep::config::Json;
using stordep::config::JsonObject;

int usage(const char* message) {
  std::cerr << "stordep_perfbench: " << message
            << "\nusage: stordep_perfbench --workload hot|cold --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--git-rev REV]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string gitRev = "unknown";
  bool haveWorkload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
      const std::string value = argv[++i];
      if (flag == "--workload") {
        if (value != "hot" && value != "cold") {
          return usage("workload must be hot or cold");
        }
        config.workload = value;
        config.mix = value == "hot" ? perfbench::Mix::kHot
                                    : perfbench::Mix::kCold;
        haveWorkload = true;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        config.trace = value == "1";
      } else if (flag == "--out-dir") {
        config.outDir = value;
      } else if (flag == "--git-rev") {
        gitRev = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!haveWorkload) return usage("--workload is required");
  if (config.seconds <= 0) return usage("--seconds must be positive");

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  config.threads = static_cast<int>(std::min(4u, nproc));

  Json host{JsonObject{}};
  host.set("nproc", Json(static_cast<int>(nproc)));
  host.set("threads", Json(config.threads));
  host.set("compiler", Json(PERFBENCH_COMPILER));
  host.set("build_type", Json(PERFBENCH_BUILD_TYPE));
  host.set("git_rev", Json(gitRev));
  host.set("workload", Json(config.workload));
  host.set("seed", Json(static_cast<double>(config.seed)));
  host.set("seconds", Json(config.seconds));
  host.set("trace", Json(config.trace));
  std::cout << "host " << host.dump() << std::endl;

  Report report;
  const std::string runId =
      config.workload + "-" + std::to_string(config.seed);
  perfbench::Tracer tracer(config.trace, runId);
  try {
    perfbench::SweepPhase sweep(config, report);
    perfbench::MonteCarloPhase montecarlo(config, report);
    perfbench::ServedPhase served(config, report);
    if (!config.trace) {
      // Rounds interleave the paths, so a host stall lands in one round of
      // one path; each metric is a median over rounds.
      int rounds = 0;
      perfbench::repeatFor(0.75 * config.seconds, 5, 1000, [&](int) {
        sweep.round();
        montecarlo.round();
        served.round();
        ++rounds;
      });
      report.fact("rounds", Json(rounds));
      sweep.finish();
      montecarlo.finish();
      served.finish();
      served.ladder();
    } else {
      sweep.traced(tracer);
      montecarlo.traced(tracer);
      served.traced(tracer);
    }
  } catch (const std::exception& e) {
    std::cerr << "stordep_perfbench: run aborted: " << e.what() << "\n";
    return 2;
  }
  if (config.trace) {
    Json layers{JsonObject{}};
    for (const auto& [layer, seconds] : tracer.selfSecondsByLayer()) {
      layers.set(layer, Json(seconds));
    }
    report.fact("self_seconds_by_layer", layers);
    const std::string path = config.outDir + "/trace-" + runId + ".csv";
    if (tracer.write(path)) {
      report.fact("trace_file", Json(path));
      report.fact("spans", Json(static_cast<double>(tracer.spanCount())));
    } else {
      report.checkFailed("cannot write " + path);
    }
  }

  std::cout << "facts " << report.facts().dump() << "\n";
  Json metrics{JsonObject{}};
  for (const auto& [name, entry] : report.metrics()) metrics.set(name, entry);
  Json result{JsonObject{}};
  result.set("correct", Json(report.correct()));
  result.set("attempted", Json(static_cast<std::int64_t>(report.attempted())));
  result.set("failed", Json(static_cast<std::int64_t>(report.failed())));
  result.set("metrics", metrics);
  std::cout << result.dump() << std::endl;
  return 0;
}
