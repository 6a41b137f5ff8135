// sweep.cpp — the design-space sweep phase.
//
// The big grid (14,883 points, 11,890 valid candidates) under the case
// study's three scenarios, through searchDesignSpaceStreaming: serial on a
// fresh engine, again on the same engine (the re-sweep), and on a fresh
// min(4, nproc)-thread engine. Every ranking's digest must equal the
// searchDesignSpaceSerial reference, computed once per run outside the
// timed passes.
//
// A one-thread engine runs the sweep on the calling thread, so the gated
// serial rates divide candidates by that thread's CPU time, scaled to the
// reference host speed (reference.hpp): on a shared host the wall time of
// the same pass moves with the neighbours' load (it is printed too,
// ungated), the scaled CPU time far less.
//
// The traced run drives a replica of the plan-routed candidate path
// serially through the public stage calls (DesignSpaceCursor::next,
// CandidateSpec::build, EvalPlan::compile, EvalPlan::evaluate,
// rankEvaluated) so each stage gets its own span; the replica's ranking is
// checked against the same reference.
#include <map>
#include <optional>

#include "casestudy/casestudy.hpp"
#include "engine/batch.hpp"
#include "engine/fingerprint.hpp"
#include "engine/plan.hpp"
#include "phases.hpp"
#include "reference.hpp"

namespace perfbench {

namespace {

namespace cs = stordep::casestudy;
namespace eng = stordep::engine;
namespace opt = stordep::optimizer;
using stordep::config::Json;

struct SweepInputs {
  opt::DesignSpaceOptions grid = bigGridOptions();
  stordep::WorkloadSpec workload = cs::celloWorkload();
  stordep::BusinessRequirements business = cs::requirements();
  std::vector<opt::ScenarioCase> scenarios = opt::caseStudyScenarios();
};

opt::SearchResult streamingSweep(const SweepInputs& in, eng::Engine& engine) {
  opt::DesignSpaceCursor cursor(in.grid);
  opt::SearchOptions options;
  options.eng = &engine;
  options.maxRetries = 0;
  return opt::searchDesignSpaceStreaming(cursor, in.workload, in.business,
                                         in.scenarios, options);
}

/// The plan-routed candidate path (what searchDesignSpaceStreaming runs per
/// candidate on a one-thread engine), one span per stage call.
opt::SearchResult replicaSweep(const SweepInputs& in, Tracer& tracer) {
  auto root = tracer.span("optimizer.sweep");
  opt::DesignSpaceCursor cursor(in.grid);
  std::vector<opt::EvaluatedCandidate> evaluated;
  opt::CandidateSpec spec;
  eng::BumpArena& arena = eng::Engine::threadArena();
  for (;;) {
    bool more = false;
    {
      auto stage = tracer.span("optimizer.enumerate");
      more = cursor.next(spec);
    }
    if (!more) break;
    auto candidate = tracer.span("optimizer.candidate");
    opt::EvaluatedCandidate out;
    out.spec = spec;
    out.feasible = true;
    out.meetsObjectives = true;
    try {
      std::optional<stordep::StorageDesign> design;
      {
        auto stage = tracer.span("optimizer.build");
        out.label = spec.label();
        design.emplace(spec.build(in.workload, in.business));
      }
      std::shared_ptr<const eng::EvalPlan> plan;
      {
        auto stage = tracer.span("engine.compile");
        plan = eng::EvalPlan::compile(*design);
      }
      if (plan == nullptr) {
        throw std::runtime_error("big-grid candidate is not plannable: " +
                                 out.label);
      }
      bool outlaysRecorded = false;
      for (const opt::ScenarioCase& sc : in.scenarios) {
        if (!plan->utilizationFeasible()) {
          out.feasible = false;
          out.rejectionReason = "over-utilized: " + plan->utilizationError();
          break;
        }
        std::optional<stordep::EvaluationMetrics> m;
        {
          auto stage = tracer.span("engine.evaluate");
          m.emplace(plan->evaluate(sc.scenario, arena));
        }
        if (!m->recoverable) {
          out.feasible = false;
          out.rejectionReason =
              "unrecoverable under scenario '" + sc.name + "'";
          break;
        }
        if (!m->meetsObjectives) {
          out.meetsObjectives = false;
          out.rejectionReason =
              "misses RTO/RPO under scenario '" + sc.name + "'";
        }
        if (!outlaysRecorded) {
          out.outlays = m->totalOutlays;
          outlaysRecorded = true;
        }
        out.weightedPenalties += m->totalPenalties * sc.weight;
        out.worstRecoveryTime = std::max(out.worstRecoveryTime, m->recoveryTime);
        out.worstDataLoss = std::max(out.worstDataLoss, m->dataLoss);
      }
    } catch (...) {
      out.error = eng::errorFromCurrentException();
    }
    if (out.error) {
      out.feasible = false;
      out.rejectionReason = "evaluation failed: " + out.error->describe();
    }
    out.totalCost = out.outlays + out.weightedPenalties;
    evaluated.push_back(std::move(out));
  }
  auto stage = tracer.span("optimizer.rank");
  return opt::rankEvaluated(std::move(evaluated));
}

}  // namespace

struct SweepPhase::State {
  State(const RunConfig& c, Report& r) : config(c), report(r) {}

  const RunConfig& config;
  Report& report;
  SweepInputs in;
  std::uint64_t want = 0;  ///< digest of the reference ranking
  /// Candidates per CPU-second of the serial passes, scaled to the
  /// reference host speed, and per wall second.
  std::vector<double> serialRates, serialWallRates;
  std::vector<double> resweepRates, resweepWallRates;
  std::vector<double> slowdowns;
  std::vector<double> parallelRates;

  void verify(const opt::SearchResult& result, const char* what) {
    if (rankingDigest(result) != want || result.failed != 0 ||
        result.cancelled) {
      report.checkFailed(std::string(what) +
                         " ranking differs from searchDesignSpaceSerial");
    } else {
      report.ops(1);
    }
  }

  opt::SearchResult timed(eng::Engine& engine, double& seconds) const {
    double cpuSeconds = 0.0;
    return timed(engine, seconds, cpuSeconds);
  }
  /// Wall seconds, and CPU seconds of the calling thread.
  opt::SearchResult timed(eng::Engine& engine, double& seconds,
                          double& cpuSeconds) const {
    const auto start = Clock::now();
    const double cpuStart = threadCpuSeconds();
    opt::SearchResult result = streamingSweep(in, engine);
    cpuSeconds = threadCpuSeconds() - cpuStart;
    seconds = secondsSince(start);
    return result;
  }

  /// One serial pass on `engine`, its rates appended and its ranking
  /// checked.
  void serialPass(eng::Engine& engine, std::vector<double>& cpuRates,
                  std::vector<double>& wallRates, const char* what) {
    std::optional<opt::SearchResult> result;
    double seconds = 0.0;
    double cpuSeconds = 0.0;
    const double slowdown = slowdownAround(
        [&] { result.emplace(timed(engine, seconds, cpuSeconds)); });
    const auto evaluated = static_cast<double>(result->evaluated);
    cpuRates.push_back(evaluated / cpuSeconds * slowdown);
    wallRates.push_back(evaluated / seconds);
    slowdowns.push_back(slowdown);
    verify(*result, what);
  }
};

SweepPhase::SweepPhase(const RunConfig& config, Report& report)
    : state_(std::make_unique<State>(config, report)) {
  State& st = *state_;
  // Reference ranking, untimed: the materialized grid through the serial
  // legacy search.
  const std::vector<opt::CandidateSpec> grid =
      opt::enumerateDesignSpace(st.in.grid);
  if (grid.size() != kBigGridCandidates ||
      opt::gridCardinality(st.in.grid) != kBigGridPoints) {
    report.checkFailed("big grid has " + std::to_string(grid.size()) +
                       " candidates in " +
                       std::to_string(opt::gridCardinality(st.in.grid)) +
                       " points");
  }
  const opt::SearchResult reference = opt::searchDesignSpaceSerial(
      grid, st.in.workload, st.in.business, st.in.scenarios);
  st.want = rankingDigest(reference);
  report.ops(1, reference.failed > 0 ? 1 : 0);

  // Warm-up: thread start-up and first-touch costs make the first
  // parallel passes of a process up to 3x slower, so one pass of each kind
  // is discarded.
  eng::Engine serial(eng::EngineOptions{.threads = 1});
  st.verify(streamingSweep(st.in, serial), "warm-up serial sweep");
  eng::Engine parallel(eng::EngineOptions{.threads = config.threads});
  st.verify(streamingSweep(st.in, parallel), "warm-up parallel sweep");
}

SweepPhase::~SweepPhase() = default;

void SweepPhase::round() {
  State& st = *state_;
  {
    eng::Engine engine(eng::EngineOptions{.threads = 1});
    st.serialPass(engine, st.serialRates, st.serialWallRates, "serial sweep");
    st.serialPass(engine, st.resweepRates, st.resweepWallRates, "re-sweep");
  }
  eng::Engine engine(eng::EngineOptions{.threads = st.config.threads});
  double seconds = 0.0;
  const opt::SearchResult cold = st.timed(engine, seconds);
  st.parallelRates.push_back(static_cast<double>(cold.evaluated) / seconds);
  st.verify(cold, "parallel sweep");
}

void SweepPhase::finish() {
  State& st = *state_;
  st.report.metric("sweep_cand_per_cpu_s", median(st.serialRates),
                   "cand/cpu-s");
  st.report.metric("sweep_resweep_cand_per_cpu_s", median(st.resweepRates),
                   "cand/cpu-s");
  st.report.ungated("sweep_cand_per_s", median(st.serialWallRates), "cand/s");
  st.report.ungated("sweep_resweep_cand_per_s", median(st.resweepWallRates),
                    "cand/s");
  st.report.ungated("sweep_par_cand_per_s", median(st.parallelRates),
                    "cand/s");
  st.report.fact("sweep_cand_per_cpu_s_by_round", jsonList(st.serialRates));
  st.report.fact("sweep_slowdowns", jsonList(st.slowdowns));
  st.report.fact("sweep_cand_per_s_by_round", jsonList(st.serialWallRates));
}

void SweepPhase::traced(Tracer& tracer) {
  State& st = *state_;
  const RunConfig& config = st.config;
  Report& report = st.report;
  const SweepInputs& in = st.in;
  const auto verify = [&](const opt::SearchResult& result, const char* what) {
    st.verify(result, what);
  };
  const auto timed = [&](eng::Engine& engine, double& seconds) {
    return st.timed(engine, seconds);
  };

  // The stages a plan-routed candidate spends its time in, summed. The
  // fold is a candidate's self time: whatever it does outside the named
  // stages.
  const auto foldSeconds = [](const std::map<std::string, Tracer::NameStats>& s) {
    const auto it = s.find("optimizer.candidate");
    return it == s.end() ? 0.0 : it->second.selfSeconds;
  };
  const auto stageSeconds = [&](const std::map<std::string, Tracer::NameStats>& s) {
    const auto total = [&](const char* name) {
      const auto it = s.find(name);
      return it == s.end() ? 0.0 : it->second.totalSeconds;
    };
    return total("optimizer.enumerate") + total("optimizer.build") +
           total("engine.compile") + total("engine.evaluate") +
           foldSeconds(s) + total("optimizer.rank");
  };

  // Each traced replica runs right after an untraced serial sweep and is
  // compared with that one, so a host slowdown between the two moments does
  // not read as a coverage gap; the metrics are medians of three.
  Tracer untraced(false, "");
  std::vector<double> serialWalls;
  std::vector<double> replicaWalls;
  std::vector<double> tracedWalls;
  std::vector<double> parallelWalls;
  std::vector<double> coverage;
  std::vector<double> foldShare;
  double stagesBefore = 0.0;
  double foldBefore = 0.0;
  double hitRatio = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    double seconds = 0.0;
    eng::Engine parallel(eng::EngineOptions{.threads = config.threads});
    verify(timed(parallel, seconds), "parallel sweep");
    parallelWalls.push_back(seconds);
    auto start = Clock::now();
    verify(replicaSweep(in, untraced), "untraced replica");
    replicaWalls.push_back(secondsSince(start));

    eng::Engine engine(eng::EngineOptions{.threads = 1});
    verify(timed(engine, seconds), "serial sweep");
    serialWalls.push_back(seconds);
    start = Clock::now();
    verify(replicaSweep(in, tracer), "traced replica");
    tracedWalls.push_back(secondsSince(start));
    const auto stats = tracer.summarize();
    const double stages = stageSeconds(stats);
    const double fold = foldSeconds(stats);
    coverage.push_back((stages - stagesBefore) / seconds);
    foldShare.push_back((fold - foldBefore) / seconds);
    stagesBefore = stages;
    foldBefore = fold;

    if (rep == 0) {
      const auto before = engine.cache().stats();
      verify(timed(engine, seconds), "re-sweep");
      hitRatio = engine.cache().stats().delta(before).hitRate();
    }
  }

  // Fingerprinting is not on the plan-routed sweep path; it is timed in its
  // own pass over the same designs (the served path and the legacy cache
  // key every evaluation with it).
  {
    opt::DesignSpaceCursor cursor(in.grid);
    opt::CandidateSpec spec;
    while (cursor.next(spec)) {
      const stordep::StorageDesign design = spec.build(in.workload, in.business);
      auto stage = tracer.span("engine.fingerprint");
      (void)eng::fingerprintDesign(design);
    }
  }

  const auto stats = tracer.summarize();
  const auto stat = [&](const char* name) {
    const auto it = stats.find(name);
    return it == stats.end() ? Tracer::NameStats{} : it->second;
  };
  const double serialWall = median(serialWalls);
  report.metric("optimizer.enumerate_us",
                stat("optimizer.enumerate").meanSeconds() * 1e6, "us");
  report.metric("optimizer.build_us",
                stat("optimizer.build").meanSeconds() * 1e6, "us");
  report.metric("engine.fingerprint_us",
                stat("engine.fingerprint").meanSeconds() * 1e6, "us");
  report.metric("engine.compile_us",
                stat("engine.compile").meanSeconds() * 1e6, "us");
  report.metric("engine.evaluate_us",
                stat("engine.evaluate").meanSeconds() * 1e6, "us");
  report.metric("optimizer.rank_ms",
                stat("optimizer.rank").meanSeconds() * 1e3, "ms");
  report.metric("optimizer.stage_coverage", median(coverage), "ratio");
  report.metric("engine.resweep_cache_hit_ratio", hitRatio, "ratio");
  report.metric("engine.pool_speedup", serialWall / median(parallelWalls),
                "ratio");
  report.metric("bench.trace_overhead_ms",
                (median(tracedWalls) - median(replicaWalls)) * 1e3, "ms");
  // The part of the coverage the fold carries; the named stages cover about
  // the rest.
  report.fact("sweep_fold_share", Json(median(foldShare)));
  report.fact("sweep_untraced_serial_s", Json(serialWall));
  report.fact("sweep_untraced_replica_s", Json(median(replicaWalls)));
  report.fact("sweep_traced_replica_s", Json(median(tracedWalls)));
}

}  // namespace perfbench
