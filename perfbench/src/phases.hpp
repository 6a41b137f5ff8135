// phases.hpp — the four user paths one benchmark run measures.
//
// Each phase is built once per run (inputs, untimed reference outputs,
// warm-up). The untraced run then calls round() on every phase in turn
// until the measurement budget is spent, so a host stall of a few seconds
// lands in one round of one phase rather than in every sample of it, and
// finish() reports each end-to-end metric as a median over rounds. The
// traced run calls traced() instead. Outputs are checked outside the timed
// regions; every check and operation is counted in the Report.
#pragma once

#include <memory>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

/// Big-grid design-space sweep (optimizer + engine).
class SweepPhase {
 public:
  SweepPhase(const RunConfig& config, Report& report);
  ~SweepPhase();
  SweepPhase(const SweepPhase&) = delete;
  SweepPhase& operator=(const SweepPhase&) = delete;

  /// One serial cold pass, a re-sweep on the same engine, and one parallel
  /// cold pass.
  void round();
  void finish();
  void traced(Tracer& tracer);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// StochasticEvaluator conditional and mission runs.
class MonteCarloPhase {
 public:
  MonteCarloPhase(const RunConfig& config, Report& report);
  ~MonteCarloPhase();
  MonteCarloPhase(const MonteCarloPhase&) = delete;
  MonteCarloPhase& operator=(const MonteCarloPhase&) = delete;

  /// One conditional and one mission run.
  void round();
  void finish();
  void traced(Tracer& tracer);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Served /v1/evaluate on one in-process server and on node A of a
/// two-node in-process cluster, plus the set-up of both.
class ServedPhase {
 public:
  ServedPhase(const RunConfig& config, Report& report);
  ~ServedPhase();
  ServedPhase(const ServedPhase&) = delete;
  ServedPhase& operator=(const ServedPhase&) = delete;

  /// Three timed set-ups, a burst and a 1,000 req/s window into the server
  /// and into node A, then tear-down.
  void round();
  void finish();
  /// The rate ladder on a fresh stack; run after finish().
  void ladder();
  void traced(Tracer& tracer);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace perfbench
