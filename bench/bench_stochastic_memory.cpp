// bench_stochastic_memory — peak live heap bytes of one Monte-Carlo run.
//
// The evaluator runs trials in fixed-size blocks over one reused block of
// slots, so a run's memory must not grow with its trial count. A counting
// operator new replaces the global one in this binary only and tracks the
// live and peak heap bytes (malloc_usable_size of each block); this binary
// times nothing. It runs perfbench's Monte-Carlo workload at one thread —
// weekly vault F+I, distributionFor(arrayFailure()) at 1,000,000 trials and
// annualizedRisk() at 20,000 trials under bench_stochastic's replay-heavy
// reliability — and reports, per run, the peak live bytes above what was
// live before evaluator construction. It exits non-zero if the 1M-trial
// conditional peak exceeds 4 MB, or if the conditional peaks at 250,000 and
// 1,000,000 trials differ by more than 5%. JSON on stdout.
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>

#include "casestudy/casestudy.hpp"
#include "config/json.hpp"
#include "core/reliability.hpp"
#include "stochastic/evaluator.hpp"

namespace {

std::atomic<std::int64_t> gLiveBytes{0};
std::atomic<std::int64_t> gPeakBytes{0};

void noteAllocated(void* p) {
  const auto bytes = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live =
      gLiveBytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::int64_t peak = gPeakBytes.load(std::memory_order_relaxed);
  while (live > peak &&
         !gPeakBytes.compare_exchange_weak(peak, live,
                                           std::memory_order_relaxed)) {
  }
}

}  // namespace

// The replacements are never inlined: inlined into a container's allocate
// and deallocate, their malloc/free meet the container's new/delete and
// GCC's -Wmismatched-new-delete reports a mismatch.

/// Every heap allocation the process makes through operator new (array and
/// nothrow forms route here too).
[[gnu::noinline]] void* operator new(std::size_t bytes) {
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) {
    noteAllocated(p);
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept {
  gLiveBytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                       std::memory_order_relaxed);
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  ::operator delete(p);
}

namespace {

namespace cs = stordep::casestudy;
namespace st = stordep::stochastic;
using stordep::config::Json;
using stordep::config::JsonObject;

constexpr int kConditionalTrials = 1'000'000;
constexpr int kSmallConditionalTrials = 250'000;
constexpr int kMissionTrials = 20'000;
constexpr double kConditionalPeakLimitBytes = 4.0 * 1024 * 1024;
constexpr double kPeakGrowthLimit = 0.05;

st::StochasticOptions optionsFor(int trials) {
  st::StochasticOptions options;
  options.trials = trials;
  options.seed = 7;
  options.threads = 1;
  options.sim.horizon = stordep::days(250);
  return options;
}

/// bench_stochastic's replay-heavy mission reliability: every storage
/// device fails every ~30 days and repairs in ~12 hours, plus two site
/// shocks a year.
stordep::ReliabilitySpec missionReliability(
    const stordep::StorageDesign& design) {
  stordep::ReliabilitySpec spec;
  spec.siteShockAnnualRate = 2.0;
  for (const auto& [device, rel] : resolveReliability(design, spec)) {
    stordep::DeviceReliability heavy;
    heavy.failure = {stordep::ProcessKind::kExponential, stordep::days(30),
                     1.0};
    heavy.repair = {stordep::ProcessKind::kExponential, stordep::hours(12),
                    1.0};
    spec.devices[device->name()] = heavy;
  }
  return spec;
}

/// Peak live heap bytes above the level live before `run` started; false
/// in `ok` when the run errored.
template <typename Run>
double peakAbove(Run run, bool& ok) {
  const std::int64_t before = gLiveBytes.load(std::memory_order_relaxed);
  gPeakBytes.store(before, std::memory_order_relaxed);
  ok = run() && ok;
  return static_cast<double>(gPeakBytes.load(std::memory_order_relaxed) -
                             before);
}

}  // namespace

int main() {
  const stordep::StorageDesign design = cs::weeklyVaultFullPlusIncremental();
  const stordep::FailureScenario scenario = cs::arrayFailure();
  bool ok = true;
  const auto conditional = [&](int trials) {
    return peakAbove(
        [&] {
          const st::StochasticEvaluator evaluator(design, optionsFor(trials));
          return evaluator.distributionFor(scenario).ok();
        },
        ok);
  };
  const double smallPeak = conditional(kSmallConditionalTrials);
  const double conditionalPeak = conditional(kConditionalTrials);
  const double missionPeak = peakAbove(
      [&] {
        st::StochasticOptions options = optionsFor(kMissionTrials);
        options.reliability = missionReliability(design);
        const st::StochasticEvaluator evaluator(design, options);
        return evaluator.annualizedRisk().ok();
      },
      ok);
  if (!ok) std::cerr << "FAIL: a Monte-Carlo run errored\n";

  const double growth =
      smallPeak > 0 ? conditionalPeak / smallPeak - 1.0 : 0.0;
  const bool bounded = conditionalPeak <= kConditionalPeakLimitBytes;
  const bool flat = growth <= kPeakGrowthLimit && growth >= -kPeakGrowthLimit;
  if (!bounded) {
    std::cerr << "FAIL: 1M-trial conditional peak " << conditionalPeak
              << " bytes exceeds " << kConditionalPeakLimitBytes << "\n";
  }
  if (!flat) {
    std::cerr << "FAIL: conditional peak moves " << growth * 100
              << "% from 250k to 1M trials\n";
  }

  Json doc{JsonObject{}};
  doc.set("bench", Json("stochastic_memory"));
  doc.set("conditionalTrials", Json(kConditionalTrials));
  doc.set("conditionalPeakBytes", Json(conditionalPeak));
  doc.set("conditional250kPeakBytes", Json(smallPeak));
  doc.set("conditionalPeakGrowth", Json(growth));
  doc.set("missionTrials", Json(kMissionTrials));
  doc.set("missionPeakBytes", Json(missionPeak));
  doc.set("ok", Json(ok && bounded && flat));
  std::cout << doc.dump() << "\n";
  return ok && bounded && flat ? 0 : 1;
}
