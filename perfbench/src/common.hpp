// common.hpp — shared pieces of the stordep benchmark binary: run
// configuration, the metric/failure report every phase writes into, timing
// and order statistics, and the inputs more than one phase uses.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "config/json.hpp"
#include "optimizer/search.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double secondsSince(Clock::time_point start);
[[nodiscard]] double millisBetween(Clock::time_point from, Clock::time_point to);

/// Which inputs the served and clustered phases draw from. `hot` is the
/// 90% repeated / 10% distinct mix; `cold` sends only distinct candidates.
enum class Mix { kHot, kCold };

struct RunConfig {
  std::string workload;
  Mix mix = Mix::kHot;
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< measurement budget of the whole run
  bool trace = false;
  int threads = 1;        ///< min(4, nproc): generator and pool width
  std::string outDir = ".";
};

/// Metrics, operation counts and check failures of one run. Phases append;
/// main() prints the result line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// An end-to-end number too unsteady on a shared host to gate: printed
  /// under facts.ungated instead of in the result line.
  void ungated(const std::string& name, double value, const std::string& unit);
  /// Counts `n` attempted operations of which `failed` failed.
  void ops(std::uint64_t n, std::uint64_t failed = 0);
  /// A failed output check: counted as one failed operation and logged.
  void checkFailed(const std::string& what);
  /// Free-form detail printed before the result line (not a metric).
  void fact(const std::string& key, stordep::config::Json value);

  [[nodiscard]] const std::vector<std::pair<std::string, stordep::config::Json>>&
  metrics() const noexcept {
    return metrics_;
  }
  /// The facts, with the ungated metrics under "ungated".
  [[nodiscard]] stordep::config::Json facts() const;
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] bool correct() const noexcept { return checksFailed_ == 0; }

 private:
  std::vector<std::pair<std::string, stordep::config::Json>> metrics_;
  stordep::config::Json facts_{stordep::config::JsonObject{}};
  stordep::config::Json ungated_{stordep::config::JsonObject{}};
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t checksFailed_ = 0;
};

/// `values` as a JSON array (per-round samples printed as facts).
[[nodiscard]] stordep::config::Json jsonList(const std::vector<double>& values);

/// Median of `values` (0 when empty).
[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolated quantile of an ascending-sorted sample.
[[nodiscard]] double quantileSorted(const std::vector<double>& sorted, double p);
/// The same for an unsorted sample.
[[nodiscard]] double quantile(std::vector<double> values, double p);

/// Calls `body` repeatedly until `budgetSeconds` have passed, at least
/// `minReps` and at most `maxReps` times.
void repeatFor(double budgetSeconds, int minReps, int maxReps,
               const std::function<void(int rep)>& body);

/// Runs body(i) for i in [0, count) over `threads` threads (static split);
/// rethrows the first exception a thread raised once all have joined.
void parallelIndex(std::size_t count, int threads,
                   const std::function<void(std::size_t)>& body);

/// While alive, keeps every thread of the process (and every thread they
/// start) on the CPU the constructing thread runs on; restores the
/// constructing thread's CPU set on destruction. On one CPU a request's
/// chain of hand-offs between threads needs no cross-CPU wake-ups, and the
/// reference kernel (reference.hpp) times the same CPU the chain ran on.
class PinToOneCpu {
 public:
  PinToOneCpu();
  ~PinToOneCpu();
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

 private:
  cpu_set_t saved_{};
};

/// CPU time this process has used so far, all threads, in seconds. The
/// kernel leaves out the time a virtual CPU was held by the hypervisor
/// (steal), so on a shared host this moves far less than wall time.
[[nodiscard]] double processCpuSeconds();

/// CPU time the calling thread has used so far, in seconds.
[[nodiscard]] double threadCpuSeconds();

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peakRssMb();

/// 64-bit FNV-1a over bytes.
[[nodiscard]] std::uint64_t hashBytes(std::string_view bytes);

/// The 14,883-point grid of bench_parallel_search's streaming section
/// (11,890 structurally valid candidates).
[[nodiscard]] stordep::optimizer::DesignSpaceOptions bigGridOptions();
constexpr std::uint64_t kBigGridPoints = 14'883;
constexpr std::size_t kBigGridCandidates = 11'890;

/// Digest of a ranking: every ranked label plus the raw bits of its total
/// cost, worst recovery time and worst data loss, and the rejected count.
[[nodiscard]] std::uint64_t rankingDigest(
    const stordep::optimizer::SearchResult& result);

}  // namespace perfbench
