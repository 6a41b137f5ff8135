// quantile.hpp — streaming distribution summaries for Monte-Carlo trials.
//
// The trial sampler produces up to millions of RT/DL/penalty observations;
// storing them all to sort at the end would defeat the point of streaming
// evaluation. Instead each tracked metric feeds:
//
//   * a P² estimator (Jain & Chlamtac, CACM 1985) per tracked quantile —
//     five markers maintained by parabolic interpolation, O(1) per
//     observation, exact below five observations;
//   * exact min/max/count and a numerically stable (Welford) mean;
//   * a batch-means 95% confidence half-width for the mean: observations
//     are split in feed order into B equal batches, and the spread of the
//     batch means estimates the spread of the grand mean (1.96 * s_B / √B).
//
// Everything here is deterministic in the feed order. The evaluator folds
// trials block by block, each accumulator fed in trial order by one fold
// part regardless of how trials were scheduled across threads, which is
// what makes results bit-identical at any thread count.
#pragma once

#include <cstdint>

namespace stordep::stochastic {

/// One-quantile P² estimator.
class P2Quantile {
 public:
  explicit P2Quantile(double p);

  void add(double x);

  /// The current estimate: exact while fewer than five observations have
  /// been seen, the middle marker height afterwards. 0 when empty.
  [[nodiscard]] double value() const;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

 private:
  double p_;
  std::uint64_t count_ = 0;
  double q_[5];     ///< marker heights (ordered)
  double n_[5];     ///< marker positions (1-based)
  double want_[5];  ///< desired positions
  double dwant_[5]; ///< desired-position increments per observation
};

/// The assembled summary of one sampled metric. Quantiles are clamped into
/// monotone order on assembly (p50 <= p95 <= p99 <= max structurally); the
/// clamp is a no-op for exact estimates and guards the independent P²
/// estimators' small-sample noise.
struct Distribution {
  std::uint64_t count = 0;
  double min = 0;
  double max = 0;
  double mean = 0;
  /// Batch-means 95% confidence half-width of the mean; 0 when it cannot be
  /// estimated (fewer than two batches).
  double ci95 = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

/// Streaming accumulator behind Distribution: min/max, Welford mean, P²
/// p50/p95/p99, batch means. `expectedCount` sizes the batches (pass the
/// trial count); 0 disables the batch-means CI (event-level metrics whose
/// count is not known upfront report ci95 = 0).
class DistributionAccumulator {
 public:
  explicit DistributionAccumulator(std::uint64_t expectedCount = 0,
                                   int batches = 32);

  void add(double x);

  [[nodiscard]] Distribution finalize() const;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

 private:
  std::uint64_t count_ = 0;
  double min_ = 0;
  double max_ = 0;
  double mean_ = 0;  ///< Welford running mean
  P2Quantile p50_;
  P2Quantile p95_;
  P2Quantile p99_;
  // Batch means: observation i lands in batch min(i / batchSize, B-1),
  // tracked as the current batch and a countdown of its remaining slots.
  std::uint64_t batchSize_ = 0;  ///< 0 = CI disabled
  std::uint64_t batchLeft_ = 0;
  int batch_ = 0;
  int batches_ = 0;
  double batchSum_[64];
  std::uint64_t batchCount_[64];
};

}  // namespace stordep::stochastic
