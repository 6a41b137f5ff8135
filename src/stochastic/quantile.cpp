#include "stochastic/quantile.hpp"

#include <algorithm>
#include <cmath>

namespace stordep::stochastic {

P2Quantile::P2Quantile(double p) : p_(p) {
  for (int i = 0; i < 5; ++i) {
    q_[i] = 0;
    n_[i] = i + 1;
  }
  want_[0] = 1;
  want_[1] = 1 + 2 * p;
  want_[2] = 1 + 4 * p;
  want_[3] = 3 + 2 * p;
  want_[4] = 5;
  dwant_[0] = 0;
  dwant_[1] = p / 2;
  dwant_[2] = p;
  dwant_[3] = (1 + p) / 2;
  dwant_[4] = 1;
}

void P2Quantile::add(double x) {
  if (count_ < 5) {
    q_[count_++] = x;
    if (count_ == 5) std::sort(q_, q_ + 5);
    return;
  }

  // Locate the cell and update the extreme markers.
  int k;
  if (x < q_[0]) {
    q_[0] = x;
    k = 0;
  } else if (x >= q_[4]) {
    q_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= q_[k + 1]) ++k;
  }

  for (int i = k + 1; i < 5; ++i) n_[i] += 1;
  // Only the interior markers' desired positions are ever read.
  for (int i = 1; i <= 3; ++i) want_[i] += dwant_[i];
  ++count_;

  // Adjust the three interior markers toward their desired positions,
  // parabolic when the result stays ordered, linear otherwise.
  for (int i = 1; i <= 3; ++i) {
    const double d = want_[i] - n_[i];
    if ((d >= 1 && n_[i + 1] - n_[i] > 1) ||
        (d <= -1 && n_[i - 1] - n_[i] < -1)) {
      const double sign = d >= 0 ? 1.0 : -1.0;
      const double parabolic =
          q_[i] + sign / (n_[i + 1] - n_[i - 1]) *
                      ((n_[i] - n_[i - 1] + sign) * (q_[i + 1] - q_[i]) /
                           (n_[i + 1] - n_[i]) +
                       (n_[i + 1] - n_[i] - sign) * (q_[i] - q_[i - 1]) /
                           (n_[i] - n_[i - 1]));
      if (q_[i - 1] < parabolic && parabolic < q_[i + 1]) {
        q_[i] = parabolic;
      } else {
        const int j = i + (sign > 0 ? 1 : -1);
        q_[i] += sign * (q_[j] - q_[i]) / (n_[j] - n_[i]);
      }
      n_[i] += sign;
    }
  }
}

double P2Quantile::value() const {
  if (count_ == 0) return 0;
  if (count_ < 5) {
    // Exact small-sample quantile: the ceil(p*n)-th order statistic.
    double sorted[5];
    std::copy(q_, q_ + count_, sorted);
    std::sort(sorted, sorted + count_);
    const auto n = static_cast<double>(count_);
    auto rank = static_cast<std::uint64_t>(std::ceil(p_ * n));
    if (rank < 1) rank = 1;
    if (rank > count_) rank = count_;
    return sorted[rank - 1];
  }
  return q_[2];
}

DistributionAccumulator::DistributionAccumulator(std::uint64_t expectedCount,
                                                 int batches)
    : p50_(0.50), p95_(0.95), p99_(0.99) {
  batches_ = std::clamp(batches, 2, 64);
  if (expectedCount >= static_cast<std::uint64_t>(2 * batches_)) {
    batchSize_ = expectedCount / static_cast<std::uint64_t>(batches_);
    batchLeft_ = batchSize_;
  }
  for (int i = 0; i < 64; ++i) {
    batchSum_[i] = 0;
    batchCount_[i] = 0;
  }
}

void DistributionAccumulator::add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  mean_ += (x - mean_) / static_cast<double>(count_ + 1);
  p50_.add(x);
  p95_.add(x);
  p99_.add(x);
  if (batchSize_ > 0) {
    batchSum_[batch_] += x;
    batchCount_[batch_] += 1;
    if (batch_ < batches_ - 1 && --batchLeft_ == 0) {
      ++batch_;
      batchLeft_ = batchSize_;
    }
  }
  ++count_;
}

Distribution DistributionAccumulator::finalize() const {
  Distribution out;
  out.count = count_;
  if (count_ == 0) return out;
  out.min = min_;
  out.max = max_;
  out.mean = mean_;
  out.p50 = p50_.value();
  out.p95 = std::clamp(p95_.value(), out.p50, max_);
  out.p99 = std::clamp(p99_.value(), out.p95, max_);

  if (batchSize_ > 0) {
    int filled = 0;
    double meanOfMeans = 0;
    double means[64];
    for (int b = 0; b < batches_; ++b) {
      if (batchCount_[b] == 0) continue;
      means[filled] = batchSum_[b] / static_cast<double>(batchCount_[b]);
      meanOfMeans += means[filled];
      ++filled;
    }
    if (filled >= 2) {
      meanOfMeans /= filled;
      double ss = 0;
      for (int b = 0; b < filled; ++b) {
        const double d = means[b] - meanOfMeans;
        ss += d * d;
      }
      const double stddev = std::sqrt(ss / (filled - 1));
      out.ci95 = 1.96 * stddev / std::sqrt(static_cast<double>(filled));
    }
  }
  return out;
}

}  // namespace stordep::stochastic
