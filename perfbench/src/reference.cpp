#include "reference.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "common.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kEntries = 4096;
constexpr std::size_t kSlots = 8192;  // open-addressing table, power of two

struct KernelBuffers {
  std::array<std::uint64_t, kSlots> keys{};
  std::array<double, kSlots> sums{};
  std::vector<double> values = std::vector<double>(kEntries);
};

/// A fixed mix of what the measured paths spend their time on: formatting
/// and hashing short labels, probing a hash table, a sort, and
/// transcendental floating point. It allocates nothing (its buffers are
/// made once), so the allocator's state cannot change its cost, and it
/// calls nothing in stordep, so neither can a change to the program.
double referenceKernel(KernelBuffers& b) {
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  b.keys.fill(0);
  b.sums.fill(0.0);
  char label[40];
  for (std::size_t i = 0; i < kEntries; ++i) {
    const int n = std::snprintf(label, sizeof label, "candidate-%llu/%zu",
                                static_cast<unsigned long long>(next() % 1500),
                                i % 7);
    std::uint64_t h = 1469598103934665603ULL;
    for (int c = 0; c < n; ++c) {
      h = (h ^ static_cast<unsigned char>(label[c])) * 1099511628211ULL;
    }
    h |= 1;  // 0 marks an empty slot
    std::size_t slot = h & (kSlots - 1);
    while (b.keys[slot] != 0 && b.keys[slot] != h) slot = (slot + 1) & (kSlots - 1);
    b.keys[slot] = h;
    const double v = static_cast<double>(next() % 100000) * 1e-3 + 1.0;
    b.sums[slot] += std::log(v) * std::exp(-v * 1e-3) + std::sqrt(v);
    b.values[i] = v * std::pow(1.0001, static_cast<double>(i % 64));
  }
  std::sort(b.values.begin(), b.values.end());
  double acc = 0.0;
  for (std::size_t s = 0; s < kSlots; ++s) acc += b.sums[s];
  return acc + b.values[kEntries / 2];
}

/// CPU seconds of one reference kernel now: the median of a few runs.
double referenceSeconds() {
  constexpr int kReps = 15;
  static thread_local KernelBuffers buffers;
  std::array<double, kReps> seconds{};
  volatile double sink = 0.0;
  for (double& s : seconds) {
    const double start = threadCpuSeconds();
    sink = sink + referenceKernel(buffers);
    s = threadCpuSeconds() - start;
  }
  return median(std::vector<double>(seconds.begin(), seconds.end()));
}

}  // namespace

double slowdownAround(const std::function<void()>& body) {
  const double before = referenceSeconds();
  body();
  return 0.5 * (before + referenceSeconds()) / kReferenceNominalSeconds;
}

}  // namespace perfbench
