// load.hpp — open-loop /v1/evaluate load generator.
//
// Request i is due at start + i / rate and goes out on connection
// i mod connections; each connection is one thread with one blocking
// keep-alive client. A connection that falls behind sends its next request
// as soon as the previous one returns, so a stall shows as lateness on
// every later request instead of lowering the offered rate. Latency is
// measured from the due time, and how late each request actually left is
// recorded separately as generator lag.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

/// One request of a schedule: its body and the hash its response body must
/// have (the offline evaluationToJson bytes for the same payload).
struct ScheduledRequest {
  const std::string* body = nullptr;
  std::uint64_t expectedHash = 0;
  bool forwarded = false;  ///< cluster: owned by another node
};

struct Sample {
  double latencyMs = 0.0;  ///< due time to response
  double lagMs = 0.0;      ///< due time to send
  bool ok = false;         ///< HTTP 200 with the expected bytes
  bool mismatch = false;   ///< HTTP 200 but different bytes

  /// A failed request counts as infinitely late.
  [[nodiscard]] double latencyOrInfinity() const;
};

struct LoadResult {
  std::vector<Sample> samples;  ///< in schedule order
  double wallSeconds = 0.0;     ///< first due time to last response
  std::uint64_t failed = 0;     ///< non-200, transport error or mismatch
  std::uint64_t mismatched = 0;

  /// Latency percentile over every request; a failed request counts as
  /// infinitely late.
  [[nodiscard]] double latencyPercentile(double p) const;
  /// Same, restricted to requests with `forwarded` == want.
  [[nodiscard]] double latencyPercentile(
      double p, const std::vector<ScheduledRequest>& schedule,
      bool forwarded) const;
  [[nodiscard]] double lagPercentile(double p) const;
  /// Mean lag of the last fifth of the schedule minus that of the first.
  [[nodiscard]] double lagGrowthMs() const;
  [[nodiscard]] double achievedRate() const;
};

/// Sends `schedule` to 127.0.0.1:port at `rate` requests/s over
/// `connections` connections. Each request becomes a span under `parent`.
[[nodiscard]] LoadResult runOpenLoop(std::uint16_t port,
                                     const std::vector<ScheduledRequest>& schedule,
                                     double rate, int connections,
                                     Tracer& tracer, std::uint32_t parent);

}  // namespace perfbench
