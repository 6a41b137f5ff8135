#include "service/metrics.hpp"

#include <bit>
#include <cmath>

#include "engine/fingerprint.hpp"

namespace stordep::service {

using config::Json;
using config::JsonObject;

namespace {

/// Bucket index for a latency: floor(log2(micros)), clamped.
[[nodiscard]] int bucketFor(std::chrono::nanoseconds latency) noexcept {
  const std::uint64_t micros =
      static_cast<std::uint64_t>(latency.count() / 1000);
  if (micros <= 1) return 0;
  const int bit = 63 - std::countl_zero(micros);
  return bit >= LatencyHistogram::kBuckets
             ? LatencyHistogram::kBuckets - 1
             : bit;
}

/// Upper edge of bucket b in milliseconds.
[[nodiscard]] double bucketUpperMs(int b) noexcept {
  return static_cast<double>(std::uint64_t{1} << (b + 1)) / 1000.0;
}

}  // namespace

void LatencyHistogram::record(std::chrono::nanoseconds latency) noexcept {
  if (latency.count() < 0) latency = std::chrono::nanoseconds{0};
  buckets_[static_cast<std::size_t>(bucketFor(latency))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sumNanos_.fetch_add(static_cast<std::uint64_t>(latency.count()),
                      std::memory_order_relaxed);
  std::uint64_t seen = maxNanos_.load(std::memory_order_relaxed);
  const std::uint64_t now = static_cast<std::uint64_t>(latency.count());
  while (now > seen &&
         !maxNanos_.compare_exchange_weak(seen, now,
                                          std::memory_order_relaxed)) {
  }
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const noexcept {
  Snapshot out;
  std::array<std::uint64_t, kBuckets> counts;
  for (int b = 0; b < kBuckets; ++b) {
    counts[static_cast<std::size_t>(b)] =
        buckets_[static_cast<std::size_t>(b)].load(std::memory_order_relaxed);
    out.count += counts[static_cast<std::size_t>(b)];
  }
  if (out.count == 0) return out;
  out.meanMs = static_cast<double>(sumNanos_.load(std::memory_order_relaxed)) /
               static_cast<double>(out.count) / 1e6;
  out.maxMs = static_cast<double>(maxNanos_.load(std::memory_order_relaxed)) /
              1e6;

  const auto quantile = [&](double q) {
    const double rank = q * static_cast<double>(out.count);
    std::uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
      const std::uint64_t n = counts[static_cast<std::size_t>(b)];
      if (n == 0) continue;
      if (static_cast<double>(seen + n) >= rank) {
        // Interpolate inside the bucket: [upper/2, upper) ms.
        const double lower = bucketUpperMs(b) / 2.0;
        const double upper = bucketUpperMs(b);
        const double within =
            (rank - static_cast<double>(seen)) / static_cast<double>(n);
        return std::min(lower + (upper - lower) * within, out.maxMs);
      }
      seen += n;
    }
    return out.maxMs;
  };
  out.p50Ms = quantile(0.50);
  out.p90Ms = quantile(0.90);
  out.p99Ms = quantile(0.99);
  return out;
}

config::Json LatencyHistogram::toJson() const {
  const Snapshot snap = snapshot();
  Json out{JsonObject{}};
  out.set("count", Json(static_cast<double>(snap.count)));
  out.set("meanMs", Json(snap.meanMs));
  out.set("p50Ms", Json(snap.p50Ms));
  out.set("p90Ms", Json(snap.p90Ms));
  out.set("p99Ms", Json(snap.p99Ms));
  out.set("maxMs", Json(snap.maxMs));
  return out;
}

config::Json EndpointMetrics::toJson() const {
  Json out{JsonObject{}};
  out.set("requests", Json(static_cast<double>(
                          requests.load(std::memory_order_relaxed))));
  out.set("errors", Json(static_cast<double>(
                        errors.load(std::memory_order_relaxed))));
  out.set("latencyMs", latency.toJson());
  return out;
}

namespace {

[[nodiscard]] Json cacheStatsJson(const engine::EvalCache::Stats& stats) {
  Json out{JsonObject{}};
  out.set("hits", Json(static_cast<double>(stats.hits)));
  out.set("misses", Json(static_cast<double>(stats.misses)));
  out.set("probes", Json(static_cast<double>(stats.probes)));
  out.set("inserts", Json(static_cast<double>(stats.inserts)));
  out.set("evictions", Json(static_cast<double>(stats.evictions)));
  out.set("insertFailures", Json(static_cast<double>(stats.insertFailures)));
  out.set("entries", Json(static_cast<double>(stats.entries)));
  out.set("capacity", Json(static_cast<double>(stats.capacity)));
  out.set("hitRate", Json(stats.hitRate()));
  return out;
}

template <typename Atomic>
[[nodiscard]] Json gauge(const Atomic& value) {
  return Json(static_cast<double>(value.load(std::memory_order_relaxed)));
}

}  // namespace

config::Json ServiceMetrics::snapshot(engine::Engine& engine) {
  const auto now = std::chrono::steady_clock::now();
  Json out{JsonObject{}};
  out.set("uptimeSeconds",
          Json(std::chrono::duration<double>(now - start_).count()));

  Json connections{JsonObject{}};
  connections.set("active", gauge(activeConnections));
  connections.set("accepted", gauge(connectionsAccepted));
  connections.set("rejected", gauge(connectionsRejected));
  out.set("connections", connections);

  Json admission{JsonObject{}};
  admission.set("queuedSlots", gauge(queuedSlots));
  admission.set("inFlightSlots", gauge(inFlightSlots));
  admission.set("activeSearches", gauge(activeSearches));
  admission.set("rejectedQueueFull", gauge(rejectedQueueFull));
  admission.set("rejectedDraining", gauge(rejectedDraining));
  admission.set("deadlineExpired", gauge(deadlineExpired));
  out.set("admission", admission);

  Json batching{JsonObject{}};
  const std::uint64_t waveCount = waves.load(std::memory_order_relaxed);
  const std::uint64_t slotCount = batchedSlots.load(std::memory_order_relaxed);
  batching.set("waves", Json(static_cast<double>(waveCount)));
  batching.set("batchedSlots", Json(static_cast<double>(slotCount)));
  batching.set("avgWaveSlots",
               Json(waveCount == 0 ? 0.0
                                   : static_cast<double>(slotCount) /
                                         static_cast<double>(waveCount)));
  batching.set("waveFailures", gauge(waveFailures));
  out.set("batching", batching);

  Json resilience{JsonObject{}};
  resilience.set("brownoutTier", gauge(brownoutTier));
  resilience.set("brownoutTransitions", gauge(brownoutTransitions));
  resilience.set("shedStochastic", gauge(shedStochastic));
  resilience.set("shedCold", gauge(shedCold));
  resilience.set("searchPeerDisconnects", gauge(searchPeerDisconnects));
  out.set("resilience", resilience);

  Json endpoints{JsonObject{}};
  endpoints.set("evaluate", evaluate.toJson());
  endpoints.set("search", search.toJson());
  endpoints.set("metrics", metricsEndpoint.toJson());
  endpoints.set("healthz", healthz.toJson());
  endpoints.set("other", other.toJson());
  out.set("endpoints", endpoints);
  out.set("parseErrors", gauge(parseErrors));

  // Caches and fingerprint counters: lifetime totals plus the interval since
  // the previous scrape (snapshot diff / read-and-reset).
  const engine::EvalCache::Stats cacheNow = engine.cache().stats();
  const std::uint64_t stRuns = stochasticRuns.load(std::memory_order_relaxed);
  const std::uint64_t stPlanRuns =
      stochasticPlanRuns.load(std::memory_order_relaxed);
  const std::uint64_t stTrials =
      stochasticTrials.load(std::memory_order_relaxed);
  const std::uint64_t stWallNanos =
      stochasticWallNanos.load(std::memory_order_relaxed);
  double intervalSeconds = 0.0;
  engine::EvalCache::Stats cacheInterval;
  std::uint64_t stRunsDelta = 0;
  std::uint64_t stPlanRunsDelta = 0;
  std::uint64_t stTrialsDelta = 0;
  std::uint64_t stWallNanosDelta = 0;
  {
    std::lock_guard<std::mutex> lock(intervalMu_);
    cacheInterval = cacheNow.delta(scraped_ ? lastCacheStats_
                                            : engine::EvalCache::Stats{});
    intervalSeconds =
        scraped_
            ? std::chrono::duration<double>(now - lastScrape_).count()
            : std::chrono::duration<double>(now - start_).count();
    stRunsDelta = stRuns - (scraped_ ? lastStochasticRuns_ : 0);
    stPlanRunsDelta = stPlanRuns - (scraped_ ? lastStochasticPlanRuns_ : 0);
    stTrialsDelta = stTrials - (scraped_ ? lastStochasticTrials_ : 0);
    stWallNanosDelta =
        stWallNanos - (scraped_ ? lastStochasticWallNanos_ : 0);
    lastCacheStats_ = cacheNow;
    lastStochasticRuns_ = stRuns;
    lastStochasticPlanRuns_ = stPlanRuns;
    lastStochasticTrials_ = stTrials;
    lastStochasticWallNanos_ = stWallNanos;
    lastScrape_ = now;
    scraped_ = true;
  }
  out.set("intervalSeconds", Json(intervalSeconds));

  // Monte-Carlo throughput: trialsPerSec divides trials by the wall time
  // spent inside runTrials (not the scrape interval), so it reflects sampler
  // speed rather than request arrival rate.
  const auto stochasticJson = [](std::uint64_t runs, std::uint64_t planRuns,
                                 std::uint64_t trials,
                                 std::uint64_t wallNanos) {
    Json section{JsonObject{}};
    section.set("runs", Json(static_cast<double>(runs)));
    section.set("planRuns", Json(static_cast<double>(planRuns)));
    section.set("trials", Json(static_cast<double>(trials)));
    const double wallSeconds = static_cast<double>(wallNanos) / 1e9;
    section.set("wallSeconds", Json(wallSeconds));
    section.set("trialsPerSec",
                Json(wallSeconds > 0.0
                         ? static_cast<double>(trials) / wallSeconds
                         : 0.0));
    return section;
  };
  Json stochasticOut{JsonObject{}};
  stochasticOut.set("lifetime",
                    stochasticJson(stRuns, stPlanRuns, stTrials, stWallNanos));
  stochasticOut.set("interval",
                    stochasticJson(stRunsDelta, stPlanRunsDelta, stTrialsDelta,
                                   stWallNanosDelta));
  out.set("stochastic", stochasticOut);

  Json cache{JsonObject{}};
  cache.set("lifetime", cacheStatsJson(cacheNow));
  cache.set("interval", cacheStatsJson(cacheInterval));
  out.set("evalCache", cache);

  // Process-wide counters, zeroed by the read: this section is per-interval
  // by construction.
  const engine::FingerprintCounters fp = engine::fingerprintCountersReset();
  Json fpJson{JsonObject{}};
  fpJson.set("designFingerprints",
             Json(static_cast<double>(fp.designFingerprints)));
  fpJson.set("scenarioFingerprints",
             Json(static_cast<double>(fp.scenarioFingerprints)));
  fpJson.set("bytesHashed", Json(static_cast<double>(fp.bytesHashed)));
  out.set("fingerprintInterval", fpJson);

  Json engineJson{JsonObject{}};
  engineJson.set("threads", Json(engine.threads()));
  out.set("engine", engineJson);
  return out;
}

}  // namespace stordep::service
