// bench_sweep_allocations — heap allocations per candidate of the big-grid
// streaming sweep on a one-thread engine.
//
// A counting operator new replaces the global one in this binary only, so
// the count covers everything a candidate costs the allocator: label, build,
// plan compile, evaluation and teardown. It is a count, independent of host
// speed, and this binary times nothing (the timed sweep gates live in
// bench_parallel_search, on the normal allocator). The sweep's ranking is
// checked against searchDesignSpaceSerial; a divergence exits non-zero.
// JSON on stdout.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <vector>

#include "casestudy/casestudy.hpp"
#include "config/json.hpp"
#include "engine/batch.hpp"
#include "optimizer/search.hpp"

/// Every heap allocation the process makes through operator new (array and
/// nothrow forms route here too).
std::atomic<std::uint64_t> gHeapAllocations{0};

void* operator new(std::size_t bytes) {
  gHeapAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

namespace cs = stordep::casestudy;
namespace opt = stordep::optimizer;
using stordep::config::Json;
using stordep::config::JsonObject;

/// The bench_parallel_search / perfbench big grid (11,890 valid candidates).
opt::DesignSpaceOptions bigGridOptions() {
  opt::DesignSpaceOptions options;
  options.pitAccWs = {stordep::hours(3),  stordep::hours(6),
                      stordep::hours(12), stordep::hours(24),
                      stordep::hours(48)};
  options.pitRetentionCounts = {1, 2, 4, 8};
  options.backupAccWs = {stordep::hours(24), stordep::days(3),
                         stordep::weeks(1), stordep::weeks(2)};
  options.vaultAccWs = {stordep::weeks(1), stordep::weeks(4),
                        stordep::weeks(12)};
  options.mirrorChoices = {opt::MirrorChoice::kNone, opt::MirrorChoice::kAsync,
                           opt::MirrorChoice::kAsyncBatch};
  options.mirrorLinkCounts = {1, 2, 4, 8, 16};
  return options;
}

bool sameRanking(const opt::SearchResult& a, const opt::SearchResult& b) {
  if (a.ranked.size() != b.ranked.size() ||
      a.rejected.size() != b.rejected.size()) {
    return false;
  }
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    if (a.ranked[i].label != b.ranked[i].label ||
        a.ranked[i].totalCost.raw() != b.ranked[i].totalCost.raw() ||
        a.ranked[i].worstRecoveryTime.raw() !=
            b.ranked[i].worstRecoveryTime.raw() ||
        a.ranked[i].worstDataLoss.raw() != b.ranked[i].worstDataLoss.raw()) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  const std::vector<opt::ScenarioCase> scenarios = opt::caseStudyScenarios();
  const stordep::WorkloadSpec workload = cs::celloWorkload();
  const stordep::BusinessRequirements business = cs::requirements();
  const opt::DesignSpaceOptions options = bigGridOptions();
  const std::vector<opt::CandidateSpec> grid =
      opt::enumerateDesignSpace(options);

  stordep::engine::Engine oneThread(
      stordep::engine::EngineOptions{.threads = 1});
  opt::SearchOptions searchOptions;
  searchOptions.eng = &oneThread;
  opt::DesignSpaceCursor cursor(options);
  const std::uint64_t before = gHeapAllocations.load(std::memory_order_relaxed);
  const opt::SearchResult streaming = opt::searchDesignSpaceStreaming(
      cursor, workload, business, scenarios, searchOptions);
  const std::uint64_t allocations =
      gHeapAllocations.load(std::memory_order_relaxed) - before;

  const opt::SearchResult serial =
      opt::searchDesignSpaceSerial(grid, workload, business, scenarios);
  const bool ok = sameRanking(serial, streaming) &&
                  static_cast<std::size_t>(streaming.evaluated) == grid.size();
  if (!ok) {
    std::cerr << "FAIL: one-thread streaming sweep diverged from serial\n";
  }

  Json doc{JsonObject{}};
  doc.set("bench", Json("sweep_allocations"));
  doc.set("candidates", Json(static_cast<std::int64_t>(grid.size())));
  doc.set("scenarios", Json(static_cast<std::int64_t>(scenarios.size())));
  doc.set("serialStreamingAllocations",
          Json(static_cast<std::int64_t>(allocations)));
  doc.set("serialStreamingAllocationsPerCandidate",
          Json(static_cast<double>(allocations) /
               static_cast<double>(grid.size())));
  doc.set("rankingMatchesSerial", Json(ok));
  std::cout << doc.dump() << "\n";
  return ok ? 0 : 1;
}
