#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <thread>

namespace perfbench {

namespace opt = stordep::optimizer;
using stordep::config::Json;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double millisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  Json entry{stordep::config::JsonObject{}};
  entry.set("value", Json(value));
  entry.set("unit", Json(unit));
  metrics_.emplace_back(name, std::move(entry));
}

void Report::ungated(const std::string& name, double value,
                     const std::string& unit) {
  Json entry{stordep::config::JsonObject{}};
  entry.set("value", Json(value));
  entry.set("unit", Json(unit));
  ungated_.set(name, std::move(entry));
}

Json Report::facts() const {
  Json out = facts_;
  if (!ungated_.asObject().empty()) out.set("ungated", ungated_);
  return out;
}

void Report::ops(std::uint64_t n, std::uint64_t failed) {
  attempted_ += n;
  failed_ += failed;
}

void Report::checkFailed(const std::string& what) {
  std::cerr << "CHECK FAILED: " << what << "\n";
  ++checksFailed_;
  ++attempted_;
  ++failed_;
}

void Report::fact(const std::string& key, Json value) {
  facts_.set(key, std::move(value));
}

Json jsonList(const std::vector<double>& values) {
  stordep::config::JsonArray out;
  out.reserve(values.size());
  for (const double v : values) out.emplace_back(v);
  return Json(std::move(out));
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double quantileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double quantile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return quantileSorted(values, p);
}

void repeatFor(double budgetSeconds, int minReps, int maxReps,
               const std::function<void(int rep)>& body) {
  const auto start = Clock::now();
  for (int rep = 0; rep < maxReps; ++rep) {
    if (rep >= minReps && secondsSince(start) >= budgetSeconds) break;
    body(rep);
  }
}

void parallelIndex(std::size_t count, int threads,
                   const std::function<void(std::size_t)>& body) {
  const auto n = static_cast<std::size_t>(std::max(1, threads));
  std::vector<std::exception_ptr> errors(n);
  std::vector<std::thread> workers;
  workers.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    workers.emplace_back([&, t] {
      try {
        for (std::size_t i = t; i < count; i += n) body(i);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

namespace {
double clockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Applies `mask` to every thread of the process.
void setEveryThreadAffinity(const cpu_set_t& mask) {
  std::error_code error;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", error)) {
    const pid_t tid = static_cast<pid_t>(
        std::strtol(task.path().filename().c_str(), nullptr, 10));
    // A thread that ended since the listing is simply skipped.
    (void)sched_setaffinity(tid, sizeof mask, &mask);
  }
}
}  // namespace

PinToOneCpu::PinToOneCpu() {
  sched_getaffinity(0, sizeof saved_, &saved_);
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  setEveryThreadAffinity(one);
}

PinToOneCpu::~PinToOneCpu() { setEveryThreadAffinity(saved_); }

double processCpuSeconds() { return clockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double threadCpuSeconds() { return clockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t hashBytes(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

opt::DesignSpaceOptions bigGridOptions() {
  opt::DesignSpaceOptions options;
  options.pitAccWs = {stordep::hours(3), stordep::hours(6), stordep::hours(12),
                      stordep::hours(24), stordep::hours(48)};
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

std::uint64_t rankingDigest(const opt::SearchResult& result) {
  std::uint64_t h = hashBytes("ranking");
  const auto mix = [&h](const void* data, std::size_t size) {
    h ^= hashBytes(std::string_view(static_cast<const char*>(data), size));
    h *= 1099511628211ULL;
  };
  for (const opt::EvaluatedCandidate& c : result.ranked) {
    mix(c.label.data(), c.label.size());
    const double bits[3] = {c.totalCost.raw(), c.worstRecoveryTime.raw(),
                            c.worstDataLoss.raw()};
    mix(bits, sizeof bits);
  }
  const std::uint64_t counts[2] = {result.ranked.size(),
                                   result.rejected.size()};
  mix(counts, sizeof counts);
  return h;
}

}  // namespace perfbench
