#include "load.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <thread>

#include "service/client.hpp"

namespace perfbench {

namespace svc = stordep::service;

double Sample::latencyOrInfinity() const {
  return ok ? latencyMs : std::numeric_limits<double>::infinity();
}

double LoadResult::latencyPercentile(double p) const {
  std::vector<double> values;
  values.reserve(samples.size());
  for (const Sample& s : samples) values.push_back(s.latencyOrInfinity());
  return quantile(std::move(values), p);
}

double LoadResult::latencyPercentile(
    double p, const std::vector<ScheduledRequest>& schedule,
    bool forwarded) const {
  std::vector<double> values;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (schedule[i].forwarded == forwarded) {
      values.push_back(samples[i].latencyOrInfinity());
    }
  }
  return quantile(std::move(values), p);
}

double LoadResult::lagPercentile(double p) const {
  std::vector<double> values;
  values.reserve(samples.size());
  for (const Sample& s : samples) values.push_back(s.lagMs);
  return quantile(std::move(values), p);
}

double LoadResult::lagGrowthMs() const {
  const std::size_t fifth = samples.size() / 5;
  if (fifth == 0) return 0.0;
  double first = 0.0;
  double last = 0.0;
  for (std::size_t i = 0; i < fifth; ++i) {
    first += samples[i].lagMs;
    last += samples[samples.size() - 1 - i].lagMs;
  }
  return (last - first) / static_cast<double>(fifth);
}

double LoadResult::achievedRate() const {
  return wallSeconds > 0.0 ? static_cast<double>(samples.size()) / wallSeconds
                           : 0.0;
}

LoadResult runOpenLoop(std::uint16_t port,
                       const std::vector<ScheduledRequest>& schedule,
                       double rate, int connections, Tracer& tracer,
                       std::uint32_t parent) {
  LoadResult result;
  result.samples.resize(schedule.size());
  const auto n = static_cast<std::size_t>(std::max(1, connections));
  const std::chrono::duration<double> interval(1.0 / rate);
  // A short lead so every connection thread is parked before the first due
  // time.
  const auto begin = Clock::now() + std::chrono::milliseconds(5);
  std::vector<Clock::time_point> lastDone(n, begin);

  std::vector<std::thread> workers;
  workers.reserve(n);
  for (std::size_t c = 0; c < n; ++c) {
    workers.emplace_back([&, c] {
      std::unique_ptr<svc::Client> client;
      for (std::size_t i = c; i < schedule.size(); i += n) {
        const auto due =
            begin + std::chrono::duration_cast<Clock::duration>(
                        interval * static_cast<double>(i));
        std::this_thread::sleep_until(due);
        const auto sent = Clock::now();
        Sample& sample = result.samples[i];
        sample.lagMs = millisBetween(due, sent);
        bool ok = false;
        bool mismatch = false;
        try {
          if (!client) {
            client = std::make_unique<svc::Client>("127.0.0.1", port);
          }
          const svc::HttpClientResponse response =
              client->post("/v1/evaluate", *schedule[i].body);
          const auto done = Clock::now();
          sample.latencyMs = millisBetween(due, done);
          lastDone[c] = done;
          tracer.record(schedule[i].forwarded ? "client.request_forwarded"
                                              : "client.request",
                        sent, done, parent);
          ok = response.status == 200 &&
               hashBytes(response.body) == schedule[i].expectedHash;
          mismatch = response.status == 200 && !ok;
        } catch (const svc::TransportError&) {
          client.reset();
          lastDone[c] = Clock::now();
        }
        sample.ok = ok;
        sample.mismatch = mismatch;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  result.wallSeconds = std::chrono::duration<double>(
                           *std::max_element(lastDone.begin(), lastDone.end()) -
                           begin)
                           .count();
  for (const Sample& s : result.samples) {
    if (!s.ok) ++result.failed;
    if (s.mismatch) ++result.mismatched;
  }
  return result;
}

}  // namespace perfbench
