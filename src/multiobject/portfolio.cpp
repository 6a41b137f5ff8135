#include "multiobject/portfolio.hpp"

#include <algorithm>
#include <map>
#include <queue>

namespace stordep::multiobject {

namespace {

/// Kahn's algorithm over the dependency edges; throws on cycles.
std::vector<size_t> topoSort(const std::vector<ObjectSpec>& objects) {
  std::map<std::string, size_t> index;
  for (size_t i = 0; i < objects.size(); ++i) {
    if (!index.emplace(objects[i].name, i).second) {
      throw PortfolioError("duplicate object name '" + objects[i].name + "'");
    }
  }

  std::vector<std::vector<size_t>> dependents(objects.size());
  std::vector<int> inDegree(objects.size(), 0);
  for (size_t i = 0; i < objects.size(); ++i) {
    for (const std::string& dep : objects[i].dependsOn) {
      const auto it = index.find(dep);
      if (it == index.end()) {
        throw PortfolioError("object '" + objects[i].name +
                             "' depends on unknown object '" + dep + "'");
      }
      if (it->second == i) {
        throw PortfolioError("object '" + objects[i].name +
                             "' depends on itself");
      }
      dependents[it->second].push_back(i);
      ++inDegree[i];
    }
  }

  // Min-index queue keeps the order deterministic and listing-stable.
  std::priority_queue<size_t, std::vector<size_t>, std::greater<>> ready;
  for (size_t i = 0; i < objects.size(); ++i) {
    if (inDegree[i] == 0) ready.push(i);
  }
  std::vector<size_t> order;
  while (!ready.empty()) {
    const size_t i = ready.top();
    ready.pop();
    order.push_back(i);
    for (size_t next : dependents[i]) {
      if (--inDegree[next] == 0) ready.push(next);
    }
  }
  if (order.size() != objects.size()) {
    throw PortfolioError("recovery dependencies contain a cycle");
  }
  return order;
}

}  // namespace

std::vector<PlacedDemand> mergedDemands(
    const std::vector<ObjectSpec>& objects) {
  std::vector<PlacedDemand> all;
  for (const ObjectSpec& object : objects) {
    for (PlacedDemand pd : object.design.allDemands()) {
      // Qualify the technique with the object so cost attribution stays
      // legible ("db/foreground workload" vs "app/foreground workload").
      pd.demand.techniqueName =
          object.name + "/" + pd.demand.techniqueName;
      all.push_back(std::move(pd));
    }
  }
  return all;
}

Portfolio::Portfolio(std::vector<ObjectSpec> objects)
    : objects_(std::move(objects)) {
  if (objects_.empty()) {
    throw PortfolioError("a portfolio needs at least one object");
  }
  topoOrder_ = topoSort(objects_);
}

const ObjectSpec& Portfolio::object(const std::string& name) const {
  const auto it =
      std::find_if(objects_.begin(), objects_.end(),
                   [&](const ObjectSpec& o) { return o.name == name; });
  if (it == objects_.end()) {
    throw PortfolioError("no object named '" + name + "'");
  }
  return *it;
}

UtilizationResult Portfolio::aggregateUtilization() const {
  return computeUtilization(mergedDemands(objects_));
}

Money Portfolio::aggregateOutlays() const {
  Money total = Money::zero();
  for (const auto& outlay : computeOutlays(mergedDemands(objects_))) {
    total += outlay.total();
  }
  return total;
}

PortfolioRecoveryResult Portfolio::recover(
    const FailureScenario& scenario) const {
  return recoverImpl(scenario,
                     [](const StorageDesign& design,
                        const FailureScenario& sc) {
                       return computeRecovery(design, sc);
                     });
}

std::vector<PortfolioRecoveryResult> Portfolio::recoverBatch(
    const std::vector<FailureScenario>& scenarios,
    engine::Engine* eng) const {
  engine::Engine& resolved = eng != nullptr ? *eng : engine::Engine::shared();

  // Canonical design fingerprints, hoisted: each object's design is paired
  // with every scenario.
  std::map<const StorageDesign*, engine::Fingerprint> designFps;
  for (const ObjectSpec& object : objects_) {
    designFps.emplace(&object.design,
                      engine::fingerprintDesign(object.design));
  }

  std::vector<PortfolioRecoveryResult> results(scenarios.size());
  resolved.parallelFor(scenarios.size(), [&](size_t i) {
    const engine::Fingerprint scenarioFp =
        engine::fingerprintScenario(scenarios[i]);
    results[i] = recoverImpl(
        scenarios[i], [&](const StorageDesign& design,
                          const FailureScenario& sc) {
          return resolved
              .evaluateKeyed(design, sc,
                             engine::combine(designFps.at(&design),
                                             scenarioFp))
              .recovery;
        });
  });
  return results;
}

std::vector<engine::Expected<PortfolioRecoveryResult>>
Portfolio::recoverBatchOutcomes(const std::vector<FailureScenario>& scenarios,
                                const engine::CancellationToken& token,
                                engine::Engine* eng) const {
  engine::Engine& resolved = eng != nullptr ? *eng : engine::Engine::shared();

  std::map<const StorageDesign*, engine::Fingerprint> designFps;
  for (const ObjectSpec& object : objects_) {
    designFps.emplace(&object.design,
                      engine::fingerprintDesign(object.design));
  }

  std::vector<engine::Expected<PortfolioRecoveryResult>> results(
      scenarios.size());
  std::vector<char> completed(scenarios.size(), 0);
  resolved.parallelForCancellable(
      scenarios.size(),
      [&](size_t i) {
        try {
          const engine::Fingerprint scenarioFp =
              engine::fingerprintScenario(scenarios[i]);
          results[i] = recoverImpl(
              scenarios[i], [&](const StorageDesign& design,
                                const FailureScenario& sc) {
                return resolved
                    .evaluateKeyed(design, sc,
                                   engine::combine(designFps.at(&design),
                                                   scenarioFp))
                    .recovery;
              });
        } catch (...) {
          results[i] = engine::errorFromCurrentException();
        }
        completed[i] = 1;
      },
      token);
  // Scenarios the cancelled fan-out never started get the token's error.
  for (size_t i = 0; i < scenarios.size(); ++i) {
    if (completed[i] == 0) results[i] = token.toError();
  }
  return results;
}

PortfolioRecoveryResult Portfolio::recoverImpl(
    const FailureScenario& scenario,
    const std::function<RecoveryResult(const StorageDesign&,
                                       const FailureScenario&)>& recoveryOf)
    const {
  PortfolioRecoveryResult result;
  result.objects.resize(objects_.size());
  result.allRecoverable = true;
  result.totalRecoveryTime = Duration::zero();
  result.worstDataLoss = Duration::zero();

  // When each source device becomes free for the next queued restore.
  std::map<std::string, Duration> deviceFreeAt;
  // Completion time per object index.
  std::vector<Duration> completion(objects_.size(), Duration::infinite());

  for (const size_t i : topoOrder_) {
    const ObjectSpec& object = objects_[i];
    ObjectRecovery& out = result.objects[i];
    out.object = object.name;

    const RecoveryResult own = recoveryOf(object.design, scenario);
    out.recoverable = own.recoverable;
    out.dataLoss = own.dataLoss;
    out.ownDuration = own.recoveryTime;
    if (!own.recoverable) {
      result.allRecoverable = false;
      result.worstDataLoss = Duration::infinite();
      result.totalRecoveryTime = Duration::infinite();
      continue;
    }
    result.worstDataLoss = std::max(result.worstDataLoss, own.dataLoss);

    // Dependencies gate the start.
    Duration earliest = Duration::zero();
    bool depsRecoverable = true;
    for (const std::string& dep : object.dependsOn) {
      const auto it = std::find_if(
          objects_.begin(), objects_.end(),
          [&](const ObjectSpec& o) { return o.name == dep; });
      const auto depIdx = static_cast<size_t>(it - objects_.begin());
      if (!completion[depIdx].isFinite()) depsRecoverable = false;
      earliest = std::max(earliest, completion[depIdx]);
    }
    if (!depsRecoverable) {
      out.recoverable = false;
      result.allRecoverable = false;
      result.totalRecoveryTime = Duration::infinite();
      continue;
    }

    // Restores sharing a source device serialize on it.
    out.sourceDevice = own.timeline.empty()
                           ? std::string{}
                           : own.timeline.front().fromDevice;
    if (!out.sourceDevice.empty()) {
      const auto it = deviceFreeAt.find(out.sourceDevice);
      if (it != deviceFreeAt.end()) {
        earliest = std::max(earliest, it->second);
      }
    }

    out.startTime = earliest;
    out.completionTime = earliest + own.recoveryTime;
    completion[i] = out.completionTime;
    if (!out.sourceDevice.empty()) {
      deviceFreeAt[out.sourceDevice] = out.completionTime;
    }
    result.totalRecoveryTime =
        std::max(result.totalRecoveryTime, out.completionTime);
  }
  return result;
}

}  // namespace stordep::multiobject
