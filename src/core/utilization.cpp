#include "core/utilization.hpp"

#include <algorithm>
#include <map>

namespace stordep {

const DeviceUtilization* UtilizationResult::find(
    const std::string& name) const {
  const auto it =
      std::find_if(devices.begin(), devices.end(),
                   [&](const DeviceUtilization& d) { return d.device == name; });
  return it == devices.end() ? nullptr : &*it;
}

UtilizationResult computeUtilization(const StorageDesign& design) {
  return computeUtilization(design.allDemands());
}

UtilizationResult computeUtilization(const std::vector<PlacedDemand>& all) {
  // Gather demands per device, preserving first-seen device order.
  std::vector<DevicePtr> order;
  std::map<const DeviceModel*, std::vector<DeviceDemand>> byDevice;
  for (const auto& pd : all) {
    if (byDevice.find(pd.device.get()) == byDevice.end()) {
      order.push_back(pd.device);
    }
    byDevice[pd.device.get()].push_back(pd.demand);
  }

  UtilizationResult result;
  for (const auto& device : order) {
    DeviceUtilization du;
    du.device = device->name();
    du.bwLimit = device->maxBandwidth();
    du.capLimit = device->usableCapacity();

    for (const auto& demand : byDevice[device.get()]) {
      DemandShare share;
      share.technique = demand.techniqueName;
      share.bandwidth = demand.bandwidth;
      share.capacity = demand.capacity;
      share.bwUtil = du.bwLimit.isInfinite() || du.bwLimit.bytesPerSec() == 0
                         ? 0.0
                         : demand.bandwidth / du.bwLimit;
      share.capUtil = du.capLimit.isInfinite()
                          ? 0.0
                          : demand.capacity / du.capLimit;
      du.bwDemand += demand.bandwidth;
      du.capDemand += demand.capacity;
      du.bwUtil += share.bwUtil;
      du.capUtil += share.capUtil;
      du.shares.push_back(std::move(share));
    }

    if (du.bwUtil > 1.0) {
      result.errors.push_back(
          "device '" + du.device + "' bandwidth overloaded: demand " +
          toString(du.bwDemand) + " exceeds " + toString(du.bwLimit));
    }
    if (du.capUtil > 1.0) {
      result.errors.push_back(
          "device '" + du.device + "' capacity overloaded: demand " +
          toString(du.capDemand) + " exceeds " + toString(du.capLimit));
    }
    result.devices.push_back(std::move(du));
  }

  for (const auto& du : result.devices) {
    if (du.bwUtil > result.overallBwUtil) {
      result.overallBwUtil = du.bwUtil;
      result.maxBwDevice = du.device;
    }
    if (du.capUtil > result.overallCapUtil) {
      result.overallCapUtil = du.capUtil;
      result.maxCapDevice = du.device;
    }
  }
  return result;
}

UtilizationFeasibility computeUtilizationFeasibility(
    const std::vector<PlacedDemand>& all) {
  // Same first-seen device order as computeUtilization(), without building
  // the per-device demand map: for each distinct device, re-scan `all` for
  // its demands. The per-demand accumulation below must mirror the full
  // model's exactly (same expressions, same order) so the double sums land
  // on the same bits.
  std::vector<const DeviceModel*> seen;
  seen.reserve(all.size());
  UtilizationFeasibility out;
  for (std::size_t first = 0; first < all.size(); ++first) {
    const DeviceModel* device = all[first].device.get();
    bool isNew = true;
    for (const DeviceModel* s : seen) {
      if (s == device) {
        isNew = false;
        break;
      }
    }
    if (!isNew) continue;
    seen.push_back(device);

    const Bandwidth bwLimit = device->maxBandwidth();
    const Bytes capLimit = device->usableCapacity();
    Bandwidth bwDemand;
    Bytes capDemand;
    double bwUtil = 0.0;
    double capUtil = 0.0;
    for (std::size_t i = first; i < all.size(); ++i) {
      if (all[i].device.get() != device) continue;
      const DeviceDemand& demand = all[i].demand;
      const double shareBw = bwLimit.isInfinite() || bwLimit.bytesPerSec() == 0
                                 ? 0.0
                                 : demand.bandwidth / bwLimit;
      const double shareCap =
          capLimit.isInfinite() ? 0.0 : demand.capacity / capLimit;
      bwDemand += demand.bandwidth;
      capDemand += demand.capacity;
      bwUtil += shareBw;
      capUtil += shareCap;
    }

    if (bwUtil > 1.0) {
      out.feasible = false;
      out.firstError = "device '" + std::string(device->name()) +
                       "' bandwidth overloaded: demand " + toString(bwDemand) +
                       " exceeds " + toString(bwLimit);
      return out;
    }
    if (capUtil > 1.0) {
      out.feasible = false;
      out.firstError = "device '" + std::string(device->name()) +
                       "' capacity overloaded: demand " + toString(capDemand) +
                       " exceeds " + toString(capLimit);
      return out;
    }
  }
  return out;
}

}  // namespace stordep
