#include "core/techniques/vaulting.hpp"

namespace stordep {

Vaulting::Vaulting(std::string name, DevicePtr backupDevice, DevicePtr vault,
                   DevicePtr shipment, ProtectionPolicy policy,
                   Duration backupRetentionWindow)
    : Technique(std::move(name), TechniqueKind::kVaulting),
      library_(std::move(backupDevice)),
      vault_(std::move(vault)),
      shipment_(std::move(shipment)),
      policy_(std::move(policy)),
      backupRetW_(backupRetentionWindow) {
  if (!library_ || !vault_ || !shipment_) {
    throw TechniqueError(
        "vaulting requires a backup device, a vault and a shipment service");
  }
  if (!shipment_->isTransport()) {
    throw TechniqueError("vaulting shipment device must be a transport");
  }
  if (!(policy_.cyclePeriod().secs() > 0)) {
    throw TechniqueError("vaulting requires a positive cycle period");
  }
}

bool Vaulting::needsExtraCopy() const noexcept {
  return policy_.holdW() < backupRetW_;
}

double Vaulting::shipmentsPerYear() const noexcept {
  return Duration{Duration::kYear} / policy_.cyclePeriod();
}

std::vector<PlacedDemand> Vaulting::normalModeDemands(
    const WorkloadSpec& workload) const {
  std::vector<PlacedDemand> out;
  out.reserve(3);

  // Vault retains retCnt full images.
  out.push_back(PlacedDemand{
      vault_,
      DeviceDemand{.techniqueName = name(),
                   .bandwidth = Bandwidth::zero(),
                   .capacity = workload.dataCap() *
                               static_cast<double>(policy_.retentionCount()),
                   .shipmentsPerYear = 0.0,
                   .isPrimaryTechnique = true}});

  // Courier dispatches.
  out.push_back(PlacedDemand{
      shipment_, DeviceDemand{.techniqueName = name(),
                              .bandwidth = Bandwidth::zero(),
                              .capacity = Bytes{0},
                              .shipmentsPerYear = shipmentsPerYear(),
                              .isPrimaryTechnique = true}});

  // Extra on-site copy when tapes ship before their retention expires:
  // read + write one full image within the vault propagation window, and
  // hold the copy until it ships.
  if (needsExtraCopy()) {
    const Duration copyWindow = policy_.primaryWindows().propW.secs() > 0
                                    ? policy_.primaryWindows().propW
                                    : policy_.cyclePeriod();
    out.push_back(PlacedDemand{
        library_,
        DeviceDemand{.techniqueName = name(),
                     .bandwidth = 2.0 * (workload.dataCap() / copyWindow),
                     .capacity = workload.dataCap(),
                     .shipmentsPerYear = 0.0,
                     .isPrimaryTechnique = false}});
  }
  return out;
}

Bytes Vaulting::restorePayload(const WorkloadSpec& /*workload*/,
                               Bytes baseSize) const {
  return baseSize;  // vaulted RPs are self-contained fulls
}

std::vector<RecoveryLeg> Vaulting::recoveryLegs(
    DevicePtr primaryTarget) const {
  std::vector<RecoveryLeg> legs;
  legs.reserve(2);
  // Leg 1: physically ship the media back to a library.
  legs.push_back(RecoveryLeg{.from = vault_,
                             .to = library_,
                             .via = shipment_,
                             .serializedFix = Duration::zero()});
  // Leg 2: read the media at the library into the replacement primary.
  legs.push_back(RecoveryLeg{.from = library_,
                             .to = primaryTarget,
                             .via = nullptr,
                             .serializedFix = library_->accessDelay()});
  return legs;
}

}  // namespace stordep
