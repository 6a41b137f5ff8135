#include "core/techniques/remote_mirror.hpp"

namespace stordep {

std::string toString(MirrorMode mode) {
  switch (mode) {
    case MirrorMode::kSync:
      return "sync";
    case MirrorMode::kAsync:
      return "async";
    case MirrorMode::kAsyncBatch:
      return "async-batch";
  }
  return "unknown";
}

ProtectionPolicy continuousMirrorPolicy() {
  return ProtectionPolicy(
      WindowSpec{.accW = Duration::zero(),
                 .propW = Duration::zero(),
                 .holdW = Duration::zero(),
                 .propRep = Representation::kPartial},
      /*retentionCount=*/1, /*retentionWindow=*/Duration::zero(),
      Representation::kFull);
}

RemoteMirror::RemoteMirror(std::string name, MirrorMode mode,
                           DevicePtr sourceArray, DevicePtr destArray,
                           DevicePtr links, ProtectionPolicy policy)
    : Technique(std::move(name), mode == MirrorMode::kSync
                                     ? TechniqueKind::kSyncMirror
                                     : (mode == MirrorMode::kAsync
                                            ? TechniqueKind::kAsyncMirror
                                            : TechniqueKind::kAsyncBatchMirror)),
      mode_(mode),
      source_(std::move(sourceArray)),
      dest_(std::move(destArray)),
      links_(std::move(links)),
      policy_(std::move(policy)) {
  if (!source_ || !dest_ || !links_) {
    throw TechniqueError("remote mirror requires source, destination, links");
  }
  if (source_ == dest_) {
    throw TechniqueError("remote mirror destination must be a separate array");
  }
  if (mode_ == MirrorMode::kAsyncBatch &&
      !(policy_.primaryWindows().accW.secs() > 0)) {
    throw TechniqueError("async-batch mirroring requires a positive accW");
  }
}

Bandwidth RemoteMirror::propagationRate(const WorkloadSpec& workload) const {
  switch (mode_) {
    case MirrorMode::kSync:
      // Writes block on the remote copy: the links must absorb bursts.
      return workload.peakUpdateRate();
    case MirrorMode::kAsync:
      // Background propagation smooths bursts in buffer; every update still
      // crosses the wire.
      return workload.avgUpdateRate();
    case MirrorMode::kAsyncBatch: {
      // Overwrites within a batch window are coalesced; a batch of unique
      // updates is transmitted each propW.
      const WindowSpec& w = policy_.primaryWindows();
      const Duration xmit = w.propW.secs() > 0 ? w.propW : w.accW;
      return workload.uniqueBytes(w.accW) / xmit;
    }
  }
  return Bandwidth::zero();
}

Duration RemoteMirror::foregroundWriteLatency() const {
  if (mode_ != MirrorMode::kSync) return Duration::zero();
  return 2.0 * links_->accessDelay();
}

Bytes RemoteMirror::requiredBufferSize(const WorkloadSpec& workload,
                                       Duration burstDuration) const {
  if (mode_ == MirrorMode::kSync) return Bytes{0};
  const Bandwidth peak = workload.peakUpdateRate();
  const Bandwidth drain = links_->maxBandwidth();
  const Bytes overshoot = peak > drain
                              ? (peak - drain) * burstDuration
                              : Bytes{0};
  if (mode_ == MirrorMode::kAsync) return overshoot;
  // Async-batch stages one full batch of unique updates before sending.
  return workload.uniqueBytes(policy_.primaryWindows().accW) + overshoot;
}

std::vector<PlacedDemand> RemoteMirror::normalModeDemands(
    const WorkloadSpec& workload) const {
  const Bandwidth rate = propagationRate(workload);
  std::vector<PlacedDemand> out;
  out.reserve(2);
  // Links: this technique owns them.
  out.push_back(PlacedDemand{
      links_, DeviceDemand{.techniqueName = name(),
                           .bandwidth = rate,
                           .capacity = Bytes{0},
                           .shipmentsPerYear = 0.0,
                           .isPrimaryTechnique = true}});
  // Destination array: applies the update stream, holds one full copy.
  out.push_back(PlacedDemand{
      dest_, DeviceDemand{.techniqueName = name(),
                          .bandwidth = rate,
                          .capacity = workload.dataCap(),
                          .shipmentsPerYear = 0.0,
                          .isPrimaryTechnique = true}});
  return out;
}

std::vector<RecoveryLeg> RemoteMirror::recoveryLegs(
    DevicePtr primaryTarget) const {
  // `via = links_` is a hint; the recovery model drops the WAN hop when the
  // replacement primary is co-located with the mirror (site failover).
  return {RecoveryLeg{.from = dest_,
                      .to = primaryTarget ? primaryTarget : source_,
                      .via = links_,
                      .serializedFix = Duration::zero()}};
}

}  // namespace stordep
