#include "engine/fingerprint.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <unordered_map>

#include "config/design_io.hpp"
#include "core/techniques/backup.hpp"
#include "core/techniques/foreground.hpp"
#include "core/techniques/remote_mirror.hpp"
#include "core/techniques/snapshot.hpp"
#include "core/techniques/split_mirror.hpp"
#include "core/techniques/vaulting.hpp"
#include "devices/disk_array.hpp"
#include "devices/interconnect.hpp"
#include "devices/tape_library.hpp"
#include "devices/vault.hpp"

namespace stordep::engine {

namespace {
constexpr std::uint64_t kFnvPrime = 0x100000001B3ull;
constexpr std::uint64_t kOffsetBasis = 0xCBF29CE484222325ull;
/// Second, independent seed for the high word (an arbitrary odd constant;
/// any fixed value distinct from the offset basis works).
constexpr std::uint64_t kAltBasis = 0x6C62272E07BB0142ull;

std::uint64_t mixWord(std::uint64_t hash, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (word >> (8 * i)) & 0xFFu;
    hash *= kFnvPrime;
  }
  return hash;
}

// ---- Perf counters ---------------------------------------------------------

std::atomic<bool> g_timingEnabled{false};
std::atomic<std::uint64_t> g_designFingerprints{0};
std::atomic<std::uint64_t> g_scenarioFingerprints{0};
std::atomic<std::uint64_t> g_bytesHashed{0};
std::atomic<std::uint64_t> g_hashNanos{0};

/// Scopes one public fingerprint call: counts the op and, when timing is
/// enabled, its wall time. Byte counts are added by the hashers themselves.
class CountedOp {
 public:
  explicit CountedOp(std::atomic<std::uint64_t>& ops)
      : timed_(g_timingEnabled.load(std::memory_order_relaxed)) {
    ops.fetch_add(1, std::memory_order_relaxed);
    if (timed_) start_ = std::chrono::steady_clock::now();
  }
  ~CountedOp() {
    if (timed_) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      g_hashNanos.fetch_add(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                  .count()),
          std::memory_order_relaxed);
    }
  }
  CountedOp(const CountedOp&) = delete;
  CountedOp& operator=(const CountedOp&) = delete;

 private:
  bool timed_;
  std::chrono::steady_clock::time_point start_;
};

// ---- Structural hashing ----------------------------------------------------
//
// A StructuralHasher feeds a *tagged token stream* word-at-a-time into the
// same two seeded FNV-1a streams fingerprintBytes uses (word-wise rather
// than byte-wise — the equality classes, not the bit values, are what must
// match the JSON path). Injectivity of the stream: every token starts with
// a kind word, strings are length-prefixed, arrays are count-prefixed and
// optional fields carry explicit present/absent markers, so two different
// token sequences can never serialize to the same word sequence.
//
// Number tokens replicate config's writeNumber exactly: a finite double is
// hashed by its bit pattern (writeNumber is injective on finite doubles,
// including -0.0 vs 0.0), while *every* non-finite double is collapsed to
// the single null token, because writeNumber prints "null" for all of them.
// Integral model fields are widened to double first, mirroring their trip
// through Json's number representation.
class StructuralHasher {
 public:
  void str(std::string_view s) {
    word(kStr);
    word(s.size());
    std::size_t i = 0;
    for (; i + 8 <= s.size(); i += 8) {
      std::uint64_t w;
      std::memcpy(&w, s.data() + i, 8);
      word(w);
    }
    if (i < s.size()) {
      std::uint64_t w = 0;
      std::memcpy(&w, s.data() + i, s.size() - i);
      word(w);
    }
  }

  void num(double v) {
    if (std::isfinite(v)) {
      std::uint64_t bits;
      std::memcpy(&bits, &v, 8);
      word(kNum);
      word(bits);
    } else {
      word(kNull);  // writeNumber prints "null" for every non-finite value
    }
  }

  void num(int v) { num(static_cast<double>(v)); }

  /// Enum ordinal / discriminator.
  void tag(unsigned v) {
    word(kTag);
    word(v);
  }

  /// Marks an optional field; mirrors the JSON writers' conditional set().
  void present(bool p) { word(p ? kPresent : kAbsent); }

  /// Array-length prefix.
  void count(std::size_t n) {
    word(kCount);
    word(n);
  }

  /// Folds a sub-fingerprint (a nested section hashed in its own stream).
  void fold(const Fingerprint& fp) {
    word(kFold);
    word(fp.hi);
    word(fp.lo);
  }

  [[nodiscard]] Fingerprint finish() const {
    g_bytesHashed.fetch_add(bytes_, std::memory_order_relaxed);
    return Fingerprint{hi_, lo_};
  }

 private:
  enum TokenKind : std::uint64_t {
    kStr = 1,
    kNum = 2,
    kNull = 3,
    kTag = 4,
    kPresent = 5,
    kAbsent = 6,
    kCount = 7,
    kFold = 8,
  };

  void word(std::uint64_t w) {
    lo_ = (lo_ ^ w) * kFnvPrime;
    hi_ = (hi_ ^ w) * kFnvPrime;
    bytes_ += 8;
  }

  std::uint64_t lo_ = kOffsetBasis;
  std::uint64_t hi_ = kAltBasis;
  std::uint64_t bytes_ = 0;
};

// Each hash* helper mirrors the corresponding *ToJson writer in
// config/design_io.cpp field for field, including every conditional
// omission — that replication is what makes structural equality coincide
// with canonical-serialization equality.

void hashLocation(StructuralHasher& h, const Location& loc) {
  h.str(loc.site);
  if (loc.building != loc.site) {
    h.present(true);
    h.str(loc.building);
  } else {
    h.present(false);
  }
  if (loc.region != loc.site) {
    h.present(true);
    h.str(loc.region);
  } else {
    h.present(false);
  }
}

void hashSpare(StructuralHasher& h, const SpareSpec& spare) {
  h.tag(static_cast<unsigned>(spare.type));
  if (spare.type != SpareType::kNone) {
    h.num(spare.provisioningTime.secs());
    h.num(spare.discountFactor);
  }
}

void hashCost(StructuralHasher& h, const DeviceCostModel& cost) {
  h.num(cost.fixedCost.usd());
  h.num(cost.costPerGB);
  h.num(cost.costPerMBps);
  h.num(cost.costPerShipment);
}

void hashWindows(StructuralHasher& h, const WindowSpec& w) {
  h.num(w.accW.secs());
  h.num(w.propW.secs());
  h.num(w.holdW.secs());
  h.tag(static_cast<unsigned>(w.propRep));
}

void hashPolicy(StructuralHasher& h, const ProtectionPolicy& policy) {
  hashWindows(h, policy.primaryWindows());
  if (policy.isCyclic()) {
    h.present(true);
    hashWindows(h, *policy.secondaryWindows());
    h.num(policy.cycleCount());
    h.num(policy.cyclePeriod().secs());
  } else {
    h.present(false);
  }
  h.num(policy.retentionCount());
  h.num(policy.retentionWindow().secs());
  h.tag(static_cast<unsigned>(policy.copyRep()));
}

Fingerprint hashDeviceTokens(const DeviceModel& device) {
  StructuralHasher h;
  const DeviceSpec& spec = device.spec();
  if (const auto* array = dynamic_cast<const DiskArray*>(&device)) {
    h.tag(0);  // disk_array
    h.tag(static_cast<unsigned>(array->raidLevel()));
    h.num(array->raidGroupSize());
  } else if (dynamic_cast<const TapeLibrary*>(&device) != nullptr) {
    h.tag(1);  // tape_library
  } else if (dynamic_cast<const MediaVault*>(&device) != nullptr) {
    h.tag(2);  // vault
  } else if (const auto* link = dynamic_cast<const NetworkLink*>(&device)) {
    h.tag(3);  // network_link
    h.num(link->linkCount());
    h.num(link->perLinkBandwidth().bytesPerSec());
  } else if (dynamic_cast<const PhysicalShipment*>(&device) != nullptr) {
    h.tag(4);  // shipment
  } else {
    // Same contract as deviceToJson: an unknown device type has no
    // canonical form, so the design has no fingerprint either.
    throw config::DesignIoError(
        "cannot serialize unknown device type for '" + device.name() + "'");
  }
  h.str(spec.name);
  hashLocation(h, spec.location);
  h.num(spec.maxCapSlots);
  h.num(spec.slotCap.bytes());
  h.num(spec.maxBWSlots);
  h.num(spec.slotBW.bytesPerSec());
  h.num(spec.enclosureBW.bytesPerSec());
  h.num(spec.accessDelay.secs());
  hashCost(h, spec.cost);
  hashSpare(h, spec.spare);
  return h.finish();
}

Fingerprint hashWorkloadTokens(const WorkloadSpec& workload) {
  StructuralHasher h;
  h.str(workload.name());
  h.num(workload.dataCap().bytes());
  h.num(workload.avgAccessRate().bytesPerSec());
  h.num(workload.avgUpdateRate().bytesPerSec());
  h.num(workload.burstMultiplier());
  h.count(workload.batchCurve().size());
  for (const BatchUpdatePoint& point : workload.batchCurve()) {
    h.num(point.window.secs());
    h.num(point.rate.bytesPerSec());
  }
  return h.finish();
}

/// Hashes one level: technique discriminator + device references + policy
/// (mirroring levelToJson). Each referenced device contributes its *name*
/// (what the JSON writes) and its full spec fingerprint via `fpFor`.
Fingerprint hashLevelTokens(
    const Technique& level,
    const std::function<Fingerprint(const DevicePtr&)>& fpFor) {
  StructuralHasher h;
  auto ref = [&](const DevicePtr& device) {
    h.str(device->name());
    h.fold(fpFor(device));
  };
  switch (level.kind()) {
    case TechniqueKind::kPrimaryCopy: {
      const auto& primary = static_cast<const PrimaryCopy&>(level);
      h.tag(0);  // primary_copy — the one level serialized without a name
      ref(primary.array());
      break;
    }
    case TechniqueKind::kVirtualSnapshot: {
      const auto& snap = static_cast<const VirtualSnapshot&>(level);
      h.tag(1);  // virtual_snapshot
      h.str(level.name());
      ref(snap.array());
      break;
    }
    case TechniqueKind::kSplitMirror: {
      const auto& sm = static_cast<const SplitMirror&>(level);
      h.tag(2);  // split_mirror
      h.str(level.name());
      ref(sm.array());
      break;
    }
    case TechniqueKind::kSyncMirror:
    case TechniqueKind::kAsyncMirror:
    case TechniqueKind::kAsyncBatchMirror: {
      // All three kinds serialize as "remote_mirror"; the mode field is the
      // discriminator, exactly as in levelToJson.
      const auto& mirror = static_cast<const RemoteMirror&>(level);
      h.tag(3);  // remote_mirror
      h.str(level.name());
      h.tag(static_cast<unsigned>(mirror.mode()));
      ref(mirror.sourceArray());
      ref(mirror.destArray());
      ref(mirror.links());
      break;
    }
    case TechniqueKind::kBackup: {
      const auto& backup = static_cast<const Backup&>(level);
      h.tag(4);  // backup
      h.str(level.name());
      h.tag(static_cast<unsigned>(backup.style()));
      ref(backup.sourceArray());
      ref(backup.backupDevice());
      if (backup.transport()) {
        h.present(true);
        ref(backup.transport());
      } else {
        h.present(false);
      }
      break;
    }
    case TechniqueKind::kVaulting: {
      const auto& vaulting = static_cast<const Vaulting&>(level);
      h.tag(5);  // vaulting
      h.str(level.name());
      ref(vaulting.backupDevice());
      ref(vaulting.vault());
      ref(vaulting.shipment());
      break;
    }
  }
  if (level.policy() != nullptr) {
    h.present(true);
    hashPolicy(h, *level.policy());
  } else {
    h.present(false);
  }
  return h.finish();
}

/// One structural pass over a whole design.
Fingerprint hashDesignTokens(const StorageDesign& design) {
  StructuralHasher h;
  h.str(design.name());

  h.fold(hashWorkloadTokens(design.workload()));

  const BusinessRequirements& business = design.business();
  h.num(business.unavailabilityPenaltyRate.usdPerHour());
  h.num(business.lossPenaltyRate.usdPerHour());
  if (business.rto) {
    h.present(true);
    h.num(business.rto->secs());
  } else {
    h.present(false);
  }
  if (business.rpo) {
    h.present(true);
    h.num(business.rpo->secs());
  } else {
    h.present(false);
  }

  // Device section in the same deterministic order designToJson writes it;
  // the levels fold the same per-device fingerprints.
  const std::vector<DevicePtr> devices = design.devices();
  std::unordered_map<const DeviceModel*, Fingerprint> deviceFps;
  deviceFps.reserve(devices.size());
  auto fpFor = [&](const DevicePtr& device) -> Fingerprint {
    const auto it = deviceFps.find(device.get());
    if (it != deviceFps.end()) return it->second;
    // Levels only reference devices that devices() already visited; compute
    // defensively anyway so a future technique cannot silently alias.
    return deviceFps.emplace(device.get(), hashDeviceTokens(*device))
        .first->second;
  };
  h.count(devices.size());
  for (const DevicePtr& device : devices) {
    h.fold(fpFor(device));
  }

  h.count(static_cast<std::size_t>(design.levelCount()));
  for (int i = 0; i < design.levelCount(); ++i) {
    h.fold(hashLevelTokens(design.level(i), fpFor));
  }

  if (design.facility()) {
    h.present(true);
    hashLocation(h, design.facility()->location);
    h.num(design.facility()->provisioningTime.secs());
    h.num(design.facility()->costDiscount);
  } else {
    h.present(false);
  }

  return h.finish();
}

}  // namespace

std::string Fingerprint::toHex() const {
  std::array<char, 33> buf{};
  std::snprintf(buf.data(), buf.size(), "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return std::string(buf.data());
}

std::optional<Fingerprint> Fingerprint::fromHex(std::string_view hex) noexcept {
  if (hex.size() != 32) return std::nullopt;
  std::uint64_t words[2] = {0, 0};
  for (int w = 0; w < 2; ++w) {
    for (int i = 0; i < 16; ++i) {
      const char c = hex[static_cast<std::size_t>(w * 16 + i)];
      std::uint64_t digit;
      if (c >= '0' && c <= '9') {
        digit = static_cast<std::uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        digit = static_cast<std::uint64_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        digit = static_cast<std::uint64_t>(c - 'A' + 10);
      } else {
        return std::nullopt;
      }
      words[w] = (words[w] << 4) | digit;
    }
  }
  return Fingerprint{words[0], words[1]};
}

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t hash = seed;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

Fingerprint fingerprintBytes(std::string_view bytes) {
  return Fingerprint{fnv1a64(bytes, kAltBasis), fnv1a64(bytes, kOffsetBasis)};
}

std::string canonicalSerialization(const StorageDesign& design) {
  return config::designToJson(design).dump();
}

std::string canonicalSerialization(const FailureScenario& scenario) {
  return config::scenarioToJson(scenario).dump();
}

Fingerprint fingerprintDesign(const StorageDesign& design) {
  const CountedOp op(g_designFingerprints);
  return hashDesignTokens(design);
}

Fingerprint fingerprintScenario(const FailureScenario& scenario) {
  const CountedOp op(g_scenarioFingerprints);
  StructuralHasher h;
  h.tag(static_cast<unsigned>(scenario.scope));
  if (!scenario.target.empty()) {
    h.present(true);
    h.str(scenario.target);
  } else {
    h.present(false);
  }
  // Mirrors scenarioToJson: an age of zero (or less, or NaN) is omitted.
  if (scenario.recoveryTargetAge > Duration::zero()) {
    h.present(true);
    h.num(scenario.recoveryTargetAge.secs());
  } else {
    h.present(false);
  }
  if (scenario.recoverySize) {
    h.present(true);
    h.num(scenario.recoverySize->bytes());
  } else {
    h.present(false);
  }
  return h.finish();
}

Fingerprint fingerprintDesignJson(const StorageDesign& design) {
  return fingerprintBytes(canonicalSerialization(design));
}

Fingerprint fingerprintScenarioJson(const FailureScenario& scenario) {
  return fingerprintBytes(canonicalSerialization(scenario));
}

Fingerprint combine(const Fingerprint& a, const Fingerprint& b) {
  // Continue each FNV stream through the other fingerprint's words; the
  // byte-wise feed keeps the combination order-sensitive.
  Fingerprint out;
  out.lo = mixWord(mixWord(mixWord(mixWord(a.lo, a.hi), b.lo), b.hi), 1);
  out.hi = mixWord(mixWord(mixWord(mixWord(a.hi, a.lo), b.hi), b.lo), 2);
  return out;
}

Fingerprint fingerprintEvaluation(const StorageDesign& design,
                                  const FailureScenario& scenario) {
  return combine(fingerprintDesign(design), fingerprintScenario(scenario));
}

std::uint64_t ringPoint(const Fingerprint& fp) noexcept {
  // splitmix64 finalizer over a fold of both words; the golden-ratio
  // multiplier keeps lo's contribution from cancelling against hi for
  // related fingerprints.
  std::uint64_t x = fp.hi ^ (fp.lo * 0x9E3779B97F4A7C15ull);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

FingerprintCounters fingerprintCounters() noexcept {
  FingerprintCounters out;
  out.designFingerprints = g_designFingerprints.load(std::memory_order_relaxed);
  out.scenarioFingerprints =
      g_scenarioFingerprints.load(std::memory_order_relaxed);
  out.bytesHashed = g_bytesHashed.load(std::memory_order_relaxed);
  out.hashNanos = g_hashNanos.load(std::memory_order_relaxed);
  return out;
}

void resetFingerprintCounters() noexcept {
  g_designFingerprints.store(0, std::memory_order_relaxed);
  g_scenarioFingerprints.store(0, std::memory_order_relaxed);
  g_bytesHashed.store(0, std::memory_order_relaxed);
  g_hashNanos.store(0, std::memory_order_relaxed);
}

FingerprintCounters fingerprintCountersReset() noexcept {
  FingerprintCounters out;
  out.designFingerprints =
      g_designFingerprints.exchange(0, std::memory_order_relaxed);
  out.scenarioFingerprints =
      g_scenarioFingerprints.exchange(0, std::memory_order_relaxed);
  out.bytesHashed = g_bytesHashed.exchange(0, std::memory_order_relaxed);
  out.hashNanos = g_hashNanos.exchange(0, std::memory_order_relaxed);
  return out;
}

void setFingerprintTiming(bool enabled) noexcept {
  g_timingEnabled.store(enabled, std::memory_order_relaxed);
}

bool fingerprintTimingEnabled() noexcept {
  return g_timingEnabled.load(std::memory_order_relaxed);
}

}  // namespace stordep::engine
