// fingerprint.hpp — canonical identity of an evaluation request.
//
// The memoizing cache needs a deterministic key for a (StorageDesign,
// FailureScenario) pair. Hashing in-memory object graphs directly would be
// fragile (pointer identity, padding, float bit patterns for -0.0/NaN), so
// the key is *defined* over a canonical serialization: the design-document
// JSON from config::designToJson / scenarioToJson, dumped compactly. That
// serialization writes every quantity as a number in base units at full
// round-trip precision (%.17g), and its field order is fixed by the writer,
// so two pairs serialize identically iff the models would evaluate
// identically. A 128-bit fingerprint makes accidental collisions (a cache
// silently returning the wrong result) a non-concern at any realistic sweep
// size.
//
// The hot path, however, never materializes that JSON. fingerprintDesign /
// fingerprintScenario hash the model fields *structurally*: a tagged token
// stream (strings length-prefixed, finite doubles by bit pattern, every
// non-finite double collapsed to one null token exactly as the JSON writer
// collapses them to "null", optional fields preceded by presence markers,
// conditional fields replicated from the writers' own conditions) fed
// word-at-a-time into the same two independently seeded FNV streams — zero
// string allocation, no number formatting. The token stream is a function
// of exactly the fields the canonical JSON contains, so structural
// fingerprint equality coincides with canonical-serialization equality
// (property-tested in tests/fingerprint_equivalence_test.cpp). The JSON-
// based reference path is kept as fingerprintDesignJson / ...ScenarioJson
// for that test and for the bench that measures the speedup.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/failure.hpp"
#include "core/hierarchy.hpp"

namespace stordep::engine {

/// 128-bit content fingerprint; value-comparable and hashable.
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;

  /// 32 lowercase hex digits, hi word first (for logs and tests).
  [[nodiscard]] std::string toHex() const;

  /// Parses the toHex() form; nullopt unless exactly 32 hex digits. Used by
  /// the checkpoint journal to round-trip keys through text.
  [[nodiscard]] static std::optional<Fingerprint> fromHex(
      std::string_view hex) noexcept;
};

struct FingerprintHash {
  [[nodiscard]] std::size_t operator()(const Fingerprint& fp) const noexcept {
    // The words are already uniform; fold them.
    return static_cast<std::size_t>(fp.lo ^ (fp.hi * 0x9E3779B97F4A7C15ull));
  }
};

/// FNV-1a over `bytes`, starting from `seed` (defaults to the standard
/// 64-bit offset basis).
[[nodiscard]] std::uint64_t fnv1a64(
    std::string_view bytes, std::uint64_t seed = 0xCBF29CE484222325ull);

/// Fingerprint of an arbitrary byte string (two seeded FNV-1a passes).
[[nodiscard]] Fingerprint fingerprintBytes(std::string_view bytes);

/// The canonical byte strings the fingerprint *equality classes* are defined
/// over (exposed for tests and debugging).
[[nodiscard]] std::string canonicalSerialization(const StorageDesign& design);
[[nodiscard]] std::string canonicalSerialization(
    const FailureScenario& scenario);

/// Structural (serialization-free) fingerprints: the hot path.
[[nodiscard]] Fingerprint fingerprintDesign(const StorageDesign& design);
[[nodiscard]] Fingerprint fingerprintScenario(const FailureScenario& scenario);

/// JSON-based reference implementations (two FNV passes over
/// canonicalSerialization). Same equality classes as the structural pair
/// above — the bit values differ; never mix the two families as cache keys.
[[nodiscard]] Fingerprint fingerprintDesignJson(const StorageDesign& design);
[[nodiscard]] Fingerprint fingerprintScenarioJson(
    const FailureScenario& scenario);

/// Order-sensitive combination of two fingerprints (design ⊕ scenario). Lets
/// callers fingerprint a design once and pair it with many scenarios without
/// re-hashing the design.
[[nodiscard]] Fingerprint combine(const Fingerprint& a, const Fingerprint& b);

/// Fingerprint of one evaluation request:
/// combine(fingerprintDesign(d), fingerprintScenario(s)).
[[nodiscard]] Fingerprint fingerprintEvaluation(const StorageDesign& design,
                                                const FailureScenario& scenario);

/// Folds a fingerprint into one well-mixed 64-bit value for consistent-hash
/// placement (src/cluster): the shard ring is keyed on these points. A
/// splitmix64-style finalizer over both words, so every fingerprint bit
/// perturbs every point bit — uniform ring coverage regardless of how the
/// FNV streams cluster.
[[nodiscard]] std::uint64_t ringPoint(const Fingerprint& fp) noexcept;

// ---- Perf counters ---------------------------------------------------------
// Process-wide relaxed counters over every structural fingerprint computed.
// Nanosecond accounting is off by default because the clock reads would
// rival the hash cost; the benches switch it on around their timed sections.

struct FingerprintCounters {
  std::uint64_t designFingerprints = 0;
  std::uint64_t scenarioFingerprints = 0;
  std::uint64_t bytesHashed = 0;  ///< token-stream bytes fed to the FNV state
  std::uint64_t hashNanos = 0;    ///< 0 unless timing is enabled

  [[nodiscard]] double nanosPerFingerprint() const noexcept {
    const std::uint64_t ops = designFingerprints + scenarioFingerprints;
    return ops == 0 ? 0.0
                    : static_cast<double>(hashNanos) / static_cast<double>(ops);
  }
};

[[nodiscard]] FingerprintCounters fingerprintCounters() noexcept;
void resetFingerprintCounters() noexcept;
/// Atomically reads *and zeroes* the counters, returning the values they
/// held. A periodic scraper (the service's /metrics endpoint) calls this
/// once per scrape so consecutive snapshots are per-interval rates rather
/// than process-lifetime totals, without a read-then-reset race dropping
/// ops counted in between.
[[nodiscard]] FingerprintCounters fingerprintCountersReset() noexcept;
/// Enables steady_clock accounting of hash time (benches only).
void setFingerprintTiming(bool enabled) noexcept;
[[nodiscard]] bool fingerprintTimingEnabled() noexcept;

}  // namespace stordep::engine
