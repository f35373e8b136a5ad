#pragma once
// Pluggable set-index computation for sim::Cache (round 2 of the engine
// hot-path work, see docs/PERFORMANCE.md). Every probe, fill, filter
// lookup and invalidation maps a line address to a set through one of
// these indexers:
//
//   SetHash::kMask  Physical low-bit indexing, exactly what the model
//                   always did: `addr & (sets-1)` for power-of-two set
//                   counts, `addr % sets` otherwise. Every paper figure
//                   and benchmark workload has power-of-two set counts;
//                   the `%` path serves odd test geometries.
//   SetHash::kH3    A zsim-style H3 universal hash (one fixed random
//                   row per output bit; output bit i is the parity of
//                   `addr & row[i]`), spreading pathological strides
//                   across sets the way hashed LLCs do. Unlike kMask
//                   this CHANGES placement and therefore simulated
//                   results, so MachineConfig::set_hash keys
//                   measure::machine_fingerprint when it deviates from
//                   the default.
#include <array>
#include <cstdint>

#include "sim/types.hpp"

namespace am::sim {

/// Set-index function selector (CacheConfig::set_hash,
/// MachineConfig::set_hash).
enum class SetHash : std::uint8_t {
  kMask = 0,  // low-bit mask (pow2) / modulo (non-pow2)
  kH3 = 1,    // H3 family hash over the line address
};

/// Human name ("mask" / "h3").
const char* set_hash_name(SetHash hash);

class SetIndexer {
 public:
  /// Trivial indexer (one set) so Cache members can be default-built
  /// before configuration is validated.
  SetIndexer() : SetIndexer(SetHash::kMask, 1) {}
  /// Throws std::invalid_argument when num_sets == 0.
  SetIndexer(SetHash hash, std::uint64_t num_sets);

  std::uint64_t num_sets() const { return num_sets_; }

  /// The set this line address maps to, in [0, num_sets()).
  std::uint64_t index(Addr line_addr) const {
    switch (mode_) {
      case Mode::kPow2Mask:
        return line_addr & mask_;
      case Mode::kMod:
        return line_addr % num_sets_;
      case Mode::kH3Pow2:
        return h3(line_addr);
      default:  // Mode::kH3Mod
        return h3(line_addr) % num_sets_;
    }
  }

 private:
  enum class Mode : std::uint8_t { kPow2Mask, kMod, kH3Pow2, kH3Mod };

  std::uint64_t h3(Addr line_addr) const {
    std::uint64_t out = 0;
    for (std::uint32_t b = 0; b < h3_bits_; ++b)
      out |= static_cast<std::uint64_t>(parity(line_addr & h3_rows_[b])) << b;
    return out;
  }
  static std::uint32_t parity(std::uint64_t x) {
    return static_cast<std::uint32_t>(__builtin_popcountll(x)) & 1u;
  }

  Mode mode_ = Mode::kPow2Mask;
  std::uint64_t num_sets_ = 1;
  std::uint64_t mask_ = 0;  // num_sets-1 when power of two, else 0

  // H3 rows: one fixed 64-bit mask per output bit, deterministically
  // seeded so every run (and every process) places lines identically.
  std::uint32_t h3_bits_ = 0;
  std::array<std::uint64_t, 64> h3_rows_{};
};

}  // namespace am::sim
