#pragma once
// Set-associative cache model with per-line LRU stamps, dirty bits, owner
// tags (for occupancy accounting in validation tests) and sharer masks
// (for inclusive-L3 back-invalidation).
//
// Storage is column-major per set: each set is one contiguous block
// holding its `ways` tags, then its stamps, sharer masks, owners and
// dirty bits. An invalid way holds the tag kNoLine, so the hit test is
// one compare per way, and every set walk is a branch-free scan of all
// ways (find_way) — no early exit, no per-way validity branch.
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/set_index.hpp"
#include "sim/types.hpp"

namespace am::sim {

/// Victim selection policy.
enum class Replacement : std::uint8_t {
  kLru,     // strict least-recently-used (per-line stamps)
  kRandom,  // uniform random victim (deterministic per-cache stream);
            // closer to the steady state the paper's Eq. 2-3 derivation
            // assumes, and to how aggressively real pseudo-LRU L3s evict
            // hot lines under churn
};

struct CacheConfig {
  std::uint64_t size_bytes = 0;
  std::uint32_t line_bytes = 64;
  std::uint32_t ways = 8;
  std::string name;
  /// Optional thrash resistance (SRRIP-style): newly inserted lines enter
  /// with a stamp this many accesses in the past, so one-touch streaming
  /// data is evicted before recently re-used lines. 0 (default, used by
  /// the Xeon20MB presets) = plain MRU insertion, which reproduces the
  /// paper's observation that 3+ BWThrs start stealing cache capacity;
  /// see bench/abl_insertion for the policy tradeoff.
  std::uint64_t insert_age = 0;
  Replacement replacement = Replacement::kLru;
  /// Enables the filter fast path (see Cache::try_fast_hit): a flat
  /// one-entry-per-set MRU tag array resolving repeat hits with a single
  /// compare, zsim-filter-cache style. Pure host-speed knob — simulated
  /// state and every outcome stay bit-identical (see
  /// tests/sim/filter_identity_test.cpp); excluded from
  /// measure::machine_fingerprint so result-store keys never depend on it.
  bool filter = false;
  /// Set-index function (see sim/set_index.hpp). kMask keeps the
  /// historical placement (low bits / exact modulo); kH3 hashes the line
  /// address and therefore changes simulated results — MachineConfig
  /// routes it to the shared L3 and fingerprints it.
  SetHash set_hash = SetHash::kMask;

  std::uint64_t num_lines() const { return size_bytes / line_bytes; }
  std::uint64_t num_sets() const { return num_lines() / ways; }
  /// Throws std::invalid_argument when geometry is inconsistent.
  void validate() const;
};

class Cache {
 public:
  explicit Cache(CacheConfig config);

  struct AccessOutcome {
    bool hit = false;
    bool evicted = false;
    bool evicted_dirty = false;
    Addr evicted_line = 0;          // line index (addr / line_bytes)
    std::uint32_t evicted_sharers = 0;
  };

  /// Looks up a line; on miss, inserts it and reports the victim (if any).
  /// `owner` tags the inserting agent (occupancy accounting); `sharer_bit`
  /// is OR-ed into the line's sharer mask (used by the L3 to know which
  /// private caches may hold copies).
  AccessOutcome access(Addr line_addr, std::uint16_t owner,
                       std::uint32_t sharer_bit = 0, bool is_store = false);

  /// Filter fast path: when `config().filter` is set, resolves an access
  /// that hits the set's most-recently-accessed line with one tag compare,
  /// applying exactly the state updates a hit in access() would (LRU stamp
  /// advance, sharer-mask OR, dirty-bit OR) so both paths are
  /// bit-identical. Returns false when the filter is disabled or the MRU
  /// line does not match; the caller must then fall through to access(),
  /// which refreshes the filter. Hits never evict, so there is no outcome
  /// to report.
  bool try_fast_hit(Addr line_addr, std::uint32_t sharer_bit, bool is_store) {
    if (filter_.empty()) return false;
    const std::uint64_t set = indexer_.index(line_addr);
    const FilterSlot slot = filter_[set];
    if (slot.tag != line_addr) return false;
    const Set s = set_at(set);
    s.stamp[slot.way] = ++stamp_;
    s.sharers[slot.way] |= sharer_bit;
    s.dirty[slot.way] |= is_store;
    return true;
  }

  /// True when this cache was built with the filter fast path enabled.
  bool filter_enabled() const { return !filter_.empty(); }

  /// Host-side prefetch of the set's tag storage (and filter slot when
  /// enabled) for an access about to be issued. Pure software-pipelining
  /// hint for MemorySystem::access_batch — touches no simulated state, so
  /// results cannot depend on it.
  void prefetch_set(Addr line_addr) const {
    const std::uint64_t set = indexer_.index(line_addr);
    __builtin_prefetch(set_at(set).tag);
    if (!filter_.empty()) __builtin_prefetch(&filter_[set]);
  }

  /// True if the line is present (no replacement state update).
  bool contains(Addr line_addr) const;

  /// Refreshes the LRU stamp of a resident line; no-op when absent.
  void touch(Addr line_addr);

  /// Sets the dirty bit of a resident line without touching replacement
  /// state (used when a private cache writes back into the inclusive L3).
  /// Returns false when the line is absent.
  bool mark_dirty(Addr line_addr);

  /// Removes the line if present; returns true if it was present and dirty.
  bool invalidate(Addr line_addr);

  void flush();

  /// Number of resident lines tagged with `owner`. O(num_lines): intended
  /// for tests and periodic metrics, not per-access use.
  std::uint64_t occupancy_lines(std::uint16_t owner) const;
  /// Total resident (valid) lines.
  std::uint64_t resident_lines() const;

  const CacheConfig& config() const { return config_; }

 private:
  /// One set's columns inside its block, each `ways` entries long.
  struct Set {
    Addr* tag;              // kNoLine = invalid way
    std::uint64_t* stamp;   // LRU stamp (meaningless when invalid)
    std::uint32_t* sharers;
    std::uint16_t* owner;
    bool* dirty;
  };

  /// One filter entry per set: the set's most-recently-accessed line and
  /// the way holding it. `kNoLine` marks an empty slot (line addresses
  /// are byte addresses >> line shift, so the all-ones tag is unreachable).
  struct FilterSlot {
    Addr tag = kNoLine;
    std::uint32_t way = 0;
  };
  static constexpr Addr kNoLine = ~Addr{0};

  /// The columns of set `set`. Each column is read and written only
  /// through its own element type, inside the byte storage.
  Set set_at(std::uint64_t set) const {
    const std::uint32_t ways = config_.ways;
    void* const block = storage_.get() + set * set_bytes_;
    Addr* const tag = static_cast<Addr*>(block);
    std::uint64_t* const stamp = tag + ways;
    auto* const sharers = static_cast<std::uint32_t*>(
        static_cast<void*>(stamp + ways));
    auto* const owner = static_cast<std::uint16_t*>(
        static_cast<void*>(sharers + ways));
    auto* const dirty = static_cast<bool*>(static_cast<void*>(owner + ways));
    return {tag, stamp, sharers, owner, dirty};
  }

  /// Points the set's filter slot at `way` (no-op when disabled).
  void filter_update(std::uint64_t set, Addr line_addr, std::uint32_t way) {
    if (filter_.empty()) return;
    filter_[set] = {line_addr, way};
  }

  CacheConfig config_;
  Rng victim_rng_{0x51ed270b7a64e5c4ull};  // deterministic random policy
  SetIndexer indexer_;
  std::uint64_t stamp_ = 0;  // per-cache logical clock for LRU
  std::size_t set_bytes_ = 0;  // bytes of one set's block
  std::unique_ptr<std::byte[]> storage_;  // num_sets blocks of set_bytes_
  std::vector<FilterSlot> filter_;  // one per set; empty = filter disabled
};

}  // namespace am::sim
