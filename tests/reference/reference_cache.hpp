#pragma once
// A deliberately naive model of sim::Cache, written from the contract its
// header documents rather than from its code, as an independent oracle
// (tests/sim/cache_reference_test.cpp runs both on the same operations):
//
//   * Placement: set = line % sets under SetHash::kMask; the H3 family
//     under kH3 (its own contract, pinned by tests/sim/set_index_test.cpp).
//   * One logical clock per cache, advanced by every access(), by every
//     fast-path hit and by every touch() of a resident line; a hit stamps
//     the line with the clock, ORs in the sharer bit and the store's
//     dirty bit.
//   * A miss fills the first invalid way; a full set evicts the
//     lowest-index way with the smallest stamp (kLru) or a way drawn
//     uniformly from the per-cache victim stream (kRandom), which is
//     seeded with the same constant as sim::Cache's. The filled line is
//     stamped `clock - insert_age` (0 when that would underflow).
//   * The filter fast path hits only the set's most-recently-accessed
//     line: the last line access() hit or filled there, until that line
//     is invalidated or the cache flushed.
//
// Each way is a struct with an explicit `valid` flag, and every operation
// is a linear loop over its set.
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "sim/cache.hpp"
#include "sim/set_index.hpp"

namespace am::sim::reference {

class ReferenceCache {
 public:
  /// The seed of sim::Cache's kRandom victim stream.
  static constexpr std::uint64_t kVictimSeed = 0x51ed270b7a64e5c4ull;

  explicit ReferenceCache(const CacheConfig& config)
      : config_(config),
        sets_(config.num_sets(), std::vector<Way>(config.ways)),
        mru_(config.num_sets()),
        h3_(SetHash::kH3, config.num_sets()) {}

  Cache::AccessOutcome access(Addr line, std::uint16_t owner,
                              std::uint32_t sharer_bit, bool is_store) {
    Cache::AccessOutcome out;
    ++clock_;
    std::vector<Way>& set = sets_[set_of(line)];
    for (Way& way : set) {
      if (way.valid && way.tag == line) {
        way.stamp = clock_;
        way.sharers |= sharer_bit;
        way.dirty = way.dirty || is_store;
        mru_[set_of(line)] = line;
        out.hit = true;
        return out;
      }
    }
    std::size_t victim = set.size();
    for (std::size_t i = 0; i < set.size(); ++i) {
      if (!set[i].valid) {
        victim = i;
        break;
      }
    }
    if (victim == set.size()) {
      if (config_.replacement == Replacement::kRandom) {
        victim = static_cast<std::size_t>(victim_rng_.bounded(set.size()));
      } else {
        victim = 0;
        for (std::size_t i = 1; i < set.size(); ++i)
          if (set[i].stamp < set[victim].stamp) victim = i;
      }
      out.evicted = true;
      out.evicted_dirty = set[victim].dirty;
      out.evicted_line = set[victim].tag;
      out.evicted_sharers = set[victim].sharers;
    }
    Way fill;
    fill.valid = true;
    fill.tag = line;
    fill.stamp = clock_ > config_.insert_age ? clock_ - config_.insert_age : 0;
    fill.sharers = sharer_bit;
    fill.owner = owner;
    fill.dirty = is_store;
    set[victim] = fill;
    mru_[set_of(line)] = line;
    return out;
  }

  bool try_fast_hit(Addr line, std::uint32_t sharer_bit, bool is_store) {
    if (!config_.filter) return false;
    const std::optional<Addr>& mru = mru_[set_of(line)];
    if (!mru.has_value() || *mru != line) return false;
    Way* way = find(line);
    if (way == nullptr) return false;  // unreachable: the MRU line is resident
    ++clock_;
    way->stamp = clock_;
    way->sharers |= sharer_bit;
    way->dirty = way->dirty || is_store;
    return true;
  }

  bool contains(Addr line) const { return find(line) != nullptr; }

  void touch(Addr line) {
    if (Way* way = find(line)) {
      ++clock_;
      way->stamp = clock_;
    }
  }

  bool mark_dirty(Addr line) {
    Way* way = find(line);
    if (way == nullptr) return false;
    way->dirty = true;
    return true;
  }

  bool invalidate(Addr line) {
    Way* way = find(line);
    if (way == nullptr) return false;
    const bool dirty = way->dirty;
    *way = Way{};
    std::optional<Addr>& mru = mru_[set_of(line)];
    if (mru.has_value() && *mru == line) mru.reset();
    return dirty;
  }

  void flush() {
    for (std::vector<Way>& set : sets_)
      for (Way& way : set) way = Way{};
    for (std::optional<Addr>& mru : mru_) mru.reset();
  }

  std::uint64_t occupancy_lines(std::uint16_t owner) const {
    std::uint64_t count = 0;
    for (const std::vector<Way>& set : sets_)
      for (const Way& way : set)
        if (way.valid && way.owner == owner) ++count;
    return count;
  }

  std::uint64_t resident_lines() const {
    std::uint64_t count = 0;
    for (const std::vector<Way>& set : sets_)
      for (const Way& way : set)
        if (way.valid) ++count;
    return count;
  }

 private:
  struct Way {
    bool valid = false;
    Addr tag = 0;
    std::uint64_t stamp = 0;
    std::uint32_t sharers = 0;
    std::uint16_t owner = 0;
    bool dirty = false;
  };

  std::size_t set_of(Addr line) const {
    if (config_.set_hash == SetHash::kH3)
      return static_cast<std::size_t>(h3_.index(line));
    return static_cast<std::size_t>(line % config_.num_sets());
  }

  Way* find(Addr line) {
    for (Way& way : sets_[set_of(line)])
      if (way.valid && way.tag == line) return &way;
    return nullptr;
  }
  const Way* find(Addr line) const {
    for (const Way& way : sets_[set_of(line)])
      if (way.valid && way.tag == line) return &way;
    return nullptr;
  }

  CacheConfig config_;
  std::vector<std::vector<Way>> sets_;
  std::vector<std::optional<Addr>> mru_;  // per set, for the filter
  SetIndexer h3_;                         // used under SetHash::kH3 only
  Rng victim_rng_{kVictimSeed};
  std::uint64_t clock_ = 0;
};

}  // namespace am::sim::reference
