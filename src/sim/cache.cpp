#include "sim/cache.hpp"

#include <algorithm>
#include <stdexcept>

namespace am::sim {

void CacheConfig::validate() const {
  if (size_bytes == 0 || line_bytes == 0 || ways == 0)
    throw std::invalid_argument("CacheConfig: zero field in " + name);
  if (size_bytes % line_bytes != 0)
    throw std::invalid_argument("CacheConfig: size not multiple of line in " +
                                name);
  if (num_lines() % ways != 0)
    throw std::invalid_argument("CacheConfig: lines not multiple of ways in " +
                                name);
  if (num_sets() == 0)
    throw std::invalid_argument("CacheConfig: zero sets in " + name);
}

namespace {

/// The way of `tag[0, ways)` holding `line_addr`, or `ways` when absent.
/// Branch-free: every way is compared and none exits early. A resident
/// line occupies exactly one way, and an invalid way's kNoLine equals no
/// line address, so at most one way matches.
std::uint32_t find_way(const Addr* tag, std::uint32_t ways, Addr line_addr) {
  std::uint32_t found = ways;
  for (std::uint32_t w = 0; w < ways; ++w)
    found = tag[w] == line_addr ? w : found;
  return found;
}

/// Bytes of one set's block: its five columns, rounded up to 8 bytes so
/// every block's tag and stamp columns stay 8-byte aligned.
std::size_t set_block_bytes(std::uint32_t ways) {
  const std::size_t bytes =
      ways * (sizeof(Addr) + sizeof(std::uint64_t) + sizeof(std::uint32_t) +
              sizeof(std::uint16_t) + sizeof(bool));
  return (bytes + 7) & ~std::size_t{7};
}

}  // namespace

Cache::Cache(CacheConfig config) : config_(std::move(config)) {
  config_.validate();
  indexer_ = SetIndexer(config_.set_hash, config_.num_sets());
  set_bytes_ = set_block_bytes(config_.ways);
  storage_ = std::make_unique_for_overwrite<std::byte[]>(
      static_cast<std::size_t>(config_.num_sets()) * set_bytes_);
  flush();
}

Cache::AccessOutcome Cache::access(Addr line_addr, std::uint16_t owner,
                                   std::uint32_t sharer_bit, bool is_store) {
  AccessOutcome out;
  const std::uint32_t ways = config_.ways;
  const std::uint64_t set = indexer_.index(line_addr);
  const Set s = set_at(set);
  ++stamp_;
  const std::uint32_t hit = find_way(s.tag, ways, line_addr);
  if (hit < ways) {
    s.stamp[hit] = stamp_;
    s.sharers[hit] |= sharer_bit;
    s.dirty[hit] |= is_store;
    out.hit = true;
    filter_update(set, line_addr, hit);
    return out;
  }
  // Victim: the first invalid way, else the lowest-index way with the
  // smallest stamp. One branch-free argmin over keys that rank every
  // invalid way (0) below every valid one (stamp + 1; stamps never reach
  // the top of the range); the strict compare keeps the first minimum.
  std::uint32_t victim = 0;
  std::uint64_t victim_key = UINT64_MAX;
  for (std::uint32_t w = 0; w < ways; ++w) {
    const std::uint64_t key = s.tag[w] == kNoLine ? 0 : s.stamp[w] + 1;
    victim = key < victim_key ? w : victim;
    victim_key = key < victim_key ? key : victim_key;
  }
  const bool full = victim_key != 0;
  if (full && config_.replacement == Replacement::kRandom)
    victim = static_cast<std::uint32_t>(victim_rng_.bounded(ways));
  if (full) {
    out.evicted = true;
    out.evicted_dirty = s.dirty[victim];
    out.evicted_line = s.tag[victim];
    out.evicted_sharers = s.sharers[victim];
  }
  s.tag[victim] = line_addr;
  s.stamp[victim] =
      stamp_ > config_.insert_age ? stamp_ - config_.insert_age : 0;
  s.sharers[victim] = sharer_bit;
  s.owner[victim] = owner;
  s.dirty[victim] = is_store;
  // The victim and the fill share a set, so this also unmaps a victim that
  // happened to be the set's filter entry.
  filter_update(set, line_addr, victim);
  return out;
}

bool Cache::contains(Addr line_addr) const {
  const Set s = set_at(indexer_.index(line_addr));
  return find_way(s.tag, config_.ways, line_addr) < config_.ways;
}

void Cache::touch(Addr line_addr) {
  const Set s = set_at(indexer_.index(line_addr));
  const std::uint32_t way = find_way(s.tag, config_.ways, line_addr);
  if (way < config_.ways) s.stamp[way] = ++stamp_;
}

bool Cache::mark_dirty(Addr line_addr) {
  const Set s = set_at(indexer_.index(line_addr));
  const std::uint32_t way = find_way(s.tag, config_.ways, line_addr);
  if (way == config_.ways) return false;
  s.dirty[way] = true;
  return true;
}

bool Cache::invalidate(Addr line_addr) {
  const std::uint64_t set = indexer_.index(line_addr);
  const Set s = set_at(set);
  const std::uint32_t way = find_way(s.tag, config_.ways, line_addr);
  if (way == config_.ways) return false;
  // The tag alone marks the way invalid: every other column is rewritten
  // by the fill that next claims it.
  s.tag[way] = kNoLine;
  if (!filter_.empty() && filter_[set].tag == line_addr)
    filter_[set] = FilterSlot{};
  return s.dirty[way];
}

void Cache::flush() {
  const std::uint32_t ways = config_.ways;
  for (std::uint64_t set = 0; set < config_.num_sets(); ++set) {
    const Set s = set_at(set);
    std::fill_n(s.tag, ways, kNoLine);
    std::fill_n(s.stamp, ways, std::uint64_t{0});
    std::fill_n(s.sharers, ways, std::uint32_t{0});
    std::fill_n(s.owner, ways, std::uint16_t{0});
    std::fill_n(s.dirty, ways, false);
  }
  filter_.assign(config_.filter ? config_.num_sets() : 0, FilterSlot{});
}

std::uint64_t Cache::occupancy_lines(std::uint16_t owner) const {
  std::uint64_t count = 0;
  for (std::uint64_t set = 0; set < config_.num_sets(); ++set) {
    const Set s = set_at(set);
    for (std::uint32_t w = 0; w < config_.ways; ++w)
      count += s.tag[w] != kNoLine && s.owner[w] == owner;
  }
  return count;
}

std::uint64_t Cache::resident_lines() const {
  std::uint64_t count = 0;
  for (std::uint64_t set = 0; set < config_.num_sets(); ++set) {
    const Set s = set_at(set);
    for (std::uint32_t w = 0; w < config_.ways; ++w)
      count += s.tag[w] != kNoLine;
  }
  return count;
}

}  // namespace am::sim
