// Differential test: sim::Cache against the naive reference model in
// tests/reference/reference_cache.hpp, on seeded random operation mixes
// over every geometry and policy the cache distinguishes. Every result of
// every operation must agree.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "reference/reference_cache.hpp"
#include "sim/cache.hpp"

namespace am::sim {
namespace {

std::string describe(const CacheConfig& c) {
  std::ostringstream s;
  s << c.ways << " ways x " << c.num_sets() << " sets, insert_age "
    << c.insert_age << ", "
    << (c.replacement == Replacement::kLru ? "lru" : "random") << ", filter "
    << (c.filter ? "on" : "off") << ", " << set_hash_name(c.set_hash);
  return s.str();
}

bool same(const Cache::AccessOutcome& a, const Cache::AccessOutcome& b) {
  return a.hit == b.hit && a.evicted == b.evicted &&
         a.evicted_dirty == b.evicted_dirty &&
         a.evicted_line == b.evicted_line &&
         a.evicted_sharers == b.evicted_sharers;
}

/// Line addresses that collide: mostly a pool about twice the cache's
/// capacity (hits, conflicts and evictions in every set), plus scattered
/// 40-bit lines and lines just below the all-ones address.
Addr next_line(Rng& rng, const CacheConfig& c) {
  const std::uint64_t pick = rng.bounded(100);
  if (pick < 90) return rng.bounded(2 * c.num_lines() + 3);
  if (pick < 97) return rng.bounded(std::uint64_t{1} << 40);
  return ~Addr{0} - 1 - rng.bounded(16);
}

/// Runs `ops` random operations on one geometry against both models.
void run_mix(const CacheConfig& c, std::uint64_t seed, int ops) {
  Cache cache(c);
  reference::ReferenceCache ref(c);
  Rng rng(seed);
  ASSERT_EQ(cache.filter_enabled(), c.filter) << describe(c);
  // The last lines access() touched: repeats of them are what the filter
  // fast path resolves.
  std::vector<Addr> recent(4, 0);
  for (int op = 0; op < ops; ++op) {
    const std::uint64_t kind = rng.bounded(1000);
    const bool repeat = kind >= 500 && kind < 650 && rng.bounded(4) != 0;
    const Addr line =
        repeat ? recent[rng.bounded(recent.size())] : next_line(rng, c);
    const auto owner = static_cast<std::uint16_t>(rng.bounded(4));
    const std::uint32_t sharer_bit =
        rng.bounded(4) == 0 ? 0u : 1u << rng.bounded(8);
    const bool is_store = rng.bounded(3) == 0;
    const auto where = [&] {
      std::ostringstream s;
      s << describe(c) << ", seed " << seed << ", op " << op << " (kind "
        << kind << ") on line " << line;
      return s.str();
    };
    if (kind < 500) {
      ASSERT_TRUE(same(cache.access(line, owner, sharer_bit, is_store),
                       ref.access(line, owner, sharer_bit, is_store)))
          << where();
      recent[static_cast<std::size_t>(op) % recent.size()] = line;
    } else if (kind < 650) {
      ASSERT_EQ(cache.try_fast_hit(line, sharer_bit, is_store),
                ref.try_fast_hit(line, sharer_bit, is_store))
          << where();
    } else if (kind < 730) {
      ASSERT_EQ(cache.contains(line), ref.contains(line)) << where();
    } else if (kind < 800) {
      cache.touch(line);
      ref.touch(line);
    } else if (kind < 880) {
      ASSERT_EQ(cache.mark_dirty(line), ref.mark_dirty(line)) << where();
    } else if (kind < 960) {
      ASSERT_EQ(cache.invalidate(line), ref.invalidate(line)) << where();
    } else if (kind < 962) {
      cache.flush();
      ref.flush();
    } else {
      ASSERT_EQ(cache.resident_lines(), ref.resident_lines()) << where();
      for (std::uint16_t o = 0; o < 4; ++o)
        ASSERT_EQ(cache.occupancy_lines(o), ref.occupancy_lines(o))
            << where() << ", owner " << o;
    }
  }
  // Residency of the whole pool at the end, line by line.
  for (Addr line = 0; line < 2 * c.num_lines() + 3; ++line)
    ASSERT_EQ(cache.contains(line), ref.contains(line))
        << describe(c) << ", final line " << line;
}

TEST(CacheReference, MatchesReferenceModelOnRandomOperationMixes) {
  std::uint64_t seed = 1;
  for (const std::uint32_t ways : {1u, 2u, 3u, 8u, 16u, 20u}) {
    for (const std::uint64_t sets : {1u, 3u, 5u, 12u, 16u}) {
      // 0 = MRU insertion; 3 ties fills with recent hits; 5000 clamps
      // every early fill to stamp 0, so whole sets tie.
      for (const std::uint64_t insert_age : {0u, 3u, 5000u}) {
        for (const Replacement repl :
             {Replacement::kLru, Replacement::kRandom}) {
          for (const bool filter : {false, true}) {
            for (const SetHash hash : {SetHash::kMask, SetHash::kH3}) {
              CacheConfig c;
              c.line_bytes = 64;
              c.ways = ways;
              c.size_bytes = sets * ways * c.line_bytes;
              c.name = "ref";
              c.insert_age = insert_age;
              c.replacement = repl;
              c.filter = filter;
              c.set_hash = hash;
              run_mix(c, seed++, 3000);
              if (HasFatalFailure()) return;
            }
          }
        }
      }
    }
  }
}

TEST(CacheReference, LruTieGoesToTheLowestWay) {
  // insert_age larger than the clock clamps every fill's stamp to 0: the
  // whole set ties, and the contract evicts way 0 — the first fill.
  CacheConfig c{4 * 64, 64, 4, "tie"};
  c.insert_age = 1000;
  Cache cache(c);
  reference::ReferenceCache ref(c);
  for (Addr line = 0; line < 4; ++line) {
    cache.access(line, 0);
    ref.access(line, 0, 0, false);
  }
  const auto got = cache.access(9, 0);
  const auto want = ref.access(9, 0, 0, false);
  EXPECT_TRUE(same(got, want));
  EXPECT_TRUE(got.evicted);
  EXPECT_EQ(got.evicted_line, 0u);
}

TEST(CacheReference, RandomPolicyFillsInvalidWaysBeforeDrawing) {
  // A kRandom set with a hole refills the hole and draws nothing from the
  // victim stream, so both models' streams stay aligned afterwards.
  CacheConfig c{4 * 64, 64, 4, "rand"};
  c.replacement = Replacement::kRandom;
  Cache cache(c);
  reference::ReferenceCache ref(c);
  for (Addr line = 0; line < 4; ++line) {
    cache.access(line, 0);
    ref.access(line, 0, 0, false);
  }
  ASSERT_EQ(cache.invalidate(2), ref.invalidate(2));
  const auto refill = cache.access(20, 0);
  EXPECT_FALSE(refill.evicted);
  EXPECT_TRUE(same(refill, ref.access(20, 0, 0, false)));
  for (Addr line = 30; line < 60; ++line)
    ASSERT_TRUE(same(cache.access(line, 0), ref.access(line, 0, 0, false)))
        << "line " << line;
}

}  // namespace
}  // namespace am::sim
