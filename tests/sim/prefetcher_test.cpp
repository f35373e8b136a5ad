#include "sim/prefetcher.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <stdexcept>

#include "common/rng.hpp"
#include "reference/reference_prefetcher.hpp"

namespace am::sim {
namespace {

PrefetcherConfig cfg() {
  PrefetcherConfig c;
  c.num_streams = 8;
  c.degree = 2;
  c.confirm_threshold = 2;
  return c;
}

TEST(StreamPrefetcher, ConstantStrideConfirmsAndPrefetches) {
  StreamPrefetcher pf(cfg());
  std::vector<Addr> out;
  // Misses at stride 4 within one 64-line page (lines 6400..6463).
  pf.on_miss(6400, out);
  EXPECT_TRUE(out.empty());
  pf.on_miss(6404, out);
  EXPECT_TRUE(out.empty());  // confidence 1: armed, not confirmed
  pf.on_miss(6408, out);     // confidence 2 == threshold: prefetch starts
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 6412u);
  EXPECT_EQ(out[1], 6416u);
  out.clear();
  pf.on_miss(6412, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 6416u);
  EXPECT_EQ(out[1], 6420u);
}

TEST(StreamPrefetcher, NegativeStride) {
  StreamPrefetcher pf(cfg());
  std::vector<Addr> out;
  pf.on_miss(1000, out);
  pf.on_miss(995, out);
  pf.on_miss(990, out);
  out.clear();
  pf.on_miss(985, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 980u);
  EXPECT_EQ(out[1], 975u);
}

TEST(StreamPrefetcher, PrefetchesNeverCrossPageBoundary) {
  StreamPrefetcher pf(cfg());
  std::vector<Addr> out;
  // Stride 4 approaching the end of page 100 (lines 6400..6463).
  pf.on_miss(6448, out);
  pf.on_miss(6452, out);
  pf.on_miss(6456, out);  // confirmed: targets 6460 (in page), 6464 (out)
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 6460u);
}

TEST(StreamPrefetcher, RandomPatternNeverConfirms) {
  StreamPrefetcher pf(cfg());
  am::Rng rng(17);
  std::vector<Addr> out;
  for (int i = 0; i < 10000; ++i) {
    pf.on_miss(rng.bounded(1u << 30), out);
  }
  // Random 30-bit addresses virtually never form 3-in-a-row exact strides.
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(pf.streams_confirmed(), 0u);
}

TEST(StreamPrefetcher, LargeStrideOutsideWindowIgnored) {
  StreamPrefetcher pf(cfg());
  std::vector<Addr> out;
  pf.on_miss(0, out);
  pf.on_miss(100000, out);  // delta 100000 > max_stride_lines (8)
  pf.on_miss(200000, out);
  pf.on_miss(300000, out);
  EXPECT_TRUE(out.empty());
}

TEST(StreamPrefetcher, DisabledProducesNothing) {
  auto c = cfg();
  c.enabled = false;
  StreamPrefetcher pf(c);
  std::vector<Addr> out;
  for (Addr a = 0; a < 100; a += 2) pf.on_miss(a, out);
  EXPECT_TRUE(out.empty());
}

TEST(StreamPrefetcher, TracksMultipleInterleavedStreams) {
  auto c = cfg();
  c.num_streams = 4;
  StreamPrefetcher pf(c);
  std::vector<Addr> out;
  // Two interleaved streams: base 0 stride 3, base 100000 stride 7.
  for (int i = 0; i < 6; ++i) {
    pf.on_miss(static_cast<Addr>(i * 3), out);
    pf.on_miss(static_cast<Addr>(100000 + i * 7), out);
  }
  EXPECT_EQ(pf.streams_confirmed(), 2u);
  EXPECT_FALSE(out.empty());
}

TEST(StreamPrefetcher, StreamTableEvictsLru) {
  auto c = cfg();
  c.num_streams = 2;
  StreamPrefetcher pf(c);
  std::vector<Addr> out;
  // Train stream A fully.
  for (int i = 0; i < 4; ++i) pf.on_miss(static_cast<Addr>(i * 5), out);
  EXPECT_EQ(pf.streams_confirmed(), 1u);
  // Flood with many unrelated one-shot addresses to evict it.
  for (int i = 0; i < 10; ++i)
    pf.on_miss(static_cast<Addr>(1000000 + i * 50000), out);
  out.clear();
  // Stream A's next miss no longer continues a tracked stream.
  pf.on_miss(20, out);
  EXPECT_TRUE(out.empty());
}

// --- Tie-breaking and eviction order -------------------------------------

TEST(StreamPrefetcher, TiedContinueAdvancesLowerIndexOnly) {
  StreamPrefetcher pf(cfg());
  std::vector<Addr> out;
  pf.on_miss(100, out);  // slot 0, fresh
  pf.on_miss(102, out);  // slot 0 armed: stride +2, expects 104
  pf.on_miss(110, out);  // slot 1, fresh
  pf.on_miss(107, out);  // slot 1 armed: stride -3, expects 104
  ASSERT_TRUE(out.empty());
  pf.on_miss(104, out);  // both expect 104: slot 0 continues and confirms
  EXPECT_EQ(out, (std::vector<Addr>{106, 108}));
  EXPECT_EQ(pf.streams_confirmed(), 1u);
  out.clear();
  pf.on_miss(104, out);  // slot 1 was left intact and still expects 104
  EXPECT_EQ(out, (std::vector<Addr>{101, 98}));
  EXPECT_EQ(pf.streams_confirmed(), 2u);
}

TEST(StreamPrefetcher, TiedRearmArmsLowerIndex) {
  StreamPrefetcher pf(cfg());
  std::vector<Addr> out;
  pf.on_miss(100, out);  // slot 0, fresh
  pf.on_miss(110, out);  // slot 1, fresh (delta 10 is outside the window)
  pf.on_miss(105, out);  // inside both windows: slot 0 arms at stride +5
  pf.on_miss(110, out);  // so 110 continues slot 0 and confirms it
  EXPECT_EQ(out, (std::vector<Addr>{115, 120}));
  EXPECT_EQ(pf.streams_confirmed(), 1u);
}

TEST(StreamPrefetcher, UnusedSlotsFillInArrayOrderBeforeEviction) {
  auto c = cfg();
  c.num_streams = 3;
  StreamPrefetcher pf(c);
  std::vector<Addr> out;
  pf.on_miss(5000, out);  // slot 0
  pf.on_miss(110, out);   // slot 1
  pf.on_miss(100, out);   // slot 2: the table is now full, nothing evicted
  // 105 is inside the windows of slots 1 and 2; slot 1 (last 110) is the
  // lower index because it was allocated first, so it arms at stride -5.
  pf.on_miss(105, out);
  pf.on_miss(100, out);
  EXPECT_EQ(out, (std::vector<Addr>{95, 90}));
  // Slot 0, the oldest allocation, survived the two later ones.
  pf.on_miss(5003, out);
  pf.on_miss(5006, out);
  EXPECT_EQ(pf.streams_confirmed(), 2u);
}

TEST(StreamPrefetcher, EvictsLeastRecentlyTouchedStream) {
  auto c = cfg();
  c.num_streams = 2;
  StreamPrefetcher pf(c);
  std::vector<Addr> out;
  pf.on_miss(1000, out);  // slot 0, fresh
  pf.on_miss(5000, out);  // slot 1, fresh
  pf.on_miss(1002, out);  // re-arms slot 0: a touch, so slot 1 is LRU
  pf.on_miss(9000, out);  // evicts slot 1, not the older-allocated slot 0
  pf.on_miss(1004, out);  // slot 0 survived: continues and confirms
  EXPECT_EQ(pf.streams_confirmed(), 1u);
  EXPECT_EQ(out, (std::vector<Addr>{1006, 1008}));
  out.clear();
  // The continue touched slot 0 after 9000 was allocated, so 13000
  // evicts 9000 and slot 0 keeps streaming.
  pf.on_miss(13000, out);
  pf.on_miss(1006, out);
  EXPECT_EQ(out, (std::vector<Addr>{1008, 1010}));
  out.clear();
  // 9000 is gone: 9002 cannot re-arm it and starts a fresh stream, so
  // 9004 only arms that stream and 9006 is the first to confirm it.
  pf.on_miss(9002, out);
  pf.on_miss(9004, out);
  EXPECT_TRUE(out.empty());
  pf.on_miss(9006, out);
  EXPECT_EQ(out, (std::vector<Addr>{9008, 9010}));
}

// --- Configuration validation --------------------------------------------

TEST(StreamPrefetcher, RejectsUnusableConfig) {
  auto c = cfg();
  c.num_streams = 0;
  EXPECT_THROW(StreamPrefetcher{c}, std::invalid_argument);
  c = cfg();
  c.page_lines = 0;
  EXPECT_THROW(StreamPrefetcher{c}, std::invalid_argument);
  c = cfg();
  c.num_streams = kMaxPrefetchStreams + 1;
  EXPECT_THROW(StreamPrefetcher{c}, std::invalid_argument);
}

TEST(StreamPrefetcher, AcceptsLargestTableAndDisabledZeroGeometry) {
  auto c = cfg();
  c.num_streams = kMaxPrefetchStreams;
  StreamPrefetcher big(c);
  std::vector<Addr> out;
  for (Addr a = 0; a < 8; ++a) big.on_miss(a * 2, out);
  EXPECT_FALSE(out.empty());

  c = cfg();
  c.enabled = false;
  c.num_streams = 0;
  c.page_lines = 0;
  StreamPrefetcher off(c);
  out.clear();
  for (Addr a = 0; a < 8; ++a) off.on_miss(a * 2, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(off.streams_confirmed(), 0u);
}

// --- Independent oracle ---------------------------------------------------

/// Miss traffic mixing everything the table distinguishes: random misses,
/// interleaved positive and negative strides (inside and just outside the
/// window) that run across page boundaries and below line 0, repeats, and
/// lines in [0, max_stride_lines] and just below 2^64.
class Traffic {
 public:
  Traffic(am::Rng& rng, const PrefetcherConfig& c) : rng_(rng), c_(c) {
    for (Walker& w : walkers_) restart(w);
  }

  Addr next() {
    const std::uint64_t pick = rng_.bounded(100);
    if (pick < 15) return rng_.bounded(1u << 20);
    if (pick < 25) return rng_.bounded(c_.max_stride_lines + 1ull);
    if (pick < 28)
      return ~Addr{0} - rng_.bounded(2ull * c_.max_stride_lines + 2);
    if (pick < 32) return last_;
    Walker& w = walkers_[rng_.bounded(walkers_.size())];
    if (rng_.bounded(64) == 0) restart(w);
    w.pos += static_cast<Addr>(w.stride);
    last_ = w.pos;
    return w.pos;
  }

 private:
  struct Walker {
    Addr pos = 0;
    std::int64_t stride = 1;
  };

  void restart(Walker& w) {
    const auto reach = static_cast<std::int64_t>(c_.max_stride_lines) + 2;
    do {
      w.stride = static_cast<std::int64_t>(rng_.bounded(2 * reach + 1)) - reach;
    } while (w.stride == 0);
    // Near zero half the time, so negative strides reach below line 0.
    w.pos = rng_.bounded(2) == 0 ? rng_.bounded(4ull * c_.page_lines)
                                 : rng_.bounded(1u << 20);
  }

  am::Rng& rng_;
  const PrefetcherConfig& c_;
  std::array<Walker, 6> walkers_{};
  Addr last_ = 0;
};

TEST(StreamPrefetcher, MatchesReferenceModelOnRandomConfigsAndTraffic) {
  am::Rng rng(2024);
  for (int config = 0; config < 240; ++config) {
    PrefetcherConfig c;
    c.num_streams = 1 + static_cast<std::uint32_t>(rng.bounded(70));
    c.degree = static_cast<std::uint32_t>(rng.bounded(7));
    c.confirm_threshold = static_cast<std::uint32_t>(rng.bounded(5));
    c.max_stride_lines = static_cast<std::uint32_t>(rng.bounded(17));
    c.page_lines = 1 + static_cast<std::uint32_t>(rng.bounded(128));
    StreamPrefetcher pf(c);
    reference::ReferencePrefetcher ref(c);
    Traffic traffic(rng, c);
    // A non-empty start: candidates are appended, never cleared.
    std::vector<Addr> got{7};
    std::vector<Addr> want{7};
    for (int miss = 0; miss < 4000; ++miss) {
      const Addr line = traffic.next();
      pf.on_miss(line, got);
      ref.on_miss(line, want);
      if (got != want || pf.streams_confirmed() != ref.streams_confirmed()) {
        FAIL() << "config " << config << " (" << c.num_streams
               << " streams), miss " << miss << " at line " << line;
      }
      got.resize(1);
      want.resize(1);
    }
  }
}

}  // namespace
}  // namespace am::sim
