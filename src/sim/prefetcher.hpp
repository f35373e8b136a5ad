#pragma once
// Per-core stream prefetcher. Detects constant-stride miss streams (in
// line-address space) and asks the memory system to pull upcoming lines
// into the cache ahead of demand. The paper's BWThr relies on exactly this
// mechanism: its constant prime stride is prefetch-friendly, which lets a
// single thread consume more memory bandwidth; CSThr's random pattern
// deliberately defeats it.
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "sim/types.hpp"

namespace am::sim {

/// Index type of the stream table's intrusive LRU links.
using StreamLink = std::uint16_t;
/// Largest accepted PrefetcherConfig::num_streams: every stream index
/// must fit a StreamLink, whose maximum value marks "no link".
inline constexpr std::uint32_t kMaxPrefetchStreams =
    std::numeric_limits<StreamLink>::max();

struct PrefetcherConfig {
  /// Number of concurrent streams tracked. Intel's L2 streamer tracks 32;
  /// we default to 64 so a 44-buffer BWThr keeps all streams live.
  std::uint32_t num_streams = 64;
  /// Lines fetched ahead once a stream is confirmed.
  std::uint32_t degree = 4;
  /// Misses with the same stride required before prefetching starts.
  std::uint32_t confirm_threshold = 2;
  /// Largest tracked stride in lines. Hardware stream detectors only
  /// follow near-sequential patterns (hundreds of bytes); larger strides
  /// are left to software prefetching, which we do not model.
  std::uint32_t max_stride_lines = 8;
  /// Prefetches never cross this boundary (in lines): 4 KB pages of 64-byte
  /// lines. Mirrors real streamers and bounds mis-predicted pollution.
  std::uint32_t page_lines = 64;
  bool enabled = true;

  /// Throws std::invalid_argument when an enabled prefetcher would have
  /// no streams, more than kMaxPrefetchStreams, or zero-line pages. A
  /// disabled configuration is always valid.
  void validate() const;
};

/// Tracks up to `num_streams` candidate miss streams and emits prefetch
/// targets once a stream has repeated its stride `confirm_threshold`
/// times. Fully deterministic — no RNG, state advances only through
/// on_miss — so traces replay identically. The caller (the memory system)
/// owns issuing the returned addresses and charging their bandwidth.
///
/// A stream is *fresh* (one miss seen, no stride) or *armed* (a stride,
/// confidence >= 1). Each miss at line L is resolved in this order:
///   1. Continue: the lowest-index armed stream whose last line + stride
///      equals L (that sum must not be negative) advances to L, gains
///      confidence up to the threshold, and once confirmed emits up to
///      `degree` targets L + k * stride that are non-negative and inside
///      L's `page_lines` page.
///   2. Re-arm: otherwise the lowest-index fresh stream whose last line
///      is within `max_stride_lines` of L (and not L itself) becomes
///      armed with that stride and confidence 1.
///   3. Allocate: otherwise L starts a fresh stream in the lowest unused
///      slot or, once every slot is used, over the least recently
///      touched stream. Continue, re-arm and allocate all count as a
///      touch; slots are never released.
///
/// Storage is one structure-of-arrays allocation: a key column (next
/// expected line of an armed stream, last line of a fresh one), stride,
/// confidence (0 = fresh), and an intrusive LRU list whose head is the
/// eviction victim. Steps 1 and 2 are one early-exit scan over the used
/// prefix, so no sentinel address ever stands in for a missing stream.
class StreamPrefetcher {
 public:
  /// Throws std::invalid_argument when config.validate() does.
  explicit StreamPrefetcher(PrefetcherConfig config);

  /// Observes a demand miss at `line_addr` (line-address space); appends
  /// up to `degree` prefetch candidates to `out` — which is not cleared —
  /// when the miss continues a confirmed stream. Candidates never cross
  /// the miss's `page_lines` boundary. No-op when config.enabled is false.
  void on_miss(Addr line_addr, std::vector<Addr>& out);

  /// How many times a continue raised a stream's confidence to exactly
  /// `confirm_threshold`.
  std::uint64_t streams_confirmed() const { return confirmed_; }
  const PrefetcherConfig& config() const { return config_; }

 private:
  static constexpr StreamLink kNoLink = std::numeric_limits<StreamLink>::max();

  void continue_stream(std::uint32_t i, Addr line_addr, std::vector<Addr>& out);
  /// Moves stream `i`, which is already linked, to the most recent end.
  void touch(std::uint32_t i);
  /// Links stream `i` in as the most recently touched.
  void link_newest(std::uint32_t i);

  PrefetcherConfig config_;
  std::unique_ptr<std::byte[]> storage_;
  Addr* key_ = nullptr;
  std::int64_t* stride_ = nullptr;
  std::uint32_t* confidence_ = nullptr;
  StreamLink* older_ = nullptr;
  StreamLink* newer_ = nullptr;
  std::uint32_t used_ = 0;  // streams [0, used_) are live
  StreamLink oldest_ = kNoLink;
  StreamLink newest_ = kNoLink;
  std::uint64_t confirmed_ = 0;
};

}  // namespace am::sim
