#pragma once
// The stream prefetcher's documented contract executed literally, as an
// independent oracle for sim::StreamPrefetcher
// (tests/sim/prefetcher_test.cpp runs both on the same miss traffic).
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "sim/prefetcher.hpp"

namespace am::sim::reference {

/// The documented contract executed literally: an array of structs, three
/// full passes per miss, and a minimum-tick scan for the LRU victim.
class ReferencePrefetcher {
 public:
  explicit ReferencePrefetcher(PrefetcherConfig c)
      : c_(c), streams_(c.num_streams) {}

  void on_miss(Addr line, std::vector<Addr>& out) {
    if (!c_.enabled) return;
    ++tick_;
    // 1. Continue the first armed stream whose next line is this one.
    for (Stream& s : streams_) {
      if (!s.valid || s.confidence == 0) continue;
      const std::int64_t expected =
          static_cast<std::int64_t>(s.last) + s.stride;
      if (expected < 0 || static_cast<Addr>(expected) != line) continue;
      s.last = line;
      s.lru = tick_;
      if (s.confidence < c_.confirm_threshold &&
          ++s.confidence == c_.confirm_threshold)
        ++confirmed_;
      if (s.confidence < c_.confirm_threshold) return;
      for (std::uint32_t k = 1; k <= c_.degree; ++k) {
        const std::int64_t t = static_cast<std::int64_t>(line) +
                               s.stride * static_cast<std::int64_t>(k);
        if (t >= 0 && static_cast<Addr>(t) / c_.page_lines ==
                          line / c_.page_lines)
          out.push_back(static_cast<Addr>(t));
      }
      return;
    }
    // 2. Re-arm the first fresh stream within the stride window.
    for (Stream& s : streams_) {
      if (!s.valid || s.confidence != 0) continue;
      const std::int64_t delta = static_cast<std::int64_t>(line) -
                                 static_cast<std::int64_t>(s.last);
      if (delta == 0 || std::llabs(delta) > c_.max_stride_lines) continue;
      s.stride = delta;
      s.last = line;
      s.confidence = 1;
      s.lru = tick_;
      return;
    }
    // 3. Allocate the first unused slot, else the minimum-tick stream.
    Stream* victim = nullptr;
    for (Stream& s : streams_) {
      if (!s.valid) {
        victim = &s;
        break;
      }
      if (victim == nullptr || s.lru < victim->lru) victim = &s;
    }
    *victim = Stream{line, 0, 0, tick_, true};
  }

  std::uint64_t streams_confirmed() const { return confirmed_; }

 private:
  struct Stream {
    Addr last = 0;
    std::int64_t stride = 0;
    std::uint32_t confidence = 0;
    std::uint64_t lru = 0;
    bool valid = false;
  };

  PrefetcherConfig c_;
  std::vector<Stream> streams_;
  std::uint64_t tick_ = 0;
  std::uint64_t confirmed_ = 0;
};

}  // namespace am::sim::reference
