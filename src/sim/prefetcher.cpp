#include "sim/prefetcher.hpp"

#include <new>
#include <stdexcept>
#include <string>

namespace am::sim {

void PrefetcherConfig::validate() const {
  if (!enabled) return;
  if (num_streams == 0)
    throw std::invalid_argument("PrefetcherConfig: num_streams == 0");
  if (num_streams > kMaxPrefetchStreams)
    throw std::invalid_argument("PrefetcherConfig: num_streams > " +
                                std::to_string(kMaxPrefetchStreams));
  if (page_lines == 0)
    throw std::invalid_argument("PrefetcherConfig: page_lines == 0");
}

namespace {

/// The next `n`-element column of T carved out of `base` at `offset`.
/// The std::byte array implicitly creates the (implicit-lifetime) column
/// arrays; std::launder yields a pointer to them.
template <class T>
T* column(std::byte* base, std::size_t& offset, std::size_t n) {
  T* col = std::launder(reinterpret_cast<T*>(base + offset));
  offset += n * sizeof(T);
  return col;
}

constexpr std::uint32_t kNoStream = UINT32_MAX;

}  // namespace

StreamPrefetcher::StreamPrefetcher(PrefetcherConfig config) : config_(config) {
  config_.validate();
  if (!config_.enabled) return;
  const std::size_t n = config_.num_streams;
  // Widest column first, so every column stays naturally aligned.
  storage_ = std::make_unique<std::byte[]>(
      n * (sizeof(Addr) + sizeof(std::int64_t) + sizeof(std::uint32_t) +
           2 * sizeof(StreamLink)));
  std::size_t offset = 0;
  key_ = column<Addr>(storage_.get(), offset, n);
  stride_ = column<std::int64_t>(storage_.get(), offset, n);
  confidence_ = column<std::uint32_t>(storage_.get(), offset, n);
  older_ = column<StreamLink>(storage_.get(), offset, n);
  newer_ = column<StreamLink>(storage_.get(), offset, n);
}

void StreamPrefetcher::on_miss(Addr line_addr, std::vector<Addr>& out) {
  if (!config_.enabled) return;

  // Continue targets are non-negative as int64, so a line with the top
  // bit set continues nothing.
  const bool continuable = static_cast<std::int64_t>(line_addr) >= 0;
  // One unsigned compare on the shifted distance is |line - key| <= reach
  // (the modular difference equals the signed one). It holds for every
  // stream this miss continues (key == line) or re-arms, so it filters
  // the scan down to a single load and branch per stream.
  const std::uint64_t reach = config_.max_stride_lines;
  const Addr shifted = line_addr + reach;
  std::uint32_t rearm = kNoStream;
  for (std::uint32_t i = 0; i < used_; ++i) {
    const Addr key = key_[i];
    if (shifted - key > 2 * reach) continue;
    if (confidence_[i] != 0) {
      if (continuable && key == line_addr) {
        continue_stream(i, line_addr, out);
        return;
      }
    } else if (key != line_addr && rearm == kNoStream) {
      rearm = i;
    }
  }

  if (rearm != kNoStream) {
    const auto stride = static_cast<std::int64_t>(line_addr - key_[rearm]);
    stride_[rearm] = stride;
    key_[rearm] = line_addr + static_cast<Addr>(stride);
    confidence_[rearm] = 1;
    touch(rearm);
    return;
  }

  std::uint32_t victim = used_;
  if (used_ < config_.num_streams) {
    ++used_;
    link_newest(victim);
  } else {
    victim = oldest_;
    touch(victim);
  }
  key_[victim] = line_addr;
  stride_[victim] = 0;
  confidence_[victim] = 0;
}

void StreamPrefetcher::continue_stream(std::uint32_t i, Addr line_addr,
                                       std::vector<Addr>& out) {
  const std::int64_t stride = stride_[i];
  key_[i] = line_addr + static_cast<Addr>(stride);
  touch(i);
  std::uint32_t& confidence = confidence_[i];
  if (confidence < config_.confirm_threshold) {
    ++confidence;
    if (confidence == config_.confirm_threshold) ++confirmed_;
  }
  if (confidence < config_.confirm_threshold) return;

  // Stay within the miss's page, like hardware streamers. Targets move
  // monotonically away from the miss, so the first one outside the page
  // (or below line 0) ends the run.
  const Addr page_first = line_addr - line_addr % config_.page_lines;
  for (std::uint32_t k = 1; k <= config_.degree; ++k) {
    const auto target = static_cast<std::int64_t>(line_addr) +
                        stride * static_cast<std::int64_t>(k);
    if (target < 0 || static_cast<Addr>(target) < page_first ||
        static_cast<Addr>(target) - page_first >= config_.page_lines)
      break;
    out.push_back(static_cast<Addr>(target));
  }
}

void StreamPrefetcher::touch(std::uint32_t i) {
  if (i == newest_) return;
  const StreamLink older = older_[i];
  const StreamLink newer = newer_[i];
  if (older == kNoLink)
    oldest_ = newer;
  else
    newer_[older] = newer;
  older_[newer] = older;
  link_newest(i);
}

void StreamPrefetcher::link_newest(std::uint32_t i) {
  const auto link = static_cast<StreamLink>(i);
  older_[i] = newest_;
  newer_[i] = kNoLink;
  if (newest_ == kNoLink)
    oldest_ = link;
  else
    newer_[newest_] = link;
  newest_ = link;
}

}  // namespace am::sim
