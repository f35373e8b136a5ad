#include "sim/set_index.hpp"

#include <bit>
#include <stdexcept>

#include "common/rng.hpp"

namespace am::sim {

const char* set_hash_name(SetHash hash) {
  return hash == SetHash::kH3 ? "h3" : "mask";
}

SetIndexer::SetIndexer(SetHash hash, std::uint64_t num_sets)
    : num_sets_(num_sets) {
  if (num_sets == 0)
    throw std::invalid_argument("SetIndexer: zero sets");
  const bool pow2 = std::has_single_bit(num_sets);
  if (pow2) mask_ = num_sets - 1;
  if (hash == SetHash::kMask) {
    mode_ = pow2 ? Mode::kPow2Mask : Mode::kMod;
    return;
  }
  mode_ = pow2 ? Mode::kH3Pow2 : Mode::kH3Mod;
  // Output width: exactly log2(sets) bits for power-of-two set counts;
  // otherwise eight guard bits beyond the set-count width before the
  // modulo reduction, keeping its bias under 1/256.
  const auto width =
      static_cast<std::uint32_t>(std::bit_width(num_sets - 1));
  h3_bits_ = pow2 ? width : std::min(64u, width + 8u);
  // Fixed seed: the H3 family is part of the simulated machine's
  // definition, so every cache, run, and process must draw the same
  // rows (common/rng.hpp is deterministic by construction).
  Rng rng(0x48334861736852ull);  // "H3HashR"
  for (std::uint32_t b = 0; b < h3_bits_; ++b) h3_rows_[b] = rng();
}

}  // namespace am::sim
