#pragma once
// Which slice of a partitionable job this process owns.
//
// Two representations, one contract (every plan index executed exactly
// once across the fleet, under its original index and therefore its
// original seed):
//
//   * ShardRange — the manual form: "--shard i/n" picks the fixed
//     round-robin slice {j : j ≡ i (mod n)}. Parsed by Cli::get_shard,
//     expanded by ExperimentPlan::shard. It exists for hosts that share
//     no filesystem: each runs its slice into its own store, and
//     `amresult merge` joins them. Blind to per-point cost, so a
//     sweep's wall-clock is pinned to the unluckiest slice.
//   * WorkLease — the dispatched form: an explicit batch of plan indices
//     the lease-dispatch core (measure/dispatch.hpp) hands to whichever
//     worker frees up next. Produced by make_batches from a per-point
//     cost model; a ShardRange is just the uniform-cost batch
//     assignment computed once up front (see work_lease.hpp for the
//     on-disk handoff).
#include <cstddef>
#include <cstdint>
#include <vector>

namespace am {

struct ShardRange {
  std::size_t index = 0;
  std::size_t count = 1;

  bool sharded() const { return count > 1; }
};

/// One leased batch of plan points. `points` are plan indices, ascending
/// and duplicate-free; `id` identifies the lease in the scheduler's
/// manifest and in the worker handoff (re-issued batches get fresh ids).
struct WorkLease {
  std::uint64_t id = 0;
  std::vector<std::size_t> points;
  /// Scheduler's cost estimate for the batch (relative units; 0 when no
  /// cost model was applied). Informational — never affects results.
  double cost = 0.0;

  bool empty() const { return points.empty(); }
};

}  // namespace am
