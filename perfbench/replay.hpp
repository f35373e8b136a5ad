#pragma once
// Per-layer host cost of the simulator, measured by replaying captured
// traffic through one sim layer at a time via its public entry points.
//
// A traced benchmark run captures three traffic mixes with
// Engine::set_trace: the application ranks of one grid point, and one
// CSThr and one BWThr running alone. Each mix is then replayed through
//
//   * MemorySystem::access on a fresh machine (the whole hierarchy walk),
//   * TraceReplayAgents under Engine::run (hierarchy + scheduler; the
//     hierarchy replay is subtracted to leave the scheduler's self time),
//   * standalone Cache::access chains at the L1, L2 and L3 geometries,
//     each level fed the previous level's miss stream,
//   * StreamPrefetcher::on_miss over the L2-miss stream, and
//   * MemoryBackend::transfer over the L3-miss stream.
//
// Replays run on fresh objects, so they cannot touch the simulated state
// of the runs being measured; they report host time only.
#include <cstdint>
#include <vector>

#include "interfere/bwthr_agent.hpp"
#include "interfere/csthr_agent.hpp"
#include "sim/machine.hpp"
#include "sim/trace.hpp"

namespace perfbench {

/// One captured agent's access stream and the core it ran on.
struct CapturedStream {
  am::sim::CoreId core = 0;
  am::sim::TraceBuffer trace;
};

/// Host nanoseconds per operation of each sim layer over one traffic mix
/// (medians over repeated replays).
struct LayerCosts {
  double hierarchy_ns_per_access = 0.0;
  double engine_ns_per_access = 0.0;  // scheduler self time
  double l1_ns_per_access = 0.0;
  double l2_ns_per_access = 0.0;
  double l3_ns_per_access = 0.0;
  double prefetcher_ns_per_miss = 0.0;
  double backend_ns_per_transfer = 0.0;
};

/// Keeps at most `max_records` records in total, taken as an equal-sized
/// prefix of every stream, so replays cost the same whatever a capture
/// produced.
std::vector<CapturedStream> cap_streams(
    const std::vector<CapturedStream>& streams, std::size_t max_records);

/// Captures `window` simulated cycles of one interference agent's traffic
/// (a CSThr when `bandwidth` is false, else a BWThr) on core 1 of an
/// engine built directly on `machine`, next to an idle primary on core 0.
std::vector<CapturedStream> capture_interference(
    const am::sim::MachineConfig& machine, bool bandwidth,
    const am::interfere::CSThrConfig& cs,
    const am::interfere::BWThrConfig& bw, am::sim::Cycles window,
    std::uint64_t seed);

/// Replays `streams` through every layer `repetitions` times.
LayerCosts replay_layers(const am::sim::MachineConfig& machine,
                         const std::vector<CapturedStream>& streams,
                         std::uint64_t seed, int repetitions);

}  // namespace perfbench
