#include "measure/calibration.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "apps/stream_probe.hpp"
#include "apps/synthetic_benchmark.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "model/ehr_model.hpp"
#include "sim/engine.hpp"

namespace am::measure {

namespace {

/// Timer primary used when only interference threads should run.
class TimerAgent final : public sim::Agent {
 public:
  explicit TimerAgent(sim::Cycles duration)
      : sim::Agent("timer"), left_(duration) {}
  void step(sim::AgentContext& ctx) override {
    const sim::Cycles chunk = std::min<sim::Cycles>(left_, 10'000);
    ctx.compute(chunk);
    left_ -= chunk;
  }
  bool finished() const override { return left_ == 0; }

 private:
  sim::Cycles left_;
};

/// Runs probe(i) for every i in [0, n) on a transient pool of
/// min(n, hardware threads) threads and returns the results in probe
/// order. Every probe owns its engine and its seed, so which thread runs
/// it cannot change what it returns.
std::vector<double> run_probes(
    std::size_t n, const std::function<double(std::size_t)>& probe) {
  const std::size_t hardware =
      std::max(1U, std::thread::hardware_concurrency());
  ThreadPool pool(std::min(n, hardware));
  std::vector<double> out(n);
  parallel_for(pool, n, [&](std::size_t i) { out[i] = probe(i); });
  return out;
}

/// Rejects options that would make calibrate_capacity run no probe, or a
/// probe that cannot mean anything, before any probe runs.
void validate(const sim::MachineConfig& machine,
              const CalibrationOptions& opts) {
  // The probe occupies core 0 and the k-th CSThr core 1+k; without this
  // guard the extra agents would silently land on the next socket and
  // calibrate availability against interference that never shares the L3.
  if (opts.max_threads + 1 > machine.cores_per_socket)
    throw std::invalid_argument("calibrate_capacity: too many threads");
  // An empty list would average zero probes into an estimate of 0 bytes.
  if (opts.buffer_to_l3_ratios.empty())
    throw std::invalid_argument(
        "calibrate_capacity: buffer_to_l3_ratios is empty");
  for (const double ratio : opts.buffer_to_l3_ratios)
    if (!std::isfinite(ratio) ||
        !(ratio * static_cast<double>(machine.l3.size_bytes) / 4 >= 1.0))
      throw std::invalid_argument(
          "calibrate_capacity: buffer_to_l3_ratios holds " +
          std::to_string(ratio) +
          "; each ratio must be finite, positive and large enough for a "
          "one-element buffer");
  if (opts.probe_distributions.empty())
    throw std::invalid_argument(
        "calibrate_capacity: probe_distributions is empty");
  const std::size_t patterns = model::AccessDistribution::table2(1).size();
  for (const std::size_t dist_idx : opts.probe_distributions)
    if (dist_idx >= patterns)
      throw std::invalid_argument(
          "calibrate_capacity: probe_distributions index " +
          std::to_string(dist_idx) + " is out of range; Table II has " +
          std::to_string(patterns) + " patterns");
}

}  // namespace

CapacityCalibration calibrate_capacity(const sim::MachineConfig& machine,
                                       const interfere::CSThrConfig& cs,
                                       const CalibrationOptions& opts) {
  validate(machine, opts);
  // Probe p is (k, ratio, distribution) in nested loop order, k outermost,
  // so each level's probes are one contiguous run of per_level slots.
  const std::size_t dists = opts.probe_distributions.size();
  const std::size_t per_level = opts.buffer_to_l3_ratios.size() * dists;
  const std::size_t probes = (opts.max_threads + 1) * per_level;
  const auto estimates = run_probes(probes, [&](std::size_t p) {
    const auto k = static_cast<std::uint32_t>(p / per_level);
    const double ratio = opts.buffer_to_l3_ratios[p % per_level / dists];
    const auto elements = static_cast<std::uint64_t>(
        ratio * static_cast<double>(machine.l3.size_bytes) / 4);
    const auto dist = model::AccessDistribution::table2(elements).at(
        opts.probe_distributions[p % dists]);
    sim::Engine engine(machine, opts.seed);
    apps::SyntheticConfig cfg{dist, 4, /*compute_ops=*/1,
                              /*warmup=*/elements * 2, opts.accesses_per_probe};
    auto bench =
        std::make_unique<apps::SyntheticBenchmarkAgent>(engine.memory(), cfg);
    const auto bench_idx = engine.add_agent(std::move(bench), 0);
    for (std::uint32_t i = 0; i < k; ++i)
      engine.add_agent(
          std::make_unique<interfere::CSThrAgent>(engine.memory(), cs), 1 + i,
          /*primary=*/false);
    engine.run();
    const double miss = engine.agent_counters(bench_idx).l3_miss_rate();
    return model::EhrModel(dist, 4).invert_capacity(miss);
  });
  // Fold in probe order: the same add() sequence as a serial loop, so the
  // mean and stddev bits do not depend on which probe finished first.
  CapacityCalibration out;
  for (std::size_t level = 0; level <= opts.max_threads; ++level) {
    RunningStats estimate;
    for (std::size_t j = 0; j < per_level; ++j)
      estimate.add(estimates[level * per_level + j]);
    out.available_bytes.push_back(estimate.mean());
    out.stddev_bytes.push_back(estimate.stddev());
  }
  return out;
}

BandwidthCalibration calibrate_bandwidth(const sim::MachineConfig& machine,
                                         const interfere::BWThrConfig& bw,
                                         std::uint32_t max_threads,
                                         std::uint64_t seed) {
  if (max_threads + 1 > machine.cores_per_socket)
    throw std::invalid_argument("calibrate_bandwidth: too many threads");
  // Probe 0 is the STREAM-style peak alone on the socket; probe 1 + k
  // measures what k BWThrs draw under an idle timer primary.
  const auto rates = run_probes(max_threads + 2, [&](std::size_t p) {
    sim::Engine engine(machine, seed);
    if (p == 0) {
      apps::StreamProbeConfig cfg;
      cfg.array_bytes = machine.l3.size_bytes * 2;
      engine.add_agent(
          std::make_unique<apps::StreamProbeAgent>(engine.memory(), cfg), 0);
    } else {
      const sim::Cycles window = 20'000'000;
      engine.add_agent(std::make_unique<TimerAgent>(window), 0);
      const auto k = static_cast<std::uint32_t>(p - 1);
      for (std::uint32_t i = 0; i < k; ++i)
        engine.add_agent(
            std::make_unique<interfere::BWThrAgent>(engine.memory(), bw), 1 + i,
            /*primary=*/false);
    }
    const sim::Cycles end = engine.run();
    return static_cast<double>(engine.memory().mem_backend(0).total_bytes()) /
           machine.cycles_to_seconds(end);
  });
  BandwidthCalibration out;
  out.peak_bytes_per_sec = rates[0];
  out.used_bytes_per_sec.assign(rates.begin() + 1, rates.end());
  return out;
}

}  // namespace am::measure
