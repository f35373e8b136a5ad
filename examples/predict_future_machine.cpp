// Domain scenario 2: the paper's headline use case — predict how an
// application will perform on a *future, memory-starved* machine (the
// paper's Exascale motivation: 1-2 orders of magnitude less capacity and
// bandwidth per core) without owning such a machine. The sensitivity
// curves measured via interference become a predictor.
//
// Build & run:  ./build/examples/predict_future_machine [--scale N]
//               [--accesses N]
#include <cstdio>

#include "common/cli.hpp"
#include "measure/active_measurer.hpp"
#include "measure/app_workloads.hpp"
#include "measure/calibration.hpp"
#include "measure/lease.hpp"
#include "model/distributions.hpp"

namespace {

int predict(const am::Cli& cli) {
  const auto kScale = static_cast<std::uint32_t>(cli.get_int("scale", 16));
  const auto accesses =
      static_cast<std::uint64_t>(cli.get_int("accesses", 200'000));
  cli.reject_unused();
  const auto machine = am::sim::MachineConfig::xeon20mb_scaled(kScale);
  am::interfere::CSThrConfig cs;
  cs.buffer_bytes = 4ull * 1024 * 1024 / kScale;
  am::interfere::BWThrConfig bw;
  bw.buffer_bytes = 520ull * 1024 / kScale;

  am::measure::CalibrationOptions copts;
  copts.buffer_to_l3_ratios = {2.5};
  copts.probe_distributions = {9};
  copts.accesses_per_probe = accesses / 2;
  const auto capacity = am::measure::calibrate_capacity(machine, cs, copts);
  const auto bandwidth = am::measure::calibrate_bandwidth(machine, bw, 2);

  // Application under study: a cache-hungry probabilistic kernel.
  const std::uint64_t elements = machine.l3.size_bytes * 5 / 4 / 4;
  const auto dist = am::model::AccessDistribution::exponential(
      elements, 6.0 / static_cast<double>(elements), "Exp_6");
  const auto workload =
      am::measure::make_synthetic_workload(am::apps::SyntheticConfig{
          dist, 4, 1, elements * 2, accesses});

  am::measure::SimBackend backend(machine);
  am::measure::ActiveMeasurer measurer(backend, capacity, bandwidth);
  const auto sweep = measurer.sweep(
      workload, am::measure::Resource::kCacheStorage, 5, cs, bw);
  const auto curve = sweep.curve();

  std::printf("Measured sensitivity on %s (L3 %.2f MB):\n",
              machine.name.c_str(), machine.l3.size_bytes / 1e6);
  for (const auto& p : sweep.points)
    std::printf("  %.2f MB available -> %.3f ms\n",
                p.resource_available / 1e6, p.seconds * 1e3);

  std::printf("\nPredicted slowdown on hypothetical future nodes:\n");
  for (const double fraction : {0.75, 0.5, 0.25, 0.125}) {
    const double future_l3 =
        static_cast<double>(machine.l3.size_bytes) * fraction;
    std::printf("  L3 scaled to %4.1f%% (%.2f MB): %.2fx\n",
                fraction * 100.0, future_l3 / 1e6,
                curve.predict_slowdown(future_l3));
  }
  std::printf(
      "\nThe application needs >= %.2f MB of shared cache to run without\n"
      "degradation; below that the curve above is the expected cost.\n",
      curve.active_use_threshold(0.05) / 1e6);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return am::measure::run_worker_main("predict_future_machine", [&] {
    return predict(am::Cli(argc, argv));
  });
}
