// Quickstart: actively measure how much shared-cache capacity a workload
// uses, exactly as in Fig. 1 of the paper.
//
//   1. Calibrate the CSThr interference thread (how much capacity do k
//      threads deny?).
//   2. Run the workload under 0..5 CSThrs and record its runtime.
//   3. The level where performance starts to degrade reveals the
//      application's active capacity use.
//
// Build & run:  ./build/examples/quickstart [--scale N] [--accesses N]
#include <cstdio>

#include "common/cli.hpp"
#include "measure/active_measurer.hpp"
#include "measure/app_workloads.hpp"
#include "measure/calibration.hpp"
#include "measure/lease.hpp"
#include "model/distributions.hpp"

namespace {

int quickstart(const am::Cli& cli) {
  // Default: a 1:16 scale model of the paper's Xeon20MB node (1.25 MB L3).
  const auto scale =
      static_cast<std::uint32_t>(cli.get_int("scale", 16));
  const auto accesses =
      static_cast<std::uint64_t>(cli.get_int("accesses", 200'000));
  auto machine = am::sim::MachineConfig::xeon20mb_scaled(scale);
  // Optional: swap the memory model under the whole measurement
  // (--mem-backend channel|banked|ddr4|hbm).
  am::sim::apply_mem_backend(machine, cli.get("mem-backend", "channel"));
  cli.reject_unused();

  am::interfere::CSThrConfig cs;
  cs.buffer_bytes = 4ull * 1024 * 1024 / scale;
  am::interfere::BWThrConfig bw;
  bw.buffer_bytes = 520ull * 1024 / scale;

  std::printf("Calibrating interference threads on %s...\n",
              machine.name.c_str());
  am::measure::CalibrationOptions copts;
  copts.buffer_to_l3_ratios = {2.5};
  copts.probe_distributions = {9};  // uniform probe
  copts.accesses_per_probe = accesses / 2;
  const auto capacity = am::measure::calibrate_capacity(machine, cs, copts);
  const auto bandwidth =
      am::measure::calibrate_bandwidth(machine, bw, /*max_threads=*/2);
  for (std::size_t k = 0; k < capacity.available_bytes.size(); ++k)
    std::printf("  %zu CSThr(s) -> %.2f MB of L3 left\n", k,
                capacity.available_bytes[k] / 1e6);

  // The workload under study: a probabilistic kernel whose working set is
  // about 60%% of the L3 (so it should tolerate mild interference only).
  const std::uint64_t elements = machine.l3.size_bytes * 6 / 10 / 4;
  const auto dist = am::model::AccessDistribution::normal(
      elements, elements / 2.0, elements / 6.0, "Norm_6");
  const auto workload =
      am::measure::make_synthetic_workload(am::apps::SyntheticConfig{
          dist, 4, /*compute_ops=*/1, /*warmup=*/elements * 2, accesses});

  am::measure::SimBackend backend(machine);
  am::measure::ActiveMeasurer measurer(backend, capacity, bandwidth);

  std::printf("\nSweeping cache-storage interference...\n");
  const auto sweep = measurer.sweep(
      workload, am::measure::Resource::kCacheStorage, 5, cs, bw);
  for (const auto& p : sweep.points)
    std::printf("  %u CSThr(s): %.3f ms (%.1f%% slowdown, %.2f MB left)\n",
                p.threads, p.seconds * 1e3,
                (p.seconds / sweep.points.front().seconds - 1.0) * 100.0,
                p.resource_available / 1e6);

  const auto bounds = am::measure::ActiveMeasurer::bounds(sweep, 1, 0.05);
  if (bounds.degraded_at_any_level)
    std::printf("\nThe workload actively uses between %.2f and %.2f MB of "
                "shared cache.\n",
                bounds.lower / 1e6, bounds.upper / 1e6);
  else
    std::printf("\nThe workload fits in %.2f MB or less of shared cache "
                "(never degraded).\n",
                bounds.upper / 1e6);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return am::measure::run_worker_main("quickstart", [&] {
    return quickstart(am::Cli(argc, argv));
  });
}
