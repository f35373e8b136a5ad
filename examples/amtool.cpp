// amtool — command-line front end to the Active Measurement library.
//
//   amtool calibrate [--scale N]          calibrate CSThr/BWThr tables
//   amtool profile   [--scale N] [--app mcb|lulesh|synthetic] [...]
//                                         sweep both resources, print the
//                                         §IV per-process resource bounds
//   amtool host      [--threads K] [--buffer-mb M]
//                                         Fig. 1 sweep on *this* machine
//
// Run `amtool` with no arguments for usage.
#include <cstdio>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "measure/active_measurer.hpp"
#include "measure/app_workloads.hpp"
#include "measure/calibration.hpp"
#include "measure/host_measurer.hpp"
#include "measure/lease.hpp"
#include "model/distributions.hpp"

namespace {

struct Setup {
  am::sim::MachineConfig machine;
  std::uint32_t scale;
  am::interfere::CSThrConfig cs;
  am::interfere::BWThrConfig bw;
};

Setup make_setup(const am::Cli& cli, std::uint32_t nodes) {
  Setup s;
  s.scale = static_cast<std::uint32_t>(cli.get_int("scale", 16));
  s.machine = am::sim::MachineConfig::xeon20mb_scaled(s.scale, nodes);
  am::sim::apply_mem_backend(s.machine, cli.get("mem-backend", "channel"));
  s.cs.buffer_bytes = std::max<std::uint64_t>(4096, 4ull * 1024 * 1024 / s.scale);
  s.bw.buffer_bytes = std::max<std::uint64_t>(4096, 520ull * 1024 / s.scale);
  return s;
}

int cmd_calibrate(const am::Cli& cli) {
  const auto s = make_setup(cli, 1);
  am::measure::CalibrationOptions copts;
  copts.buffer_to_l3_ratios = {2.5};
  copts.probe_distributions = {9};
  copts.accesses_per_probe =
      static_cast<std::uint64_t>(cli.get_int("accesses", 120'000));
  copts.max_threads =
      static_cast<std::uint32_t>(cli.get_int("max-threads", copts.max_threads));
  const auto cap = am::measure::calibrate_capacity(s.machine, s.cs, copts);
  const auto bw = am::measure::calibrate_bandwidth(s.machine, s.bw, 2);
  am::Table t({"threads", "L3 left (MB)", "BW left (GB/s)"});
  for (std::size_t k = 0; k < cap.available_bytes.size(); ++k)
    t.add_row({std::to_string(k),
               am::Table::num(cap.available_bytes[k] / 1e6, 3),
               k < bw.used_bytes_per_sec.size()
                   ? am::Table::num(bw.available(static_cast<std::uint32_t>(k)) / 1e9, 2)
                   : "-"});
  std::printf("calibration on %s:\n", s.machine.name.c_str());
  t.print(std::cout);
  return 0;
}

int cmd_profile(const am::Cli& cli) {
  const std::string app = cli.get("app", "synthetic");
  const auto ranks = static_cast<std::uint32_t>(cli.get_int("ranks", 24));
  const auto per_socket =
      static_cast<std::uint32_t>(cli.get_int("per-socket", 1));
  const std::uint32_t nodes =
      app == "synthetic" ? 1u
                         : (ranks / per_socket + 1) / 2 + 1;
  const auto s = make_setup(cli, nodes);

  am::measure::SimBackend backend(s.machine);
  am::measure::CalibrationOptions copts;
  copts.buffer_to_l3_ratios = {2.5};
  copts.probe_distributions = {9};
  copts.accesses_per_probe = 120'000;
  const auto cap_calib =
      am::measure::calibrate_capacity(s.machine, s.cs, copts);
  const auto bw_calib = am::measure::calibrate_bandwidth(s.machine, s.bw, 2);
  am::measure::ActiveMeasurer measurer(backend, cap_calib, bw_calib);

  am::measure::SimBackend::WorkloadFactory factory;
  if (app == "mcb") {
    auto cfg = am::apps::McbConfig::paper(
        static_cast<std::uint32_t>(cli.get_int("particles", 20'000)),
        s.scale);
    cfg.steps = 2;
    factory = am::measure::make_mcb_workload(ranks, per_socket, cfg);
  } else if (app == "lulesh") {
    auto cfg = am::apps::LuleshConfig::paper(
        static_cast<std::uint32_t>(cli.get_int("edge", 22)), s.scale);
    cfg.steps = 2;
    factory = am::measure::make_lulesh_workload(ranks, per_socket, cfg);
  } else {
    const auto elements = static_cast<std::uint64_t>(
        cli.get_double("l3-fraction", 0.5) * s.machine.l3.size_bytes / 4);
    factory = am::measure::make_synthetic_workload(am::apps::SyntheticConfig{
        am::model::AccessDistribution::uniform(elements, "Uni"), 4, 1,
        elements * 2, 150'000});
  }

  const auto max_cs = std::min(5u, s.machine.cores_per_socket - per_socket);
  const auto max_bw = std::min(2u, s.machine.cores_per_socket - per_socket);
  const auto cs_sweep = measurer.sweep(
      factory, am::measure::Resource::kCacheStorage, max_cs, s.cs, s.bw);
  const auto bw_sweep = measurer.sweep(
      factory, am::measure::Resource::kBandwidth, max_bw, s.cs, s.bw);

  am::Table t({"resource", "threads", "time (ms)", "slowdown"});
  for (const auto* sweep : {&cs_sweep, &bw_sweep})
    for (const auto& p : sweep->points)
      t.add_row({am::measure::resource_name(sweep->resource),
                 std::to_string(p.threads),
                 am::Table::num(p.seconds * 1e3, 3),
                 am::Table::num(p.seconds / sweep->points.front().seconds, 3)});
  std::printf("profile of '%s' on %s:\n", app.c_str(),
              s.machine.name.c_str());
  t.print(std::cout);

  const auto cap_bounds =
      am::measure::ActiveMeasurer::bounds(cs_sweep, per_socket);
  const auto bw_bounds =
      am::measure::ActiveMeasurer::bounds(bw_sweep, per_socket);
  std::printf("\nper-process resource use (§IV bounds):\n");
  std::printf("  cache capacity : %.2f - %.2f MB%s\n",
              cap_bounds.lower / 1e6, cap_bounds.upper / 1e6,
              cap_bounds.fits_at_all_levels ? " (upper bound only)" : "");
  std::printf("  memory bandwidth: %.2f - %.2f GB/s%s\n",
              bw_bounds.lower / 1e9, bw_bounds.upper / 1e9,
              bw_bounds.fits_at_all_levels ? " (upper bound only)" : "");
  return 0;
}

int cmd_host(const am::Cli& cli) {
  const auto buffer_mb =
      static_cast<std::uint64_t>(cli.get_int("buffer-mb", 8));
  am::measure::HostSweepOptions opts;
  opts.max_threads = static_cast<std::uint32_t>(cli.get_int("threads", 3));
  opts.repetitions = static_cast<std::uint32_t>(cli.get_int("reps", 3));

  std::vector<std::uint32_t> buf(buffer_mb * 1024 * 1024 / 4);
  std::iota(buf.begin(), buf.end(), 0u);
  volatile std::uint64_t sink = 0;
  am::measure::HostMeasurer measurer;
  const auto result = measurer.sweep(
      [&] {
        std::uint64_t acc = 0;
        std::size_t idx = 0;
        for (int pass = 0; pass < 2; ++pass)
          for (std::size_t i = 0; i < buf.size(); ++i) {
            idx = (idx * 1103515245 + 12345) % buf.size();
            acc += buf[idx];
          }
        sink = acc;
      },
      opts);
  am::Table t({"CSThrs", "mean (ms)", "stddev (ms)"});
  for (const auto& p : result.points)
    t.add_row({std::to_string(p.threads),
               am::Table::num(p.seconds_mean * 1e3, 1),
               am::Table::num(p.seconds_stddev * 1e3, 1)});
  t.print(std::cout);
  const int onset = result.degradation_onset(0.10);
  if (onset >= 0)
    std::printf("degradation onset at %d interference thread(s)\n", onset);
  else
    std::printf("no onset detected (quiet machine required)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return am::measure::run_worker_main("amtool", [&] {
    const am::Cli cli(argc, argv);
    const auto& pos = cli.positional();
    const std::string cmd = pos.empty() ? "" : pos[0];
    int (*const run)(const am::Cli&) = cmd == "calibrate" ? cmd_calibrate
                                       : cmd == "profile" ? cmd_profile
                                       : cmd == "host"    ? cmd_host
                                                          : nullptr;
    if (run) {
      const int status = run(cli);
      cli.reject_unused();  // a typo'd flag still fails the invocation
      return status;
    }
    std::printf(
        "amtool — Active Measurement of memory resource consumption\n"
        "usage:\n"
        "  amtool calibrate [--scale N]\n"
        "  amtool profile [--scale N] [--app synthetic|mcb|lulesh]\n"
        "                 [--ranks R] [--per-socket P] [--particles N]\n"
        "                 [--edge E] [--l3-fraction F]\n"
        "  amtool host [--threads K] [--buffer-mb M] [--reps R]\n");
    return cmd.empty() ? 0 : 1;
  });
}
