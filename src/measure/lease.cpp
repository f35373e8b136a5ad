#include "measure/lease.hpp"

#include <csignal>
#include <filesystem>
#include <iostream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "measure/dispatch.hpp"

namespace am::measure {

SchedulingFlags parse_scheduling_flags(const Cli& cli) {
  SchedulingFlags flags;
  flags.shard = cli.get_shard("shard");
  flags.lease_path = cli.get("lease", "");
  flags.emit_plan_path = cli.get("emit-plan", "");
  for (const auto* flag : {&flags.lease_path, &flags.emit_plan_path})
    if (*flag == "true")
      throw std::invalid_argument(
          "--lease/--emit-plan need a file path argument");
  const int modes = (flags.shard.sharded() ? 1 : 0) +
                    (!flags.lease_path.empty() ? 1 : 0) +
                    (!flags.emit_plan_path.empty() ? 1 : 0);
  if (modes > 1)
    throw std::invalid_argument(
        "--shard, --lease and --emit-plan are mutually exclusive");
  return flags;
}

bool claim_crash_marker(const std::string& path) {
  std::error_code ec;
  return std::filesystem::remove(path, ec);
}

LeaseWorkerReport run_offer_loop(const std::string& lease_path,
                                 const OfferRunner& run, std::ostream& out,
                                 const LeaseWorkerOptions& opts) {
  using Clock = std::chrono::steady_clock;
  LeaseWorkerReport report;
  std::optional<std::uint64_t> last_acked;
  // Last time anything happened: a fresh offer arrived or a batch
  // finished. Only genuine waiting counts against the idle timeout — a
  // batch's own (arbitrarily long) execution never may.
  auto last_activity = Clock::now();
  for (;;) {
    const auto offer = read_lease_offer(lease_path);
    if (!offer || (last_acked && offer->lease.id == *last_acked)) {
      if (opts.idle_timeout_seconds > 0.0 &&
          seconds_since(last_activity) > opts.idle_timeout_seconds)
        throw std::runtime_error("lease worker: no offer for " +
                                 std::to_string(opts.idle_timeout_seconds) +
                                 " s — scheduler gone?");
      std::this_thread::sleep_for(
          std::chrono::duration<double>(opts.poll_seconds));
      continue;
    }
    if (offer->done) {
      out << "lease queue drained: " << report.leases << " lease(s), "
          << report.points << " point(s), " << report.executed
          << " engine run(s)\n";
      return report;
    }
    if (!opts.test_crash_marker.empty() &&
        claim_crash_marker(opts.test_crash_marker)) {
      out << "test crash marker claimed — raising SIGKILL\n";
      out.flush();
      std::raise(SIGKILL);
    }

    const auto t0 = Clock::now();
    LeaseAck ack;
    ack.lease_id = offer->lease.id;
    ack.points = offer->lease.points.size();
    ack.executed = run(*offer);
    ack.wall_seconds = seconds_since(t0);
    write_lease_ack(lease_ack_path(lease_path), ack);

    last_activity = Clock::now();
    last_acked = ack.lease_id;
    report.leases += 1;
    report.points += ack.points;
    report.executed += ack.executed;
    out << "lease " << ack.lease_id << ": " << ack.points << " point(s), "
        << ack.executed << " engine run(s)\n";
  }
}

bool run_worker_mode(const Cli& cli, const ExperimentPlan& plan,
                     const SweepRunner& runner, ResultStoreFile& store,
                     ThreadPool* pool, std::ostream& out) {
  const SchedulingFlags flags = parse_scheduling_flags(cli);
  LeaseWorkerOptions opts;
  opts.test_crash_marker = cli.get("test-crash-marker", "");
  // The caller has read all of its flags by now, so a typo'd one fails
  // here, before any point runs, whatever the mode.
  cli.reject_unused();
  if (!flags.emit_plan_path.empty()) {
    PlanInfo info;
    info.points = plan.size();
    info.costs = runner.estimate_costs(plan, store.store());
    write_plan_info(flags.emit_plan_path, info);
    out << "plan info: " << plan.size() << " point(s) -> "
        << flags.emit_plan_path << "\n";
    return true;
  }
  if (!flags.lease_path.empty()) {
    if (store.store() == nullptr)
      throw std::invalid_argument(
          "lease worker: a result store is required — leased results only "
          "exist as store records");
    const auto report = run_offer_loop(
        flags.lease_path,
        [&](const LeaseOffer& offer) {
          std::size_t executed = 0;
          runner.run_points(plan, pool, store.store(), offer.lease.points,
                            &executed);
          store.save();
          return executed;
        },
        out, opts);
    store.finish(report.executed, report.points, out);
    return true;
  }
  if (!flags.shard.sharded()) return false;
  std::size_t executed = 0;
  const auto table = runner.run(plan, pool, store.store(), flags.shard,
                                &executed);
  store.finish(executed, table.size(), out);  // prints the merge handoff
  return true;
}

int run_worker_main(const std::string& name,
                    const std::function<int()>& body) {
  try {
    return body();
  } catch (const std::invalid_argument& e) {
    std::cerr << name << ": " << e.what() << "\n";
    return kWorkerExitUsage;
  } catch (const std::exception& e) {
    std::cerr << name << ": " << e.what() << "\n";
    return kWorkerExitRunFailed;
  }
}

ResultStoreFile scheduling_store(const std::string& results_dir,
                                 const std::string& driver,
                                 const SchedulingFlags& flags) {
  if (!flags.lease_path.empty())
    return ResultStoreFile::for_lease(results_dir, driver, flags.lease_path);
  return ResultStoreFile(results_dir, driver, flags.shard);
}

std::unique_ptr<HeartbeatWriter> start_worker_heartbeat(
    const Cli& cli, const SchedulingFlags& flags) {
  if (!cli.get_bool("worker", false)) return nullptr;
  if (flags.lease_path.empty())
    throw std::invalid_argument(
        "--worker requires --lease: a worker's heartbeat lives next to its "
        "lease file");
  return std::make_unique<HeartbeatWriter>(
      lease_heartbeat_path(flags.lease_path));
}

}  // namespace am::measure
