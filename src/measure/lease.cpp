#include "measure/lease.hpp"

#include <optional>
#include <ostream>
#include <stdexcept>
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

LeaseWorkerReport run_lease_worker(const ExperimentPlan& plan,
                                   const SweepRunner& runner,
                                   ThreadPool* pool, ResultStoreFile& store,
                                   const std::string& lease_path,
                                   std::ostream& out,
                                   const LeaseWorkerOptions& opts) {
  if (store.store() == nullptr)
    throw std::invalid_argument(
        "lease worker: a result store is required — leased results only "
        "exist as store records");
  return run_offer_loop(
      lease_path,
      [&](const LeaseOffer& offer) {
        std::size_t executed = 0;
        runner.run_points(plan, pool, store.store(), offer.lease.points,
                          &executed);
        store.save();
        return executed;
      },
      out, opts);
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

void emit_plan_info(const ExperimentPlan& plan, const SweepRunner& runner,
                    const ResultStore* store, const std::string& path) {
  PlanInfo info;
  info.points = plan.size();
  info.costs = runner.estimate_costs(plan, store);
  write_plan_info(path, info);
}

}  // namespace am::measure
