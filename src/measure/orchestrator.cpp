#include "measure/orchestrator.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/atomic_file.hpp"
#include "interfere/host_identity.hpp"

namespace am::measure {

namespace {

using Clock = std::chrono::steady_clock;

/// The orchestrator's one dispatcher job: the driver's whole plan.
constexpr std::uint64_t kSweepJob = 1;

}  // namespace

SweepOrchestrator::SweepOrchestrator(OrchestratorOptions opts)
    : opts_(std::move(opts)) {
  if (opts_.worker_command.empty())
    throw std::invalid_argument("orchestrator: empty worker command");
  if (opts_.results_dir.empty())
    throw std::invalid_argument("orchestrator: results_dir is required");
  if (opts_.driver.empty())
    throw std::invalid_argument("orchestrator: driver name is required");
  if (opts_.workers == 0)
    throw std::invalid_argument("orchestrator: workers must be positive");
}

std::string SweepOrchestrator::manifest_path(const std::string& results_dir,
                                             const std::string& driver) {
  return (std::filesystem::path(results_dir) / (driver + ".manifest.tsv"))
      .string();
}

std::string SweepOrchestrator::lease_path(std::size_t slot) const {
  return (std::filesystem::path(opts_.results_dir) /
          (opts_.driver + ".lease" + std::to_string(slot)))
      .string();
}

std::optional<PlanInfo> SweepOrchestrator::probe(
    std::string& error) const {
  const std::string plan_file =
      (std::filesystem::path(opts_.results_dir) /
       (opts_.driver + ".plan.tsv"))
          .string();
  std::error_code ec;
  std::filesystem::remove(plan_file, ec);  // stale from an earlier sweep

  auto argv = opts_.worker_command;
  argv.push_back("--results-dir");
  argv.push_back(opts_.results_dir);
  argv.push_back("--emit-plan");
  argv.push_back(plan_file);

  Subprocess probe;
  try {
    Subprocess::Options spawn_opts;
    spawn_opts.stdout_path = plan_file + ".log";
    spawn_opts.new_process_group = true;
    probe = Subprocess::spawn(argv, spawn_opts);
  } catch (const std::exception& e) {
    error = std::string("plan probe unspawnable: ") + e.what();
    return std::nullopt;
  }
  const auto t0 = Clock::now();
  while (probe.running()) {
    // The probe builds the plan but runs no experiments; a wedged probe
    // falls under the same stall policy as a wedged worker.
    if (opts_.stall_timeout_seconds > 0.0 &&
        seconds_since(t0) > opts_.stall_timeout_seconds) {
      probe.kill();
      break;
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(opts_.poll_seconds));
  }
  // wait() returns the cached status once the child is reaped, so this
  // never blocks twice — and never dereferences an empty optional.
  const ExitStatus status = probe.wait();
  const auto info = status.success() ? read_plan_info(plan_file)
                                     : std::nullopt;
  if (!info)
    error = "plan probe " +
            (status.success() ? std::string("wrote no readable plan info")
                              : "failed (" + status.describe() + ")") +
            " — see " + plan_file + ".log";
  return info;
}

OrchestratorReport SweepOrchestrator::run(std::ostream& log) {
  const auto t0 = Clock::now();
  OrchestratorReport report;
  try {
    std::filesystem::create_directories(opts_.results_dir);
  } catch (const std::exception& e) {
    report.error = std::string("cannot create results dir: ") + e.what();
    log << report.error << "\n";
    report.wall_seconds = seconds_since(t0);
    return report;  // no manifest: the directory it lives in is the problem
  }

  report.merged_path = store_path(opts_.results_dir, opts_.driver);
  dispatch(report, log);

  report.wall_seconds = seconds_since(t0);
  try {
    write_manifest(report);
    log << "manifest: " << manifest_path(opts_.results_dir, opts_.driver)
        << "\n";
  } catch (const std::exception& e) {
    // A full disk after a successful merge must not turn into a thrown
    // "usage" failure: the report (and merged store) still stand.
    if (report.error.empty())
      report.error = std::string("manifest write failed: ") + e.what();
    log << "manifest write failed: " << e.what() << "\n";
  }
  return report;
}

void SweepOrchestrator::dispatch(OrchestratorReport& report,
                                 std::ostream& log) const {
  const auto info = probe(report.error);
  if (!info) {
    log << report.error << "\n";
    return;
  }
  const std::size_t n = info->points;
  report.plan_points = n;
  if (n == 0) {
    // Nothing to lease; the canonical store is already complete.
    log << "plan has 0 points: nothing to schedule\n";
    merge(report, log);
    return;
  }

  DispatchOptions dopts;
  dopts.worker_command = opts_.worker_command;
  dopts.worker_command.insert(dopts.worker_command.end(),
                              {"--results-dir", opts_.results_dir, "--worker"});
  for (std::size_t w = 0; w < std::min(opts_.workers, n); ++w)
    dopts.lease_paths.push_back(lease_path(w));
  dopts.retries = opts_.retries;
  dopts.batches = opts_.lease_batches;
  dopts.stall_timeout_seconds = opts_.stall_timeout_seconds;

  bool complete = false, failed = false;
  DispatchHooks hooks;
  hooks.offered = [&](std::uint64_t, std::size_t w, const WorkLease& lease) {
    LeaseLogEntry entry;
    entry.id = lease.id;
    entry.worker = w;
    entry.points = lease.points.size();
    entry.cost = lease.cost;
    report.leases.push_back(entry);
  };
  hooks.acked = [&](std::uint64_t, const WorkLease& lease,
                    const LeaseAck& ack) {
    report.engine_runs += ack.executed;
    for (auto& e : report.leases)
      if (e.id == lease.id) {
        e.completed = true;
        e.executed = ack.executed;
        e.wall_seconds = ack.wall_seconds;
      }
  };
  hooks.exited = [&](const WorkerAttempt& a) { report.attempts.push_back(a); };
  hooks.completed = [&](std::uint64_t) { complete = true; };
  hooks.failed = [&](std::uint64_t, const std::string& why) {
    report.error = why;
    failed = true;
  };

  LeaseDispatcher dispatcher(std::move(dopts), std::move(hooks));
  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});
  try {
    const std::size_t batches =
        dispatcher.add_job(kSweepJob, n, all, info->costs);
    log << "amsweep: " << opts_.driver << ", " << batches
        << " leased batch(es) over " << n << " point(s) on "
        << std::min(opts_.workers, n)
        << " worker slot(s), per-point retries " << opts_.retries << "\n";
    // Once every point is acknowledged, drain: idle workers get the done
    // offer and exit 0. A failed sweep stops at once — the dispatcher's
    // destructor kills whatever is still running.
    while (!failed && !(complete && !dispatcher.any_live()))
      if (!dispatcher.step(!complete, log))
        std::this_thread::sleep_for(
            std::chrono::duration<double>(opts_.poll_seconds));
  } catch (const std::exception& e) {
    // A cost model the batcher rejects, or an I/O failure in the lease
    // handoff (unwritable offer): reported, never thrown — the contract
    // of run().
    report.error = std::string("lease dispatch failed: ") + e.what();
    log << report.error << "\n";
    failed = true;
  }

  report.worker_stats = dispatcher.worker_stats();
  report.missing_points = dispatcher.missing_points(kSweepJob);
  if (failed || !report.missing_points.empty()) {
    log << "sweep failed; " << report.missing_points.size()
        << " point(s) incomplete\n";
    return;
  }
  merge(report, log);
}

void SweepOrchestrator::merge(OrchestratorReport& report,
                              std::ostream& log) const {
  try {
    // Seed from the existing canonical file: it may hold records from
    // earlier runs (other scales, other grids), and "stale records sit
    // idle in the store" is a documented contract — completing a sweep
    // must extend the cache, never replace it.
    ResultStore merged = ResultStore::load_or_empty(report.merged_path);
    std::size_t stores = 0;
    for (const auto& ws : report.worker_stats) {
      if (ws.batches == 0) continue;
      // A worker that acknowledged a lease must have persisted it; a
      // missing or corrupt store is a hole no ack admitted to.
      merged.merge(ResultStore::load(lease_store_path(lease_path(ws.worker))));
      ++stores;
    }
    merged.save(report.merged_path);
    ResultStore::load(report.merged_path);  // validate what we wrote
    report.merged_records = merged.size();
    report.success = true;
    log << "merged " << stores << " worker store(s) -> " << report.merged_path
        << " (" << report.merged_records << " records, "
        << report.engine_runs << " engine runs total)\n";
  } catch (const std::exception& e) {
    report.error = std::string("merge failed: ") + e.what();
    log << report.error << "\n";
  }
}

void SweepOrchestrator::write_manifest(
    const OrchestratorReport& report) const {
  std::ostringstream out;
  out << "#am-sweep-manifest v1\n";
  out << "host\t" << interfere::HostIdentity::detect().fingerprint() << '\n';
  out << "driver\t" << opts_.driver << '\n';
  std::string cmd;
  for (const auto& a : opts_.worker_command) {
    if (!cmd.empty()) cmd += ' ';
    cmd += a;
  }
  out << "command\t" << cmd << '\n';
  out << "schedule\tlease\n";
  out << "workers\t" << opts_.workers << '\n';
  out << "retries\t" << opts_.retries << '\n';
  if (report.plan_points != SIZE_MAX)
    out << "plan_points\t" << report.plan_points << '\n';
  out << "status\t" << (report.success ? "ok" : "failed") << '\n';
  if (!report.error.empty()) out << "error\t" << report.error << '\n';
  out << "merged\t" << report.merged_path << '\n';
  out << "records\t" << report.merged_records << '\n';
  out << "engine_runs\t" << report.engine_runs << '\n';
  out << "wall_seconds\t" << fmt_seconds(report.wall_seconds) << '\n';
  for (const auto p : report.missing_points)
    out << "missing_point\t" << p << '\n';
  // attempt <slot> <attempt> <status> <wall_s> <heartbeats> <executed>
  // (executed counts are per lease below; the column stays for readers
  // of the v1 format)
  for (const auto& a : report.attempts)
    out << "attempt\t" << a.worker << '\t' << a.attempt << '\t'
        << a.status.describe() << (a.stalled ? " [stalled]" : "") << '\t'
        << fmt_seconds(a.wall_seconds) << '\t' << a.heartbeats << "\t-\n";
  // lease <id> <slot> <points> <cost> <executed> <wall_s> <ok|requeued>
  for (const auto& l : report.leases)
    out << "lease\t" << l.id << '\t' << l.worker << '\t' << l.points << '\t'
        << fmt_seconds(l.cost) << '\t'
        << (l.executed == SIZE_MAX ? std::string("-")
                                   : std::to_string(l.executed))
        << '\t' << fmt_seconds(l.wall_seconds) << '\t'
        << (l.completed ? "ok" : "requeued") << '\n';
  // worker <slot> <busy_s> <batches> <points> <respawns> <steals>
  for (const auto& ws : report.worker_stats)
    out << "worker\t" << ws.worker << '\t' << fmt_seconds(ws.busy_seconds)
        << '\t' << ws.batches << '\t' << ws.points << '\t' << ws.respawns
        << '\t' << ws.steals << '\n';
  if (const double balance = busy_max_over_mean(report.worker_stats);
      balance > 0.0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", balance);
    out << "busy_max_over_mean\t" << buf << '\n';
  }
  atomic_write_file(manifest_path(opts_.results_dir, opts_.driver),
                    out.str(), "orchestrator");
}

}  // namespace am::measure
