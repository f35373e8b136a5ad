#pragma once
// `amsweep`: run one figure driver's ExperimentPlan across supervised
// worker processes and merge their stores into the canonical file.
//
// The orchestrator is the single-job front end of the lease-dispatch
// core (measure/dispatch.hpp). It first probes the driver
// (`--emit-plan`) for the plan size and per-point cost estimates, hands
// the whole plan to a LeaseDispatcher as one job, and spawns each
// worker slot as `<driver> <flags> --results-dir <dir> --worker
// --lease <file>`. Batching, heartbeat supervision, crash requeue with
// bisection and the per-point retry budget are the core's; what the
// orchestrator adds is the merge and the manifest:
//
//   * Same numbers as a serial run: workers execute original plan
//     indices (original per-point seeds), and the merge is
//     ResultStore::merge — the merged store is bit-identical to the
//     store an unsharded run writes, however the points were leased.
//   * No silent holes: every worker slot that acknowledged a lease must
//     have left a loadable store, or the sweep fails; a point whose
//     retry budget runs out, or a worker rejecting its flags
//     (kWorkerExitUsage), fails the sweep at once. The manifest names
//     the missing points and records the host fingerprint, every worker
//     attempt (wall-clock, exit status, heartbeats), every lease and
//     per-worker load-balance stats, success or not.
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "measure/dispatch.hpp"
#include "measure/result_store.hpp"

namespace am::measure {

struct OrchestratorOptions {
  /// The worker command: a figure driver plus its figure flags. The
  /// orchestrator appends `--results-dir <dir> --emit-plan <file>` for
  /// the probe and `--results-dir <dir> --worker --lease <file>` per
  /// worker.
  std::vector<std::string> worker_command;
  std::string results_dir;
  /// Store-file naming stem, matching what the driver passes to its
  /// ResultStoreFile — for the bench drivers, the executable name.
  std::string driver;
  /// Worker processes running concurrently.
  std::size_t workers = 2;
  /// Extra attempts per plan point beyond the first, charged whenever a
  /// lease holding the point dies.
  std::size_t retries = 1;
  double poll_seconds = 0.05;
  /// Kill a worker whose beat sequence has not advanced for this long,
  /// or that wrote no beat this long after spawn (0 = disabled). Also
  /// bounds the probe's run time.
  double stall_timeout_seconds = 0.0;
  /// Target number of batches (0 = auto, see DispatchOptions::batches).
  std::size_t lease_batches = 0;
};

/// One lease's journey through the queue, as recorded in the manifest.
struct LeaseLogEntry {
  std::uint64_t id = 0;
  std::size_t worker = 0;     // slot it was offered to
  std::size_t points = 0;
  double cost = 0.0;          // scheduler's estimate, relative units
  std::size_t executed = SIZE_MAX;  // SIZE_MAX until acknowledged
  double wall_seconds = 0.0;
  bool completed = false;  // false = worker died holding it (re-queued)
};

struct OrchestratorReport {
  bool success = false;
  std::vector<WorkerAttempt> attempts;  // chronological retry log
  /// Plan points never acknowledged (budget exhausted or sweep failed).
  std::vector<std::size_t> missing_points;
  std::vector<LeaseLogEntry> leases;
  std::vector<WorkerStat> worker_stats;
  std::size_t plan_points = SIZE_MAX;  // SIZE_MAX = no probe answer
  std::string merged_path;
  std::size_t merged_records = 0;
  /// Total engine runs across acknowledged leases — 0 for a fully cached
  /// re-run of an already-merged sweep.
  std::size_t engine_runs = 0;
  double wall_seconds = 0.0;
  std::string error;  // first fatal error (usage abort, merge conflict)
};

class SweepOrchestrator {
 public:
  /// Throws std::invalid_argument on an unusable configuration (empty
  /// command/results_dir/driver, zero workers).
  explicit SweepOrchestrator(OrchestratorOptions opts);

  /// Runs the sweep to completion, streaming progress lines to `log`.
  /// Failures are reported, not thrown: the report (and the manifest on
  /// disk) always describes what happened.
  OrchestratorReport run(std::ostream& log);

  /// <results_dir>/<driver>.manifest.tsv — where run() records the
  /// outcome.
  static std::string manifest_path(const std::string& results_dir,
                                   const std::string& driver);

 private:
  std::string lease_path(std::size_t slot) const;
  /// Runs the --emit-plan probe; nullopt (with `error` set) when it
  /// failed or wrote nothing readable.
  std::optional<PlanInfo> probe(std::string& error) const;
  void dispatch(OrchestratorReport& report, std::ostream& log) const;
  void merge(OrchestratorReport& report, std::ostream& log) const;
  void write_manifest(const OrchestratorReport& report) const;

  OrchestratorOptions opts_;
};

}  // namespace am::measure
