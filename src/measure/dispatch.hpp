#pragma once
// The lease-dispatch core both sweep front ends drive: SweepOrchestrator
// (`amsweep`, one job — the figure driver's plan) and SweepDaemon
// (`amsweepd`, any number of tenant jobs). A LeaseDispatcher owns a
// fixed set of worker slots, one lease file each (common/work_lease.hpp
// for the handoff formats), and per job the batch queue, the per-point
// retry budget and the completion accounting:
//
//   * Batching: a job's pending plan indices are split into size-aware
//     batches (make_batches, greedy LPT over the caller's per-point cost
//     estimates) and queued heaviest first.
//   * Dispatch: a free slot takes the next batch of the job
//     FairShareScheduler picks — with one job, simply the next batch.
//     Slots are spawned as `<worker_command> --lease <file>` in their
//     own process group, and a live worker is handed its next batch the
//     moment it acknowledges the previous one.
//   * Liveness: workers maintain a heartbeat file whose payload carries
//     a monotonic beat sequence number. Staleness is judged by sequence
//     progress against our own steady clock — never by file timestamps,
//     so an NTP step can neither fake a stall nor mask one. Lease
//     workers beat from startup, so one with no beat at all within the
//     timeout counts as stalled too.
//   * Crash requeue: a worker that dies (or is killed) holding a lease
//     charges each leased point one failure and returns the survivors to
//     the front of the queue as two halves under fresh lease ids, so
//     repeated crashes bisect toward a poison point. Workers checkpoint
//     their store as points complete, so the re-run is mostly cache
//     hits.
//   * One failure policy: a job fails as soon as one of its points runs
//     out of retry budget, when a worker holding its lease exits with
//     kWorkerExitUsage (retrying cannot fix a rejected flag or plan), or
//     when the worker command cannot be spawned. Other jobs keep the
//     fleet.
//
// Results never depend on any of this: leased points keep their plan
// indices (and so their seeds and store keys), so the records are
// byte-identical however the points were batched or re-run.
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/subprocess.hpp"
#include "common/work_lease.hpp"

namespace am::measure {

/// The exit-code contract between a dispatcher and its workers. Anything
/// else — including a signal — is a retryable failure.
inline constexpr int kWorkerExitOk = 0;
/// Bad flags / malformed plan or offer: retrying cannot help, so the job
/// holding the lease fails at once.
inline constexpr int kWorkerExitUsage = 2;
/// Runtime failure (exception out of the sweep); retryable.
inline constexpr int kWorkerExitRunFailed = 3;

/// Batches per job per worker slot when DispatchOptions::batches is 0: a
/// few, so early finishers keep pulling work from slower ones.
inline constexpr std::size_t kAutoBatchesPerWorker = 4;

/// Wall-clock helpers shared by the dispatcher and its front ends.
double seconds_since(std::chrono::steady_clock::time_point t0);
std::string fmt_seconds(double s);  // "%.2f"

/// Least-recently-granted round-robin over job ids. pick() scans jobs
/// in grant order and returns the first for which `has_work` is true,
/// moving it to the back. Newly added jobs join the back (they wait at
/// most one full rotation). The fairness bound: between two
/// consecutive grants to a job that had work the whole time, every
/// other job is granted at most once — pick() can only pass over a
/// job when has_work said it had nothing to run.
class FairShareScheduler {
 public:
  void add(std::uint64_t job);
  void remove(std::uint64_t job);
  std::optional<std::uint64_t> pick(
      const std::function<bool(std::uint64_t)>& has_work);
  const std::deque<std::uint64_t>& order() const { return order_; }

 private:
  std::deque<std::uint64_t> order_;
};

/// One worker process's lifetime, as recorded in a manifest.
struct WorkerAttempt {
  std::size_t worker = 0;   // slot index
  std::size_t attempt = 0;  // the slot's spawn ordinal (0 = first)
  ExitStatus status;
  double wall_seconds = 0.0;
  /// Last beat counter observed from the worker's heartbeat file.
  std::uint64_t heartbeats = 0;
  /// True when the dispatcher killed this worker for a stale heartbeat.
  bool stalled = false;
};

/// Per-worker-slot load-balance accounting.
struct WorkerStat {
  std::size_t worker = 0;
  double busy_seconds = 0.0;  // sum of acknowledged lease wall-clocks
  std::size_t batches = 0;    // leases acknowledged
  std::size_t points = 0;
  std::size_t respawns = 0;  // crash/stall recoveries on this slot
  /// Batches this slot ran beyond an even share of all acknowledged
  /// batches — work it pulled that a fixed partition would have left
  /// queued behind a slower worker.
  std::size_t steals = 0;
};

/// Busiest slot's busy time over the mean (1 = perfect balance); 0 when
/// no slot did any timed work.
double busy_max_over_mean(const std::vector<WorkerStat>& stats);

struct DispatchOptions {
  /// Worker command prefix; each slot's process gets `--lease <file>`
  /// appended. Must speak the lease-worker protocol (run_offer_loop).
  std::vector<std::string> worker_command;
  /// One lease file per worker slot; the slot's log, ack, heartbeat and
  /// store files sit next to it.
  std::vector<std::string> lease_paths;
  /// Extra attempts per plan point beyond the first, charged whenever a
  /// lease holding the point dies.
  std::size_t retries = 1;
  /// Batches each job is split into (0 = kAutoBatchesPerWorker per slot).
  /// Clamped to the job's pending point count.
  std::size_t batches = 0;
  /// Kill a worker whose beat sequence stalls this long (0 = disabled).
  double stall_timeout_seconds = 0.0;
};

/// What the dispatcher reports back to its front end. Every hook is
/// optional; hooks run inside step().
struct DispatchHooks {
  std::function<void(std::uint64_t job, std::size_t worker,
                     const WorkLease& lease)>
      offered;
  std::function<void(std::uint64_t job, const WorkLease& lease,
                     const LeaseAck& ack)>
      acked;
  std::function<void(const WorkerAttempt& attempt)> exited;
  /// Every point of the job is acknowledged.
  std::function<void(std::uint64_t job)> completed;
  /// The job was dropped by the failure policy (see the file comment).
  std::function<void(std::uint64_t job, const std::string& why)> failed;
};

class LeaseDispatcher {
 public:
  LeaseDispatcher(DispatchOptions opts, DispatchHooks hooks);
  ~LeaseDispatcher();  // kills and reaps every live worker
  LeaseDispatcher(const LeaseDispatcher&) = delete;
  LeaseDispatcher& operator=(const LeaseDispatcher&) = delete;

  /// Queues job `job` over a plan of `points` points, of which `pending`
  /// still need running; `costs` holds one relative cost per plan point
  /// (empty = uniform). A non-empty `plan_path` makes this a multi-plan
  /// job: offers name the plan, the slot's store to record into and the
  /// read-only `seed_store_path`. Returns the number of batches queued
  /// (0 for an empty `pending` — the caller completes such a job itself).
  std::size_t add_job(std::uint64_t job, std::size_t points,
                      const std::vector<std::size_t>& pending,
                      const std::vector<double>& costs,
                      const std::string& plan_path = {},
                      const std::string& seed_store_path = {});

  /// Stops dispatching `job` (cancellation): its queued batches are
  /// dropped; leases in flight run out and are still reported as acked.
  void drop_job(std::uint64_t job);

  /// Plan points of `job` not yet acknowledged.
  std::vector<std::size_t> missing_points(std::uint64_t job) const;

  /// One supervision pass: spawn workers on free slots while a job has a
  /// queued batch, then poll every live worker — heartbeat, ack, exit —
  /// handing idle workers their next batch. `dispatch` false drains
  /// instead: nothing new is offered or spawned, and idle workers get
  /// the `done` offer so they exit 0. Returns true when anything
  /// happened (callers sleep between quiet passes). Throws
  /// std::runtime_error when an offer cannot be written.
  bool step(bool dispatch, std::ostream& log);

  bool any_live() const;

  /// Stats of every slot that ever ran a worker, with steals filled in.
  std::vector<WorkerStat> worker_stats() const;

 private:
  struct Slot;
  struct Job {
    std::deque<WorkLease> queue;
    std::vector<bool> done;
    std::size_t remaining = 0;  // points not yet acknowledged
    std::vector<std::size_t> failures;  // per-point crash charges
    std::string plan_path;
    std::string seed_store_path;
    bool dropped = false;
  };

  void offer(Slot& s, std::size_t w, std::uint64_t job, std::ostream& log);
  void spawn(Slot& s, std::size_t w, std::ostream& log);
  void fail(std::uint64_t job, const std::string& why, std::ostream& log);
  void requeue(Slot& s, std::size_t w, std::ostream& log);
  /// One slot's supervision pass; true when anything happened.
  bool poll(Slot& s, std::size_t w, bool dispatch, std::ostream& log);
  std::optional<std::uint64_t> pick();

  DispatchOptions opts_;
  DispatchHooks hooks_;
  std::vector<Slot> slots_;
  std::map<std::uint64_t, Job> jobs_;
  FairShareScheduler scheduler_;
  std::uint64_t next_lease_id_ = 1;
};

}  // namespace am::measure
