#pragma once
// The worker side of the sweep contract (measure/dispatch.hpp is the
// scheduler side). Every orchestratable binary speaks it through the
// entry points here — the figure drivers via bench_util's run_driver,
// the store-aware examples (mcb_mapping_study, coschedule_advisor) and
// `amsweepd --worker` — so each decision of the contract exists once:
//
//   * run_worker_mode is the scheduling-mode switch. `--emit-plan FILE`
//     is the scheduler's probe: write the plan's size and per-point cost
//     estimates (amsweep cannot construct the plan itself — only the
//     driver knows its grid). `--lease FILE` makes the invocation a
//     lease worker. `--shard i/n` is the manual alternative for hosts
//     that share no filesystem: each host runs a fixed round-robin
//     slice into its own store, and `amresult merge` joins them.
//   * run_worker_main is the exit-code map: std::invalid_argument exits
//     kWorkerExitUsage (retrying cannot fix a rejected flag or plan),
//     any other exception kWorkerExitRunFailed (retryable).
//   * `--test-crash-marker FILE` fault injection is claimed in exactly
//     one place, run_offer_loop, when a fresh offer arrives: lease
//     workers only (probes, shards and plain runs never claim it), and
//     atomically (claim_crash_marker), so at most one worker dies per
//     marker file — mid-lease, the case the scheduler's requeue exists
//     for.
//
// A lease worker loops pulling batches of plan points from its
// dispatcher through the lease file until the dispatcher says the queue
// is drained. Per batch: read the offer, run the leased plan indices,
// persist the store, acknowledge — durable results strictly before the
// receipt, so a crash between the two merely re-runs a fully cached
// batch. Two kinds of worker share that loop (run_offer_loop): a driver,
// which knows its own plan (run_worker_mode), and `amsweepd --worker`,
// which learns the plan from each offer (run_daemon_worker).
// Determinism is untouched: leased points keep their plan indices (and
// so their seeds and store keys), making every store bit-identical to a
// serial run however the batches were scheduled.
#include <cstddef>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>

#include "common/cli.hpp"
#include "common/heartbeat.hpp"
#include "common/thread_pool.hpp"
#include "common/work_lease.hpp"
#include "measure/experiment_plan.hpp"
#include "measure/result_store.hpp"

namespace am::measure {

/// The scheduling-mode flags every orchestratable driver shares. At
/// most one of the three modes may be set; each fixes the invocation's
/// entire control flow.
struct SchedulingFlags {
  ShardRange shard;            // --shard i/n: manual slice
  std::string lease_path;      // --lease FILE: dynamic lease worker
  std::string emit_plan_path;  // --emit-plan FILE: scheduler probe
};

/// Parses and validates --shard/--lease/--emit-plan in one audited
/// place (bench_util's make_context and the orchestratable examples all
/// share this contract). Throws std::invalid_argument when modes are
/// combined or a path flag arrived value-less (a value-less "--lease"
/// parses as the boolean sentinel "true" — almost certainly a missing
/// path, never a usable file name).
SchedulingFlags parse_scheduling_flags(const Cli& cli);

struct LeaseWorkerOptions {
  /// Delay between polls of the lease file while no fresh offer exists.
  double poll_seconds = 0.02;
  /// Give up (std::runtime_error, i.e. a retryable worker failure) when
  /// no fresh offer arrives for this long — an orphaned worker whose
  /// scheduler died must not poll forever. 0 disables.
  double idle_timeout_seconds = 600.0;
  /// `--test-crash-marker` fault injection (empty = off): the worker
  /// that claims this file (claim_crash_marker) when a fresh offer
  /// arrives raises SIGKILL before running it, holding the lease.
  std::string test_crash_marker;
};

/// Claims the fault-injection marker at `path`: true iff this call
/// deleted the file. The deletion is the claim — a single unlink, so of
/// any number of racing claimants exactly one wins (no exists() check
/// first: two workers could both see the file and both die).
bool claim_crash_marker(const std::string& path);

/// What one worker process did over its whole lease loop.
struct LeaseWorkerReport {
  std::size_t leases = 0;
  std::size_t points = 0;
  std::size_t executed = 0;  // engine runs (points minus cache hits)
};

/// Runs one offer's points into a durable store and returns the engine
/// runs executed (cache hits excluded). Must persist before returning:
/// the ack that follows is the scheduler's receipt.
using OfferRunner = std::function<std::size_t(const LeaseOffer& offer)>;

/// The lease-worker protocol both worker kinds share: poll the offer
/// file at `lease_path`, and per fresh offer (a lease id not yet
/// acknowledged) claim opts.test_crash_marker, run the offer through
/// `run`, then write the ack — durable results strictly before the
/// receipt, so a crash between the two merely re-runs a fully cached
/// batch. Returns on reading a `done` offer (which gets no ack and
/// claims no marker — the caller's exit 0 is the receipt). Progress
/// lines stream to `out`. Throws std::runtime_error on idle timeout;
/// exceptions from `run` propagate.
LeaseWorkerReport run_offer_loop(const std::string& lease_path,
                                 const OfferRunner& run, std::ostream& out,
                                 const LeaseWorkerOptions& opts = {});

/// The scheduling-mode switch (see the file comment) for a driver's
/// plan, runner, store (scheduling_store over the same flags) and pool;
/// reads the mode flags and `--test-crash-marker` from `cli`, then
/// rejects (std::invalid_argument, before any work) every flag nobody
/// has queried — so the caller reads all of its own flags first. Under
/// `--lease` the store is required and saved before every ack, and a
/// lease naming out-of-range plan indices throws std::invalid_argument
/// (scheduler and worker disagree about the plan). True = the invocation
/// was a probe, lease or shard worker whose whole output is plan or
/// store files, and the caller stops; false = a plain run, which the
/// caller runs itself. Progress and store summaries go to `out`.
bool run_worker_mode(const Cli& cli, const ExperimentPlan& plan,
                     const SweepRunner& runner, ResultStoreFile& store,
                     ThreadPool* pool, std::ostream& out);

/// The exit-code map every worker binary's main routes through: returns
/// body()'s result; std::invalid_argument (flag, plan or offer
/// rejections) becomes kWorkerExitUsage and any other exception
/// kWorkerExitRunFailed, each reported as "`name`: what" on stderr — no
/// exception escapes to std::terminate's ambiguous SIGABRT.
int run_worker_main(const std::string& name, const std::function<int()>& body);

/// The store backing one orchestratable invocation: the lease's own
/// store under --lease (ResultStoreFile::for_lease), else the canonical
/// file or the --shard slice's.
ResultStoreFile scheduling_store(const std::string& results_dir,
                                 const std::string& driver,
                                 const SchedulingFlags& flags);

/// The `--worker` liveness heartbeat of an orchestratable driver, next
/// to its lease file; null without --worker. Throws
/// std::invalid_argument for --worker without --lease: workers are lease
/// workers, and the heartbeat lives next to the lease.
std::unique_ptr<HeartbeatWriter> start_worker_heartbeat(
    const Cli& cli, const SchedulingFlags& flags);

}  // namespace am::measure
