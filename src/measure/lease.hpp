#pragma once
// The worker half of lease dispatch (measure/dispatch.hpp).
//
// A lease worker is started with `--lease <file>`: it loops pulling
// batches of plan points from its dispatcher through the lease file
// until the dispatcher says the queue is drained. Per batch: read the
// offer, run the leased plan indices, persist the store, acknowledge —
// durable results strictly before the receipt, so a crash between the
// two merely re-runs a fully cached batch. Two kinds of worker share
// that loop (run_offer_loop): a figure driver under `amsweep`, which
// knows its own plan (run_lease_worker), and `amsweepd --worker`, which
// learns the plan from each offer (run_daemon_worker). Determinism is
// untouched: leased points keep their plan indices (and so their seeds
// and store keys), making every store bit-identical to a serial run
// however the batches were scheduled.
//
// The probe half (`--emit-plan <file>`) writes the plan's size and
// per-point cost estimates for `amsweep`, which cannot construct the
// plan itself — only the driver knows its grid.
//
// `--shard i/n` is the manual alternative for hosts that share no
// filesystem: each host runs a fixed round-robin slice into its own
// store, and `amresult merge` joins them.
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
};

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
/// acknowledged) run it through `run`, then write the ack — durable
/// results strictly before the receipt, so a crash between the two
/// merely re-runs a fully cached batch. Returns on reading a `done`
/// offer (which gets no ack — the caller's exit 0 is the receipt).
/// Progress lines stream to `out`. Throws std::runtime_error on idle
/// timeout; exceptions from `run` propagate.
LeaseWorkerReport run_offer_loop(const std::string& lease_path,
                                 const OfferRunner& run, std::ostream& out,
                                 const LeaseWorkerOptions& opts = {});

/// The driver-side lease worker: run_offer_loop over `plan`, recording
/// into `store`, which must be lease-bound (ResultStoreFile::for_lease on
/// the same lease path) and is saved before every ack. Throws
/// std::invalid_argument on a lease naming out-of-range plan indices
/// (scheduler and worker disagree about the plan — a usage error, not
/// retryable).
LeaseWorkerReport run_lease_worker(const ExperimentPlan& plan,
                                   const SweepRunner& runner,
                                   ThreadPool* pool, ResultStoreFile& store,
                                   const std::string& lease_path,
                                   std::ostream& out,
                                   const LeaseWorkerOptions& opts = {});

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

/// Writes the scheduler probe file for `plan`: plan size plus
/// SweepRunner::estimate_costs over `store` (nullptr = heuristic only).
void emit_plan_info(const ExperimentPlan& plan, const SweepRunner& runner,
                    const ResultStore* store, const std::string& path);

}  // namespace am::measure
