#pragma once
// amsweepd: the sweep machinery as a long-running, multi-tenant
// service. A SweepDaemon listens on a Unix-domain (and optionally
// loopback-TCP) socket for framed protocol messages (common/socket),
// accepts serialized ExperimentPlans (measure/plan_wire) from
// concurrent submitters, and drives the lease-dispatch core
// (measure/dispatch.hpp) with one job per accepted plan — the same
// supervised workers, beat-sequence liveness, crash requeue with
// bisection and per-point retry budgets `amsweep` uses. What the
// daemon adds on top:
//
//   * Tenancy: every submission names a namespace; a job's results are
//     merged into <results_dir>/ns-<namespace>.tsv and only records
//     belonging to that job's plan ever enter it — the merged file is
//     bit-identical to what a direct serial run of the same plan would
//     have produced, no matter which tenants shared the worker fleet.
//   * Fair-share dispatch: batches from concurrently queued plans are
//     interleaved least-recently-granted (FairShareScheduler), so
//     between two consecutive grants to a continuously-pending job no
//     other job is granted twice — a big plan cannot starve a small
//     one, and the bound is provable rather than statistical.
//   * Hostile-input containment: every connection parses through a
//     FrameReader; garbage, truncation, wrong protocol versions and
//     oversized length prefixes each fail exactly one connection with
//     a clean error while other tenants' queued plans are untouched.
//   * Graceful drain: SIGTERM (request_drain, async-signal-safe)
//     finishes in-flight leases, checkpoints every completed point,
//     answers waiting submitters retry-later, persists a resumable
//     queue file, and exits 0; a restarted daemon resumes the queue
//     with already-completed points fully cached.
//
// Protocol, on top of the frame layer: a client sends one request
// frame (submit/status/cancel/wait) and reads one kFrameReply frame
// per request, text-encoded (`#am-reply v1`). Submit payloads are
// "ns\t<namespace>\n" + a plan-spec document. The daemon never trusts
// a payload: namespaces are validated against a strict charset (they
// become file names) and plans go through parse_plan_spec, whose
// rejection is a per-request error, not a daemon failure.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/socket.hpp"
#include "measure/dispatch.hpp"
#include "measure/lease.hpp"
#include "measure/plan_wire.hpp"

namespace am::measure {

/// Protocol frame types (Frame::type). Requests are < 64; the single
/// reply type leaves room for streaming reply kinds later.
inline constexpr std::uint16_t kFrameSubmit = 1;
inline constexpr std::uint16_t kFrameStatus = 2;
inline constexpr std::uint16_t kFrameCancel = 3;
inline constexpr std::uint16_t kFrameWait = 4;
inline constexpr std::uint16_t kFrameReply = 64;

enum class JobState : std::uint8_t {
  kQueued,    // accepted, not yet dispatched (or restored from a drain)
  kRunning,   // batches built, leases in flight
  kDone,      // all points merged into the namespace store
  kFailed,    // retry budget exhausted or results unmergeable
  kCancelled, // cancelled by a client
};

const char* job_state_name(JobState s);

/// One protocol reply. `retry` marks "come back later" outcomes (drain
/// in progress) that are distinct from hard errors — clients map it to
/// its own exit code.
struct DaemonReply {
  bool ok = false;
  bool retry = false;
  std::uint64_t job = 0;
  JobState state = JobState::kQueued;
  std::size_t points = 0;
  std::size_t done_points = 0;
  std::size_t executed = 0;
  std::string error;
};

std::string encode_reply(const DaemonReply& reply);
/// Parses encode_reply output; nullopt on anything malformed.
std::optional<DaemonReply> parse_reply(const std::string& text);

/// The persisted part of one job: its line in the queue file, plus the
/// plan points already acknowledged (the job's `done` line).
struct QueueEntry {
  std::uint64_t id = 0;
  std::string ns;
  JobState state = JobState::kQueued;
  std::size_t points = 0;
  std::size_t executed = 0;
  std::string error;  // one line: no tabs or newlines
  /// Completed plan indices, each < points. A set, not a bitmap sized by
  /// `points`: a damaged count must not turn into an allocation.
  std::set<std::size_t> done;
};

/// The daemon's resumable queue (`daemon/queue.tsv`): the next job id
/// and every job by id.
struct DaemonQueue {
  std::uint64_t next_job = 1;
  std::map<std::uint64_t, QueueEntry> jobs;
};

/// The `#am-sweepd-queue v1` text. A running job is written as queued:
/// its pending points re-admit on the next start, its completed points
/// ride the `done` line.
std::string encode_queue(const DaemonQueue& queue);
/// Parses encode_queue output; nullopt when the header is not the
/// queue's. Within a queue file it is forgiving, so that one damaged
/// line cannot cost the other tenants their jobs: a malformed job line
/// is skipped with a note to `log`, later lines for an id already read
/// are ignored, and `done` entries that name an unknown job or an
/// out-of-range point are dropped.
std::optional<DaemonQueue> parse_queue(const std::string& text,
                                       std::ostream& log);

struct SweepDaemonOptions {
  std::string socket_path;
  /// Loopback TCP listener: -1 = off, 0 = kernel-assigned (the chosen
  /// port lands in <daemon_dir>/tcp.port), otherwise the port itself.
  int tcp_port = -1;
  std::string results_dir;
  /// Worker command prefix; the dispatcher appends `--lease <file>`.
  /// Must speak the daemon-worker protocol (run_daemon_worker): the
  /// offer itself carries the plan and store paths. Empty = invalid.
  std::vector<std::string> worker_command;
  /// Concurrent worker slots. 0 = accept-only: jobs queue up but never
  /// dispatch — the deterministic substrate for queue-file tests and
  /// for staging submissions before a fleet attaches.
  std::size_t workers = 2;
  /// Extra attempts per plan point beyond the first, charged whenever a
  /// lease holding the point dies.
  std::size_t retries = 1;
  /// Batches each job is split into (0 = auto, see
  /// DispatchOptions::batches). Clamped to the job's pending points.
  std::size_t batches_per_job = 0;
  double poll_seconds = 0.02;
  /// Kill a worker whose beat sequence stalls this long (0 = disabled).
  double stall_timeout_seconds = 0.0;
  /// Per-connection socket send timeout; a wedged client costs one
  /// connection, never the serving loop.
  double client_io_timeout_seconds = 5.0;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
};

struct DaemonJobSummary {
  std::uint64_t id = 0;
  std::string ns;
  JobState state = JobState::kQueued;
  std::size_t points = 0;
  std::size_t done_points = 0;
  std::size_t executed = 0;
  std::string error;
};

struct DaemonReport {
  bool clean_exit = false;       // drained on request, queue persisted
  std::size_t jobs_accepted = 0;
  std::size_t jobs_done = 0;
  std::size_t jobs_failed = 0;
  std::size_t engine_runs = 0;
  std::size_t protocol_errors = 0;  // connections failed by bad frames
  std::vector<DaemonJobSummary> jobs;
  std::string error;
};

class SweepDaemon {
 public:
  /// Throws std::invalid_argument on an unusable configuration (empty
  /// socket path / results_dir, empty worker command with workers > 0).
  explicit SweepDaemon(SweepDaemonOptions opts);
  ~SweepDaemon();

  /// Serves until request_drain(), streaming progress to `log`. On
  /// entry, resumes any queue file a drained predecessor left in the
  /// results directory. Failures are reported, not thrown.
  DaemonReport run(std::ostream& log);

  /// Async-signal-safe drain request (a lock-free atomic store): the
  /// serving loop finishes in-flight leases, persists the queue, answers
  /// waiters retry-later, and returns. Callable from a SIGTERM handler.
  /// Release order pairs with the serving loop's acquire load so that a
  /// *thread* requesting drain has its prior writes visible to the drain
  /// path; for the signal-handler case release is equivalent to relaxed
  /// (same thread), and both are async-signal-safe.
  void request_drain() { drain_.store(true, std::memory_order_release); }

  /// True when the namespace is usable as a file-name component:
  /// 1-64 chars of [A-Za-z0-9_-].
  static bool valid_namespace(const std::string& ns);

  static std::string daemon_dir(const std::string& results_dir);
  static std::string queue_path(const std::string& results_dir);
  static std::string manifest_path(const std::string& results_dir);
  static std::string namespace_store_path(const std::string& results_dir,
                                          const std::string& ns);
  static std::string job_spec_path(const std::string& results_dir,
                                   std::uint64_t job);

 private:
  SweepDaemonOptions opts_;
  std::atomic<bool> drain_{false};
};

/// Options for the worker half (`amsweepd --worker`). The worker knows
/// nothing about jobs or namespaces: it polls one lease file, and every
/// offer names the plan to parse and the store to extend.
struct DaemonWorkerOptions : LeaseWorkerOptions {
  std::string lease_path;
};

/// Runs run_offer_loop with a heartbeat, per fresh offer: parse the
/// offered plan (cached per plan path — fair-share dispatch interleaves
/// jobs on one slot), seed the cache from the offer's seed store, run
/// the leased points, persist the offer's store. Throws
/// std::invalid_argument on a malformed offer/plan (usage — exit 2 in
/// the binary) and std::runtime_error on idle timeout or I/O failure
/// (retryable — exit 3).
LeaseWorkerReport run_daemon_worker(const DaemonWorkerOptions& opts,
                                    std::ostream& log);

/// Client side of the protocol: one blocking request-reply per call.
/// Every method throws SocketError on transport failure and
/// std::runtime_error on an unparseable reply.
class DaemonClient {
 public:
  /// Connects over the Unix socket, retrying until `timeout_seconds`
  /// elapses (a daemon may still be binding); throws SocketError when
  /// nothing accepts in time.
  static DaemonClient connect_unix(const std::string& socket_path,
                                   double timeout_seconds = 5.0);
  /// Loopback-TCP variant.
  static DaemonClient connect_tcp(std::uint16_t port,
                                  double timeout_seconds = 5.0);

  DaemonReply submit(const std::string& ns, const std::string& plan_text);
  DaemonReply status(std::uint64_t job);
  DaemonReply cancel(std::uint64_t job);
  /// Blocks until the job reaches a terminal state or the daemon
  /// drains (a retry-later reply). `timeout_seconds` bounds the wait
  /// (0 = the transport default).
  DaemonReply wait(std::uint64_t job, double timeout_seconds = 0.0);

  /// Escape hatch for fault-injection tests: send raw bytes on the
  /// connection, bypassing the frame encoder.
  void send_raw(const std::string& bytes);
  Socket& socket() { return sock_; }

 private:
  explicit DaemonClient(Socket sock) : sock_(std::move(sock)) {}
  DaemonReply roundtrip(std::uint16_t type, const std::string& payload);
  Socket sock_;
};

}  // namespace am::measure
