#include "measure/dispatch.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "common/heartbeat.hpp"

namespace am::measure {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string fmt_seconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", s);
  return buf;
}

void FairShareScheduler::add(std::uint64_t job) {
  for (const auto j : order_)
    if (j == job) return;
  order_.push_back(job);
}

void FairShareScheduler::remove(std::uint64_t job) {
  for (auto it = order_.begin(); it != order_.end(); ++it)
    if (*it == job) {
      order_.erase(it);
      return;
    }
}

std::optional<std::uint64_t> FairShareScheduler::pick(
    const std::function<bool(std::uint64_t)>& has_work) {
  for (std::size_t i = 0; i < order_.size(); ++i)
    if (has_work(order_[i])) {
      const std::uint64_t job = order_[i];
      order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(i));
      order_.push_back(job);
      return job;
    }
  return std::nullopt;
}

double busy_max_over_mean(const std::vector<WorkerStat>& stats) {
  double busy_max = 0.0, busy_sum = 0.0;
  for (const auto& s : stats) {
    busy_max = std::max(busy_max, s.busy_seconds);
    busy_sum += s.busy_seconds;
  }
  if (busy_sum <= 0.0) return 0.0;
  return busy_max / (busy_sum / static_cast<double>(stats.size()));
}

namespace {

/// Beat-sequence progress, judged against our own steady clock. File
/// timestamps never enter the decision — an NTP step on the host must
/// be unable to fake a stall or mask one.
struct BeatWatch {
  std::uint64_t last_beats = 0;
  Clock::time_point last_progress;

  void observe(const std::string& hb_path) {
    if (const auto hb = read_heartbeat(hb_path))
      if (hb->beats > last_beats) {
        last_beats = hb->beats;
        last_progress = Clock::now();
      }
  }

  /// True when the worker should be presumed wedged. `spawn` anchors the
  /// never-beat case: lease workers write their first beat at startup.
  bool stalled(double timeout, Clock::time_point spawn) const {
    if (timeout <= 0.0) return false;
    return seconds_since(last_beats > 0 ? last_progress : spawn) > timeout;
  }

  std::string describe(Clock::time_point spawn) const {
    if (last_beats > 0)
      return "heartbeat stuck at beat " + std::to_string(last_beats) +
             " for " + fmt_seconds(seconds_since(last_progress)) + " s";
    return "no heartbeat " + fmt_seconds(seconds_since(spawn)) +
           " s after spawn";
  }
};

}  // namespace

/// One worker slot. Its process may be respawned after a crash; its
/// store file persists across respawns, so re-offered batches are
/// mostly cache hits.
struct LeaseDispatcher::Slot {
  std::string lease;  // lease-file path
  Subprocess proc;
  bool live = false;
  bool ever_spawned = false;
  bool done_offered = false;
  std::optional<WorkLease> current;  // the outstanding lease
  std::uint64_t job = 0;             // owner of `current`
  Clock::time_point start;
  BeatWatch watch;
  bool stalled = false;
  WorkerStat stat;
};

LeaseDispatcher::LeaseDispatcher(DispatchOptions opts, DispatchHooks hooks)
    : opts_(std::move(opts)), hooks_(std::move(hooks)) {
  slots_.resize(opts_.lease_paths.size());
  for (std::size_t w = 0; w < slots_.size(); ++w) {
    slots_[w].lease = opts_.lease_paths[w];
    slots_[w].stat.worker = w;
  }
}

LeaseDispatcher::~LeaseDispatcher() = default;

std::size_t LeaseDispatcher::add_job(std::uint64_t id, std::size_t points,
                                     const std::vector<std::size_t>& pending,
                                     const std::vector<double>& costs,
                                     const std::string& plan_path,
                                     const std::string& seed_store_path) {
  if (!costs.empty() && costs.size() != points)
    throw std::invalid_argument("dispatcher: cost model size mismatch");
  Job job;
  job.done.assign(points, true);
  job.failures.assign(points, 0);
  job.plan_path = plan_path;
  job.seed_store_path = seed_store_path;
  std::vector<double> pending_costs;
  for (const std::size_t p : pending) {
    if (p >= points || !job.done[p])
      throw std::invalid_argument(
          "dispatcher: pending points must be distinct plan indices");
    job.done[p] = false;
    if (!costs.empty()) pending_costs.push_back(costs[p]);
  }
  job.remaining = pending.size();
  if (!pending.empty()) {
    const std::size_t target =
        opts_.batches != 0
            ? opts_.batches
            : kAutoBatchesPerWorker * std::max<std::size_t>(slots_.size(), 1);
    auto batches = make_batches(pending.size(),
                                std::min(target, pending.size()),
                                pending_costs);
    // Serve heaviest batches first (LPT service order).
    std::stable_sort(batches.begin(), batches.end(),
                     [](const WorkLease& a, const WorkLease& b) {
                       return a.cost > b.cost;
                     });
    for (auto& b : batches) {
      if (b.empty()) continue;
      for (auto& p : b.points) p = pending[p];  // back to plan indices
      job.queue.push_back(std::move(b));
    }
  }
  const std::size_t queued = job.queue.size();
  jobs_[id] = std::move(job);
  if (queued > 0) scheduler_.add(id);
  return queued;
}

void LeaseDispatcher::drop_job(std::uint64_t id) {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return;
  it->second.dropped = true;
  it->second.queue.clear();
  scheduler_.remove(id);
}

std::vector<std::size_t> LeaseDispatcher::missing_points(
    std::uint64_t id) const {
  std::vector<std::size_t> out;
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return out;
  for (std::size_t p = 0; p < it->second.done.size(); ++p)
    if (!it->second.done[p]) out.push_back(p);
  return out;
}

bool LeaseDispatcher::any_live() const {
  for (const auto& s : slots_)
    if (s.live) return true;
  return false;
}

std::vector<WorkerStat> LeaseDispatcher::worker_stats() const {
  std::vector<WorkerStat> out;
  std::size_t total_batches = 0;
  for (const auto& s : slots_)
    if (s.ever_spawned) {
      out.push_back(s.stat);
      total_batches += s.stat.batches;
    }
  const std::size_t fair =
      out.empty() ? 0 : (total_batches + out.size() - 1) / out.size();
  for (auto& stat : out)
    stat.steals = stat.batches > fair ? stat.batches - fair : 0;
  return out;
}

std::optional<std::uint64_t> LeaseDispatcher::pick() {
  return scheduler_.pick([this](std::uint64_t id) {
    const auto it = jobs_.find(id);
    return it != jobs_.end() && !it->second.queue.empty();
  });
}

void LeaseDispatcher::offer(Slot& s, std::size_t w, std::uint64_t id,
                            std::ostream& log) {
  Job& job = jobs_.at(id);
  WorkLease lease = std::move(job.queue.front());
  job.queue.pop_front();
  lease.id = next_lease_id_++;
  LeaseOffer off;
  off.lease = lease;
  off.plan_path = job.plan_path;
  if (!job.plan_path.empty()) off.store_path = lease_store_path(s.lease);
  off.seed_store_path = job.seed_store_path;
  write_lease_offer(s.lease, off);
  log << "worker " << w << ": lease " << lease.id << " -> job " << id << " ("
      << lease.points.size() << " point(s))\n";
  s.current = std::move(lease);
  s.job = id;
  if (hooks_.offered) hooks_.offered(id, w, *s.current);
}

void LeaseDispatcher::spawn(Slot& s, std::size_t w, std::ostream& log) {
  auto argv = opts_.worker_command;
  argv.push_back("--lease");
  argv.push_back(s.lease);
  Subprocess::Options spawn_opts;
  spawn_opts.stdout_path = s.lease + ".log";  // stderr shares it
  // Own process group: killing a stalled worker must also take out any
  // grandchildren (wrapper-script workers), or an orphan would keep
  // writing this slot's store while the requeued batch runs elsewhere.
  spawn_opts.new_process_group = true;
  s.proc = Subprocess::spawn(argv, spawn_opts);
  s.start = Clock::now();
  s.watch = BeatWatch{};
  s.watch.last_progress = s.start;
  s.stalled = false;
  s.done_offered = false;
  if (s.ever_spawned) ++s.stat.respawns;
  s.ever_spawned = true;
  s.live = true;
  log << "worker " << w << ": launched (pid " << s.proc.pid() << ")\n";
}

void LeaseDispatcher::fail(std::uint64_t id, const std::string& why,
                           std::ostream& log) {
  const auto it = jobs_.find(id);
  if (it == jobs_.end() || it->second.dropped) return;  // already over
  log << "job " << id << ": " << why << "\n";
  drop_job(id);
  if (hooks_.failed) hooks_.failed(id, why);
}

void LeaseDispatcher::requeue(Slot& s, std::size_t w, std::ostream& log) {
  const WorkLease dead = std::move(*s.current);
  s.current.reset();
  const auto it = jobs_.find(s.job);
  if (it == jobs_.end() || it->second.dropped) return;
  Job& job = it->second;
  std::vector<std::size_t> survivors;
  for (const std::size_t p : dead.points)
    if (++job.failures[p] <= opts_.retries) survivors.push_back(p);
  if (survivors.size() < dead.points.size()) {
    fail(s.job,
         std::to_string(dead.points.size() - survivors.size()) +
             " point(s) exhausted their retry budget",
         log);
    return;
  }
  // Two halves, back half pushed first so the front half is served
  // first: if one poison point keeps killing workers, successive crashes
  // bisect toward it instead of charging the whole batch each time.
  const std::size_t half = survivors.size() / 2;
  const double per_point = dead.cost / static_cast<double>(survivors.size());
  WorkLease front_half, back_half;
  front_half.points.assign(survivors.begin(), survivors.begin() + half);
  back_half.points.assign(survivors.begin() + half, survivors.end());
  for (auto* part : {&back_half, &front_half}) {
    if (part->empty()) continue;
    part->cost = per_point * static_cast<double>(part->points.size());
    job.queue.push_front(std::move(*part));
  }
  if (half > 0)
    log << "worker " << w << ": batch split into " << half << " + "
        << (survivors.size() - half) << " point(s) for requeue\n";
}

bool LeaseDispatcher::poll(Slot& s, std::size_t w, bool dispatch,
                           std::ostream& log) {
  bool progressed = false;
  s.watch.observe(lease_heartbeat_path(s.lease));
  if (!s.stalled && s.watch.stalled(opts_.stall_timeout_seconds, s.start)) {
    log << "worker " << w << ": " << s.watch.describe(s.start)
        << " — killing pid " << s.proc.pid() << "\n";
    s.stalled = true;
    s.proc.kill();
  }

  // Judged before the exit check: an ack written just before the worker
  // exited still counts. Acks are progress for supervision too.
  const auto ack = s.current ? read_lease_ack(lease_ack_path(s.lease))
                             : std::nullopt;
  if (ack && ack->lease_id == s.current->id) {
    progressed = true;
    s.watch.last_progress = Clock::now();
    s.stat.busy_seconds += ack->wall_seconds;
    s.stat.batches += 1;
    s.stat.points += ack->points;
    log << "worker " << w << ": lease " << ack->lease_id << " done ("
        << ack->points << " point(s), " << ack->executed << " engine run(s), "
        << fmt_seconds(ack->wall_seconds) << " s)\n";
    const WorkLease lease = std::move(*s.current);
    s.current.reset();
    const auto it = jobs_.find(s.job);
    if (it != jobs_.end()) {
      Job& job = it->second;
      for (const std::size_t p : lease.points)
        if (!job.done[p]) {
          job.done[p] = true;
          --job.remaining;
        }
      if (hooks_.acked) hooks_.acked(s.job, lease, *ack);
      if (job.remaining == 0 && !job.dropped) {
        scheduler_.remove(s.job);
        if (hooks_.completed) hooks_.completed(s.job);
      }
    }
  }

  if (s.proc.running()) {
    if (!s.current && !s.done_offered) {
      if (!dispatch) {
        LeaseOffer off;
        off.lease.id = next_lease_id_++;
        off.done = true;
        write_lease_offer(s.lease, off);
        s.done_offered = true;
        progressed = true;
      } else if (const auto job = pick()) {
        offer(s, w, *job, log);
        progressed = true;
      }
      // Otherwise the acked offer stays in place; the idle worker polls
      // it ("no new work yet") until a batch is queued or we drain.
    }
    return progressed;
  }

  s.live = false;
  WorkerAttempt attempt;
  attempt.worker = w;
  attempt.attempt = s.stat.respawns;
  attempt.status = s.proc.wait();  // already reaped; returns the cache
  attempt.wall_seconds = seconds_since(s.start);
  attempt.heartbeats = s.watch.last_beats;
  attempt.stalled = s.stalled;
  if (hooks_.exited) hooks_.exited(attempt);
  const std::string status = attempt.status.describe();

  if (!s.current) {
    // A drained worker's clean exit, or an idle crash with nothing to
    // charge (the fill phase respawns the slot if work remains).
    if (attempt.status.success() && s.done_offered)
      log << "worker " << w << ": done in " << fmt_seconds(attempt.wall_seconds)
          << " s (" << s.stat.batches << " batch(es), "
          << fmt_seconds(s.stat.busy_seconds) << " s busy)\n";
    else
      log << "worker " << w << ": " << status << " while idle\n";
  } else if (!attempt.status.signaled &&
             attempt.status.code == kWorkerExitUsage) {
    s.current.reset();
    fail(s.job,
         "worker " + std::to_string(w) + " rejected its flags or lease (" +
             status + ") — see " + s.lease + ".log",
         log);
  } else {
    log << "worker " << w << ": " << status << " holding lease "
        << s.current->id << " — re-queueing\n";
    requeue(s, w, log);
  }
  return true;
}

bool LeaseDispatcher::step(bool dispatch, std::ostream& log) {
  bool progressed = false;
  for (std::size_t w = 0; dispatch && w < slots_.size(); ++w) {
    Slot& s = slots_[w];
    if (s.live) continue;
    const auto job = pick();
    if (!job) break;  // nothing queued anywhere
    std::error_code ec;
    for (const auto& stale : {s.lease, lease_ack_path(s.lease),
                              lease_heartbeat_path(s.lease)})
      std::filesystem::remove(stale, ec);
    offer(s, w, *job, log);
    progressed = true;
    try {
      spawn(s, w, log);
    } catch (const std::exception& e) {
      // No retry can fix a missing binary; the operator fixes the
      // command. Only the job holding the lease fails.
      s.current.reset();
      fail(*job, std::string("worker command unspawnable: ") + e.what(), log);
    }
  }
  for (std::size_t w = 0; w < slots_.size(); ++w)
    if (slots_[w].live && poll(slots_[w], w, dispatch, log)) progressed = true;
  return progressed;
}

}  // namespace am::measure
