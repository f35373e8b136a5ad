#include "measure/daemon.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <thread>
#include <tuple>

#include "common/atomic_file.hpp"
#include "common/heartbeat.hpp"
#include "common/record.hpp"
#include "common/work_lease.hpp"
#include "interfere/host_identity.hpp"

namespace am::measure {

namespace {

using Clock = std::chrono::steady_clock;

std::optional<JobState> parse_job_state(std::string_view s) {
  for (const JobState st :
       {JobState::kQueued, JobState::kRunning, JobState::kDone,
        JobState::kFailed, JobState::kCancelled})
    if (s == job_state_name(st)) return st;
  return std::nullopt;
}

constexpr const char* kQueueHeader = "#am-sweepd-queue v1";

}  // namespace

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "queued";
}

std::string encode_reply(const DaemonReply& reply) {
  std::ostringstream out;
  out << "#am-reply v1\n";
  out << "ok\t" << (reply.ok ? 1 : 0) << '\n';
  out << "retry\t" << (reply.retry ? 1 : 0) << '\n';
  out << "job\t" << reply.job << '\n';
  out << "state\t" << job_state_name(reply.state) << '\n';
  out << "points\t" << reply.points << '\n';
  out << "done\t" << reply.done_points << '\n';
  out << "executed\t" << reply.executed << '\n';
  if (!reply.error.empty()) {
    // Error text is free-form but must stay one line.
    std::string e = reply.error;
    for (char& c : e)
      if (c == '\n' || c == '\t') c = ' ';
    out << "error\t" << e << '\n';
  }
  return out.str();
}

std::optional<DaemonReply> parse_reply(const std::string& text) {
  std::string_view rest = text, line;
  if (!record::take_header(rest, "#am-reply v1")) return std::nullopt;
  DaemonReply reply;
  bool saw_ok = false;
  while (record::next_line(rest, line)) {
    if (line.empty()) continue;
    const auto [key, value] = record::split_key(line);
    if (key.empty()) return std::nullopt;
    if (key == "ok") {
      if (value != "0" && value != "1") return std::nullopt;
      reply.ok = value == "1";
      saw_ok = true;
    } else if (key == "retry") {
      if (value != "0" && value != "1") return std::nullopt;
      reply.retry = value == "1";
    } else if (key == "state") {
      const auto st = parse_job_state(value);
      if (!st) return std::nullopt;
      reply.state = *st;
    } else if (key == "error") {
      reply.error = value;
    } else if (key == "job" || key == "points" || key == "done" ||
               key == "executed") {
      const auto u = record::parse_u64(value);
      if (!u) return std::nullopt;
      if (key == "job")
        reply.job = *u;
      else if (key == "points")
        reply.points = static_cast<std::size_t>(*u);
      else if (key == "done")
        reply.done_points = static_cast<std::size_t>(*u);
      else
        reply.executed = static_cast<std::size_t>(*u);
    }
    // Unknown keys are ignored: replies may grow fields.
  }
  if (!saw_ok) return std::nullopt;
  return reply;
}

std::string encode_queue(const DaemonQueue& queue) {
  std::ostringstream out;
  out << kQueueHeader << '\n';
  out << "next_job\t" << queue.next_job << '\n';
  for (const auto& [id, job] : queue.jobs) {
    const JobState persisted =
        job.state == JobState::kRunning ? JobState::kQueued : job.state;
    out << "job\t" << id << '\t' << job.ns << '\t'
        << job_state_name(persisted) << '\t' << job.points << '\t'
        << job.executed << '\t' << job.error << '\n';
    if (!job.done.empty()) {
      out << "done\t" << id;
      for (const std::size_t p : job.done) out << '\t' << p;
      out << '\n';
    }
  }
  return out.str();
}

std::optional<DaemonQueue> parse_queue(const std::string& text,
                                       std::ostream& log) {
  std::string_view rest = text, line;
  if (!record::take_header(rest, kQueueHeader)) return std::nullopt;
  DaemonQueue queue;
  while (record::next_line(rest, line)) {
    if (line.empty()) continue;
    auto [key, fields] = record::split_key(line);
    if (key == "next_job") {
      if (const auto u = record::parse_u64(record::split_key(fields).first))
        queue.next_job = std::max(queue.next_job, *u);
    } else if (key == "job") {
      // id, namespace, state, points, executed, then the error text to
      // the end of the line.
      std::string_view f[5];
      for (auto& field : f)
        std::tie(field, fields) = record::split_key(fields);
      const auto id = record::parse_u64(f[0]);
      const auto st = parse_job_state(f[2]);
      const auto pts = record::parse_u64(f[3]);
      const auto exec = record::parse_u64(f[4]);
      if (!id || !st || !pts || !exec ||
          !SweepDaemon::valid_namespace(std::string(f[1]))) {
        log << "queue file: skipping malformed job line\n";
        continue;
      }
      QueueEntry job;
      job.id = *id;
      job.ns = f[1];
      job.state = *st;
      job.points = static_cast<std::size_t>(*pts);
      job.executed = static_cast<std::size_t>(*exec);
      job.error = fields;
      queue.jobs.emplace(*id, std::move(job));
    } else if (key == "done") {
      const auto f = record::split_tabs(fields);
      const auto id = record::parse_u64(f[0]);
      const auto it = id ? queue.jobs.find(*id) : queue.jobs.end();
      if (it == queue.jobs.end()) continue;
      QueueEntry& job = it->second;
      for (std::size_t i = 1; i < f.size(); ++i) {
        const auto p = record::parse_u64(f[i]);
        if (p && *p < job.points)
          job.done.insert(static_cast<std::size_t>(*p));
      }
    }
  }
  return queue;
}

SweepDaemon::SweepDaemon(SweepDaemonOptions opts) : opts_(std::move(opts)) {
  if (opts_.socket_path.empty())
    throw std::invalid_argument("amsweepd: socket path is required");
  if (opts_.results_dir.empty())
    throw std::invalid_argument("amsweepd: results_dir is required");
  if (opts_.workers > 0 && opts_.worker_command.empty())
    throw std::invalid_argument(
        "amsweepd: a worker command is required unless --workers 0");
  if (opts_.max_frame_bytes < kFrameHeaderBytes)
    throw std::invalid_argument("amsweepd: max frame bound too small");
}

SweepDaemon::~SweepDaemon() = default;

bool SweepDaemon::valid_namespace(const std::string& ns) {
  if (ns.empty() || ns.size() > 64) return false;
  for (const char c : ns)
    if (!((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
          (c >= '0' && c <= '9') || c == '_' || c == '-'))
      return false;
  return true;
}

std::string SweepDaemon::daemon_dir(const std::string& results_dir) {
  return (std::filesystem::path(results_dir) / "daemon").string();
}

std::string SweepDaemon::queue_path(const std::string& results_dir) {
  return (std::filesystem::path(daemon_dir(results_dir)) / "queue.tsv")
      .string();
}

std::string SweepDaemon::manifest_path(const std::string& results_dir) {
  return (std::filesystem::path(daemon_dir(results_dir)) / "manifest.tsv")
      .string();
}

std::string SweepDaemon::namespace_store_path(const std::string& results_dir,
                                              const std::string& ns) {
  return (std::filesystem::path(results_dir) / ("ns-" + ns + ".tsv"))
      .string();
}

std::string SweepDaemon::job_spec_path(const std::string& results_dir,
                                       std::uint64_t job) {
  return (std::filesystem::path(daemon_dir(results_dir)) /
          ("job" + std::to_string(job) + ".plan"))
      .string();
}

namespace {

/// One accepted client connection. A connection that sent a `wait`
/// request carries its subscription here — waiters *are* connections,
/// so a disconnected waiter cleans itself up.
struct Conn {
  Socket sock;
  FrameReader reader;
  bool waiting = false;
  std::uint64_t waiting_job = 0;

  explicit Conn(Socket s, std::size_t max_frame)
      : sock(std::move(s)), reader(max_frame) {}
};

/// One tenant job: a submitted plan working its way through the queue.
/// The QueueEntry base is what the queue file persists.
struct Job : QueueEntry {
  PlanSpec spec;
  bool spec_ok = false;  // spec parsed and held in memory
  bool admitted = false;
  std::unique_ptr<ExperimentPlan> plan;
  std::unique_ptr<SweepRunner> runner;

  bool terminal() const {
    return state == JobState::kDone || state == JobState::kFailed ||
           state == JobState::kCancelled;
  }
};

}  // namespace

DaemonReport SweepDaemon::run(std::ostream& log) {
  DaemonReport report;
  const std::string& dir = opts_.results_dir;
  try {
    std::filesystem::create_directories(daemon_dir(dir));
  } catch (const std::exception& e) {
    report.error = std::string("cannot create daemon dir: ") + e.what();
    log << report.error << "\n";
    return report;
  }

  // --- serving state -----------------------------------------------------
  std::map<std::uint64_t, Job> jobs;
  std::uint64_t next_job_id = 1;
  std::vector<std::unique_ptr<Conn>> conns;
  bool queue_dirty = false;

  // --- persistence -------------------------------------------------------
  const auto write_queue = [&] {
    DaemonQueue queue;
    queue.next_job = next_job_id;
    for (const auto& [id, job] : jobs) queue.jobs.emplace(id, job);
    atomic_write_file(queue_path(dir), encode_queue(queue), "sweepd-queue");
    queue_dirty = false;
  };

  const auto load_queue = [&] {
    const auto text = record::read_file(queue_path(dir));
    if (!text) return;
    auto queue = parse_queue(*text, log);
    if (!queue) {
      log << "ignoring unreadable queue file " << queue_path(dir) << "\n";
      return;
    }
    next_job_id = queue->next_job;
    std::size_t resumed = 0;
    for (auto& [id, entry] : queue->jobs) {
      if (entry.state == JobState::kQueued) ++resumed;
      Job job;
      static_cast<QueueEntry&>(job) = std::move(entry);
      jobs.emplace(id, std::move(job));
    }
    if (!jobs.empty())
      log << "resumed queue: " << jobs.size() << " job(s), " << resumed
          << " pending\n";
  };

  // --- replies and waiters ----------------------------------------------
  const auto reply_for = [&](const Job& job) {
    DaemonReply r;
    r.ok = job.state != JobState::kFailed;
    r.job = job.id;
    r.state = job.state;
    r.points = job.points;
    r.done_points = job.done.size();
    r.executed = job.executed;
    r.error = job.error;
    return r;
  };
  const auto send_reply = [&](Conn& conn, const DaemonReply& reply) {
    try {
      write_frame(conn.sock, {kFrameReply, encode_reply(reply)});
      return true;
    } catch (const SocketError&) {
      conn.sock.close();  // peer gone or wedged; reap below
      return false;
    }
  };
  const auto notify_terminal = [&](const Job& job) {
    for (auto& conn : conns) {
      if (!conn->sock.valid() || !conn->waiting ||
          conn->waiting_job != job.id)
        continue;
      conn->waiting = false;
      send_reply(*conn, reply_for(job));
    }
  };

  // --- job lifecycle -----------------------------------------------------
  const auto fail_job = [&](Job& job, const std::string& why) {
    job.state = JobState::kFailed;
    job.error = why;
    ++report.jobs_failed;
    log << "job " << job.id << " (" << job.ns << "): failed — " << why
        << "\n";
    notify_terminal(job);
    queue_dirty = true;
  };

  /// Merges exactly this job's plan records into its namespace store.
  /// Worker slot stores are shared scratch (they accumulate whatever
  /// leases landed on the slot, seeded caches included); the filter by
  /// the job's own ScenarioKeys is what keeps each namespace store
  /// byte-identical to a direct serial run of that namespace's plans.
  const auto finalize_job = [&](Job& job) {
    try {
      const std::string ns_path = namespace_store_path(dir, job.ns);
      ResultStore ns = ResultStore::load_or_empty(ns_path);
      std::vector<ResultStore> scratch;
      for (const auto& entry :
           std::filesystem::directory_iterator(daemon_dir(dir))) {
        const std::string name = entry.path().filename().string();
        // All slot stores ever written under this results dir — a
        // resumed job's records may live in a previous daemon's slots.
        if (name.size() > 10 &&
            name.substr(name.size() - 10) == ".lease.tsv")
          scratch.push_back(ResultStore::load_or_empty(entry.path().string()));
      }
      for (std::size_t p = 0; p < job.points; ++p) {
        const ScenarioKey key = job.runner->key_for(*job.plan, p);
        if (ns.has(key)) continue;
        bool found = false;
        for (const auto& s : scratch)
          if (const auto* rec = s.find(key)) {
            ns.put(key, *rec, {}, s.run_seconds(key));
            found = true;
            break;
          }
        if (!found)
          throw std::runtime_error(
              "no worker store holds plan point " + std::to_string(p) +
              " — a worker acknowledged without persisting?");
      }
      ns.save(ns_path);
      ResultStore::load(ns_path);  // validate what we wrote
      job.state = JobState::kDone;
      ++report.jobs_done;
      log << "job " << job.id << " (" << job.ns << "): done — " << job.points
          << " point(s), " << job.executed << " engine run(s) -> " << ns_path
          << "\n";
      notify_terminal(job);
      queue_dirty = true;
    } catch (const std::exception& e) {
      fail_job(job, std::string("merge failed: ") + e.what());
    }
  };

  // --- dispatch ----------------------------------------------------------
  DispatchOptions dopts;
  dopts.worker_command = opts_.worker_command;
  for (std::size_t w = 0; w < opts_.workers; ++w)
    dopts.lease_paths.push_back((std::filesystem::path(daemon_dir(dir)) /
                                 ("wrk" + std::to_string(w) + ".lease"))
                                    .string());
  dopts.retries = opts_.retries;
  dopts.batches = opts_.batches_per_job;
  dopts.stall_timeout_seconds = opts_.stall_timeout_seconds;
  DispatchHooks hooks;
  hooks.acked = [&](std::uint64_t id, const WorkLease& lease,
                    const LeaseAck& ack) {
    report.engine_runs += ack.executed;
    Job& job = jobs.at(id);
    job.executed += ack.executed;
    job.done.insert(lease.points.begin(), lease.points.end());
    queue_dirty = true;
  };
  hooks.completed = [&](std::uint64_t id) {
    if (jobs.at(id).state == JobState::kRunning) finalize_job(jobs.at(id));
  };
  hooks.failed = [&](std::uint64_t id, const std::string& why) {
    fail_job(jobs.at(id), why);
  };
  LeaseDispatcher dispatcher(std::move(dopts), std::move(hooks));

  /// Builds the executable plan and splits its *pending* points into
  /// fair-share batches. Called once per job when worker slots exist.
  const auto admit_job = [&](Job& job) {
    job.admitted = true;
    try {
      if (!job.spec_ok) {  // resumed from the queue file
        const auto text = record::read_file(job_spec_path(dir, job.id));
        if (!text)
          throw std::invalid_argument("plan spec file missing: " +
                                      job_spec_path(dir, job.id));
        job.spec = parse_plan_spec(*text);
        job.spec_ok = true;
      }
      job.plan = std::make_unique<ExperimentPlan>(build_plan(job.spec));
      job.runner = std::make_unique<SweepRunner>(make_runner(job.spec));
      // A queue entry that disagrees with its plan about the size keeps
      // none of its completed points (they re-run as cache hits).
      if (job.points != job.plan->size()) {
        job.points = job.plan->size();
        job.done.clear();
      }
    } catch (const std::exception& e) {
      fail_job(job, std::string("plan rejected: ") + e.what());
      return;
    }
    std::vector<std::size_t> pending;
    for (std::size_t p = 0; p < job.points; ++p)
      if (!job.done.count(p)) pending.push_back(p);
    if (pending.empty()) {
      job.state = JobState::kRunning;
      finalize_job(job);
      return;
    }
    // Measured run times in the namespace store (or seeded caches)
    // sharpen the batch split.
    std::vector<double> costs;
    try {
      const ResultStore ns = ResultStore::load_or_empty(
          namespace_store_path(dir, job.ns));
      costs = job.runner->estimate_costs(*job.plan, &ns);
    } catch (const std::exception&) {
      costs.clear();  // cost model is advisory; uniform is always safe
    }
    const std::size_t batches = dispatcher.add_job(
        job.id, job.points, pending, costs, job_spec_path(dir, job.id),
        namespace_store_path(dir, job.ns));
    job.state = JobState::kRunning;
    queue_dirty = true;
    log << "job " << job.id << " (" << job.ns << "): admitted — "
        << pending.size() << " pending point(s) in " << batches
        << " batch(es)\n";
  };

  // --- frame handling ----------------------------------------------------
  const auto handle_frame = [&](Conn& conn, const Frame& frame) {
    if (frame.type == kFrameSubmit) {
      DaemonReply r;
      if (drain_.load(std::memory_order_acquire)) {
        r.retry = true;
        r.error = "daemon is draining; retry after it restarts";
        send_reply(conn, r);
        return;
      }
      const std::size_t nl = frame.payload.find('\n');
      std::string ns_line = nl == std::string::npos
                                ? frame.payload
                                : frame.payload.substr(0, nl);
      const auto [key, ns_field] = record::split_key(ns_line);
      const std::string ns(ns_field);
      if (key != "ns" || !valid_namespace(ns)) {
        r.error =
            "submit payload must start with 'ns\\t<namespace>' "
            "(1-64 chars of [A-Za-z0-9_-])";
        send_reply(conn, r);
        return;
      }
      const std::string plan_text =
          nl == std::string::npos ? std::string{} : frame.payload.substr(nl + 1);
      PlanSpec spec;
      try {
        spec = parse_plan_spec(plan_text);
      } catch (const std::exception& e) {
        r.error = e.what();
        send_reply(conn, r);
        return;
      }
      Job job;
      job.id = next_job_id++;
      job.ns = ns;
      job.spec = std::move(spec);
      job.spec_ok = true;
      try {
        job.points = build_plan(job.spec).size();
        // Canonical re-serialization: the durable spec is exactly what
        // a resumed daemon will parse, not the client's raw bytes.
        atomic_write_file(job_spec_path(dir, job.id),
                          serialize_plan_spec(job.spec), "sweepd-plan");
      } catch (const std::exception& e) {
        r.error = e.what();
        send_reply(conn, r);
        return;
      }
      ++report.jobs_accepted;
      log << "job " << job.id << " (" << job.ns << "): accepted — "
          << job.points << " point(s)\n";
      r.ok = true;
      r.job = job.id;
      r.state = JobState::kQueued;
      r.points = job.points;
      jobs.emplace(job.id, std::move(job));
      queue_dirty = true;
      send_reply(conn, r);
      return;
    }

    if (frame.type == kFrameStatus || frame.type == kFrameCancel ||
        frame.type == kFrameWait) {
      const auto [key, value] = record::split_key(frame.payload);
      const auto parsed_id = record::parse_u64(value);
      DaemonReply r;
      if (key != "job" || !parsed_id) {
        r.error = "payload must be 'job\\t<id>'";
        send_reply(conn, r);
        return;
      }
      const std::uint64_t id = *parsed_id;
      const auto it = jobs.find(id);
      if (it == jobs.end()) {
        r.job = id;
        r.error = "unknown job " + std::to_string(id);
        send_reply(conn, r);
        return;
      }
      Job& job = it->second;
      if (frame.type == kFrameStatus) {
        send_reply(conn, reply_for(job));
      } else if (frame.type == kFrameCancel) {
        if (job.terminal()) {
          r = reply_for(job);
          r.ok = false;
          r.error = "job already " + std::string(job_state_name(job.state));
          send_reply(conn, r);
        } else {
          job.state = JobState::kCancelled;
          dispatcher.drop_job(job.id);
          log << "job " << job.id << " (" << job.ns << "): cancelled\n";
          notify_terminal(job);
          queue_dirty = true;
          send_reply(conn, reply_for(job));
        }
      } else {  // kFrameWait
        if (job.terminal()) {
          send_reply(conn, reply_for(job));
        } else {
          conn.waiting = true;
          conn.waiting_job = id;
        }
      }
      return;
    }

    // Unknown request type: protocol-level, fails the connection.
    ++report.protocol_errors;
    DaemonReply r;
    r.error = "unknown frame type " + std::to_string(frame.type);
    send_reply(conn, r);
    conn.sock.close();
  };

  // --- listeners ---------------------------------------------------------
  Socket unix_listener, tcp_listener;
  try {
    unix_listener = listen_unix(opts_.socket_path);
    set_nonblocking(unix_listener, true);
    if (opts_.tcp_port >= 0) {
      tcp_listener = listen_tcp(static_cast<std::uint16_t>(opts_.tcp_port));
      set_nonblocking(tcp_listener, true);
      const std::uint16_t port = local_port(tcp_listener);
      atomic_write_file((std::filesystem::path(daemon_dir(dir)) / "tcp.port")
                            .string(),
                        std::to_string(port) + "\n", "sweepd-port");
      log << "listening on " << opts_.socket_path << " and 127.0.0.1:"
          << port << "\n";
    } else {
      log << "listening on " << opts_.socket_path << "\n";
    }
  } catch (const std::exception& e) {
    report.error = e.what();
    log << report.error << "\n";
    return report;
  }

  load_queue();

  log << "amsweepd: " << opts_.workers << " worker slot(s), per-point "
      << "retries " << opts_.retries << "\n";

  // --- serving loop ------------------------------------------------------
  while (true) {
    // Acquire pairs with request_drain()'s release store (see daemon.hpp).
    const bool draining = drain_.load(std::memory_order_acquire);
    bool progressed = false;

    // Accept pending connections on both listeners.
    for (const Socket* listener : {&unix_listener, &tcp_listener}) {
      if (!listener->valid()) continue;
      try {
        while (auto accepted = accept_connection(*listener)) {
          set_nonblocking(*accepted, true);
          set_io_timeout(*accepted, opts_.client_io_timeout_seconds);
          conns.push_back(std::make_unique<Conn>(std::move(*accepted),
                                                 opts_.max_frame_bytes));
          progressed = true;
        }
      } catch (const std::exception& e) {
        log << "accept failed: " << e.what() << "\n";
      }
    }

    // Pump every connection: read what arrived, handle complete frames.
    for (auto& conn : conns) {
      if (!conn->sock.valid()) continue;
      char buf[4096];
      bool eof = false;
      for (;;) {
        const ssize_t n = ::recv(conn->sock.fd(), buf, sizeof(buf), 0);
        if (n > 0) {
          conn->reader.feed(buf, static_cast<std::size_t>(n));
          progressed = true;
          continue;
        }
        if (n == 0) eof = true;
        break;  // EAGAIN/EWOULDBLOCK or error or EOF
      }
      while (auto frame = conn->reader.next()) {
        if (!conn->sock.valid()) break;
        handle_frame(*conn, *frame);
        progressed = true;
      }
      if (conn->sock.valid() && conn->reader.failed()) {
        // Garbage, wrong version, oversized prefix: one connection's
        // clean error. Other tenants' queued plans are untouched.
        ++report.protocol_errors;
        log << "connection failed: " << conn->reader.error() << "\n";
        DaemonReply r;
        r.error = conn->reader.error();
        send_reply(*conn, r);
        conn->sock.close();
        progressed = true;
      } else if (conn->sock.valid() && eof) {
        if (conn->reader.pending_bytes() > 0) {
          ++report.protocol_errors;
          log << "connection closed mid-frame (truncated submit?)\n";
        }
        conn->sock.close();
      }
    }
    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const std::unique_ptr<Conn>& c) {
                                 return !c->sock.valid();
                               }),
                conns.end());

    // Admit queued jobs (oldest first) while a fleet exists.
    if (opts_.workers > 0 && !draining)
      for (auto& [id, job] : jobs)
        if (job.state == JobState::kQueued && !job.admitted) {
          admit_job(job);
          progressed = true;
        }

    // Dispatch: fair-share across jobs with queued batches. Draining
    // dispatches nothing new: in-flight leases finish, queued batches
    // persist for the next daemon to resume.
    if (dispatcher.step(!draining, log)) progressed = true;

    if (draining && !dispatcher.any_live()) break;

    if (queue_dirty) {
      try {
        write_queue();
      } catch (const std::exception& e) {
        log << "queue checkpoint failed: " << e.what() << "\n";
      }
    }
    if (!progressed)
      std::this_thread::sleep_for(
          std::chrono::duration<double>(opts_.poll_seconds));
  }

  // --- drain epilogue ----------------------------------------------------
  // Every still-connected waiter (and any future submitter who raced the
  // drain) gets an explicit retry-later, never a silent hang-up.
  for (auto& conn : conns) {
    if (!conn->sock.valid()) continue;
    if (conn->waiting) {
      DaemonReply r;
      r.retry = true;
      const auto it = jobs.find(conn->waiting_job);
      if (it != jobs.end()) {
        r = reply_for(it->second);
        r.ok = false;
        r.retry = true;
      }
      r.error = "daemon drained before the job finished; "
                "resubmit or wait after restart";
      send_reply(*conn, r);
    }
    conn->sock.close();
  }

  try {
    write_queue();
    report.clean_exit = true;
  } catch (const std::exception& e) {
    report.error = std::string("queue persist failed: ") + e.what();
    log << report.error << "\n";
  }

  for (const auto& [id, job] : jobs) {
    DaemonJobSummary s;
    s.id = id;
    s.ns = job.ns;
    s.state = job.state;
    s.points = job.points;
    s.done_points = job.done.size();
    s.executed = job.executed;
    s.error = job.error;
    report.jobs.push_back(std::move(s));
  }

  try {
    std::ostringstream out;
    out << "#am-sweepd-manifest v1\n";
    out << "host\t" << interfere::HostIdentity::detect().fingerprint()
        << '\n';
    out << "socket\t" << opts_.socket_path << '\n';
    out << "workers\t" << opts_.workers << '\n';
    out << "status\t" << (report.clean_exit ? "drained" : "failed") << '\n';
    out << "jobs_accepted\t" << report.jobs_accepted << '\n';
    out << "jobs_done\t" << report.jobs_done << '\n';
    out << "jobs_failed\t" << report.jobs_failed << '\n';
    out << "engine_runs\t" << report.engine_runs << '\n';
    out << "protocol_errors\t" << report.protocol_errors << '\n';
    for (const auto& j : report.jobs)
      out << "job\t" << j.id << '\t' << j.ns << '\t'
          << job_state_name(j.state) << '\t' << j.points << '\t'
          << j.done_points << '\t' << j.executed << '\t' << j.error << '\n';
    const auto stats = dispatcher.worker_stats();
    for (const auto& ws : stats)
      out << "worker\t" << ws.worker << '\t' << fmt_seconds(ws.busy_seconds)
          << '\t' << ws.batches << '\t' << ws.points << '\t' << ws.respawns
          << '\n';
    if (const double balance = busy_max_over_mean(stats); balance > 0.0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.4f", balance);
      out << "busy_max_over_mean\t" << buf << '\n';
    }
    atomic_write_file(manifest_path(dir), out.str(), "sweepd-manifest");
    log << "manifest: " << manifest_path(dir) << "\n";
  } catch (const std::exception& e) {
    log << "manifest write failed: " << e.what() << "\n";
  }

  std::error_code ec;
  std::filesystem::remove(opts_.socket_path, ec);
  log << "drained cleanly\n";
  return report;
}

LeaseWorkerReport run_daemon_worker(const DaemonWorkerOptions& opts,
                                    std::ostream& log) {
  if (opts.lease_path.empty())
    throw std::invalid_argument("daemon worker: --lease path is required");

  struct CachedPlan {
    PlanSpec spec;
    ExperimentPlan plan;
  };
  std::map<std::string, CachedPlan> plans;
  HeartbeatWriter heartbeat(lease_heartbeat_path(opts.lease_path));

  const auto run = [&](const LeaseOffer& offer) {
    if (offer.plan_path.empty() || offer.store_path.empty())
      throw std::invalid_argument(
          "daemon worker: offer carries no plan/store path — not a daemon "
          "scheduler?");

    auto cached = plans.find(offer.plan_path);
    if (cached == plans.end()) {
      const auto text = record::read_file(offer.plan_path);
      if (!text)
        throw std::runtime_error("daemon worker: cannot read plan " +
                                 offer.plan_path);
      CachedPlan cp;
      cp.spec = parse_plan_spec(*text);  // invalid_argument = usage
      cp.plan = build_plan(cp.spec);
      cached = plans.emplace(offer.plan_path, std::move(cp)).first;
    }
    const CachedPlan& cp = cached->second;

    ResultStore store = ResultStore::load_or_empty(offer.store_path);
    if (!offer.seed_store_path.empty())
      store.merge(ResultStore::load_or_empty(offer.seed_store_path));

    // Per-point checkpointing (throttled): a SIGKILL mid-batch loses at
    // most a second of finished engine runs, so the requeue re-runs
    // mostly cache hits.
    const SweepRunner runner =
        make_runner(cp.spec, checkpoint_to(offer.store_path));
    std::size_t executed = 0;
    runner.run_points(cp.plan, nullptr, &store, offer.lease.points,
                      &executed);
    store.save(offer.store_path);  // durable strictly before the receipt
    return executed;
  };
  return run_offer_loop(opts.lease_path, run, log, opts);
}

DaemonClient DaemonClient::connect_unix(const std::string& socket_path,
                                        double timeout_seconds) {
  const auto t0 = Clock::now();
  for (;;) {
    try {
      Socket sock = am::connect_unix(socket_path);
      set_io_timeout(sock, 30.0);
      return DaemonClient(std::move(sock));
    } catch (const SocketError&) {
      if (seconds_since(t0) > timeout_seconds) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
}

DaemonClient DaemonClient::connect_tcp(std::uint16_t port,
                                       double timeout_seconds) {
  const auto t0 = Clock::now();
  for (;;) {
    try {
      Socket sock = am::connect_tcp(port);
      set_io_timeout(sock, 30.0);
      return DaemonClient(std::move(sock));
    } catch (const SocketError&) {
      if (seconds_since(t0) > timeout_seconds) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
}

DaemonReply DaemonClient::roundtrip(std::uint16_t type,
                                    const std::string& payload) {
  write_frame(sock_, {type, payload});
  const Frame frame = read_frame(sock_);
  if (frame.type != kFrameReply)
    throw std::runtime_error("daemon sent frame type " +
                             std::to_string(frame.type) +
                             " where a reply was expected");
  const auto reply = parse_reply(frame.payload);
  if (!reply) throw std::runtime_error("daemon sent an unparseable reply");
  return *reply;
}

DaemonReply DaemonClient::submit(const std::string& ns,
                                 const std::string& plan_text) {
  return roundtrip(kFrameSubmit, "ns\t" + ns + "\n" + plan_text);
}

DaemonReply DaemonClient::status(std::uint64_t job) {
  return roundtrip(kFrameStatus, "job\t" + std::to_string(job));
}

DaemonReply DaemonClient::cancel(std::uint64_t job) {
  return roundtrip(kFrameCancel, "job\t" + std::to_string(job));
}

DaemonReply DaemonClient::wait(std::uint64_t job, double timeout_seconds) {
  set_io_timeout(sock_, timeout_seconds);  // 0 = block indefinitely
  const DaemonReply reply =
      roundtrip(kFrameWait, "job\t" + std::to_string(job));
  set_io_timeout(sock_, 30.0);
  return reply;
}

void DaemonClient::send_raw(const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(sock_.fd(), bytes.data() + sent,
                             bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw SocketError("send_raw failed");
    }
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace am::measure
