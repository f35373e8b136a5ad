#include "common/heartbeat.hpp"

#include <unistd.h>

#include <chrono>
#include <filesystem>

#include "common/atomic_file.hpp"
#include "common/record.hpp"

namespace am {

std::string encode_heartbeat(const Heartbeat& hb) {
  return std::to_string(hb.pid) + '\t' + std::to_string(hb.beats) + '\n';
}

std::optional<Heartbeat> read_heartbeat(const std::string& path) {
  const auto text = record::read_file(path);
  if (!text) return std::nullopt;
  std::string_view rest = *text, line;
  if (!record::next_line(rest, line)) return std::nullopt;
  const auto f = record::split_tabs(line);
  if (f.size() != 2) return std::nullopt;
  const auto pid = record::parse_u64(f[0]);
  const auto beats = record::parse_u64(f[1]);
  if (!pid || !beats) return std::nullopt;
  return Heartbeat{*pid, *beats};
}

HeartbeatWriter::HeartbeatWriter(std::string path, double interval_seconds)
    : path_(std::move(path)), interval_(interval_seconds) {
  write_beat();  // visible before the constructor returns
  // join_mutex_ is uncontended here (nobody can stop() a writer that is
  // still constructing); taken only to satisfy thread_'s lock annotation.
  const MutexLock join_lock(join_mutex_);
  thread_ = std::thread([this] {
    MutexLock lock(mutex_);
    // Explicit loop rather than the lambda-predicate wait_for overload:
    // the stop flag is atomic, not mutex-guarded, and the open-coded form
    // keeps the acquire loads visible where they happen.
    while (!stopped_.load(std::memory_order_acquire)) {
      if (cv_.wait_for(lock.native(),
                       std::chrono::duration<double>(interval_)) ==
              std::cv_status::timeout &&
          !stopped_.load(std::memory_order_acquire)) {
        write_beat();
      }
    }
  });
}

HeartbeatWriter::~HeartbeatWriter() { stop(); }

void HeartbeatWriter::stop() {
  // Release store, then an empty critical section on the CV's mutex, then
  // notify. The middle step is what makes the wakeup reliable: the writer
  // thread checks the flag while holding mutex_, so once we have acquired
  // and dropped it, the writer is either past the check (will see the
  // flag on its next iteration) or already parked in wait_for (will get
  // the notify). Without it, stop() could run entirely inside the
  // writer's check-to-wait window and the notify would be lost.
  stopped_.store(true, std::memory_order_release);
  { const MutexLock lock(mutex_); }
  cv_.notify_all();
  // Regression note: concurrent stop() calls used to race on the join —
  // both callers could pass a joinable() check under mutex_, release it,
  // and then both call thread_.join() (undefined behaviour). A dedicated
  // join mutex serializes them; the loser sees a no-longer-joinable
  // thread and falls through.
  {
    const MutexLock lock(join_mutex_);
    if (thread_.joinable()) thread_.join();
  }
  std::error_code ec;
  std::filesystem::remove(path_, ec);  // best effort
}

void HeartbeatWriter::write_beat() {
  const std::uint64_t beat =
      beats_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Atomic so a reader never sees a torn beat; a failed write (unwritable
  // directory) leaves us silently beatless — absence is the signal.
  try_atomic_write_file(
      path_, encode_heartbeat({static_cast<std::uint64_t>(::getpid()), beat}));
}

}  // namespace am
