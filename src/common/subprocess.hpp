#pragma once
// Minimal child-process supervision: spawn an argv with optional
// stdout/stderr redirection, poll or wait for its exit status, kill it.
// This is the process-lifecycle primitive under measure::LeaseDispatcher
// (one child per worker slot); it knows nothing about experiments.
// Guarantees:
//
//   * No zombies: a Subprocess that goes out of scope while its child
//     still runs kills (SIGKILL) and reaps it — an orchestrator unwinding
//     on an exception cannot leak workers.
//   * Exact status: exit codes and termination signals are reported
//     separately (ExitStatus), never folded into one ambiguous int.
//   * Spawn failures throw: an unexecutable binary is a std::runtime_error
//     at spawn() time (glibc's posix_spawnp reports exec errors
//     synchronously), not a mysterious exit code later.
#include <sys/types.h>

#include <optional>
#include <string>
#include <vector>

namespace am {

/// How a child ended: a normal exit code or a terminating signal.
struct ExitStatus {
  int code = 0;          // exit code; meaningful when !signaled
  bool signaled = false;
  int signal = 0;        // terminating signal; meaningful when signaled
  bool success() const { return !signaled && code == 0; }
  /// "exit N" or "signal N (NAME)" — for logs and manifests.
  std::string describe() const;
};

class Subprocess {
 public:
  struct Options {
    /// Redirect the child's stdout to this file (append mode, so one log
    /// accumulates across retries of the same shard). Empty = inherit.
    std::string stdout_path;
    /// Redirect stderr; empty = share the stdout redirection (or inherit
    /// when that is empty too).
    std::string stderr_path;
    /// Put the child in its own process group, and make kill()/the
    /// destructor signal the whole group: a worker that is itself a
    /// wrapper (shell script, launcher) cannot leave grandchildren
    /// running after a supervisor kill. Off by default — a grouped child
    /// no longer receives the terminal's Ctrl-C.
    bool new_process_group = false;
  };

  /// Spawns `argv` (argv[0] resolved via PATH). Throws std::runtime_error
  /// on an empty argv or when the process cannot be created/executed.
  /// (Two overloads rather than a defaulted Options argument: a nested
  /// class's default member initializers are not usable in the enclosing
  /// class's default arguments.)
  static Subprocess spawn(const std::vector<std::string>& argv,
                          const Options& opts);
  static Subprocess spawn(const std::vector<std::string>& argv);

  Subprocess() = default;
  ~Subprocess();  // kills + reaps a still-running child

  Subprocess(Subprocess&& other) noexcept;
  Subprocess& operator=(Subprocess&& other) noexcept;
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;

  /// The child pid, or -1 when default-constructed / moved-from.
  pid_t pid() const { return pid_; }

  /// Non-blocking: reaps the child if it has exited. True while running.
  bool running();

  /// Blocks until the child exits; returns (and caches) its status.
  ExitStatus wait();

  /// The status once the child has been reaped; nullopt while running.
  const std::optional<ExitStatus>& status() const { return status_; }

  /// Sends `sig` (default SIGKILL) to a still-running child. No-op after
  /// exit.
  void kill(int sig);
  void kill();

 private:
  /// Kills + reaps a still-running child (destructor semantics); shared
  /// by the destructor and move-assignment.
  void dispose() noexcept;

  pid_t pid_ = -1;
  bool own_group_ = false;  // signal -pid_ (the whole group) instead
  std::optional<ExitStatus> status_;
};

}  // namespace am
