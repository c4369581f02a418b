// A graphlogd child process, seen from outside the way an operator sees
// it: spawned with flags, ready once it answers a Ping, observed through
// /proc, and stopped with SIGTERM or killed with SIGKILL.

#ifndef GRAPHLOG_BENCH_E2E_DAEMON_H_
#define GRAPHLOG_BENCH_E2E_DAEMON_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"

namespace graphlog::e2e {

/// Seconds on the steady clock.
double NowS();

class Daemon {
 public:
  /// Spawns `binary args...` (args must include `--port 0`), reads the
  /// ephemeral port from its stderr, and pings it. `*ready_s` receives
  /// the seconds from fork until the Ping was answered. Must be called
  /// from the thread that outlives the child: the child gets SIGKILL if
  /// that thread exits first.
  static Result<std::unique_ptr<Daemon>> Start(
      const std::string& binary, const std::vector<std::string>& args,
      double* ready_s);

  /// Stops the process (SIGTERM, then SIGKILL after a grace period) and
  /// reaps it.
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  uint16_t port() const { return port_; }

  /// utime + stime so far, in milliseconds (/proc/<pid>/stat).
  Result<double> CpuMs() const;
  /// Peak resident set (VmHWM of /proc/<pid>/status), in MiB.
  Result<double> PeakRssMb() const;

  /// SIGKILL and reap: the crash the ingest workload recovers from.
  void Kill();
  /// SIGTERM and reap; fails unless the daemon exits 0 in time.
  Status Stop();

 private:
  Daemon(pid_t pid, int stderr_fd) : pid_(pid), stderr_fd_(stderr_fd) {}
  /// Waits up to `timeout_s` for the child to exit; true once reaped.
  bool Reap(double timeout_s, int* status);

  pid_t pid_;
  int stderr_fd_;
  uint16_t port_ = 0;
};

}  // namespace graphlog::e2e

#endif  // GRAPHLOG_BENCH_E2E_DAEMON_H_
