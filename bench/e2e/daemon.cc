#include "bench/e2e/daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "net/client.h"

namespace graphlog::e2e {

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

constexpr double kStartTimeoutS = 60;
constexpr char kListening[] = "graphlogd: listening on ";

/// Reads `fd` until a full line starting with kListening arrives; returns
/// the port it names. `log` collects everything read, for error reports.
Result<uint16_t> ReadPort(int fd, std::string* log) {
  const double deadline = NowS() + kStartTimeoutS;
  for (;;) {
    size_t start = 0;
    for (size_t nl; (nl = log->find('\n', start)) != std::string::npos;
         start = nl + 1) {
      const std::string line = log->substr(start, nl - start);
      if (line.rfind(kListening, 0) != 0) continue;
      const size_t colon = line.rfind(':');
      const long port =
          colon == std::string::npos
              ? 0
              : std::strtol(line.c_str() + colon + 1, nullptr, 10);
      if (port <= 0 || port > 65535) {
        return Status::Internal("unparsable listen line: " + line);
      }
      return static_cast<uint16_t>(port);
    }
    const double left = deadline - NowS();
    if (left <= 0) return Status::Internal("graphlogd did not start: " + *log);
    pollfd p{fd, POLLIN, 0};
    const int ready = ::poll(&p, 1, static_cast<int>(left * 1000) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    char buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::Internal("graphlogd exited: " + *log);
    log->append(buf, static_cast<size_t>(n));
  }
}

}  // namespace

Result<std::unique_ptr<Daemon>> Daemon::Start(
    const std::string& binary, const std::vector<std::string>& args,
    double* ready_s) {
  // Everything the child touches is prepared before fork: between fork
  // and exec only async-signal-safe calls are allowed.
  std::vector<std::string> owned = {binary};
  owned.insert(owned.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : owned) argv.push_back(a.data());
  argv.push_back(nullptr);
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    return Status::Internal(std::string("pipe: ") + std::strerror(errno));
  }
  const int devnull = ::open("/dev/null", O_WRONLY | O_CLOEXEC);
  const pid_t parent = ::getpid();

  const double t0 = NowS();
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(fds[1], STDERR_FILENO);
    if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  if (devnull >= 0) ::close(devnull);
  if (pid < 0) {
    ::close(fds[0]);
    return Status::Internal(std::string("fork: ") + std::strerror(errno));
  }
  std::unique_ptr<Daemon> d(new Daemon(pid, fds[0]));

  std::string log;
  GRAPHLOG_ASSIGN_OR_RETURN(d->port_, ReadPort(d->stderr_fd_, &log));
  GRAPHLOG_ASSIGN_OR_RETURN(std::unique_ptr<net::Client> client,
                            net::Client::Connect("127.0.0.1", d->port_));
  GRAPHLOG_RETURN_NOT_OK(client->Ping());
  *ready_s = NowS() - t0;
  return d;
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    if (!Reap(0, nullptr)) {
      ::kill(pid_, SIGTERM);
      if (!Reap(10, nullptr)) Kill();
    }
  }
  if (stderr_fd_ >= 0) ::close(stderr_fd_);
}

bool Daemon::Reap(double timeout_s, int* status) {
  const double deadline = NowS() + timeout_s;
  for (;;) {
    int st = 0;
    const pid_t r = ::waitpid(pid_, &st, WNOHANG);
    if (r == pid_ || (r < 0 && errno == ECHILD)) {
      if (status != nullptr) *status = st;
      pid_ = -1;
      return true;
    }
    if (NowS() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void Daemon::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int st = 0;
  while (::waitpid(pid_, &st, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

Status Daemon::Stop() {
  if (pid_ <= 0) return Status::Internal("graphlogd is not running");
  ::kill(pid_, SIGTERM);
  int st = 0;
  if (!Reap(10, &st)) {
    Kill();
    return Status::Internal("graphlogd ignored SIGTERM for 10 s");
  }
  if (!WIFEXITED(st) || WEXITSTATUS(st) != 0) {
    return Status::Internal("graphlogd exited abnormally (wait status " +
                            std::to_string(st) + ")");
  }
  return Status::OK();
}

Result<double> Daemon::CpuMs() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return Status::Internal("cannot read stat");
  // Fields after the parenthesized command: state is field 3, utime 14,
  // stime 15 (proc(5)).
  std::istringstream fields(line.substr(line.rfind(')') + 2));
  std::string tok;
  uint64_t utime = 0, stime = 0;
  for (int field = 3; fields >> tok && field <= 15; ++field) {
    if (field == 14) utime = std::stoull(tok);
    if (field == 15) stime = std::stoull(tok);
  }
  return 1000.0 * static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

Result<double> Daemon::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return Status::Internal("no VmHWM in /proc status");
}

}  // namespace graphlog::e2e
