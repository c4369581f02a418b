// NetServer: the TCP front door over server/server.h.
//
// One NetServer wraps one Server. An acceptor thread takes connections
// off a bounded listen backlog; each admitted connection gets a handler
// thread running a read-dispatch-write loop that speaks the framed
// protocol (net/protocol.h) and owns at most one Session. The thread
// population is bounded by max_connections, so the pool of handler
// threads can never grow past the admission limit — query-internal
// parallelism stays where it already lives, in the engine's exec pool
// (WireQuery::num_threads).
//
// Connection handlers never touch the Server's writer mutex from their
// read loop: queries run against the connection's own Session (pinned
// snapshot, private database), and only an explicit kApplyBatch takes
// the commit path. Responses are written by the same handler thread
// that read the request — one in-flight request per connection, no
// shared writer state between connections.
//
// Admission control (gov-backed, deterministic — shed, never queue
// unboundedly):
//   * accept backlog: the kernel listen queue is bounded by
//     accept_backlog; SYN floods past it never reach us.
//   * max_connections: a connection accepted past the cap is answered
//     with one kOverloaded error frame carrying retry_after_ms, then
//     closed. net.rejected counts it.
//   * max_inflight_queries: kQuery/kApplyBatch past the cap get a
//     kOverloaded error frame with retry advice; the connection stays
//     open. net.rejected counts these too.
//   * per-request governor: every query/apply runs under a
//     GovernorContext combining the connection's cancellation token
//     (Stop() cancels in-flight work), the request's budget/deadline
//     when set, and the server-wide defaults when not.
//
// Fault sites (gov/fault_injection.h): net.accept fires after a
// connection is accepted (fail => error frame + close, counted as
// rejected); net.read before each request frame is read (fail => the
// handler closes as if the peer vanished); net.write before each
// response frame (fail => close, the client sees a dropped
// connection). All three make the degraded-network paths testable
// deterministically.
//
// Metrics (when NetServerOptions::metrics is set): net.connections
// (gauge, currently open), net.accepted / net.rejected / net.bytes_in /
// net.bytes_out (counters), net.requests_active (gauge),
// net.request_ns (histogram over full request handling).

#ifndef GRAPHLOG_NET_NET_SERVER_H_
#define GRAPHLOG_NET_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "gov/governor.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "server/server.h"

namespace graphlog::net {

/// \brief Admission and transport configuration for one NetServer.
struct NetServerOptions {
  /// TCP port to listen on; 0 picks an ephemeral port (see port()).
  uint16_t port = 0;
  /// Bind INADDR_ANY instead of loopback. Default stays loopback: this
  /// protocol carries no authentication, so exposure is opt-in.
  bool bind_any = false;
  /// Kernel listen-queue bound (the first shedding layer).
  int accept_backlog = 64;
  /// Connections handled concurrently; one accepted past the cap is
  /// answered kOverloaded + retry_after_ms and closed. 0 = unlimited.
  size_t max_connections = 64;
  /// Queries/applies in flight across all connections; one past the cap
  /// is answered kOverloaded (connection stays open). 0 = unlimited.
  size_t max_inflight_queries = 0;
  /// Retry-after advice carried on every kOverloaded rejection.
  uint32_t retry_after_ms = 100;
  /// Default per-request budget for requests that carry none.
  gov::ResourceBudget default_budget{};
  /// Default per-request deadline (ms) for requests that carry none;
  /// 0 = none.
  uint64_t default_deadline_ms = 0;
  /// net.* metrics land here. Null disables.
  obs::MetricsRegistry* metrics = nullptr;
  /// Fault injector consulted at net.accept / net.read / net.write and
  /// passed into every request's governor. Null disables.
  gov::FaultInjector* faults = nullptr;
};

/// \brief TCP listener serving one Server over the framed protocol.
///
/// Thread-safe: Start/Stop/port/stats may be called from any thread;
/// connection handling runs on internal threads. The wrapped Server
/// must outlive the NetServer (Stop() joins every handler first).
class NetServer {
 public:
  /// \brief Creates, binds, and starts a listener over `server`.
  static Result<std::unique_ptr<NetServer>> Start(Server* server,
                                                  NetServerOptions opts = {});

  ~NetServer();  ///< Stops if still running.
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// \brief The bound port (resolves opts.port == 0).
  uint16_t port() const { return port_; }

  /// \brief Cancels in-flight requests, closes every connection, joins
  /// all threads. Idempotent.
  void Stop();

  bool running() const { return !stopped_.load(std::memory_order_acquire); }

  /// \brief Connections currently being handled.
  size_t active_connections() const {
    return active_.load(std::memory_order_relaxed);
  }

  /// \brief Total connections shed + requests shed by admission control.
  uint64_t rejected() const {
    return rejected_count_.load(std::memory_order_relaxed);
  }

 private:
  /// One handled connection: its socket, handler thread, session, and
  /// the cancellation token Stop() trips.
  struct Conn {
    int fd = -1;
    std::thread thread;
    gov::CancellationToken cancel;
    std::atomic<bool> done{false};
  };

  NetServer(Server* server, NetServerOptions opts);

  Status Listen();
  void AcceptLoop();
  void HandleConnection(Conn* conn);

  /// Dispatches one decoded request frame on `conn`'s session state.
  /// Returns the response frame to write; connection-fatal conditions
  /// set *close_after.
  Frame Dispatch(const Frame& req, Conn* conn,
                 std::unique_ptr<Session>* session, bool* close_after);

  Frame ErrorFrame(const Status& s, uint32_t retry_after_ms = 0) const;

  /// Joins handler threads that have finished (called from the acceptor
  /// between accepts, and from Stop for the stragglers).
  void ReapFinished();

  Server* server_;
  NetServerOptions opts_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::thread acceptor_;
  std::atomic<bool> stopped_{false};

  std::mutex conns_mu_;
  std::vector<std::unique_ptr<Conn>> conns_;

  std::atomic<size_t> active_{0};
  std::atomic<size_t> inflight_{0};
  std::atomic<uint64_t> rejected_count_{0};

  // Metric handles (null when opts_.metrics is null).
  obs::Gauge* m_connections_ = nullptr;
  obs::Counter* m_accepted_ = nullptr;
  obs::Counter* m_rejected_ = nullptr;
  obs::Counter* m_bytes_in_ = nullptr;
  obs::Counter* m_bytes_out_ = nullptr;
  obs::Gauge* m_requests_active_ = nullptr;
  obs::HistogramCell* m_request_ns_ = nullptr;
};

}  // namespace graphlog::net

#endif  // GRAPHLOG_NET_NET_SERVER_H_
