// A minimal embedded HTTP/1.1 server for the `keddah serve` daemon.
//
// Deliberately small: IPv4 loopback only, one request per connection
// (Connection: close), bodies sized by Content-Length, no TLS, no chunked
// transfer. That is exactly enough for a localhost JSON query daemon and
// keeps the whole transport auditable in one file. The accept loop runs on
// a dedicated thread; each accepted connection is handed to a
// util::ThreadPool worker which reads the request, invokes the handler,
// writes the response, and closes the socket.
//
// Overload-survival contract (see DESIGN.md "Serving robustness"):
//   - Every socket phase is budgeted. Header and body reads carry overall
//     deadlines (not per-read timers, so a drip-feeding slow-loris client
//     cannot reset them) and time out with a 408; response writes carry
//     SO_SNDTIMEO so a stalled reader cannot pin a worker.
//   - Malformed framing is answered, not dropped: a torn request line or a
//     non-numeric Content-Length gets a 400 envelope, an oversized header
//     block or declared body gets a 413 — each with the api::ErrorCode
//     taxonomy, never a silent close.
//   - Admission is bounded: at most `max_pending` accepted connections may
//     be queued or in flight; beyond that the accept loop answers a canned
//     429 inline instead of growing the pool queue without bound.
//   - Writes use ::send with MSG_NOSIGNAL and retry EINTR, so a peer that
//     closes mid-response costs one write_aborts counter tick, not a
//     SIGPIPE that kills the daemon.
//   - stop() closes the listener (unblocking accept), then waits up to
//     `drain_timeout_ms` for in-flight connections to finish before the
//     final pool join. Workers cannot hang past their socket budgets, so
//     the join is bounded too.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "util/deadline.h"
#include "util/mutex.h"
#include "util/thread_pool.h"

namespace keddah::serve {

/// Transport knobs. The defaults suit an interactive localhost daemon; the
/// chaos suite tightens them to force the failure paths quickly. A
/// non-positive timeout disables that budget.
struct HttpOptions {
  /// Listen port; 0 = kernel-assigned ephemeral port.
  std::uint16_t port = 0;
  /// Connection/handler worker threads; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Overall budget to receive the full header block (slow-loris defence).
  std::int64_t header_timeout_ms = 5000;
  /// Overall budget to receive the declared body after the headers.
  std::int64_t body_timeout_ms = 10000;
  /// SO_SNDTIMEO per send() while writing the response.
  std::int64_t write_timeout_ms = 10000;
  /// Wall-clock budget handed to the handler via HttpRequest::deadline;
  /// the policy layer sheds requests that outlive it (503).
  std::int64_t handler_budget_ms = 30000;
  /// Hard caps; exceeding either is a 413, not a silent close.
  std::size_t max_header_bytes = 1u << 20;
  std::size_t max_body_bytes = 64u << 20;
  /// Accepted-but-unfinished connection bound; beyond it new connections
  /// get a canned 429 from the accept loop.
  std::size_t max_pending = 256;
  /// How long stop() waits for in-flight connections before joining.
  std::int64_t drain_timeout_ms = 5000;
  /// SO_SNDBUF for accepted sockets; 0 = kernel default. The chaos suite
  /// shrinks it so a stalled reader forces the write-timeout path without
  /// needing megabyte responses.
  std::size_t sndbuf_bytes = 0;
};

struct HttpRequest {
  std::string method;  ///< "GET", "POST", ...
  std::string path;    ///< Request target, e.g. "/v1/whatif".
  std::string body;    ///< Raw body (Content-Length bytes).
  /// Wall-clock budget for answering this request. The transport arms it
  /// when the connection is accepted; in-process callers (tests, benches)
  /// default to never(), i.e. no budget.
  util::Deadline deadline = util::Deadline::never();
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// When > 0, emitted as a "Retry-After: N" header (408/429/503 carry a
  /// fixed value so response bytes stay deterministic).
  std::int64_t retry_after_s = 0;
};

/// Transport-level failure counters, mirrored into /v1/stats. Snapshot
/// semantics: values are monotonically increasing totals since start.
struct TransportStats {
  std::uint64_t accepted = 0;           ///< Connections handed to the pool.
  std::uint64_t rejected_pending = 0;   ///< 429s written from the accept loop.
  std::uint64_t header_timeouts = 0;    ///< 408: header budget exhausted.
  std::uint64_t body_timeouts = 0;      ///< 408: body budget exhausted.
  std::uint64_t oversized = 0;          ///< 413: header or body over cap.
  std::uint64_t malformed = 0;          ///< 400: framing/Content-Length defects.
  std::uint64_t early_disconnects = 0;  ///< Peer vanished before owing a response.
  std::uint64_t write_aborts = 0;       ///< Response write failed or timed out.

  template <typename Fn>
  void visit(Fn&& fn) const {
    fn("accepted", accepted);
    fn("rejected_pending", rejected_pending);
    fn("header_timeouts", header_timeouts);
    fn("body_timeouts", body_timeouts);
    fn("oversized", oversized);
    fn("malformed", malformed);
    fn("early_disconnects", early_disconnects);
    fn("write_aborts", write_aborts);
  }
};

/// Standard reason phrase for the statuses the daemon emits.
const char* status_text(int status);

/// Request handler; runs on a pool worker. Must not throw (the server wraps
/// handler exceptions into a 500 envelope, but well-behaved handlers map
/// their own failures to 4xx/5xx bodies).
using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

class HttpServer {
 public:
  /// Binds and listens on 127.0.0.1:`options.port`. Throws
  /// std::runtime_error when the socket cannot be bound.
  explicit HttpServer(const HttpOptions& options);

  /// Stops the server if still running.
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// The bound port (the actual one when constructed with port 0).
  std::uint16_t port() const { return port_; }

  /// Spawns the accept thread. Call once.
  void start(HttpHandler handler);

  /// Closes the listening socket, joins the accept thread, waits up to
  /// drain_timeout_ms for in-flight connections, then joins the pool.
  /// Idempotent.
  void stop();

  /// Point-in-time copy of the failure counters.
  TransportStats transport_stats() const EXCLUDES(stats_mutex_);

 private:
  void accept_loop() EXCLUDES(state_mutex_);
  void handle_connection(int fd);
  /// Serializes and sends `response`; counts write_aborts on failure.
  void respond(int fd, const HttpResponse& response);
  void finish_connection() EXCLUDES(pending_mutex_);
  void count(std::uint64_t TransportStats::*counter) EXCLUDES(stats_mutex_);

  // Shutdown handshake: stop() wins the stopping_ exchange, then closes
  // listen_fd_ under state_mutex_ (unblocking a pending accept), joins the
  // acceptor, and finally drains the pool. The acceptor re-reads
  // listen_fd_ under the same mutex each round, so a closed-and-reset fd
  // is observed as -1 rather than a stale descriptor number.
  HttpOptions options_;
  HttpHandler handler_;  // set in start() before the acceptor spawns
  mutable util::Mutex state_mutex_;
  int listen_fd_ GUARDED_BY(state_mutex_) = -1;
  std::uint16_t port_ = 0;  // written once in the constructor
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
  std::unique_ptr<util::ThreadPool> pool_;

  // Admission bound + drain handshake: pending_ counts accepted
  // connections not yet finished; stop() waits on drained_cv_ for it to
  // reach zero (bounded by drain_timeout_ms).
  mutable util::Mutex pending_mutex_;
  std::size_t pending_ GUARDED_BY(pending_mutex_) = 0;
  util::CondVar drained_cv_;

  // Incremented from workers and the accept loop (count()), copied out
  // whole by transport_stats().
  mutable util::Mutex stats_mutex_;
  TransportStats stats_ GUARDED_BY(stats_mutex_);
};

}  // namespace keddah::serve
