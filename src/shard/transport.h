// The two NDJSON front doors — a line-oriented Unix-domain socket for
// router <-> shard RPCs, and the stdin loop of dgnn_serve / dgnn_router —
// plus the client side of the socket.
//
// Both doors speak the same framing: one JSON request per line in, one
// JSON response per line out. A worker plugs the same handler
// (shard::ShardService) into both, so every op answers identically on
// either door, and every message is inspectable with a shell.
//
// Error taxonomy (what the router's retry policy keys on):
//  - kInternal      — connection-level failures: refused/failed connect,
//                     peer reset, unexpected EOF. Transient by contract;
//                     RetryWithBackoff retries these.
//  - kDeadlineExceeded — the caller's deadline passed first. NEVER
//                     retried (the budget is gone); the router maps it
//                     to a missing-shard degradation instead.

#ifndef DGNN_SHARD_TRANSPORT_H_
#define DGNN_SHARD_TRANSPORT_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/json.h"
#include "util/status.h"

namespace dgnn::shard {

using TimePoint = std::chrono::steady_clock::time_point;

// Client side: one connection, one outstanding request at a time. Not
// thread-safe; the router keeps a pool and hands a connection to a
// single attempt at a time.
class ShardConn {
 public:
  ~ShardConn();
  ShardConn(const ShardConn&) = delete;
  ShardConn& operator=(const ShardConn&) = delete;

  // Connects to a listening SocketServer; kInternal on refusal/timeout
  // (a worker that is down or still starting).
  static util::StatusOr<std::unique_ptr<ShardConn>> Connect(
      const std::string& path, int timeout_ms);

  // Writes `line` (newline appended) and blocks for one response line
  // (newline stripped). kInternal on reset/EOF — the connection is dead
  // afterwards and must be discarded; kDeadlineExceeded when `deadline`
  // passes first (also discard: a late reply may still arrive and would
  // desync the stream).
  util::StatusOr<std::string> Call(const std::string& line,
                                   TimePoint deadline);

 private:
  explicit ShardConn(int fd) : fd_(fd) {}
  int fd_ = -1;
  std::string rdbuf_;
};

// Worker side: accepts connections and runs `handler` per request line
// on a per-connection thread. Responses must be single-line JSON (the
// handler's result has any trailing newline stripped before framing).
class SocketServer {
 public:
  using Handler = std::function<std::string(const std::string& line)>;

  SocketServer() = default;
  ~SocketServer();
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  // Binds `path` (unlinking any stale socket first) and starts the
  // accept loop. `handler` may be called from many threads at once.
  util::Status Start(const std::string& path, Handler handler);

  // Stops accepting, wakes every connection (in-progress requests finish
  // and their responses are written), joins all threads, unlinks the
  // socket path. Idempotent.
  void Stop();

  bool running() const {
    return running_.load(std::memory_order_acquire);
  }

 private:
  void AcceptLoop();
  void ConnLoop(int fd);

  std::string path_;
  Handler handler_;
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  std::mutex conns_mu_;
  std::vector<int> conn_fds_;
  std::vector<std::thread> conn_threads_;
};

// The stdin door: reads NDJSON requests from stdin and prints one reply
// line per request on stdout until EOF, {"op":"quit"} (acknowledged with
// {"ok":true,"op":"quit"}) or SIGTERM/SIGINT. Empty lines are skipped; a
// line that is not JSON gets NotJsonReply; every other request goes to
// `handler`. SIGTERM/SIGINT are installed WITHOUT SA_RESTART so a
// blocking read is interrupted and the caller can drain. Returns why the
// loop ended: "eof", "quit" or "signal".
using RequestHandler =
    std::function<std::string(const util::JsonValue& request)>;
const char* ServeStdin(const RequestHandler& handler);

}  // namespace dgnn::shard

#endif  // DGNN_SHARD_TRANSPORT_H_
