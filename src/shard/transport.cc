#include "shard/transport.h"

#include <errno.h>
#include <signal.h>
#include <fcntl.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "shard/wire.h"

namespace dgnn::shard {
namespace {

using util::Status;
using util::StatusOr;

Status FillAddr(const std::string& path, sockaddr_un* addr) {
  if (path.size() >= sizeof(addr->sun_path)) {
    return Status::InvalidArgument("socket path too long: " + path);
  }
  memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return Status::Ok();
}

int RemainingMs(TimePoint deadline) {
  const auto now = std::chrono::steady_clock::now();
  if (now >= deadline) return 0;
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      deadline - now)
                      .count();
  // poll() takes an int; clamp instead of overflowing on "no deadline"
  // sentinels far in the future.
  return static_cast<int>(std::min<int64_t>(ms + 1, 1 << 30));
}

volatile sig_atomic_t g_shutdown_requested = 0;
void OnShutdown(int) { g_shutdown_requested = 1; }

void PrintLine(const std::string& json) {
  std::fputs(json.c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

}  // namespace

ShardConn::~ShardConn() {
  if (fd_ >= 0) close(fd_);
}

StatusOr<std::unique_ptr<ShardConn>> ShardConn::Connect(
    const std::string& path, int timeout_ms) {
  sockaddr_un addr;
  DGNN_RETURN_IF_ERROR(FillAddr(path, &addr));
  const int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + strerror(errno));
  }
  // Non-blocking from the start so connect and every later read/write
  // can be bounded by poll().
  const int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS && errno != EAGAIN) {
      const std::string err = strerror(errno);
      close(fd);
      return Status::Internal("connect " + path + ": " + err);
    }
    pollfd p{fd, POLLOUT, 0};
    const int rc = poll(&p, 1, std::max(timeout_ms, 0));
    if (rc <= 0) {
      close(fd);
      return Status::Internal("connect " + path + ": timed out");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      close(fd);
      return Status::Internal("connect " + path + ": " + strerror(err));
    }
  }
  return std::unique_ptr<ShardConn>(new ShardConn(fd));
}

StatusOr<std::string> ShardConn::Call(const std::string& line,
                                      TimePoint deadline) {
  std::string msg = line;
  msg.push_back('\n');
  size_t written = 0;
  while (written < msg.size()) {
    // MSG_NOSIGNAL: a peer killed mid-conversation must surface as EPIPE
    // (-> kInternal -> retry/degrade), never as a process-wide SIGPIPE.
    const ssize_t n = send(fd_, msg.data() + written,
                           msg.size() - written, MSG_NOSIGNAL);
    if (n > 0) {
      written += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const int wait = RemainingMs(deadline);
      if (wait == 0) return Status::DeadlineExceeded("shard call write");
      pollfd p{fd_, POLLOUT, 0};
      if (poll(&p, 1, wait) <= 0) {
        return Status::DeadlineExceeded("shard call write");
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::Internal(std::string("shard write: ") +
                            (n < 0 ? strerror(errno) : "short write"));
  }

  // rdbuf_ survives across calls; with one outstanding request per
  // connection it only ever holds a prefix of the next response.
  for (;;) {
    const size_t nl = rdbuf_.find('\n');
    if (nl != std::string::npos) {
      std::string result = rdbuf_.substr(0, nl);
      rdbuf_.erase(0, nl + 1);
      return result;
    }
    char buf[4096];
    const ssize_t n = read(fd_, buf, sizeof(buf));
    if (n > 0) {
      rdbuf_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      return Status::Internal("shard connection closed");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      const int wait = RemainingMs(deadline);
      if (wait == 0) return Status::DeadlineExceeded("shard call read");
      pollfd p{fd_, POLLIN, 0};
      if (poll(&p, 1, wait) <= 0) {
        return Status::DeadlineExceeded("shard call read");
      }
      continue;
    }
    if (errno == EINTR) continue;
    return Status::Internal(std::string("shard read: ") + strerror(errno));
  }
}

SocketServer::~SocketServer() { Stop(); }

util::Status SocketServer::Start(const std::string& path, Handler handler) {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("socket server already running");
  }
  sockaddr_un addr;
  DGNN_RETURN_IF_ERROR(FillAddr(path, &addr));
  const int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + strerror(errno));
  }
  unlink(path.c_str());  // a stale socket from a killed worker
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = strerror(errno);
    close(fd);
    return Status::Internal("bind " + path + ": " + err);
  }
  if (listen(fd, 64) != 0) {
    const std::string err = strerror(errno);
    close(fd);
    return Status::Internal("listen " + path + ": " + err);
  }
  path_ = path;
  handler_ = std::move(handler);
  listen_fd_ = fd;
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void SocketServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    const int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Stop() shut the listener down (EBADF/EINVAL) — or something is
      // wrong enough that looping would spin; either way, exit.
      return;
    }
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (!running_.load(std::memory_order_acquire)) {
      close(fd);
      return;
    }
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { ConnLoop(fd); });
  }
}

void SocketServer::ConnLoop(int fd) {
  std::string buf;
  char chunk[4096];
  for (;;) {
    const size_t nl = buf.find('\n');
    if (nl != std::string::npos) {
      std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (line.empty()) continue;
      std::string resp = handler_(line);
      while (!resp.empty() && resp.back() == '\n') resp.pop_back();
      resp.push_back('\n');
      size_t written = 0;
      while (written < resp.size()) {
        const ssize_t n = send(fd, resp.data() + written,
                               resp.size() - written, MSG_NOSIGNAL);
        if (n > 0) {
          written += static_cast<size_t>(n);
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          return;  // peer went away mid-response
        }
      }
      continue;
    }
    const ssize_t n = read(fd, chunk, sizeof(chunk));
    if (n > 0) {
      buf.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return;  // EOF (client closed / Stop() shutdown) or hard error
  }
}

void SocketServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return;
  }
  // Shut the listener down; the accept thread unblocks with an error.
  shutdown(listen_fd_, SHUT_RDWR);
  close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<int> fds;
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    fds.swap(conn_fds_);
    threads.swap(conn_threads_);
  }
  // SHUT_RD: each connection thread's next read sees EOF and exits after
  // writing any in-progress response (graceful to in-flight requests).
  for (int fd : fds) shutdown(fd, SHUT_RD);
  for (auto& t : threads) t.join();
  for (int fd : fds) close(fd);
  listen_fd_ = -1;
  if (!path_.empty()) unlink(path_.c_str());
}

const char* ServeStdin(const RequestHandler& handler) {
  struct sigaction shutdown_action;
  memset(&shutdown_action, 0, sizeof(shutdown_action));
  shutdown_action.sa_handler = OnShutdown;
  sigemptyset(&shutdown_action.sa_mask);
  shutdown_action.sa_flags = 0;  // no SA_RESTART: interrupt getline
  sigaction(SIGTERM, &shutdown_action, nullptr);
  sigaction(SIGINT, &shutdown_action, nullptr);

  std::string line;
  while (!g_shutdown_requested && std::getline(std::cin, line)) {
    if (g_shutdown_requested) break;
    if (line.empty()) continue;
    auto parsed = util::ParseJson(line);
    if (!parsed.ok()) {
      PrintLine(NotJsonReply(parsed.status()));
      continue;
    }
    if (parsed.value().StringOr("op", "") == "quit") {
      util::JsonObject o;
      o.Set("ok", true).Set("op", "quit");
      PrintLine(o.Build());
      return "quit";
    }
    PrintLine(handler(parsed.value()));
  }
  return g_shutdown_requested ? "signal" : "eof";
}

}  // namespace dgnn::shard
