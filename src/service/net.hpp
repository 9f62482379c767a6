#pragma once

/// Minimal POSIX socket plumbing shared by the sweep service's server,
/// client and tests: an RAII fd wrapper, the helpers that open every TCP
/// socket, and full-buffer send/recv helpers. Sends use MSG_NOSIGNAL so a
/// peer that vanished mid-write surfaces as an error return, never SIGPIPE
/// (the daemon must not die because one client disconnected).

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace aqua::service {

/// Move-only owning file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& other) noexcept : fd_(other.release()) {}
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      close_fd();
      fd_ = other.release();
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket() { close_fd(); }

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }

  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

  void close_fd() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  /// Wakes a thread blocked in recv()/send() on this fd (both directions).
  /// Safe to call from another thread; the fd stays owned until close.
  void shutdown_both() const {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  }

 private:
  int fd_ = -1;
};

// The only places the service opens TCP sockets. Every socket that carries
// frames (from accept_tcp or connect_tcp) has TCP_NODELAY set (DESIGN.md
// §13, "Wire"): each reply and request is one send_all of a whole frame,
// so Nagle's coalescing has nothing to merge; left on, it holds a reply
// written while the previous one is unacknowledged until the peer's
// delayed ACK (40 ms minimum on Linux) releases it.

/// A socket bound to `host` (dotted IPv4) and `port` (0 = ephemeral) and
/// listening. Throws aqua::Error when the host does not parse or the
/// address cannot be bound.
Socket listen_tcp(const std::string& host, std::uint16_t port);

/// The next connection on `listener`, retrying EINTR, with TCP_NODELAY
/// set (set here, not inherited from the listener). An invalid Socket
/// means the listener was shut down (or failed): stop accepting.
Socket accept_tcp(const Socket& listener);

/// A socket connected to `host` (dotted IPv4) and `port`, with
/// TCP_NODELAY set. Throws
/// aqua::Error when the host does not parse or the connect fails.
Socket connect_tcp(const std::string& host, std::uint16_t port);

/// The local port `sock` is bound to (the real port after listen_tcp(.., 0)).
std::uint16_t local_port(const Socket& sock);

/// Sends the whole buffer; false on any transport error (peer gone,
/// shutdown). Retries EINTR so an unrelated signal does not tear a frame.
inline bool send_all(int fd, const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// One recv with EINTR retry. Returns bytes read, 0 on orderly peer close,
/// -1 on error/shutdown.
inline ssize_t recv_some(int fd, void* buf, std::size_t len) {
  for (;;) {
    const ssize_t n = ::recv(fd, buf, len, 0);
    if (n < 0 && errno == EINTR) continue;
    return n;
  }
}

}  // namespace aqua::service
