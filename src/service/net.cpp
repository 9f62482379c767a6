#include "service/net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>

#include "common/error.hpp"

namespace aqua::service {

namespace {

sockaddr_in ipv4_address(const std::string& host, std::uint16_t port) {
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  require(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
          "cannot parse the host: " + host);
  return addr;
}

Socket tcp_socket() {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  require(sock.valid(), "cannot create a TCP socket");
  return sock;
}

void set_nodelay(const Socket& sock) {
  const int one = 1;
  ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

Socket listen_tcp(const std::string& host, std::uint16_t port) {
  const sockaddr_in addr = ipv4_address(host, port);
  Socket sock = tcp_socket();
  const int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  require(::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                 sizeof(addr)) == 0,
          "cannot bind " + host + ":" + std::to_string(port));
  require(::listen(sock.fd(), 64) == 0, "cannot listen");
  return sock;
}

Socket accept_tcp(const Socket& listener) {
  for (;;) {
    Socket sock(::accept(listener.fd(), nullptr, nullptr));
    if (sock.valid()) {
      set_nodelay(sock);
      return sock;
    }
    if (errno != EINTR) return sock;
  }
}

Socket connect_tcp(const std::string& host, std::uint16_t port) {
  const sockaddr_in addr = ipv4_address(host, port);
  Socket sock = tcp_socket();
  set_nodelay(sock);
  require(::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0,
          "cannot connect to " + host + ":" + std::to_string(port));
  return sock;
}

std::uint16_t local_port(const Socket& sock) {
  sockaddr_in bound = {};
  socklen_t len = sizeof(bound);
  require(::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&bound),
                        &len) == 0,
          "cannot read the bound address");
  return ntohs(bound.sin_port);
}

}  // namespace aqua::service
