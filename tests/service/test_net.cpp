/// Socket helpers (DESIGN.md §13, "Wire"): every socket the service opens
/// comes from listen_tcp, accept_tcp or connect_tcp, and both ends of a
/// connection have TCP_NODELAY set, so a reply written while the previous
/// one is still unacknowledged leaves at once instead of waiting out the
/// peer's delayed ACK.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <string>

#include "common/error.hpp"
#include "service/net.hpp"

namespace aqua::service {
namespace {

int nodelay(const Socket& sock) {
  int value = -1;
  socklen_t len = sizeof(value);
  EXPECT_EQ(::getsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &value, &len),
            0);
  return value;
}

TEST(SocketHelpers, AcceptedAndConnectedSocketsAreNoDelay) {
  const Socket listener = listen_tcp("127.0.0.1", 0);
  ASSERT_TRUE(listener.valid());
  const std::uint16_t port = local_port(listener);
  ASSERT_NE(port, 0);

  const Socket client = connect_tcp("127.0.0.1", port);
  ASSERT_TRUE(client.valid());
  EXPECT_EQ(nodelay(client), 1);

  const Socket accepted = accept_tcp(listener);
  ASSERT_TRUE(accepted.valid());
  EXPECT_EQ(nodelay(accepted), 1);

  // The accepted side talks to the connected side.
  ASSERT_TRUE(send_all(client.fd(), "ping", 4));
  char buffer[4] = {};
  ASSERT_EQ(recv_some(accepted.fd(), buffer, sizeof(buffer)), 4);
  EXPECT_EQ(std::string(buffer, 4), "ping");
}

TEST(SocketHelpers, UnparsableHostThrows) {
  EXPECT_THROW(listen_tcp("not-an-address", 0), Error);
  EXPECT_THROW(connect_tcp("not-an-address", 7447), Error);
}

}  // namespace
}  // namespace aqua::service
