// Loopback ports for tests that bind real TCP listeners.
#ifndef THREEV_TESTS_TEST_PORTS_H_
#define THREEV_TESTS_TEST_PORTS_H_

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <vector>

namespace threev {

// `n` distinct loopback ports that were free a moment ago: all bound to
// port 0 at once, so the kernel picks ports no socket holds (not even one
// in TIME_WAIT), then released for the TcpNets to bind.
inline std::vector<uint16_t> FreePorts(size_t n) {
  std::vector<int> fds;
  std::vector<uint16_t> ports;
  for (size_t i = 0; i < n; ++i) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), len), 0);
    EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    fds.push_back(fd);
    ports.push_back(ntohs(addr.sin_port));
  }
  for (int fd : fds) ::close(fd);
  return ports;
}

}  // namespace threev

#endif  // THREEV_TESTS_TEST_PORTS_H_
