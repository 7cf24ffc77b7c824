#include "serve/net.h"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/error.h"
#include "common/strings.h"

namespace mivtx::serve {

namespace {

sockaddr_in make_addr(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  MIVTX_EXPECT(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
               "serve: bad IPv4 address '" + host + "'");
  return addr;
}

// Request/response traffic is one small line each way; Nagle would hold a
// response until the peer's delayed ACK (~40 ms) arrives.
void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

Socket::~Socket() { close(); }

Socket& Socket::operator=(Socket&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown_read() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

void Socket::shutdown_write() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

bool Socket::write_all(std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<std::string> LineReader::read_line() {
  while (true) {
    const std::size_t nl = buf_.find('\n', scan_);
    if (nl != std::string::npos) {
      std::string line = buf_.substr(pos_, nl - pos_);
      pos_ = nl + 1;
      if (pos_ > (1u << 16)) {  // compact the consumed prefix occasionally
        buf_.erase(0, pos_);
        pos_ = 0;
      }
      scan_ = pos_;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    scan_ = buf_.size();
    if (buf_.size() - pos_ > max_line_) {
      too_long_ = true;
      return std::nullopt;
    }
    char chunk[4096];
    ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::nullopt;
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

void LineReader::discard(std::size_t max_bytes) {
  buf_.clear();
  pos_ = scan_ = 0;
  std::size_t dropped = 0;
  char chunk[4096];
  while (dropped < max_bytes) {
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    dropped += static_cast<std::size_t>(n);
  }
}

Listener::Listener(const std::string& host, int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  MIVTX_EXPECT(fd_ >= 0, "serve: socket() failed");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = make_addr(host, port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(fd_, SOMAXCONN) != 0) {
    const std::string why = std::strerror(errno);
    close();
    throw Error(format("serve: cannot listen on %s:%d: %s", host.c_str(),
                       port, why.c_str()));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  MIVTX_EXPECT(::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound),
                             &len) == 0,
               "serve: getsockname() failed");
  port_ = ntohs(bound.sin_port);
}

Socket Listener::accept() {
  while (true) {
    const int fd = ::accept(fd_.load(), nullptr, nullptr);
    if (fd >= 0) {
      set_nodelay(fd);
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    return Socket();  // listener closed (or fatal error): stop accepting
  }
}

void Listener::close() {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) {
    // shutdown() before close() reliably wakes a thread blocked in
    // accept(); close() alone may leave it sleeping on some kernels.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

Socket connect_to(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  MIVTX_EXPECT(fd >= 0, "serve: socket() failed");
  Socket sock(fd);
  set_nodelay(fd);
  sockaddr_in addr = make_addr(host, port);
  while (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr) != 0) {
    if (errno == EINTR) continue;
    throw Error(format("serve: cannot connect to %s:%d: %s", host.c_str(),
                       port, std::strerror(errno)));
  }
  return sock;
}

}  // namespace mivtx::serve
