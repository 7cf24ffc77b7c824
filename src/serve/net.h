// Thin RAII layer over loopback TCP sockets (POSIX).
//
// mivtx_serve binds 127.0.0.1 only — it is a local characterization
// daemon, not an internet service — so plain blocking sockets with one
// reader thread per connection are the right complexity level.  Writes use
// MSG_NOSIGNAL (a client hanging up must surface as a write error, never
// SIGPIPE), and Listener::close() / Socket::shutdown_read() are the
// wake-up primitives the graceful-drain path uses to unblock accept() and
// read() without resorting to signals or polling.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace mivtx::serve {

// RAII file-descriptor wrapper.  Move-only; close on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Socket& operator=(Socket&& o) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();
  // Half-close the read side: a thread blocked in read() on this socket
  // returns 0 (EOF) while writes keep flowing.
  void shutdown_read();
  // Half-close the write side: the peer reads what was sent, then EOF.
  void shutdown_write();

  // Write the whole buffer; false on any error (peer gone, ...).
  bool write_all(std::string_view data);

 private:
  int fd_ = -1;
};

// Buffered newline-delimited reader over a socket.  Each byte is scanned
// for '\n' once, however many reads a long line takes.
class LineReader {
 public:
  // max_line bounds the bytes of one pending line, and so the buffer.
  explicit LineReader(int fd, std::size_t max_line = SIZE_MAX)
      : fd_(fd), max_line_(max_line) {}

  // Next line without its trailing '\n' (a trailing '\r' is stripped too,
  // so HTTP request lines parse cleanly).  nullopt on EOF or error, and
  // once a line runs past max_line without a newline (then too_long()).
  std::optional<std::string> read_line();
  bool too_long() const { return too_long_; }

  // Read and drop input until EOF, an error or max_bytes, for a clean
  // close after rejecting a connection whose peer is still sending.
  void discard(std::size_t max_bytes);

 private:
  int fd_;
  std::size_t max_line_;
  std::string buf_;
  std::size_t pos_ = 0;   // start of the pending line
  std::size_t scan_ = 0;  // buf_[pos_, scan_) holds no '\n'
  bool too_long_ = false;
};

// Listening socket on host:port; port 0 binds an ephemeral port (the
// actual one is in port()).  Throws mivtx::Error when binding fails.
class Listener {
 public:
  Listener(const std::string& host, int port);
  ~Listener() { close(); }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  int port() const { return port_; }
  // Blocking accept; an invalid Socket means the listener was closed.
  // Accepted sockets have TCP_NODELAY set, like connect_to's.
  Socket accept();
  // Close the listening fd; wakes a blocked accept().  Safe to call from
  // another thread while accept() blocks.
  void close();

 private:
  std::atomic<int> fd_{-1};  // close() on one thread, accept() on another
  int port_ = 0;
};

// Blocking connect to host:port.  Throws mivtx::Error on failure.
Socket connect_to(const std::string& host, int port);

}  // namespace mivtx::serve
