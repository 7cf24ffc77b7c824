// The mivtx_serve daemon core: accept loop, bounded admission queue,
// worker pool and graceful drain.
//
// Threading model (plain blocking I/O — this is a loopback daemon):
//   - one accept thread;
//   - one reader thread per connection, parsing request lines.  Admin
//     kinds (health / metrics / shutdown) answer inline; compute kinds go
//     through admission control into the bounded queue.  A reader whose
//     connection ends detaches itself and exits, so a long-lived daemon
//     polled over short connections holds no finished threads;
//   - `workers` worker threads popping the queue and running
//     Service::execute.  Identical requests coalesce inside the service,
//     so a herd of N equal requests occupies N workers but computes once.
//
// Admission control is explicit backpressure, not silent queueing: when
// the queue is at capacity the client gets a typed "queue_full" response
// immediately, and once a drain starts new compute requests get
// "draining".  Both are statuses a client can back off on — never a
// dropped connection.
//
// Drain protocol (begin_shutdown -> wait):
//   1. stop accepting, reject new compute requests with "draining";
//   2. workers finish every already-admitted job and flush its response —
//      admitted work is never lost;
//   3. once the queue is empty and no worker is active, half-close every
//      connection's read side to unblock the reader threads still running,
//      join them and everything else, flush final metrics to the log.
// begin_shutdown() is safe from any thread (including a reader thread
// handling a "shutdown" request); only wait() joins.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/net.h"
#include "serve/protocol.h"
#include "serve/service.h"

namespace mivtx::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral (actual port in Server::port())
  std::size_t workers = 2;
  std::size_t queue_capacity = 64;  // admitted-but-unserved request bound
  ServiceOptions service;
};

class Server {
 public:
  // Binds the listener (throws mivtx::Error when that fails) but does not
  // accept until start().
  explicit Server(ServerOptions opts);
  ~Server();  // begin_shutdown() + wait() if still running

  int port() const { return listener_.port(); }
  Service& service() { return service_; }

  void start();
  // Initiate a graceful drain; idempotent, non-blocking, any thread.
  void begin_shutdown();
  // Block until the drain completes and all threads are joined.  Call
  // from the owning thread (the CLI main thread), never from a reader or
  // worker.
  void wait();

  bool draining() const;
  std::size_t queue_depth() const;

 private:
  struct Connection {
    explicit Connection(Socket s) : sock(std::move(s)) {}
    Socket sock;
    std::mutex write_m;  // reader + workers interleave responses
    bool send_line(const std::string& line);
  };

  struct Job {
    Request req;
    std::shared_ptr<Connection> conn;
    double enqueued_at = 0.0;
  };

  void accept_loop();
  void worker_loop();
  void reader_loop(std::shared_ptr<Connection> conn);
  // False = close the connection after this line (HTTP mode).
  bool handle_line(const std::shared_ptr<Connection>& conn,
                   const std::string& line);
  void handle_http(const std::shared_ptr<Connection>& conn,
                   const std::string& request_line);
  std::string health_json() const;

  ServerOptions opts_;
  Service service_;
  Listener listener_;

  mutable std::mutex m_;
  std::condition_variable work_cv_;   // workers: queue non-empty / draining
  std::condition_variable drain_cv_;  // wait(): drained
  std::deque<Job> queue_;
  std::size_t active_ = 0;  // jobs currently inside Service::execute
  bool draining_ = false;
  bool started_ = false;
  bool joined_ = false;
  std::set<std::shared_ptr<Connection>> conns_;
  // Readers still running.  A reader that finishes removes (and detaches)
  // itself; wait() takes the rest and joins them.
  std::map<std::thread::id, std::thread> readers_;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace mivtx::serve
