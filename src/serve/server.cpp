#include "serve/server.h"

#include <exception>
#include <utility>

#include "common/error.h"
#include "common/json.h"
#include "common/log.h"
#include "common/strings.h"
#include "runtime/metrics.h"

namespace mivtx::serve {

namespace {

std::string http_response(int code, const char* reason,
                          const std::string& body) {
  return format("HTTP/1.1 %d %s\r\n"
                "Content-Type: application/json\r\n"
                "Content-Length: %zu\r\n"
                "Connection: close\r\n\r\n",
                code, reason, body.size()) +
         body;
}

}  // namespace

bool Server::Connection::send_line(const std::string& line) {
  // One write per response: a separate "\n" write would sit behind the
  // client's delayed ACK whenever Nagle holds the second segment.
  const std::string framed = line + '\n';
  std::lock_guard<std::mutex> lock(write_m);
  return sock.write_all(framed);
}

Server::Server(ServerOptions opts)
    : opts_(opts),
      service_(opts.service),
      listener_(opts.host, opts.port) {
  if (opts_.workers == 0) opts_.workers = 1;
  if (opts_.queue_capacity == 0) opts_.queue_capacity = 1;
}

Server::~Server() {
  begin_shutdown();
  wait();
}

void Server::start() {
  std::lock_guard<std::mutex> lock(m_);
  if (started_) return;
  started_ = true;
  for (std::size_t i = 0; i < opts_.workers; ++i)
    workers_.emplace_back(&Server::worker_loop, this);
  accept_thread_ = std::thread(&Server::accept_loop, this);
  MIVTX_INFO << "serve: listening on " << opts_.host << ":" << port()
             << " (" << opts_.workers << " workers, queue "
             << opts_.queue_capacity << ")";
}

void Server::begin_shutdown() {
  {
    std::lock_guard<std::mutex> lock(m_);
    if (draining_) return;
    draining_ = true;
  }
  MIVTX_INFO << "serve: draining (queued work will complete)";
  listener_.close();  // wakes the accept thread
  work_cv_.notify_all();
  drain_cv_.notify_all();
}

void Server::wait() {
  {
    std::lock_guard<std::mutex> lock(m_);
    if (!started_ || joined_) return;
    joined_ = true;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::unique_lock<std::mutex> lock(m_);
    drain_cv_.wait(lock, [&] {
      return draining_ && queue_.empty() && active_ == 0;
    });
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  {
    // Unblock every reader thread; their sockets half-close so any final
    // write already flushed still reaches the client.
    std::lock_guard<std::mutex> lock(m_);
    for (const std::shared_ptr<Connection>& c : conns_)
      c->sock.shutdown_read();
  }
  for (std::thread& t : reader_threads_) t.join();
  MIVTX_INFO << "serve: drained; final metrics\n"
             << runtime::Metrics::global().render_text();
}

bool Server::draining() const {
  std::lock_guard<std::mutex> lock(m_);
  return draining_;
}

std::size_t Server::queue_depth() const {
  std::lock_guard<std::mutex> lock(m_);
  return queue_.size();
}

void Server::accept_loop() {
  while (true) {
    Socket sock = listener_.accept();
    if (!sock.valid()) return;  // listener closed: drain started
    auto conn = std::make_shared<Connection>(std::move(sock));
    std::lock_guard<std::mutex> lock(m_);
    conns_.insert(conn);
    reader_threads_.emplace_back(&Server::reader_loop, this, conn);
  }
}

void Server::reader_loop(std::shared_ptr<Connection> conn) {
  LineReader reader(conn->sock.fd(), kMaxRequestBytes);
  while (std::optional<std::string> line = reader.read_line()) {
    if (line->empty()) continue;
    if (!handle_line(conn, *line)) break;
  }
  if (reader.too_long()) {
    // Answer, half-close, and drop a bounded amount of what the peer is
    // still sending, so the answer arrives before the connection closes.
    runtime::Metrics::global().add("serve.rejected.request_too_large");
    Response resp;
    resp.status = ResponseStatus::kRequestTooLarge;
    resp.error = format("request line longer than %zu bytes; closing",
                        kMaxRequestBytes);
    conn->send_line(resp.to_json_line());
    conn->sock.shutdown_write();
    reader.discard(kMaxRequestBytes);
  }
  std::lock_guard<std::mutex> lock(m_);
  conns_.erase(conn);
}

bool Server::handle_line(const std::shared_ptr<Connection>& conn,
                         const std::string& line) {
  if (line.rfind("GET ", 0) == 0) {
    handle_http(conn, line);
    return false;
  }

  Request req;
  try {
    req = Request::from_json_line(line);
  } catch (const std::exception& e) {
    runtime::Metrics::global().add("serve.protocol_errors");
    Response resp;
    resp.status = ResponseStatus::kError;
    resp.error = e.what();
    conn->send_line(resp.to_json_line());
    return true;
  }

  Response resp;
  resp.id = req.id;
  resp.kind = kind_name(req.kind);

  switch (req.kind) {
    case RequestKind::kHealth:
      resp.meta_json = health_json();
      conn->send_line(resp.to_json_line());
      return true;
    case RequestKind::kMetrics:
      resp.meta_json = runtime::Metrics::global().render_json();
      conn->send_line(resp.to_json_line());
      return true;
    case RequestKind::kShutdown:
      // Drain state must be set before the acknowledgment goes out: a
      // client that has read the stop response may immediately probe
      // draining() or send a request that must see the typed rejection.
      begin_shutdown();
      conn->send_line(resp.to_json_line());
      return true;
    default:
      break;
  }

  // Compute kind: admission control under the lock, response outside it.
  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(m_);
    if (draining_) {
      resp.status = ResponseStatus::kDraining;
      resp.error = "server is draining; retry against a fresh instance";
    } else if (queue_.size() >= opts_.queue_capacity) {
      resp.status = ResponseStatus::kQueueFull;
      resp.error = format("admission queue full (%zu); back off and retry",
                          opts_.queue_capacity);
    } else {
      queue_.push_back(Job{req, conn, runtime::wall_seconds()});
      admitted = true;
    }
  }
  if (!admitted) {
    runtime::Metrics::global().add(resp.status == ResponseStatus::kDraining
                                       ? "serve.rejected.draining"
                                       : "serve.rejected.queue_full");
    conn->send_line(resp.to_json_line());
    return true;
  }
  runtime::Metrics::global().add("serve.admitted");
  work_cv_.notify_one();
  return true;
}

void Server::worker_loop() {
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(m_);
      work_cv_.wait(lock, [&] { return !queue_.empty() || draining_; });
      if (queue_.empty()) return;  // draining and fully drained
      job = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    const double queue_s = runtime::wall_seconds() - job.enqueued_at;
    runtime::Metrics::global().record_latency("serve.queue_wait", queue_s);
    Response resp = service_.execute(job.req);
    resp.queue_s = queue_s;
    if (!job.conn->send_line(resp.to_json_line()))
      MIVTX_DEBUG << "serve: client gone before response for '" << job.req.id
                  << "'";
    {
      std::lock_guard<std::mutex> lock(m_);
      --active_;
    }
    drain_cv_.notify_all();
  }
}

std::string Server::health_json() const {
  const runtime::CacheStats cache = service_.cache().stats();
  Json obj = Json::object();
  {
    std::lock_guard<std::mutex> lock(m_);
    obj.set("status", Json::string(draining_ ? "draining" : "ok"));
    obj.set("queue_depth", Json::number(static_cast<double>(queue_.size())));
    obj.set("active", Json::number(static_cast<double>(active_)));
    obj.set("connections", Json::number(static_cast<double>(conns_.size())));
  }
  obj.set("workers", Json::number(static_cast<double>(opts_.workers)));
  obj.set("queue_capacity",
          Json::number(static_cast<double>(opts_.queue_capacity)));
  obj.set("inflight", Json::number(
                          static_cast<double>(service_.coalescer().inflight())));
  Json cj = Json::object();
  cj.set("hits", Json::number(static_cast<double>(cache.hits)));
  cj.set("misses", Json::number(static_cast<double>(cache.misses)));
  cj.set("stores", Json::number(static_cast<double>(cache.stores)));
  cj.set("disk_evictions",
         Json::number(static_cast<double>(cache.disk_evictions)));
  cj.set("disk_usage_bytes",
         Json::number(static_cast<double>(service_.cache().disk_usage_bytes())));
  obj.set("cache", std::move(cj));
  return obj.dump();
}

void Server::handle_http(const std::shared_ptr<Connection>& conn,
                         const std::string& request_line) {
  // "GET <path> HTTP/1.1" — enough for curl/wget probes; headers that
  // follow on the connection are irrelevant because we answer and close.
  const std::vector<std::string> parts = split(request_line, " ");
  const std::string path = parts.size() > 1 ? parts[1] : "/";
  std::string out;
  if (path == "/healthz") {
    out = http_response(200, "OK", health_json() + "\n");
  } else if (path == "/metrics") {
    out = http_response(200, "OK",
                        runtime::Metrics::global().render_json() + "\n");
  } else {
    out = http_response(404, "Not Found", "{\"error\":\"not found\"}\n");
  }
  std::lock_guard<std::mutex> lock(conn->write_m);
  conn->sock.write_all(out);
}

}  // namespace mivtx::serve
