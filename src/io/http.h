#ifndef FIREHOSE_IO_HTTP_H_
#define FIREHOSE_IO_HTTP_H_

#include <atomic>
#include <functional>
#include <string>
#include <thread>

namespace firehose {

/// A parsed HTTP request, as much of it as the debug endpoints need:
/// method and path (query string split off into `query`). Headers and
/// bodies are read and discarded.
struct HttpRequest {
  std::string method;  // "GET", "HEAD", ...
  std::string path;    // "/statusz"
  std::string query;   // "window_s=5" for "/tracez?window_s=5"
};

/// What a handler returns. `status` 200/404/503/500; body is sent verbatim
/// with Content-Length and Connection: close.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Minimal blocking-socket HTTP/1.0 responder for debug endpoints,
/// built on the shared src/io/socket layer (SO_REUSEADDR, EINTR-safe
/// accept, whole-request read deadline).
///
/// One background thread accepts connections serially (poll() with a
/// short timeout so Stop() is prompt) and runs the handler inline; this
/// is introspection plumbing, not a web server — a slow scrape delays
/// the next scrape, never the runtime. Binds 127.0.0.1 only. Pass port
/// 0 to bind an ephemeral port and read the kernel's choice back via
/// port().
///
/// The handler runs on the server thread: it must only touch state that
/// is safe to read from there (see obs::DebugState for the snapshot
/// mailbox the runtime publishes into).
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer() = default;
  ~HttpServer() { Stop(); }
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral), starts the accept thread.
  /// Returns false when the socket cannot be bound; the server is then
  /// inert and Stop() is a no-op.
  [[nodiscard]] bool Start(int port, Handler handler);

  /// The bound port (after a successful Start), 0 otherwise.
  int port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Stops accepting, joins the thread, closes the socket. Idempotent.
  void Stop();

 private:
  void Serve();

  Handler handler_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  int port_ = 0;
};

/// Blocking GET against 127.0.0.1:`port` for tests and smoke checks.
/// Returns false on connect/read failure; otherwise fills `*status` and
/// `*body` from the response.
[[nodiscard]] bool HttpGet(int port, const std::string& path,
                           int* status, std::string* body);

}  // namespace firehose

#endif  // FIREHOSE_IO_HTTP_H_
