#ifndef RASED_DASHBOARD_HTTP_SERVER_H_
#define RASED_DASHBOARD_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics_registry.h"
#include "util/logging.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace rased {

/// A parsed HTTP request (method, path, decoded query parameters, headers).
struct HttpRequest {
  std::string method;
  std::string path;  // without the query string
  std::map<std::string, std::string> params;
  /// Request headers, names lower-cased, values whitespace-trimmed.
  std::map<std::string, std::string> headers;

  /// Parameter value or empty string.
  std::string Param(const std::string& key) const {
    auto it = params.find(key);
    return it == params.end() ? std::string() : it->second;
  }
  bool HasParam(const std::string& key) const {
    return params.find(key) != params.end();
  }
  /// Header value (by lower-case name) or empty string.
  std::string Header(const std::string& name) const {
    auto it = headers.find(name);
    return it == headers.end() ? std::string() : it->second;
  }
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// Extra response headers, emitted verbatim after Content-Type. The
  /// server itself appends X-Rased-Trace-Id to every response.
  std::vector<std::pair<std::string, std::string>> headers;
};

/// Minimal blocking HTTP/1.1 server for the RASED dashboard: an accept
/// loop on a background thread, one short-lived connection per request
/// (Connection: close). Localhost tooling, not an internet-facing server.
///
/// Threading contract: Route/Start/Stop are driver-thread operations
/// (Route before Start; Start/Stop never concurrently with themselves).
/// Everything the worker threads touch is either immutable after Start
/// (routes_, guarded against late registration by mu_), atomic
/// (running_, listen_fd_), or thread-local to the connection.
class HttpServer {
 public:
  using Handler = std::function<void(const HttpRequest&, HttpResponse*)>;

  HttpServer() = default;
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers a handler for an exact path. Must be called before Start.
  void Route(const std::string& path, Handler handler) RASED_EXCLUDES(mu_);

  /// Points the server at a metrics registry. Must be called before Start;
  /// Start then registers one rased_http_* series set per routed path plus
  /// an "(unmatched)" endpoint, so the full family is visible from boot and
  /// the per-request path is a pointer lookup with no registry lock.
  void set_metrics(MetricsRegistry* registry) {
    RASED_CHECK(!running_.load()) << "set_metrics() after Start()";
    metrics_ = registry;
  }

  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port) and starts
  /// `num_threads` accept workers; each handles one connection at a time,
  /// so handlers run concurrently and must synchronize shared state
  /// themselves (DashboardService takes no lock: Rased queries pin their
  /// own catalog snapshot, and ingest serializes inside Rased).
  Status Start(int port, int num_threads = 4);

  /// Stops the accept loop and joins the thread. Safe to call twice.
  void Stop();

  /// The bound port (valid after Start succeeds).
  int port() const { return port_; }
  bool running() const { return running_.load(); }

  /// Number of requests fully served since Start (exposed for tests and
  /// /api/stats; safe to read from any thread).
  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  /// Percent-decodes a URL component (exposed for tests).
  static std::string UrlDecode(std::string_view text);

  /// Parses "k1=v1&k2=v2" into decoded pairs (exposed for tests).
  static std::map<std::string, std::string> ParseQuery(std::string_view qs);

 private:
  /// Metric handles for one endpoint label value (a routed path or
  /// "(unmatched)"). Built in Start, immutable afterwards — worker threads
  /// read them lock-free; the handles themselves are atomic.
  struct EndpointMetrics {
    Counter* requests = nullptr;       // rased_http_requests_total
    Histogram* latency = nullptr;      // rased_http_request_micros
    Counter* status_2xx = nullptr;     // rased_http_responses_total{class=}
    Counter* status_4xx = nullptr;
    Counter* status_5xx = nullptr;
  };

  void AcceptLoop();
  void HandleConnection(int fd) RASED_EXCLUDES(mu_);
  void InitMetricsLocked() RASED_REQUIRES(mu_);
  void RecordRequestMetrics(const std::string& endpoint, int status,
                            int64_t wall_micros);

  /// Guards route registration against lookup. Lookups happen on worker
  /// threads; registration is rejected once running_, so in practice the
  /// lock is uncontended after Start.
  mutable Mutex mu_;
  std::map<std::string, Handler> routes_ RASED_GUARDED_BY(mu_);

  /// Written by Start/Stop, read by every accept worker — atomic, because
  /// Stop closes the socket while workers sit in accept() on it.
  std::atomic<int> listen_fd_{-1};
  /// Written in Start before the workers are spawned (and threads_ again
  /// in Stop, after they are joined) — single-threaded lifecycle phases.
  int port_ RASED_CONST_AFTER_INIT = 0;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> requests_served_{0};
  std::vector<std::thread> threads_ RASED_CONST_AFTER_INIT;

  /// Observability (all null / empty when no registry was attached).
  /// endpoint_metrics_ is written once in Start before workers exist and
  /// read-only afterwards, so workers look endpoints up without mu_.
  MetricsRegistry* metrics_ RASED_CONST_AFTER_INIT = nullptr;
  std::map<std::string, EndpointMetrics> endpoint_metrics_
      RASED_CONST_AFTER_INIT;
  Counter* malformed_counter_ RASED_CONST_AFTER_INIT = nullptr;
};

}  // namespace rased

#endif  // RASED_DASHBOARD_HTTP_SERVER_H_
