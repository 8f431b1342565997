// Blocking client for ehja_serve (the library behind tools/ehja_client.cpp
// and bench/bench_serve.cpp).
//
// One ServeClient wraps one TCP connection with a completed hello; a
// connection may carry many in-flight queries (client_seq correlates
// submits with their accept/reject, query_id names everything after).
// All calls are blocking with deadlines -- this is deliberately the
// simplest possible protocol driver, so the tests exercise the *server's*
// concurrency, not the client's.
//
// replay_workload() is the fan-out harness: N worker threads, each with
// its own connection, pushing a shared list of queries through the server
// as fast as admission allows (queue-full rejects are retried after the
// server's hint), measuring per-query latency and optionally checking
// every result against the serial oracle.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "net/framed_conn.hpp"
#include "serve/serve_wire.hpp"

namespace ehja::serve {

struct SubmitReply {
  bool accepted = false;
  std::uint64_t query_id = 0;
  std::uint32_t queue_position = 0;
  // Rejection details:
  RejectCode reason = RejectCode::kBadFrame;
  std::uint32_t retry_after_ms = 0;
  std::string message;
};

class ServeClient {
 public:
  ServeClient() = default;
  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// Dial 127.0.0.1:port and run the hello handshake.  False (with *error
  /// filled) on connect failure, protocol garbage, or an unknown tenant.
  bool connect(std::uint16_t port, const std::string& tenant,
               std::string* error = nullptr);
  void close();
  bool connected() const;

  /// Submit one query; blocks until the matching accept/reject arrives.
  /// nullopt on connection loss or deadline.
  std::optional<SubmitReply> submit(const EhjaConfig& config,
                                    double timeout_sec = 30.0);

  /// Submit, retrying transient queue-full rejections after the server's
  /// retry hint, up to `max_retries` times.
  std::optional<SubmitReply> submit_with_retry(const EhjaConfig& config,
                                               int max_retries = 200,
                                               double timeout_sec = 30.0);

  /// Block until the result of `query_id` arrives (results for other
  /// queries received meanwhile are buffered for their own waiters).
  std::optional<QueryResultPayload> wait_result(std::uint64_t query_id,
                                                double timeout_sec = 120.0);

  std::optional<QueryStatusPayload> status(std::uint64_t query_id,
                                           double timeout_sec = 30.0);
  /// Returns the server's status reply to the cancel (kCancelled if the
  /// queued query was dropped; its actual state otherwise).
  std::optional<QueryStatusPayload> cancel(std::uint64_t query_id,
                                           double timeout_sec = 30.0);

  /// The server announced it is draining (seen on any receive path).
  bool shutdown_noticed() const { return shutdown_noticed_; }
  bool server_draining() const { return hello_.draining; }

 private:
  bool send_frame(wire::FrameKind kind, const std::vector<std::uint8_t>& body);
  /// Pump the socket until deadline or `stop` says a frame we wanted
  /// arrived.  Returns false on connection loss / framing error / timeout.
  template <typename Stop>
  bool pump_until(double timeout_sec, Stop stop);
  void handle(const wire::Frame& f);

  std::unique_ptr<netio::Conn> conn_;
  ServerHelloPayload hello_;
  std::uint64_t next_seq_ = 1;
  std::map<std::uint64_t, SubmitReply> submit_replies_;    // by client_seq
  std::map<std::uint64_t, QueryResultPayload> results_;    // by query_id
  std::map<std::uint64_t, QueryStatusPayload> statuses_;   // latest, by id
  bool shutdown_noticed_ = false;
};

/// One query of a replay workload.
struct WorkloadQuery {
  std::string tenant;
  EhjaConfig config;
};

struct ReplayStats {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  /// Terminal rejections (never-admittable, draining, ...); transient
  /// queue-full rejections are retried, not counted here.
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t retries = 0;          // queue-full bounces absorbed
  std::uint64_t verify_failures = 0;  // oracle mismatches (verify mode)
  std::uint64_t errors = 0;           // connection losses / timeouts
  double wall_sec = 0.0;
  std::vector<double> latency_ms;     // per completed query, submit->result
  /// The server's split of each completed query's time, from its
  /// QueryResultPayload: accepted -> admitted, and admitted -> complete.
  std::vector<double> queue_ms;
  std::vector<double> run_ms;

  double qps() const {
    return wall_sec > 0 ? static_cast<double>(completed) / wall_sec : 0.0;
  }
  /// q in [0,1]; nearest-rank percentile of `ms`.
  static double percentile_ms(const std::vector<double>& ms, double q);
  double latency_percentile_ms(double q) const {
    return percentile_ms(latency_ms, q);
  }
};

/// Drive `queries` through the server at `concurrency` connections (one
/// thread each; query i goes to thread i % concurrency).  With `verify`,
/// every result is compared against reference_join(config) -- mismatches
/// count in verify_failures.
ReplayStats replay_workload(std::uint16_t port,
                            const std::vector<WorkloadQuery>& queries,
                            int concurrency, bool verify,
                            int max_retries = 200);

}  // namespace ehja::serve
