// `serve` mode: one warm serve::JoinService (4 fleet workers, tenants
// alpha and beta at equal priority), driven by an open-loop schedule of due
// times (read from --schedule, one offset in seconds per line) over at most
// 4 ServeClient connections and never more than the CPUs this process may
// use, one client thread each.  A query is submitted when it is due whether
// or not earlier ones have finished; its latency runs from the due time to
// the verified result, so a stall in the generator or the server is charged
// to every query it delays.  run.py puts the warm-up (a burst, then a
// stretch at the scored rate) at the head of the schedule and drops its
// queries from the metrics.  The service does not return RunMetrics to
// clients, so this mode records no core.* figures.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <thread>

#include "perfbench.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/units.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kFleetWorkers = 4;
constexpr std::size_t kMaxConnections = 4;
const char* const kTenants[] = {"alpha", "beta"};
constexpr std::size_t kMaxQueue = 256;
// A query that has no result this long after its due time has timed out.
constexpr double kTimeoutS = 30.0;

struct Outcome {
  double due = 0.0;  // absolute, now_s() clock
  double sent = NAN;
  double accepted = NAN;
  double done = NAN;
  double queue_s = NAN;
  double run_s = NAN;
  std::uint64_t retries = 0;
  std::string status = "pending";  // ok|mismatch|rejected|timeout|error
  bool traced = false;

  std::string json() const {
    return JsonObject()
        .num("due", due)
        .num("sent", sent)
        .num("accepted", accepted)
        .num("done", done)
        .num("queue_s", queue_s)
        .num("run_s", run_s)
        .integer("retries", retries)
        .text("status", status)
        .boolean("traced", traced)
        .str();
  }
};

struct Query {
  ehja::EhjaConfig config;
  ehja::JoinResult oracle;
};

/// A running service plus the thread that runs its event loop.
class Fleet {
 public:
  Fleet() {
    ehja::serve::ServeOptions opts;
    opts.fleet_workers = kFleetWorkers;
    opts.max_queue = kMaxQueue;
    for (const char* name : kTenants) {
      ehja::serve::TenantSpec t;
      t.name = name;
      t.priority = 1;
      t.max_slots = 16;
      t.max_memory_bytes = 512 * ehja::kMiB;
      opts.tenants.push_back(std::move(t));
    }
    service_ = std::make_unique<ehja::serve::JoinService>(std::move(opts));
    service_->set_shutdown_flag(&stop_);
    thread_ = std::thread([this] { service_->run(); });
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() {
    stop_.store(true);
    thread_.join();
  }

  std::uint16_t port() const { return service_->port(); }

 private:
  std::atomic<bool> stop_{false};
  std::unique_ptr<ehja::serve::JoinService> service_;
  std::thread thread_;
};

/// Open-loop driver for one connection: submits its queries (indices into
/// `queries`, in due order) on time and timestamps each result as it lands.
class ConnectionDriver {
 public:
  ConnectionDriver(std::uint16_t port, std::string tenant,
                   const std::vector<Query>& queries,
                   std::vector<Outcome>& outcomes,
                   std::vector<std::size_t> mine, SpanLog& spans)
      : port_(port),
        tenant_(std::move(tenant)),
        queries_(queries),
        outcomes_(outcomes),
        mine_(std::move(mine)),
        spans_(spans) {}

  void run() {
    connect();
    std::size_t next = 0;
    while (next < mine_.size() || !pending_.empty()) {
      const double now = now_s();
      if (next < mine_.size() && outcomes_[mine_[next]].due <= now) {
        submit(mine_[next++]);
        sweep();
        continue;
      }
      expire(now);
      const double until_due =
          next < mine_.size() ? outcomes_[mine_[next]].due - now : 0.05;
      if (pending_.empty()) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(std::clamp(until_due, 0.0, 0.05)));
        continue;
      }
      const auto first = pending_.begin();
      if (auto r = client_.wait_result(first->first,
                                       std::clamp(until_due, 0.0, 0.002))) {
        finish(first->second, *r);
        pending_.erase(first);
      }
      if (!client_.connected()) {
        fail_pending("error");
        connect();
      }
      sweep();
    }
  }

 private:
  void connect() {
    client_.close();
    if (!client_.connect(port_, tenant_)) {
      std::fprintf(stderr, "perfbench: connect as %s failed\n", tenant_.c_str());
    }
  }

  void submit(std::size_t idx) {
    Outcome& o = outcomes_[idx];
    o.sent = now_s();
    while (true) {
      const auto reply = client_.submit(queries_[idx].config, kTimeoutS);
      if (!reply.has_value()) {
        o.status = "error";
        if (!client_.connected()) connect();
        return;
      }
      if (reply->accepted) {
        o.accepted = now_s();
        pending_.emplace(reply->query_id, idx);
        return;
      }
      // Queue-full bounces are retried after the server's hint until the
      // query's deadline; anything else is a terminal rejection.
      if (reply->reason != ehja::serve::RejectCode::kQueueFull ||
          now_s() - o.due > kTimeoutS) {
        o.status = "rejected";
        return;
      }
      ++o.retries;
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::clamp<std::uint32_t>(reply->retry_after_ms, 1, 50)));
    }
  }

  void finish(std::size_t idx, const ehja::serve::QueryResultPayload& r) {
    Outcome& o = outcomes_[idx];
    const ehja::JoinResult got{r.matches, r.checksum};
    o.done = now_s();
    o.queue_s = r.queue_sec;
    o.run_s = r.run_sec;
    o.status = got == queries_[idx].oracle ? "ok" : "mismatch";
    if (!o.traced) return;
    // query = [due, done]; its children are the client's submit round trip
    // and the server's own queue and run intervals.  The rest of the query
    // span (generator lateness, result delivery, the oracle compare) is its
    // self time.
    const int q = spans_.add("query", o.due, o.done, -1, idx + 1);
    const double queued = std::min(o.done, o.accepted + o.queue_s);
    spans_.add("serve.submit", o.sent, o.accepted, q, idx + 1);
    spans_.add("serve.queue", o.accepted, queued, q, idx + 1);
    spans_.add("serve.run", queued, std::min(o.done, queued + o.run_s), q,
               idx + 1);
  }

  /// Collect results that arrived while waiting for another query.
  void sweep() {
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (auto r = client_.wait_result(it->first, 0.0)) {
        finish(it->second, *r);
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void expire(double now) {
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (now - outcomes_[it->second].due > kTimeoutS) {
        outcomes_[it->second].status = "timeout";
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void fail_pending(const char* status) {
    for (const auto& [id, idx] : pending_) outcomes_[idx].status = status;
    pending_.clear();
  }

  std::uint16_t port_;
  std::string tenant_;
  const std::vector<Query>& queries_;
  std::vector<Outcome>& outcomes_;
  std::vector<std::size_t> mine_;
  SpanLog& spans_;
  ehja::serve::ServeClient client_;
  std::map<std::uint64_t, std::size_t> pending_;  // query_id -> index
};

std::vector<double> read_schedule(const std::string& path) {
  std::vector<double> due;
  std::ifstream in(path);
  double t = 0.0;
  while (in >> t) due.push_back(t);
  if (due.empty()) throw std::invalid_argument("empty schedule " + path);
  return due;
}

/// The client side's sizing rule: one connection per usable CPU, at most
/// kMaxConnections.
std::size_t connection_count() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int usable =
      ::sched_getaffinity(0, sizeof(cpus), &cpus) == 0 ? CPU_COUNT(&cpus) : 1;
  return std::clamp<std::size_t>(static_cast<std::size_t>(usable), 1,
                                 kMaxConnections);
}

}  // namespace

int run_serve(const Options& opt) {
  const bool trace = opt.u64("trace") != 0;
  const std::size_t connections = connection_count();
  const std::size_t n_tenants = std::size(kTenants);
  const std::vector<double> schedule = read_schedule(opt.str("schedule"));
  SpanLog spans(trace);

  // Every query's oracle was computed before this process started, one per
  // schedule entry.
  const std::vector<OracleEntry> oracles = read_oracles(opt.str("oracles"));
  if (oracles.size() != schedule.size()) {
    throw std::invalid_argument("oracle file does not match the schedule");
  }
  std::vector<Query> queries(schedule.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    queries[i].config = make_config(opt, oracles[i].seed);
    queries[i].oracle = oracles[i].result;
  }

  // Set-up: fleet up and every connection's hello done.
  const double setup_start = now_s();
  auto fleet = std::make_unique<Fleet>();
  for (std::size_t c = 0; c < connections; ++c) {
    ehja::serve::ServeClient probe;
    if (!probe.connect(fleet->port(), kTenants[c % n_tenants])) {
      std::fprintf(stderr, "perfbench: fleet did not come up\n");
      return 1;
    }
  }
  const double setup_s = now_s() - setup_start;

  // The open loop.  Query i goes to connection i % connections; in a traced
  // run every other query records spans.
  std::vector<Outcome> outcomes(schedule.size());
  const double start = now_s() + 0.05;
  std::vector<std::vector<std::size_t>> per_conn(connections);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    outcomes[i].due = start + schedule[i];
    outcomes[i].traced = trace && i % 2 == 1;
    per_conn[i % connections].push_back(i);
  }
  std::vector<std::unique_ptr<ConnectionDriver>> drivers;
  for (std::size_t c = 0; c < connections; ++c) {
    drivers.push_back(std::make_unique<ConnectionDriver>(
        fleet->port(), kTenants[c % n_tenants], queries, outcomes,
        per_conn[c], spans));
  }
  std::vector<std::thread> threads;
  for (auto& d : drivers) threads.emplace_back([&d] { d->run(); });
  for (std::thread& t : threads) t.join();
  const double end = now_s();
  fleet.reset();  // drain and reap the fleet so its RSS is counted

  std::vector<std::string> records;
  for (const Outcome& o : outcomes) records.push_back(o.json());
  std::ofstream(opt.str("out"))
      << JsonObject()
             .text("mode", "serve")
             .raw("host", host_record().str())
             .num("setup_s", setup_s)
             .num("timeout_s", kTimeoutS)
             .integer("connections", connections)
             .num("start", start)
             .num("end", end)
             .raw("queries", json_array(records))
             .integer("worker_peak_rss_kib", children_peak_rss_kib())
             .str()
      << "\n";
  if (trace) spans.write_json(opt.str("spans"));
  return 0;
}

}  // namespace perfbench
