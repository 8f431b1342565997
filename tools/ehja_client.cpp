// ehja_client -- workload replayer for ehja_serve.
//
//   ehja_client --port=N [options]
//     --port=N            server port (required)
//     --workload=FILE     workload file (see format below); without it a
//                         synthetic workload is generated from:
//     --queries=N           number of synthetic queries     (default 64)
//     --tenant=NAME         tenant for synthetic queries    (default alpha)
//     --build=N --probe=N   synthetic relation sizes        (default 20000)
//     --concurrency=N     client connections / threads      (default 8)
//     --verify            compare every result to the serial oracle
//     --retries=N         max queue-full retries per query  (default 200)
//
// Workload file: one query per line, '#' comments.  Fields are
// space-separated key=value pairs; unknown keys are an error.
//
//   tenant=alpha build=20000 probe=20000 joins=1 sources=1 mem-kib=256
//       seed=7 algorithm=hybrid pool=2 chunk=1000       (one line per query)
//
// Exit status: 0 when every accepted query completed (and verified, with
// --verify); 1 otherwise.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/client.hpp"
#include "util/units.hpp"

namespace {

using namespace ehja;

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr,
               "ehja_client: %s (see the header of tools/ehja_client.cpp)\n",
               message.c_str());
  std::exit(2);
}

bool match_flag(const char* arg, const char* name, std::string* value) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0) return false;
  if (arg[n] == '\0') {
    *value = "";
    return true;
  }
  if (arg[n] == '=') {
    *value = arg + n + 1;
    return true;
  }
  return false;
}

/// A small-join config template: every knob a serve client may reasonably
/// set, defaulted for a sub-second query.
EhjaConfig small_query_config() {
  EhjaConfig config;
  config.data_sources = 1;
  config.initial_join_nodes = 1;
  config.join_pool_nodes = 2;
  config.node_hash_memory_bytes = 256 * kKiB;
  config.build_rel.tuple_count = 20'000;
  config.probe_rel.tuple_count = 20'000;
  config.chunk_tuples = 1'000;
  config.generation_slice_tuples = 1'000;
  return config;
}

serve::WorkloadQuery parse_workload_line(const std::string& line, int lineno) {
  serve::WorkloadQuery q;
  q.tenant = "alpha";
  q.config = small_query_config();
  std::istringstream in(line);
  std::string field;
  while (in >> field) {
    const auto eq = field.find('=');
    if (eq == std::string::npos) {
      usage_error("workload line " + std::to_string(lineno) +
                  ": field '" + field + "' is not key=value");
    }
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "tenant") {
      q.tenant = value;
    } else if (key == "build") {
      q.config.build_rel.tuple_count = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "probe") {
      q.config.probe_rel.tuple_count = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "joins") {
      q.config.initial_join_nodes =
          static_cast<std::uint32_t>(std::atoi(value.c_str()));
    } else if (key == "sources") {
      q.config.data_sources =
          static_cast<std::uint32_t>(std::atoi(value.c_str()));
    } else if (key == "pool") {
      q.config.join_pool_nodes =
          static_cast<std::uint32_t>(std::atoi(value.c_str()));
    } else if (key == "mem-kib") {
      q.config.node_hash_memory_bytes =
          std::strtoull(value.c_str(), nullptr, 10) * kKiB;
    } else if (key == "seed") {
      q.config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "chunk") {
      q.config.chunk_tuples =
          static_cast<std::uint32_t>(std::atoi(value.c_str()));
      q.config.generation_slice_tuples = q.config.chunk_tuples;
    } else if (key == "algorithm") {
      if (value == "split") q.config.algorithm = Algorithm::kSplit;
      else if (value == "replicated") q.config.algorithm = Algorithm::kReplicate;
      else if (value == "hybrid") q.config.algorithm = Algorithm::kHybrid;
      else if (value == "ooc") q.config.algorithm = Algorithm::kOutOfCore;
      else if (value == "adaptive") q.config.algorithm = Algorithm::kAdaptive;
      else usage_error("workload line " + std::to_string(lineno) +
                       ": unknown algorithm " + value);
    } else {
      usage_error("workload line " + std::to_string(lineno) +
                  ": unknown key " + key);
    }
  }
  if (q.config.join_pool_nodes < q.config.initial_join_nodes) {
    q.config.join_pool_nodes = q.config.initial_join_nodes;
  }
  return q;
}

std::vector<serve::WorkloadQuery> load_workload(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage_error("cannot open workload file " + path);
  std::vector<serve::WorkloadQuery> queries;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    bool blank = true;
    for (const char c : line) {
      if (!std::isspace(static_cast<unsigned char>(c))) blank = false;
    }
    if (blank) continue;
    queries.push_back(parse_workload_line(line, lineno));
  }
  return queries;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint16_t port = 0;
  std::string workload_path;
  std::string tenant = "alpha";
  int queries_n = 64;
  int concurrency = 8;
  int retries = 200;
  bool verify = false;
  std::uint64_t build = 20'000;
  std::uint64_t probe = 20'000;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (match_flag(argv[i], "--port", &value)) {
      port = static_cast<std::uint16_t>(std::atoi(value.c_str()));
    } else if (match_flag(argv[i], "--workload", &value)) {
      workload_path = value;
    } else if (match_flag(argv[i], "--queries", &value)) {
      queries_n = std::atoi(value.c_str());
    } else if (match_flag(argv[i], "--tenant", &value)) {
      tenant = value;
    } else if (match_flag(argv[i], "--build", &value)) {
      build = std::strtoull(value.c_str(), nullptr, 10);
    } else if (match_flag(argv[i], "--probe", &value)) {
      probe = std::strtoull(value.c_str(), nullptr, 10);
    } else if (match_flag(argv[i], "--concurrency", &value)) {
      concurrency = std::atoi(value.c_str());
      if (concurrency < 1) usage_error("--concurrency must be >= 1");
    } else if (match_flag(argv[i], "--retries", &value)) {
      retries = std::atoi(value.c_str());
    } else if (match_flag(argv[i], "--verify", &value)) {
      verify = true;
    } else {
      usage_error(std::string("unknown option ") + argv[i]);
    }
  }
  if (port == 0) usage_error("--port is required");

  std::vector<serve::WorkloadQuery> queries;
  if (!workload_path.empty()) {
    queries = load_workload(workload_path);
  } else {
    for (int i = 0; i < queries_n; ++i) {
      serve::WorkloadQuery q;
      q.tenant = tenant;
      q.config = small_query_config();
      q.config.build_rel.tuple_count = build;
      q.config.probe_rel.tuple_count = probe;
      q.config.seed = 1000 + static_cast<std::uint64_t>(i);
      queries.push_back(std::move(q));
    }
  }
  if (queries.empty()) usage_error("workload is empty");

  const serve::ReplayStats stats =
      serve::replay_workload(port, queries, concurrency, verify, retries);

  std::printf("queries: %llu submitted | %llu accepted | %llu rejected | "
              "%llu completed | %llu errors\n",
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.errors));
  std::printf("latency: p50 %.1f ms | p99 %.1f ms | throughput %.1f q/s "
              "over %.2f s\n",
              stats.latency_percentile_ms(0.50),
              stats.latency_percentile_ms(0.99), stats.qps(), stats.wall_sec);
  std::printf("server: queue p50 %.1f ms | p99 %.1f ms | run p50 %.1f ms | "
              "p99 %.1f ms\n",
              serve::ReplayStats::percentile_ms(stats.queue_ms, 0.50),
              serve::ReplayStats::percentile_ms(stats.queue_ms, 0.99),
              serve::ReplayStats::percentile_ms(stats.run_ms, 0.50),
              serve::ReplayStats::percentile_ms(stats.run_ms, 0.99));
  if (verify) {
    std::printf("verify: %llu mismatches\n",
                static_cast<unsigned long long>(stats.verify_failures));
  }

  const bool ok = stats.errors == 0 && stats.verify_failures == 0 &&
                  stats.completed == stats.accepted;
  return ok ? 0 : 1;
}
