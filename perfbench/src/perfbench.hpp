// Shared pieces of the benchmark binary (perfbench/src).
//
// The binary is one executable with three modes -- `oracle` (the serial
// reference result of each query), `bulk` (back-to-back run_ehja calls on
// the socket runtime) and `serve` (an open-loop schedule against one warm
// serve::JoinService).  It measures and records raw
// samples only: every query's timestamps, its RunMetrics digest and its
// oracle verdict go to a JSON file (--out), and the spans of a traced run to
// another (--spans).  perfbench/run.py turns the samples into metrics.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/metrics.hpp"
#include "join/serial_join.hpp"

namespace perfbench {

/// `--key=value` arguments after the mode word.
class Options {
 public:
  Options(int argc, char** argv, int first);

  bool has(const std::string& key) const { return values_.count(key) != 0; }
  std::string str(const std::string& key) const;
  std::uint64_t u64(const std::string& key) const;
  double f64(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Seconds on the steady clock since the first call in this process.
double now_s();

/// One query's expected result, computed by `oracle` mode in its own
/// process so the measuring process stays small when it forks workers.
struct OracleEntry {
  std::uint64_t seed = 0;
  ehja::JoinResult result;
};

/// Read `seed matches checksum` lines written by `oracle` mode.  That mode
/// reads config seeds (one per line) from --seeds and writes
/// `seed matches checksum seconds` lines to --out (and, given --spans, one
/// `join.oracle` span per query).
std::vector<OracleEntry> read_oracles(const std::string& path);

/// One query's join configuration, read from the workload keys shared by
/// both modes (algorithm, tuples, tuple_bytes, dist, sources, initial, pool,
/// memory_kib, chunk).
ehja::EhjaConfig make_config(const Options& opt, std::uint64_t seed);

/// A span: one timed call at a layer boundary.  `parent` indexes the span
/// that caused it (-1 for a root); spans of one query share `query`.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  std::uint64_t query = 0;
};

/// In-memory span store, written out once when the run ends.  add() is
/// thread-safe (the serve client threads record concurrently).
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Returns the new span's index (-1 when disabled).
  int add(std::string name, double start, double end, int parent,
          std::uint64_t query);
  /// Record `fn()` as a root span; returns its duration in seconds.
  template <typename Fn>
  double time(const std::string& name, std::uint64_t query, Fn&& fn) {
    const double t0 = now_s();
    fn();
    const double t1 = now_s();
    add(name, t0, t1, -1, query);
    return t1 - t0;
  }
  void write_json(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Minimal JSON object builder for the raw-sample files.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value);
  JsonObject& integer(const std::string& key, std::uint64_t value);
  JsonObject& boolean(const std::string& key, bool value);
  JsonObject& text(const std::string& key, const std::string& value);
  /// `json` must already be valid JSON (an object or array).
  JsonObject& raw(const std::string& key, const std::string& json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

std::string json_array(const std::vector<std::string>& items);

/// Host facts only the binary knows (compiler, build type, child RSS).
JsonObject host_record();
/// Largest max-RSS of any reaped child process, in KiB.
std::uint64_t children_peak_rss_kib();

/// Per-layer micro-measurements on one node's share of `config`'s
/// relations, routed over the whole join pool (workload, hash and net
/// layers).  Returns a JSON object.
std::string measure_layers(const ehja::EhjaConfig& config, SpanLog& spans);

/// One run_ehja call's RunMetrics digest, wall time and oracle verdict.
std::string run_record(const ehja::RunMetrics& m, double wall_s, bool ok,
                       bool traced);

int run_oracle(const Options& opt);
int run_bulk(const Options& opt);
int run_serve(const Options& opt);

}  // namespace perfbench
