// `bulk` mode: one query at a time through run_ehja on the socket runtime
// (the path of `ehja_run --runtime=socket`), every result checked against
// the serial oracle (computed by `oracle` mode before timing starts).
#include <algorithm>
#include <cstdio>
#include <fstream>

#include "core/driver.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

// The first socket queries of a process run up to 3.5x slower than the rest;
// this many are timed but not scored.
constexpr std::uint64_t kWarmup = 2;
// Scored queries even when --seconds runs out first.
constexpr std::uint64_t kMinQueries = 5;

}  // namespace

std::string run_record(const ehja::RunMetrics& m, double wall_s, bool ok,
                       bool traced) {
  std::uint64_t max_build = 0;
  std::uint64_t sum_build = 0;
  std::uint64_t spilled = 0;
  std::uint64_t fence_dropped = 0;
  for (const ehja::NodeMetrics& n : m.nodes) {
    max_build = std::max(max_build, n.build_tuples);
    sum_build += n.build_tuples;
    spilled += n.spilled_build_tuples + n.spilled_probe_tuples;
    fence_dropped += n.fence_dropped_tuples;
  }
  const double mean_build =
      m.nodes.empty() ? 0.0
                      : static_cast<double>(sum_build) /
                            static_cast<double>(m.nodes.size());
  return JsonObject()
      .num("wall_s", wall_s)
      .boolean("ok", ok)
      .boolean("traced", traced)
      .num("total_s", m.total_time())
      .num("build_s", m.build_time())
      .num("reshuffle_s", m.reshuffle_time())
      .num("probe_s", m.probe_time())
      .num("finish_s", m.finish_time())
      .num("split_s", m.split_time)
      .num("handoff_s", m.expand_time)
      .integer("expansions", m.expansions)
      .boolean("pool_exhausted", m.pool_exhausted)
      .integer("extra_chunks", m.extra_build_chunks)
      .integer("source_chunks", m.source_build_chunks + m.source_probe_chunks)
      .num("load_imbalance",
           mean_build > 0 ? static_cast<double>(max_build) / mean_build : 0.0)
      .integer("spilled_tuples", spilled)
      .integer("fence_dropped_tuples", fence_dropped)
      .integer("matches", m.join.matches)
      .str();
}

namespace {

/// Record a finished query's spans: `query` with `runtime.spawn` (process
/// start-up and teardown: wall time the timeline does not cover) followed by
/// the core phases laid end to end, so the children sum to the parent.
void record_query_spans(SpanLog& spans, std::uint64_t id, double t0,
                        double t1, const ehja::RunMetrics& m) {
  const int q = spans.add("query", t0, t1, -1, id);
  double t = t0;
  auto child = [&](const char* name, double secs) {
    const double end = std::min(t1, t + std::max(0.0, secs));
    spans.add(name, t, end, q, id);
    t = end;
  };
  child("runtime.spawn", (t1 - t0) - m.total_time());
  child("core.build", m.build_time());
  child("core.reshuffle", m.reshuffle_time());
  child("core.probe", m.probe_time());
  child("core.finish", m.finish_time());
}

}  // namespace

int run_bulk(const Options& opt) {
  const std::uint64_t seed = opt.u64("seed");
  const double seconds = opt.f64("seconds");
  const bool trace = opt.u64("trace") != 0;
  SpanLog spans(trace);

  const ehja::EhjaConfig config = make_config(opt, seed);
  const std::vector<OracleEntry> oracles = read_oracles(opt.str("oracles"));
  if (oracles.size() != 1 || oracles[0].seed != seed) {
    throw std::invalid_argument("oracle file does not match the seed");
  }
  const ehja::JoinResult oracle = oracles[0].result;

  auto run_one = [&](std::uint64_t id, bool traced, std::vector<std::string>& out,
                     std::uint64_t& mismatches) {
    const double t0 = now_s();
    const ehja::RunResult result = ehja::run_ehja(config, ehja::RuntimeKind::kSocket);
    const double t1 = now_s();
    const bool ok = result.join() == oracle;
    if (!ok) ++mismatches;
    if (traced) record_query_spans(spans, id, t0, t1, result.metrics);
    out.push_back(run_record(result.metrics, t1 - t0, ok, traced));
  };

  std::vector<std::string> warm;
  std::vector<std::string> queries;
  std::uint64_t mismatches = 0;
  std::uint64_t id = 1;
  for (std::uint64_t i = 0; i < kWarmup; ++i) run_one(id++, false, warm, mismatches);
  const double start = now_s();
  // In a traced run every other query records spans, so the traced and
  // untraced medians come from interleaved queries.
  for (std::uint64_t i = 0; now_s() - start < seconds || i < kMinQueries; ++i) {
    run_one(id++, trace && i % 2 == 1, queries, mismatches);
  }
  const double measured_s = now_s() - start;
  std::fprintf(stderr, "perfbench: %zu queries in %.2f s, %llu mismatches\n",
               queries.size(), measured_s,
               static_cast<unsigned long long>(mismatches));
  // Layer micro-calls run last, so their allocations cannot change the
  // heap the timed queries run on or the image forked workers start from.
  std::string layers = "{}";
  if (trace) layers = measure_layers(config, spans);

  std::ofstream(opt.str("out"))
      << JsonObject()
             .text("mode", "bulk")
             .raw("host", host_record().str())
             .integer("tuples_per_query", config.build_rel.tuple_count +
                                              config.probe_rel.tuple_count)
             .raw("warmup", json_array(warm))
             .raw("queries", json_array(queries))
             .num("measured_s", measured_s)
             .integer("worker_peak_rss_kib", children_peak_rss_kib())
             .raw("layers", layers)
             .str()
      << "\n";
  if (trace) spans.write_json(opt.str("spans"));
  return 0;
}

}  // namespace perfbench
