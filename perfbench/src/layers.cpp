// Layer micro-measurements for the traced run: the public entry points of
// the workload, hash and net layers, called directly on one node's share of
// the workload's relations, cut into chunk-sized batches as the join
// processes see them.  Each call is a root span of its own.
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <thread>

#include "hash/local_hash_table.hpp"
#include "hash/partition_map.hpp"
#include "net/framed_conn.hpp"
#include "net/wire.hpp"
#include "perfbench.hpp"
#include "workload/generator.hpp"

namespace perfbench {
namespace {

constexpr int kReps = 3;
// Bytes pushed through the loopback connection per repetition.
constexpr std::uint64_t kLoopbackBytes = 32ull << 20;

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

std::uint64_t minor_faults() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_minflt);
}

std::vector<ehja::TupleBatch> to_batches(const std::vector<ehja::Tuple>& rows,
                                         std::size_t chunk) {
  std::vector<ehja::TupleBatch> batches;
  for (std::size_t i = 0; i < rows.size(); i += chunk) {
    ehja::TupleBatch b;
    const std::size_t end = std::min(rows.size(), i + chunk);
    b.reserve(end - i);
    for (std::size_t j = i; j < end; ++j) b.push_back(rows[j]);
    batches.push_back(std::move(b));
  }
  return batches;
}

std::uint64_t total_rows(const std::vector<ehja::TupleBatch>& batches) {
  std::uint64_t n = 0;
  for (const auto& b : batches) n += b.size();
  return n;
}

/// Frames of `bodies` over one loopback netio connection; returns the
/// seconds from the first send until the receiver has parsed the last frame.
double loopback_seconds(const std::vector<std::vector<std::uint8_t>>& bodies,
                        std::uint64_t rounds) {
  std::uint16_t port = 0;
  const int listen_fd = ehja::netio::make_listener(port);
  const int client_fd = ehja::netio::connect_loopback(port);
  pollfd lp{listen_fd, POLLIN, 0};
  ::poll(&lp, 1, 5000);
  const int server_fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
  ::close(listen_fd);
  if (server_fd < 0) return 0.0;
  auto tx = ehja::netio::adopt_fd(client_fd);
  auto rx = ehja::netio::adopt_fd(server_fd);

  const std::uint64_t frames = bodies.size() * rounds;
  double t_end = 0.0;
  std::thread receiver([&] {
    ehja::wire::Frame f;
    std::uint64_t got = 0;
    while (got < frames && rx->usable() && !rx->eof) {
      pollfd p{rx->fd, POLLIN, 0};
      ::poll(&p, 1, 1000);
      ehja::netio::read_available(*rx);
      while (got < frames && ehja::netio::next_frame(*rx, f)) ++got;
    }
    t_end = now_s();
  });
  const double t0 = now_s();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    for (const auto& body : bodies) {
      ehja::netio::queue_frame(*tx, ehja::wire::FrameKind::kActorMsg, body);
      while (tx->wants_write()) {
        ehja::netio::flush_out(*tx);
        if (!tx->wants_write()) break;
        pollfd p{tx->fd, POLLOUT, 0};
        ::poll(&p, 1, 1000);
      }
    }
  }
  receiver.join();
  return t_end - t0;
}

}  // namespace

std::string measure_layers(const ehja::EhjaConfig& config, SpanLog& spans) {
  const std::uint32_t share_nodes = config.join_pool_nodes;
  const std::uint64_t n_r = config.build_rel.tuple_count;
  const std::uint64_t n_s = config.probe_rel.tuple_count;
  JsonObject out;

  // --- workload: TupleStream::next over every source slice of R and S ---
  std::vector<double> gen;
  std::uint64_t key_sink = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    gen.push_back(spans.time("workload.gen", 0, [&] {
      for (const ehja::RelationSpec* spec :
           {&config.build_rel, &config.probe_rel}) {
        for (std::uint32_t s = 0; s < config.data_sources; ++s) {
          ehja::TupleStream stream(*spec, config.seed, s,
                                   config.data_sources);
          ehja::Tuple t;
          while (stream.next(t)) key_sink ^= t.key;
        }
      }
    }));
  }
  out.num("workload.gen_ns_per_tuple",
          median_of(gen) * 1e9 / static_cast<double>(n_r + n_s));

  // --- hash: route every tuple, then one node's share ---
  const ehja::Relation r_rel =
      ehja::materialize(config.build_rel, config.seed, config.data_sources);
  const ehja::Relation s_rel =
      ehja::materialize(config.probe_rel, config.seed, config.data_sources);
  std::vector<ehja::ActorId> owners;
  for (std::uint32_t i = 0; i < share_nodes; ++i) {
    owners.push_back(static_cast<ehja::ActorId>(i));
  }
  const ehja::PartitionMap map = ehja::PartitionMap::initial(owners);
  std::vector<std::uint64_t> r_per_owner(share_nodes, 0);
  std::vector<double> route;
  for (int rep = 0; rep < kReps; ++rep) {
    std::fill(r_per_owner.begin(), r_per_owner.end(), 0);
    std::uint64_t s_routed = 0;
    route.push_back(spans.time("hash.route", 0, [&] {
      for (const ehja::Tuple& t : r_rel.tuples()) {
        ++r_per_owner[static_cast<std::size_t>(
            map.entry_for(ehja::position_of(t.key)).active_owner())];
      }
      for (const ehja::Tuple& t : s_rel.tuples()) {
        s_routed += static_cast<std::uint64_t>(
            map.entry_for(ehja::position_of(t.key)).active_owner());
      }
    }));
    key_sink ^= s_routed;
  }
  out.num("hash.route_ns_per_tuple",
          median_of(route) * 1e9 / static_cast<double>(n_r + n_s));

  // The busiest node's share: under range skew that is the hot range.
  const std::size_t node = static_cast<std::size_t>(
      std::max_element(r_per_owner.begin(), r_per_owner.end()) -
      r_per_owner.begin());
  const ehja::PosRange range = map.entries()[node].range;
  std::vector<ehja::Tuple> r_share;
  std::vector<ehja::Tuple> s_share;
  for (const ehja::Tuple& t : r_rel.tuples()) {
    if (range.contains(ehja::position_of(t.key))) r_share.push_back(t);
  }
  for (const ehja::Tuple& t : s_rel.tuples()) {
    if (range.contains(ehja::position_of(t.key))) s_share.push_back(t);
  }
  const auto build_batches = to_batches(r_share, config.chunk_tuples);
  const auto probe_batches = to_batches(s_share, config.chunk_tuples);
  const double n_build = static_cast<double>(std::max<std::size_t>(1, r_share.size()));
  const double n_probe = static_cast<double>(std::max<std::size_t>(1, s_share.size()));

  std::vector<double> build_cold;
  std::vector<double> faults;
  std::vector<double> build_warm;
  std::vector<double> probe;
  std::uint64_t matches = 0;
  double bytes_per_tuple = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    ehja::LocalHashTable table(config.build_rel.schema, range);
    const std::uint64_t f0 = minor_faults();
    build_cold.push_back(spans.time("hash.build", 0, [&] {
      for (const auto& b : build_batches) table.insert_batch(b);
    }));
    faults.push_back(static_cast<double>(minor_faults() - f0));
    bytes_per_tuple = static_cast<double>(table.footprint_bytes()) /
                      static_cast<double>(std::max<std::uint64_t>(1, table.tuple_count()));
    table.clear();
    build_warm.push_back(spans.time("hash.build_warm", 0, [&] {
      for (const auto& b : build_batches) table.insert_batch(b);
    }));
    matches = 0;
    probe.push_back(spans.time("hash.probe", 0, [&] {
      for (const auto& b : probe_batches) matches += table.probe_batch(b).matches;
    }));
  }
  out.num("hash.build_ns_per_tuple", median_of(build_cold) * 1e9 / n_build)
      .num("hash.build_warm_ns_per_tuple", median_of(build_warm) * 1e9 / n_build)
      .num("hash.build_minflt_per_ktuple", median_of(faults) * 1e3 / n_build)
      .num("hash.probe_ns_per_tuple", median_of(probe) * 1e9 / n_probe)
      .num("hash.matches_per_probe", static_cast<double>(matches) / n_probe)
      .num("hash.bytes_per_tuple", bytes_per_tuple);

  // --- net: the ChunkPayload codec and framed loopback transfer ---
  std::vector<std::vector<std::uint8_t>> bodies(build_batches.size());
  std::vector<double> encode;
  std::vector<double> decode;
  std::uint64_t wire_bytes = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    encode.push_back(spans.time("net.encode", 0, [&] {
      for (std::size_t i = 0; i < build_batches.size(); ++i) {
        ehja::ChunkPayload payload;
        payload.chunk.rel = ehja::RelTag::kR;
        payload.chunk.batch = build_batches[i];
        ehja::wire::Writer w;
        ehja::wire::encode(w, payload);
        bodies[i] = w.take();
      }
    }));
    wire_bytes = 0;
    for (const auto& body : bodies) wire_bytes += body.size();
    std::uint64_t decoded = 0;
    decode.push_back(spans.time("net.decode", 0, [&] {
      for (const auto& body : bodies) {
        ehja::wire::Reader r(body);
        ehja::ChunkPayload payload;
        if (ehja::wire::decode(r, payload)) decoded += payload.chunk.size();
      }
    }));
    if (decoded != total_rows(build_batches)) {
      throw std::runtime_error("ChunkPayload decode lost tuples");
    }
  }
  std::vector<double> loopback_mb_s;
  const std::uint64_t rounds =
      std::max<std::uint64_t>(1, kLoopbackBytes / std::max<std::uint64_t>(1, wire_bytes));
  for (int rep = 0; rep < kReps && wire_bytes > 0; ++rep) {
    const double t0 = now_s();
    const double secs = loopback_seconds(bodies, rounds);
    spans.add("net.loopback", t0, t0 + secs, -1, 0);
    loopback_mb_s.push_back(static_cast<double>(wire_bytes * rounds) / 1e6 /
                            std::max(secs, 1e-9));
  }
  out.num("net.encode_ns_per_tuple", median_of(encode) * 1e9 / n_build)
      .num("net.decode_ns_per_tuple", median_of(decode) * 1e9 / n_build)
      .num("net.bytes_per_tuple", static_cast<double>(wire_bytes) / n_build)
      .num("net.loopback_mb_per_s", median_of(loopback_mb_s))
      .integer("sink", key_sink & 1);
  return out.str();
}

}  // namespace perfbench
