// Wire-format tests (net/wire.hpp).
//
// Two properties carry the suite:
//   1. Round-trip fidelity -- for every message tag in the protocol
//      vocabulary (and for EhjaConfig and the frame layer), decode(encode(x))
//      re-encodes to the identical byte string.  Byte-level comparison of the
//      re-encoding is a deep structural equality that needs no operator== on
//      payload structs and additionally proves the encoding is canonical.
//   2. Decode totality -- truncated and bit-flipped input makes decoders
//      return false (or FrameStatus::kError); it never aborts, never reads
//      out of bounds (the CI asan job runs this file under ASan), and never
//      allocates unbounded memory from a corrupt length field.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/messages.hpp"
#include "net/framed_conn.hpp"
#include "net/wire.hpp"
#include "serve/serve_wire.hpp"
#include "util/units.hpp"

namespace ehja {
namespace {

using wire::Reader;
using wire::Writer;

// --- primitives ---

TEST(WirePrimitives, FixedWidthRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.f64(-1234.5e-6);
  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.f64(), -1234.5e-6);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WirePrimitives, VarintRoundTripEdges) {
  const std::uint64_t cases[] = {0,       1,          127,        128,
                                 16383,   16384,      (1ull << 32) - 1,
                                 1ull << 32, ~0ull - 1, ~0ull};
  for (const std::uint64_t v : cases) {
    Writer w;
    w.varint(v);
    Reader r(w.data());
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(WirePrimitives, ZigzagRoundTripEdges) {
  const std::int64_t cases[] = {0,  -1, 1,  -2, 63, -64, 1'000'000,
                                -1'000'000,
                                std::numeric_limits<std::int64_t>::max(),
                                std::numeric_limits<std::int64_t>::min()};
  for (const std::int64_t v : cases) {
    Writer w;
    w.zigzag(v);
    Reader r(w.data());
    EXPECT_EQ(r.zigzag(), v);
    EXPECT_TRUE(r.ok());
  }
}

TEST(WirePrimitives, OverlongVarintIsError) {
  // Eleven continuation bytes can encode nothing a u64 holds.
  std::vector<std::uint8_t> buf(11, 0x80);
  Reader r(buf.data(), buf.size());
  r.varint();
  EXPECT_FALSE(r.ok());
}

TEST(WirePrimitives, TruncationLatchesFailure) {
  Writer w;
  w.u64(42);
  Reader r(w.data().data(), 3);  // cut mid-integer
  r.u64();
  EXPECT_FALSE(r.ok());
  // Latched: further reads keep failing and return zero.
  EXPECT_EQ(r.u8(), 0);
  EXPECT_FALSE(r.ok());
}

TEST(WirePrimitives, CanHoldRejectsAbsurdCounts) {
  const std::uint8_t small[4] = {0, 0, 0, 0};
  Reader r(small, sizeof(small));
  EXPECT_TRUE(r.can_hold(2, 2));
  EXPECT_FALSE(r.can_hold(1u << 30, 8));  // would demand gigabytes
  EXPECT_FALSE(r.ok());
}

TEST(WireCrc32, KnownVector) {
  // The classic IEEE 802.3 check value.
  const char* s = "123456789";
  EXPECT_EQ(wire::crc32(reinterpret_cast<const std::uint8_t*>(s), 9),
            0xCBF43926u);
}

/// Byte-at-a-time reference CRC32 (reflected IEEE polynomial), kept here
/// so the production table-driven version is checked against an
/// independent implementation.
std::uint32_t reference_crc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(WireCrc32, MatchesReferenceAtEveryLengthAndAlignment) {
  std::mt19937_64 rng(0xC4C32);
  std::vector<std::uint8_t> buf(4096 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
  for (std::size_t len = 0; len <= 4096; ++len) {
    const std::size_t offset = len % 8;  // every start alignment
    ASSERT_EQ(wire::crc32(buf.data() + offset, len),
              reference_crc32(buf.data() + offset, len))
        << "len " << len;
  }
}

TEST(WirePrimitives, VarintColumnsRoundTripAcrossTheFastPathBoundary) {
  // Values of every encoded length, read back by varints() from buffers
  // cut at every length: the bounds-check-free path covers varints with
  // ten bytes left, the checked path the stream's tail.
  std::vector<std::uint64_t> values;
  for (unsigned bits = 0; bits <= 64; bits += 7) {
    values.push_back(bits == 64 ? ~0ull : (1ull << bits) - 1);
    values.push_back(bits >= 64 ? 1ull << 63 : 1ull << bits);
  }
  Writer w;
  w.varints(values.data(), values.size());
  Writer one_by_one;
  for (const std::uint64_t v : values) one_by_one.varint(v);
  ASSERT_EQ(w.data(), one_by_one.data());
  for (std::size_t len = 0; len <= w.size(); ++len) {
    Reader r(w.data().data(), len);
    std::vector<std::uint64_t> out(values.size());
    const bool ok = r.varints(out.data(), out.size());
    EXPECT_EQ(ok, len == w.size()) << "len " << len;
    if (ok) {
      EXPECT_EQ(out, values);
    }
  }
}

TEST(WirePrimitives, OverlongVarintIsErrorOnTheFastPath) {
  // A 10th byte carrying more than the final bit, followed by enough
  // bytes that the unchecked path decodes it, must still fail.
  std::vector<std::uint8_t> buf(9, 0xFF);
  buf.push_back(0x02);
  buf.resize(32, 0);
  Reader r(buf);
  std::uint64_t out[2];
  EXPECT_FALSE(r.varints(out, 2));
  EXPECT_FALSE(r.ok());
}

// --- message catalogue: one Message per protocol tag ---

PartitionMap sample_map() { return PartitionMap::initial({5, 7, 9}); }

BinnedHistogram sample_histogram() {
  BinnedHistogram h(64, 4096, 8);
  h.add(65, 3);
  h.add(1000, 7);
  h.add(4095, 11);
  return h;
}

Chunk sample_chunk(RelTag rel) {
  Chunk c;
  c.rel = rel;
  c.batch = TupleBatch::from_tuples({Tuple{1, 100}, Tuple{2, 200},
                                     Tuple{~0ull, ~0ull}});
  return c;
}

NodeMetrics sample_metrics() {
  NodeMetrics m;
  m.actor = 3;
  m.node = 7;
  m.build_tuples = 11;
  m.probe_tuples = 12;
  m.matches = 13;
  m.chunks_received = 14;
  m.chunks_forwarded = 15;
  m.max_overshoot_bytes = 16;
  m.spilled_build_tuples = 17;
  m.spilled_probe_tuples = 18;
  m.spilled_partitions = 19;
  m.fence_dropped_tuples = 20;
  return m;
}

/// Every message the protocol can put on the wire, with every payload field
/// set to a non-default value so a dropped/reordered field cannot hide.
std::vector<Message> message_catalogue() {
  std::vector<Message> all;
  auto add = [&all](Message m, ActorId from) {
    m.from = from;
    all.push_back(std::move(m));
  };

  add(make_message(Tag::kJoinInit,
                   JoinInitPayload{JoinRole::kReplica, PosRange{10, 500}, 3, 7, 2},
                   64),
      0);
  add(make_message(Tag::kStartBuild, StartBuildPayload{sample_map(), 4}, 128),
      0);
  add(make_signal(Tag::kGenSlice), 4);
  {
    ChunkPayload p{sample_chunk(RelTag::kS), true, 9};
    add(make_message(Tag::kDataChunk, p, 364), 4);
  }
  add(make_message(Tag::kForwardEnd, ForwardEndPayload{3}, 48), 5);
  add(make_message(Tag::kMemoryFull, MemoryFullPayload{123456789, 987654}, 48),
      5);
  add(make_message(Tag::kSplitRequest,
                   SplitRequestPayload{2, PosRange{100, 200}, 11}, 48),
      0);
  add(make_message(Tag::kHandoffStart, HandoffStartPayload{5, 13}, 48), 0);
  add(make_message(Tag::kOpComplete, OpCompletePayload{5, 999}, 48), 6);
  add(make_signal(Tag::kRelief), 0);
  add(make_signal(Tag::kSwitchToSpill), 0);
  add(make_message(Tag::kMapUpdate, MapUpdatePayload{4, sample_map()}, 120), 0);
  {
    SourceDonePayload p;
    p.rel = RelTag::kS;
    p.chunks_sent = 10;
    p.tuples_sent = 100000;
    p.chunks_to = {{3, 5}, {4, 6}};
    add(make_message(Tag::kSourceDone, p, 48), 1);
  }
  add(make_message(Tag::kSourceProgress, SourceProgressPayload{RelTag::kS, 77},
                   48),
      1);
  add(make_message(Tag::kDrainProbe, DrainProbePayload{2}, 48), 0);
  {
    DrainAckPayload p;
    p.epoch = 2;
    p.data_chunks_received = 10;
    p.data_chunks_forwarded = 3;
    p.received_from = {{1, 2}, {9, 1}};
    p.forwarded_to = {{2, 3}};
    add(make_message(Tag::kDrainAck, p, 48), 5);
  }
  add(make_signal(Tag::kBuildComplete), 0);
  add(make_message(Tag::kStartProbe, StartProbePayload{sample_map(), 4}, 128),
      0);
  add(make_message(Tag::kHistogramRequest, HistogramRequestPayload{1, 64, 2},
                   48),
      0);
  add(make_message(Tag::kHistogramReply,
                   HistogramReplyPayload{1, sample_histogram(), 2}, 96),
      5);
  {
    ReshuffleMovePayload p;
    p.plan = {PartitionMap::Entry{PosRange{0, 100}, {4}},
              PartitionMap::Entry{PosRange{100, 300}, {5, 6}}};
    p.round = 1;
    add(make_message(Tag::kReshuffleMove, p, 80), 0);
  }
  add(make_message(Tag::kReshuffleDone, ReshuffleDonePayload{3}, 48), 5);
  add(make_signal(Tag::kReportRequest), 0);
  add(make_message(Tag::kNodeReport,
                   NodeReportPayload{sample_metrics(), 0xfeedface, 21}, 96),
      5);
  {
    ResultChunkPayload p{sample_chunk(RelTag::kR), true, 4242};
    add(make_message(Tag::kResultChunk, p, 200), 5);
  }
  add(make_signal(Tag::kPing), 0);
  add(make_signal(Tag::kPong), 6);
  add(make_signal(Tag::kHeartbeatTick), 0);
  add(make_message(Tag::kRecoveryFence,
                   RecoveryFencePayload{3, {PosRange{0, 10}, PosRange{50, 60}}},
                   64),
      0);
  {
    RangeResetPayload p;
    p.epoch = 3;
    p.discard = {PosRange{1, 2}};
    p.zero_probe_results = true;
    p.new_range = PosRange{5, 10};
    p.retired = true;
    add(make_message(Tag::kRangeReset, p, 64), 0);
  }
  add(make_message(Tag::kRangeResetAck, RangeResetAckPayload{3}, 48), 5);
  {
    ReplayRequestPayload p;
    p.epoch = 3;
    p.rel = RelTag::kS;
    p.ranges = {PosRange{7, 9}};
    p.pause_after = true;
    add(make_message(Tag::kReplayRequest, p, 64), 0);
  }
  {
    ReplayDonePayload p;
    p.epoch = 3;
    p.rel = RelTag::kS;
    p.tuples_replayed = 55;
    p.chunks_to = {{2, 9}};
    p.chunks_sent_total = 100;
    add(make_message(Tag::kReplayDone, p, 48), 1);
  }
  {
    SchedulerSnapshotPayload p;
    p.generation = 12;
    p.phase = 4;
    p.probe_recovery = true;
    p.epoch = 3;
    p.map_version = 9;
    p.map = sample_map();
    p.joins = {5, 7, 9};
    p.sources = {1, 2};
    p.dead = {7};
    p.spilled = {9};
    p.pool_free = {11, 12};
    p.reshuffle_round = 2;
    p.drain_epoch = 6;
    p.source_chunks_to = {{1, {{5, 3}, {7, 1}}}, {2, {{9, 4}}}};
    p.metrics.t_start = 0.5;
    p.metrics.t_build_end = 1.5;
    p.metrics.split_time = 0.125;
    p.metrics.initial_join_nodes = 3;
    p.metrics.expansions = 2;
    p.metrics.final_join_nodes = 5;
    p.metrics.pool_exhausted = true;
    p.metrics.source_build_chunks = 40;
    p.metrics.extra_build_chunks = 7;
    p.metrics.failures_detected = 1;
    p.metrics.detection_latency_total = 0.75;
    p.metrics.detection_latency_max = 0.75;
    p.metrics.join_failures = 1;
    p.metrics.recoveries = 1;
    p.metrics.recovery_time_total = 0.25;
    p.metrics.replayed_build_tuples = 99;
    p.metrics.build_tuples_total = 12345;
    add(make_message(Tag::kSchedulerSnapshot, p, 256), 0);
  }
  add(make_message(Tag::kSchedulerHandoff, SchedulerHandoffPayload{2, 5}, 48),
      8);
  {
    SchedulerHandoffAckPayload p;
    p.generation = 2;
    p.done_mask = 0x5;  // R done + R stream started
    p.build_tuples = 1000;
    p.probe_tuples = 500;
    p.build_chunks = 10;
    p.probe_chunks = 5;
    p.chunks_to = {{5, 7}, {6, 8}};
    add(make_message(Tag::kSchedulerHandoffAck, p, 64), 1);
  }
  return all;
}

std::vector<std::uint8_t> encode_one(const Message& m) {
  Writer w;
  wire::encode_message(m, w);
  return w.take();
}

TEST(WireMessages, CatalogueCoversEveryTag) {
  // If a new Tag is added without a catalogue entry (and codec), this fails.
  std::vector<bool> seen(128, false);
  for (const Message& m : message_catalogue()) {
    EXPECT_TRUE(wire::known_tag(m.tag));
    seen[static_cast<std::size_t>(m.tag)] = true;
  }
  for (int tag = 0; tag < 128; ++tag) {
    EXPECT_EQ(wire::known_tag(tag), seen[static_cast<std::size_t>(tag)])
        << "tag " << tag << " known/catalogued mismatch";
  }
}

TEST(WireMessages, RoundTripEveryMessage) {
  for (const Message& original : message_catalogue()) {
    SCOPED_TRACE("tag " + std::to_string(original.tag));
    const std::vector<std::uint8_t> bytes = encode_one(original);
    Reader r(bytes);
    Message decoded;
    ASSERT_TRUE(wire::decode_message(r, decoded));
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_EQ(decoded.tag, original.tag);
    EXPECT_EQ(decoded.from, original.from);
    EXPECT_EQ(decoded.wire_bytes, original.wire_bytes);
    EXPECT_EQ(decoded.has_payload(), original.has_payload());
    // Canonical-encoding equality doubles as deep payload equality.
    EXPECT_EQ(encode_one(decoded), bytes);
  }
}

TEST(WireMessages, SpotCheckDecodedFields) {
  // The byte-equality property above can't catch a codec that symmetrically
  // swaps two same-typed fields; pin a few semantically.
  ChunkPayload chunk{sample_chunk(RelTag::kS), true, 9};
  Message m = make_message(Tag::kDataChunk, chunk, 364);
  m.from = 17;
  const auto bytes = encode_one(m);
  Reader r(bytes);
  Message out;
  ASSERT_TRUE(wire::decode_message(r, out));
  const auto& p = out.as<ChunkPayload>();
  EXPECT_EQ(p.chunk.rel, RelTag::kS);
  ASSERT_EQ(p.chunk.size(), 3u);
  EXPECT_EQ(p.chunk.batch.id(0), 1u);
  EXPECT_EQ(p.chunk.batch.key(0), 100u);
  EXPECT_TRUE(p.forwarded);
  EXPECT_EQ(p.epoch, 9u);

  JoinInitPayload init{JoinRole::kReplica, PosRange{10, 500}, 3, 7, 2};
  Message mi = make_message(Tag::kJoinInit, init, 64);
  mi.from = 0;
  const auto bytes_i = encode_one(mi);
  Reader ri(bytes_i);
  Message outi;
  ASSERT_TRUE(wire::decode_message(ri, outi));
  const auto& pi = outi.as<JoinInitPayload>();
  EXPECT_EQ(pi.role, JoinRole::kReplica);
  EXPECT_EQ(pi.range, (PosRange{10, 500}));
  EXPECT_EQ(pi.source_count, 3u);
  EXPECT_EQ(pi.op_id, 7u);
  EXPECT_EQ(pi.epoch, 2u);
}

// --- batch codec (v2 columnar chunk bodies) ---

Message chunk_message(Chunk chunk) {
  ChunkPayload p;
  p.chunk = std::move(chunk);
  p.forwarded = false;
  p.epoch = 3;
  Message m = make_message(Tag::kDataChunk, p, 2000);
  m.from = 4;
  return m;
}

TEST(WireBatchCodec, LargeBatchRoundTripsAndRecomputesPositions) {
  std::mt19937_64 rng(0xBA7C4);
  for (const std::size_t rows : {1u, 2u, 255u, 256u, 4096u}) {
    Chunk chunk;
    chunk.rel = RelTag::kR;
    chunk.batch.reserve(rows);
    std::uint64_t last = 0;
    for (std::size_t i = 0; i < rows; ++i) {
      // Duplicate runs exercise varint patterns the uniform draw misses.
      const std::uint64_t key = (i % 5 == 0) ? last : rng();
      last = key;
      chunk.batch.append(rng(), key);
    }
    const Message original = chunk_message(chunk);
    const auto bytes = encode_one(original);
    Reader r(bytes);
    Message out;
    ASSERT_TRUE(wire::decode_message(r, out)) << rows << " rows";
    const auto& decoded = out.as<ChunkPayload>().chunk;
    ASSERT_EQ(decoded.size(), rows);
    // Column equality plus the position column, which the codec does not
    // ship but recomputes from the keys on decode.
    EXPECT_EQ(decoded.batch, chunk.batch);
    for (std::size_t i = 0; i < rows; ++i) {
      EXPECT_EQ(decoded.batch.position(i), position_of(decoded.batch.key(i)));
    }
    // Canonical: re-encoding the decoded message reproduces the bytes.
    EXPECT_EQ(encode_one(out), bytes);
  }
}

TEST(WireBatchCodec, ExtremeColumnValuesSurvive) {
  Chunk chunk;
  chunk.rel = RelTag::kS;
  chunk.batch = TupleBatch::from_tuples(
      {Tuple{0, 0}, Tuple{~0ull, ~0ull}, Tuple{1ull << 63, 1ull << 63},
       Tuple{0x8080808080808080ull, 0x7f7f7f7f7f7f7f7full}});
  const auto bytes = encode_one(chunk_message(chunk));
  Reader r(bytes);
  Message out;
  ASSERT_TRUE(wire::decode_message(r, out));
  EXPECT_EQ(out.as<ChunkPayload>().chunk.batch, chunk.batch);
}

TEST(WireBatchCodec, TruncationAndCorruptionAreTotal) {
  std::mt19937_64 rng(0xC0DEC);
  Chunk chunk;
  chunk.rel = RelTag::kR;
  for (std::size_t i = 0; i < 512; ++i) chunk.batch.append(rng(), rng());
  const auto bytes = encode_one(chunk_message(chunk));

  // Every truncation point: decode returns false or leaves a consistent
  // partial object; it never aborts or reads past the buffer (ASan in CI).
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    Reader r(bytes.data(), len);
    Message out;
    (void)wire::decode_message(r, out);
  }
  // A corrupt count varint must not allocate absurd column buffers.
  for (std::uint64_t flips = 0; flips < 2000; ++flips) {
    auto bad = bytes;
    bad[rng() % bad.size()] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
    Reader r(bad);
    Message out;
    (void)wire::decode_message(r, out);
  }
}

// --- histogram codec ---

/// The histogram encoding spelled out one bin at a time: lo, hi, bin
/// count, then every bin weight, all varints.
std::vector<std::uint8_t> reference_histogram_bytes(const BinnedHistogram& h) {
  Writer w;
  w.varint(h.lo());
  w.varint(h.hi());
  w.varint(h.bin_count());
  for (std::size_t i = 0; i < h.bin_count(); ++i) w.varint(h.bin_weight(i));
  return w.take();
}

TEST(WireHistogramCodec, DenseHistogramMatchesPerBinReference) {
  // The reshuffle's geometry (524,288 bins) over a range that leaves a
  // remainder bin, every bin set, weights of every varint length up to
  // 2^40.
  constexpr std::size_t kBins = std::size_t{1} << 19;
  const std::uint64_t lo = 1000;
  const std::uint64_t hi = lo + 3 * kBins + 5;
  BinnedHistogram h(lo, hi, kBins);
  ASSERT_EQ(h.bin_count(), kBins);
  std::mt19937_64 rng(0x4157);
  for (std::size_t i = 0; i < kBins; ++i) {
    // Below 2^(40 - i % 41); two shifts, since one shift by 64 is undefined.
    std::uint64_t weight = (rng() >> 1) >> (23 + i % 41);
    if (i == 0) weight = 0;
    if (i + 1 == kBins) weight = std::uint64_t{1} << 40;
    if (weight > 0) h.add(h.bin_lo(i), weight);
  }
  Writer w;
  wire::encode(w, h);
  const std::vector<std::uint8_t> bytes = w.take();
  EXPECT_EQ(bytes, reference_histogram_bytes(h));

  Reader r(bytes);
  BinnedHistogram out;
  ASSERT_TRUE(wire::decode(r, out));
  EXPECT_EQ(r.remaining(), 0u);
  ASSERT_TRUE(out.same_geometry(h));
  EXPECT_EQ(out.weights(), h.weights());
  EXPECT_EQ(out.total(), h.total());
  EXPECT_EQ(out.bin_hi(kBins - 1), hi);
  EXPECT_EQ(out.bin_of(hi - 1), kBins - 1);
}

TEST(WireHistogramCodec, DecodeRejectsBadWeightsAndGeometry) {
  const auto decodes = [](const std::vector<std::uint8_t>& bytes) {
    Reader r(bytes);
    BinnedHistogram out;
    return wire::decode(r, out) && r.remaining() == 0;
  };
  BinnedHistogram h(0, 4000, 300);
  for (std::size_t i = 0; i < h.bin_count(); ++i) h.add(h.bin_lo(i), i * i);
  const std::vector<std::uint8_t> good = reference_histogram_bytes(h);
  ASSERT_TRUE(decodes(good));

  // A weight list cut anywhere, including where the fast path no longer
  // has a whole varint in bounds.
  for (std::size_t len = 0; len < good.size(); ++len) {
    Reader r(good.data(), len);
    BinnedHistogram out;
    EXPECT_FALSE(wire::decode(r, out)) << "len=" << len;
  }

  // An overlong varint among the weights: mid-list and as the last weight.
  const auto with_overlong_weight = [](std::size_t at, std::size_t bins) {
    Writer w;
    w.varint(0);
    w.varint(4000);
    w.varint(bins);
    for (std::size_t i = 0; i < bins; ++i) {
      if (i == at) {
        for (int b = 0; b < 9; ++b) w.u8(0xFF);
        w.u8(0x02);  // a tenth byte may only carry bit 63
      } else {
        w.varint(i);
      }
    }
    return w.take();
  };
  EXPECT_FALSE(decodes(with_overlong_weight(3, 300)));
  EXPECT_FALSE(decodes(with_overlong_weight(299, 300)));

  // More bins than positions: no constructor produces it.
  Writer w;
  w.varint(10);
  w.varint(14);
  w.varint(5);
  for (int i = 0; i < 5; ++i) w.varint(1);
  EXPECT_FALSE(decodes(w.take()));
}

TEST(WireMessages, PartitionMapInvariantsEnforcedOnDecode) {
  // A map whose entries do not cover the position space must be a decode
  // error, not an abort inside PartitionMap::from_entries.
  StartBuildPayload p{sample_map()};
  Message m = make_message(Tag::kStartBuild, p, 128);
  m.from = 0;
  auto bytes = encode_one(m);
  // Corrupt every byte position in turn; decode must never crash and the
  // result must be false or a byte-identical re-encode (reserved bits).
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (std::uint8_t bit : {0x01, 0x80}) {
      auto bad = bytes;
      bad[i] ^= bit;
      Reader r(bad);
      Message out;
      (void)wire::decode_message(r, out);  // must simply not blow up
    }
  }
}

TEST(WireMessages, PartitionMapInvariantViolationsAreRejected) {
  // kStartBuild bodies carrying hand-written maps over 100 positions; only
  // the first covers them contiguously with an owner per entry, in the
  // fewest bytes an entry can take.  A single byte flip rarely reaches
  // these shapes, so each is spelled out.
  struct RawEntry {
    std::uint64_t lo;
    std::uint64_t hi;
    std::vector<ActorId> owners;
  };
  const auto decodes = [](const std::vector<RawEntry>& entries) {
    Writer w;
    w.zigzag(static_cast<int>(Tag::kStartBuild));
    w.zigzag(0);
    w.varint(128);
    w.varint(100);  // positions
    w.varint(entries.size());
    for (const RawEntry& e : entries) {
      w.varint(e.lo);
      w.varint(e.hi);
      w.varint(e.owners.size());
      for (const ActorId owner : e.owners) w.zigzag(owner);
    }
    w.varint(4);  // epoch
    Reader r(w.data());
    Message out;
    return wire::decode_message(r, out) && r.remaining() == 0;
  };
  EXPECT_TRUE(decodes({{0, 40, {5}}, {40, 70, {7}}, {70, 100, {9}}}));
  EXPECT_FALSE(decodes({}));
  EXPECT_FALSE(decodes({{1, 40, {5}}, {40, 100, {7}}}));   // starts past 0
  EXPECT_FALSE(decodes({{0, 40, {5}}, {40, 99, {7}}}));    // stops short
  EXPECT_FALSE(decodes({{0, 40, {5}}, {41, 100, {7}}}));   // gap
  EXPECT_FALSE(decodes({{0, 40, {}}, {40, 100, {7}}}));    // no owner
  EXPECT_FALSE(decodes({{0, 0, {5}}, {0, 100, {7}}}));     // empty range
}

TEST(WireMessages, UnknownTagRejected) {
  Writer w;
  w.zigzag(9999);  // no such tag
  w.zigzag(0);
  w.varint(48);
  Reader r(w.data());
  Message out;
  EXPECT_FALSE(wire::decode_message(r, out));
}

// --- config codec ---

EhjaConfig sample_config() {
  EhjaConfig c;
  c.algorithm = Algorithm::kAdaptive;
  c.initial_join_nodes = 3;
  c.join_pool_nodes = 9;
  c.data_sources = 2;
  c.build_rel.tuple_count = 12345;
  c.build_rel.schema = Schema{64};
  c.build_rel.dist = DistributionSpec::Zipf(1.1, 5000);
  c.probe_rel.tuple_count = 54321;
  c.probe_rel.schema = Schema{64};
  c.probe_rel.dist = DistributionSpec::SmallDomain(2048);
  c.seed = 0xabcdef;
  c.chunk_tuples = 500;
  c.generation_slice_tuples = 250;
  c.node_hash_memory_bytes = 4 * kMiB;
  c.reshuffle_bins = 32;
  c.split_variant = SplitVariant::kLinearPointer;
  c.link.fault_jitter_sec = 0.25;
  c.link.fault_drop_prob = 0.125;
  c.faults.kills.push_back(KillSpec{});
  c.faults.kills.back().pool_index = 1;
  c.faults.kills.back().after_chunks = 10;
  c.faults.kills.push_back(KillSpec{});
  c.faults.kills.back().role = KillRole::kSource;
  c.faults.kills.back().pool_index = 0;
  c.faults.kills.back().after_chunks = 3;
  c.ft.force_enabled = true;
  c.ft.heartbeat_interval_sec = 0.025;
  c.ft.heartbeat_timeout_sec = 0.1;
  c.ft.detector = DetectorKind::kPhiAccrual;
  c.ft.phi_threshold = 6.0;
  c.ft.standby_scheduler = true;
  // v6 pipeline fields: a materialized build side (rows ride in the config
  // frame) plus output capture.
  c.capture_output = true;
  c.pipeline_stage = 2;
  auto data = std::make_shared<MaterializedRelation>();
  data->source_checksum = 0x1122334455667788ull;
  data->rows.reserve(c.build_rel.tuple_count);
  for (std::uint64_t i = 0; i < c.build_rel.tuple_count; ++i) {
    data->rows.push_back(Tuple{i * 3 + 1, ~i});
  }
  c.build_rel.data = std::move(data);
  return c;
}

TEST(WireConfig, RoundTripReencodesIdentically) {
  const EhjaConfig original = sample_config();
  Writer w;
  wire::encode_config(original, w);
  const auto bytes = w.take();

  Reader r(bytes);
  EhjaConfig decoded;
  ASSERT_TRUE(wire::decode_config(r, decoded));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(decoded.trace, nullptr);  // trace sink never crosses processes

  Writer w2;
  wire::encode_config(decoded, w2);
  EXPECT_EQ(w2.data(), bytes);

  // Spot-check fields the run actually branches on.
  EXPECT_EQ(decoded.algorithm, Algorithm::kAdaptive);
  EXPECT_EQ(decoded.seed, 0xabcdefu);
  EXPECT_EQ(decoded.build_rel.tuple_count, 12345u);
  ASSERT_EQ(decoded.faults.kills.size(), 2u);
  EXPECT_EQ(decoded.faults.kills[0].role, KillRole::kJoin);
  EXPECT_EQ(decoded.faults.kills[0].after_chunks, 10u);
  EXPECT_EQ(decoded.faults.kills[1].role, KillRole::kSource);
  EXPECT_EQ(decoded.faults.kills[1].after_chunks, 3u);
  EXPECT_EQ(decoded.ft.heartbeat_timeout_sec, 0.1);
  EXPECT_EQ(decoded.ft.detector, DetectorKind::kPhiAccrual);
  EXPECT_EQ(decoded.ft.phi_threshold, 6.0);
  EXPECT_TRUE(decoded.ft.standby_scheduler);
  EXPECT_TRUE(decoded.recovery_enabled());
  EXPECT_TRUE(decoded.capture_output);
  EXPECT_EQ(decoded.pipeline_stage, 2u);
  ASSERT_TRUE(decoded.build_rel.data != nullptr);
  EXPECT_EQ(decoded.build_rel.data->source_checksum, 0x1122334455667788ull);
  EXPECT_EQ(decoded.build_rel.data->rows, original.build_rel.data->rows);
  EXPECT_EQ(decoded.probe_rel.data, nullptr);
}

// Every prefix of an encoded config decodes to false or a partial config,
// never UB.  Decoding a prefix takes time linear in its length, so the
// prefixes are dealt round-robin over kTruncationShards cases (shard j takes
// the lengths congruent to j) that run in parallel and together cover all.
constexpr std::size_t kTruncationShards = 8;

class WireConfigTruncation : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WireConfigTruncation, NeverCrashes) {
  Writer w;
  wire::encode_config(sample_config(), w);
  const auto bytes = w.take();
  for (std::size_t len = GetParam(); len < bytes.size();
       len += kTruncationShards) {
    Reader r(bytes.data(), len);
    EhjaConfig out;
    (void)wire::decode_config(r, out);  // false or partial -- never UB
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, WireConfigTruncation,
                         ::testing::Range<std::size_t>(0, kTruncationShards));

// --- byte and verdict pins ---
//
// The sizes, CRCs and decode-verdict digests below were recorded from the
// wire v7 codec.  Any change to the bytes a payload encodes to, or to what a
// decoder accepts, moves one of them; a codec refactor must leave them all
// in place.

std::uint32_t crc_of(const std::vector<std::uint8_t>& bytes) {
  return wire::crc32(bytes.data(), bytes.size());
}

std::vector<std::uint8_t> encode_config_bytes(const EhjaConfig& config) {
  Writer w;
  wire::encode_config(config, w);
  return w.take();
}

/// sample_config() without its 12,345 materialized rows, small enough to
/// mutate at every byte.
EhjaConfig sample_config_without_rows() {
  EhjaConfig c = sample_config();
  c.build_rel.data.reset();
  return c;
}

struct BytePin {
  int key;  // message tag, or catalogue index
  std::size_t size;
  std::uint32_t crc;
};

TEST(WireMessages, CatalogueBytesArePinned) {
  const BytePin pins[] = {
      {1, 10, 0xf4ee5828u}, {2, 31, 0x4b96a60eu}, {3, 3, 0x15cc1f04u},
      {10, 33, 0xf81ad9afu}, {11, 4, 0x1fee35c0u}, {20, 10, 0x9b40b49cu},
      {21, 8, 0xb519d686u}, {22, 5, 0x666dddb7u}, {23, 6, 0x302fe226u},
      {24, 3, 0xfdf30c2eu}, {25, 3, 0xfe77d840u}, {26, 30, 0x942f5e5du},
      {30, 13, 0xc10548bcu}, {35, 5, 0x8e857b83u}, {31, 4, 0x00f80751u},
      {32, 14, 0x0efe2188u}, {33, 3, 0xaa86b010u}, {34, 31, 0x448e9eccu},
      {40, 6, 0x52d215ebu}, {41, 17, 0x0af53f19u}, {42, 15, 0x3dde5860u},
      {43, 4, 0x84fa6dfdu}, {50, 3, 0x96468a42u}, {51, 24, 0x93babfd2u},
      {52, 34, 0xd6b2b387u}, {60, 3, 0x837ad056u}, {61, 3, 0x2c4b4b34u},
      {62, 3, 0x8473788au}, {63, 9, 0xa9bff57eu}, {64, 13, 0xba66ea9cu},
      {65, 5, 0xfe609115u}, {66, 10, 0xffd60116u}, {67, 11, 0x7d3722eau},
      {70, 164, 0xde16a222u}, {71, 6, 0x9e36d9b9u}, {72, 17, 0xa7c4d62eu},
  };
  const std::vector<Message> catalogue = message_catalogue();
  ASSERT_EQ(catalogue.size(), std::size(pins));
  for (std::size_t i = 0; i < catalogue.size(); ++i) {
    const std::vector<std::uint8_t> bytes = encode_one(catalogue[i]);
    EXPECT_EQ(catalogue[i].tag, pins[i].key) << "entry " << i;
    EXPECT_EQ(bytes.size(), pins[i].size) << "tag " << catalogue[i].tag;
    EXPECT_EQ(crc_of(bytes), pins[i].crc)
        << "tag " << catalogue[i].tag << ": {" << catalogue[i].tag << ", "
        << bytes.size() << ", 0x" << std::hex << crc_of(bytes) << "u}";
  }
  const std::vector<std::uint8_t> config = encode_config_bytes(sample_config());
  EXPECT_EQ(config.size(), 155292u);
  EXPECT_EQ(crc_of(config), 0x2ed7f126u) << std::hex << crc_of(config);
}

/// Decodes every one-byte variant of `bytes` and folds the verdicts (the
/// decoder accepted the whole input, or not) into one CRC, plus the count
/// of accepted inputs.  At each byte index the variants are:
///   * the byte replaced by each of the 256 values (0x00, 0x01, 0x7F, 0x80
///     and 0xFF among them), which crosses every enum maximum, strict bool,
///     minimum and ordering check a single byte can reach;
///   * the byte widened: its continuation bit set and 0x80 0x80 0x80 0x10
///     inserted after it, which adds at least 2^32 to a varint ending there
///     and so crosses every uint32 and int32 range check.
template <class Decode>
std::pair<std::size_t, std::uint32_t> verdict_digest(
    const std::vector<std::uint8_t>& bytes, Decode decode) {
  std::vector<std::uint8_t> verdicts;
  const auto judge = [&](const std::vector<std::uint8_t>& input) {
    Reader r(input);
    verdicts.push_back(decode(r) && r.remaining() == 0 ? 1 : 0);
  };
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<std::uint8_t> mutated = bytes;
    for (int value = 0; value < 256; ++value) {
      mutated[i] = static_cast<std::uint8_t>(value);
      judge(mutated);
    }
    std::vector<std::uint8_t> widened = bytes;
    widened[i] |= 0x80;
    const std::uint8_t tail[] = {0x80, 0x80, 0x80, 0x10};
    widened.insert(widened.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                   std::begin(tail), std::end(tail));
    judge(widened);
  }
  return {static_cast<std::size_t>(
              std::count(verdicts.begin(), verdicts.end(), 1)),
          crc_of(verdicts)};
}

struct VerdictPin {
  int tag;
  std::size_t accepted;
  std::uint32_t digest;
};

TEST(WireMessages, DecodeVerdictsArePinned) {
  const VerdictPin pins[] = {
      {1, 1033, 0xd3025dd0u}, {2, 924, 0xa87acc26u}, {3, 265, 0x98b73bc3u},
      {10, 3473, 0x82cc572eu}, {11, 389, 0x7c58333au}, {20, 1158, 0x65b9f770u},
      {21, 902, 0x5b48f0ccu}, {22, 520, 0xdb3e4f86u}, {23, 646, 0x357ac283u},
      {24, 265, 0x98b73bc3u}, {25, 265, 0x98b73bc3u}, {26, 794, 0x88728dbbu},
      {30, 1161, 0x209cb383u}, {35, 392, 0xef019560u}, {31, 397, 0x1fe79c77u},
      {32, 1298, 0x65b0aefcu}, {33, 265, 0x98b73bc3u}, {34, 924, 0xa87acc26u},
      {40, 647, 0x5d8b49d2u}, {41, 1933, 0xb9f4c5ebu}, {42, 1417, 0xa431fcf6u},
      {43, 388, 0x0b5f03acu}, {50, 265, 0x98b73bc3u}, {51, 3981, 0x35f6d16eu},
      {52, 3601, 0x163e62adu}, {60, 265, 0x98b73bc3u}, {61, 265, 0x98b73bc3u},
      {62, 265, 0x98b73bc3u}, {63, 904, 0xfdfcc188u}, {64, 910, 0x57ce2b96u},
      {65, 391, 0x48fdaccfu}, {66, 651, 0xb3ccdd57u}, {67, 907, 0x365b2925u},
      {70, 26437, 0x5a90d4a6u}, {71, 518, 0x525a8812u}, {72, 1563, 0x0d080889u},
  };
  const auto decode = [](Reader& r) {
    Message out;
    return wire::decode_message(r, out);
  };
  const std::vector<Message> catalogue = message_catalogue();
  ASSERT_EQ(catalogue.size(), std::size(pins));
  for (std::size_t i = 0; i < catalogue.size(); ++i) {
    const auto [accepted, digest] =
        verdict_digest(encode_one(catalogue[i]), decode);
    EXPECT_EQ(catalogue[i].tag, pins[i].tag) << "entry " << i;
    EXPECT_EQ(accepted, pins[i].accepted) << "tag " << catalogue[i].tag;
    EXPECT_EQ(digest, pins[i].digest)
        << "tag " << catalogue[i].tag << ": {" << catalogue[i].tag << ", "
        << accepted << ", 0x" << std::hex << digest << "u}";
  }
  const auto [accepted, digest] = verdict_digest(
      encode_config_bytes(sample_config_without_rows()), [](Reader& r) {
        EhjaConfig out;
        return wire::decode_config(r, out);
      });
  EXPECT_EQ(accepted, 68635u);
  EXPECT_EQ(digest, 0x9d0d3f43u)
      << "config: " << accepted << ", 0x" << std::hex << digest;
}

// --- serve payloads (serve/serve_wire.hpp) ---
//
// These decoders face untrusted clients: every one gets a canonical round
// trip, pinned bytes, and a check that no prefix and no single-byte
// mutation decodes to anything but false or one whole payload.

using ReencodeFn = std::optional<std::vector<std::uint8_t>> (*)(
    const std::vector<std::uint8_t>&);

/// decode_payload() as P (true only when it consumed the whole input), then
/// encode again; nullopt when decoding fails.
template <class P>
std::optional<std::vector<std::uint8_t>> reencode_as(
    const std::vector<std::uint8_t>& bytes) {
  Reader r(bytes);
  P decoded;
  if (!serve::decode_payload(r, decoded)) return std::nullopt;
  Writer w;
  serve::encode(w, decoded);
  return w.take();
}

struct ServeSample {
  const char* name;
  std::vector<std::uint8_t> bytes;
  ReencodeFn reencode;
};

template <class P>
ServeSample serve_sample(const char* name, const P& payload) {
  Writer w;
  serve::encode(w, payload);
  return {name, w.take(), &reencode_as<P>};
}

/// One of each client-facing payload, every field set off its default and
/// the uint32 fields at their maximum.
std::vector<ServeSample> serve_catalogue() {
  std::vector<ServeSample> all;
  all.push_back(serve_sample("ClientHello", serve::ClientHelloPayload{"alpha"}));
  all.push_back(serve_sample(
      "ServerHello", serve::ServerHelloPayload{true, true, "draining soon"}));
  all.push_back(serve_sample(
      "SubmitQuery", serve::SubmitQueryPayload{77, sample_config_without_rows()}));
  all.push_back(serve_sample(
      "QueryAccepted", serve::QueryAcceptedPayload{77, 1234567, 0xFFFFFFFFu}));
  all.push_back(serve_sample(
      "QueryRejected",
      serve::QueryRejectedPayload{78, serve::RejectCode::kNoHello, 0xFFFFFFFFu,
                                  "queue full"}));
  all.push_back(serve_sample(
      "QueryResult",
      serve::QueryResultPayload{9, 123456, 0xfeedfacecafebeefull, 8000, 7000,
                                0xFFFFFFFFu, 0.125, 1.5}));
  all.push_back(
      serve_sample("QueryStatusReq", serve::QueryStatusReqPayload{9}));
  all.push_back(serve_sample(
      "QueryStatus",
      serve::QueryStatusPayload{9, serve::QueryState::kUnknown, 0xFFFFFFFFu}));
  all.push_back(serve_sample("CancelQuery", serve::CancelQueryPayload{10}));
  all.push_back(serve_sample("ShutdownNotice",
                             serve::ShutdownNoticePayload{"bye"}));
  return all;
}

TEST(WireServe, RoundTripEveryPayload) {
  for (const ServeSample& s : serve_catalogue()) {
    SCOPED_TRACE(s.name);
    const auto again = s.reencode(s.bytes);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, s.bytes);
  }
}

TEST(WireServe, PayloadBytesArePinned) {
  const BytePin pins[] = {
      {0, 6, 0xf7cdfe67u},  {1, 16, 0xd093c636u}, {2, 304, 0xe44a5b74u},
      {3, 9, 0x7aab214fu},  {4, 18, 0x3dd7eacdu}, {5, 37, 0xb1f80c3eu},
      {6, 1, 0xabde5729u},  {7, 7, 0x3a07cdc8u},  {8, 1, 0x32d70693u},
      {9, 4, 0xbb8738d4u},
  };
  const std::vector<ServeSample> catalogue = serve_catalogue();
  ASSERT_EQ(catalogue.size(), std::size(pins));
  for (std::size_t i = 0; i < catalogue.size(); ++i) {
    const std::vector<std::uint8_t>& bytes = catalogue[i].bytes;
    EXPECT_EQ(bytes.size(), pins[i].size) << catalogue[i].name;
    EXPECT_EQ(crc_of(bytes), pins[i].crc)
        << catalogue[i].name << ": {" << i << ", " << bytes.size() << ", 0x"
        << std::hex << crc_of(bytes) << "u}";
  }
}

TEST(WireServe, PrefixesAndMutationsDecodeWholeOrNotAtAll) {
  for (const ServeSample& s : serve_catalogue()) {
    SCOPED_TRACE(s.name);
    // Every field is required, so no strict prefix is a payload.
    for (std::size_t len = 0; len < s.bytes.size(); ++len) {
      const std::vector<std::uint8_t> prefix(
          s.bytes.begin(), s.bytes.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_FALSE(s.reencode(prefix).has_value()) << "prefix " << len;
    }
    // A mutation may still decode (a different id, a shorter string), but
    // only to a payload whose own encoding decodes back to itself.
    for (std::size_t i = 0; i < s.bytes.size(); ++i) {
      for (int value = 0; value < 256; ++value) {
        std::vector<std::uint8_t> mutated = s.bytes;
        mutated[i] = static_cast<std::uint8_t>(value);
        const auto again = s.reencode(mutated);
        if (!again.has_value()) continue;
        EXPECT_EQ(s.reencode(*again), again) << "byte " << i << " = " << value;
      }
    }
  }
}

TEST(WireServe, TextPastTheCapIsRejected) {
  const auto decodes = [](std::size_t length) {
    Writer w;
    w.varint(length);
    for (std::size_t i = 0; i < length; ++i) w.u8('a');
    Reader r(w.data());
    serve::ClientHelloPayload out;
    return serve::decode_payload(r, out);
  };
  EXPECT_TRUE(decodes(serve::kMaxText));
  EXPECT_FALSE(decodes(serve::kMaxText + 1));
}

// The four uint32 fields of the serve payloads: a varint past 2^32 - 1 is
// a decode error, not a value cut to its low 32 bits.

TEST(WireServe, AcceptedQueuePositionPast32BitsIsRejected) {
  const auto decodes = [](std::uint64_t position) {
    Writer w;
    w.varint(77);
    w.varint(1234567);
    w.varint(position);
    Reader r(w.data());
    serve::QueryAcceptedPayload out;
    return serve::decode_payload(r, out);
  };
  EXPECT_TRUE(decodes(0xFFFFFFFFull));
  EXPECT_FALSE(decodes(1ull << 32));
}

TEST(WireServe, StatusQueuePositionPast32BitsIsRejected) {
  const auto decodes = [](std::uint64_t position) {
    Writer w;
    w.varint(9);
    w.u8(static_cast<std::uint8_t>(serve::QueryState::kQueued));
    w.varint(position);
    Reader r(w.data());
    serve::QueryStatusPayload out;
    return serve::decode_payload(r, out);
  };
  EXPECT_TRUE(decodes(0xFFFFFFFFull));
  EXPECT_FALSE(decodes(1ull << 32));
}

TEST(WireServe, RejectedRetryAfterPast32BitsIsRejected) {
  const auto decodes = [](std::uint64_t retry_after_ms) {
    Writer w;
    w.varint(78);
    w.u8(static_cast<std::uint8_t>(serve::RejectCode::kQueueFull));
    w.varint(retry_after_ms);
    w.varint(0);  // empty message
    Reader r(w.data());
    serve::QueryRejectedPayload out;
    return serve::decode_payload(r, out);
  };
  EXPECT_TRUE(decodes(0xFFFFFFFFull));
  EXPECT_FALSE(decodes(1ull << 32));
}

TEST(WireServe, ResultExpansionsPast32BitsIsRejected) {
  const auto decodes = [](std::uint64_t expansions) {
    Writer w;
    w.varint(9);
    w.varint(123456);
    w.u64(0xfeedfacecafebeefull);
    w.varint(8000);
    w.varint(7000);
    w.varint(expansions);
    w.f64(0.125);
    w.f64(1.5);
    Reader r(w.data());
    serve::QueryResultPayload out;
    return serve::decode_payload(r, out);
  };
  EXPECT_TRUE(decodes(0xFFFFFFFFull));
  EXPECT_FALSE(decodes(1ull << 32));
}

// --- socket runtime control frame bodies ---

struct ControlSample {
  const char* name;
  std::vector<std::uint8_t> bytes;
  /// decode_body() of `bytes` as this body's type, encoded again.
  std::optional<std::vector<std::uint8_t>> (*reencode)(
      const std::vector<std::uint8_t>&);
};

template <class T>
std::optional<std::vector<std::uint8_t>> reencode_body(
    const std::vector<std::uint8_t>& bytes) {
  T decoded;
  if (!wire::decode_body(bytes, decoded)) return std::nullopt;
  return wire::encode_body(decoded);
}

template <class T>
ControlSample control_sample(const char* name, const T& body) {
  return {name, wire::encode_body(body), &reencode_body<T>};
}

std::vector<ControlSample> control_catalogue() {
  return {
      control_sample("Hello", wire::HelloBody{3, 40123, 1}),
      control_sample("Peers",
                     wire::PeersBody{{{1, 40001}, {2, 40002}, {4, 65535}}}),
      control_sample("Spawn", wire::SpawnBody{17, 1, 2, 0, 5}),
      control_sample("Announce", wire::AnnounceBody{17, 3}),
      control_sample("NodeDead", wire::NodeDeadBody{4}),
      control_sample("Retire", wire::RetireBody{17}),
      control_sample("QueryConfig",
                     wire::QueryConfigBody{7, sample_config_without_rows()}),
  };
}

TEST(WireControlFrames, BodiesRoundTripAndArePinned) {
  const BytePin pins[] = {
      {0, 5, 0x0caf5cadu}, {1, 13, 0xafe556c2u}, {2, 5, 0xb671ccfdu},
      {3, 2, 0x0f08f1eau}, {4, 1, 0xdcd967bfu},  {5, 1, 0x0762ae69u},
      {6, 304, 0xd5dfd566u},
  };
  const std::vector<ControlSample> catalogue = control_catalogue();
  ASSERT_EQ(catalogue.size(), std::size(pins));
  for (std::size_t i = 0; i < catalogue.size(); ++i) {
    const ControlSample& s = catalogue[i];
    EXPECT_EQ(s.reencode(s.bytes), s.bytes) << s.name;
    EXPECT_EQ(s.bytes.size(), pins[i].size) << s.name;
    EXPECT_EQ(crc_of(s.bytes), pins[i].crc)
        << s.name << ": {" << i << ", " << s.bytes.size() << ", 0x"
        << std::hex << crc_of(s.bytes) << "u}";
    for (std::size_t len = 0; len < s.bytes.size(); ++len) {
      const std::vector<std::uint8_t> prefix(
          s.bytes.begin(), s.bytes.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_FALSE(s.reencode(prefix).has_value()) << s.name << " " << len;
    }
  }
}

TEST(WireControlFrames, OutOfRangeIdsAndIndicesAreRejected) {
  const auto body = [](auto&& write) {
    Writer w;
    write(w);
    return w.take();
  };
  const std::int64_t past_int32 = std::int64_t{1} << 31;
  wire::HelloBody hello;
  EXPECT_FALSE(wire::decode_body(body([&](Writer& w) {
                                   w.zigzag(past_int32);
                                   w.varint(40000);
                                   w.varint(1);
                                 }),
                                 hello));
  EXPECT_FALSE(wire::decode_body(body([](Writer& w) {
                                   w.zigzag(3);
                                   w.varint(0x10000);  // past a TCP port
                                   w.varint(1);
                                 }),
                                 hello));
  wire::SpawnBody spawn;
  const auto spawn_body = [&](std::int64_t id, std::uint8_t kind,
                              std::uint64_t source_index,
                              std::uint64_t config_id) {
    return body([&](Writer& w) {
      w.zigzag(id);
      w.u8(kind);
      w.varint(source_index);
      w.zigzag(0);
      w.varint(config_id);
    });
  };
  EXPECT_TRUE(wire::decode_body(spawn_body(17, 1, 0xFFFFFFFFu, 5), spawn));
  EXPECT_FALSE(wire::decode_body(spawn_body(17, 1, 1ull << 32, 5), spawn));
  EXPECT_FALSE(wire::decode_body(spawn_body(17, 1, 2, 1ull << 32), spawn));
  EXPECT_FALSE(wire::decode_body(spawn_body(-past_int32 - 1, 1, 2, 5), spawn));
  EXPECT_FALSE(wire::decode_body(spawn_body(17, 2, 2, 5), spawn));
  wire::AnnounceBody announce;
  EXPECT_FALSE(wire::decode_body(body([&](Writer& w) {
                                   w.zigzag(17);
                                   w.zigzag(past_int32);
                                 }),
                                 announce));
  wire::NodeDeadBody dead;
  EXPECT_FALSE(wire::decode_body(
      body([&](Writer& w) { w.zigzag(past_int32); }), dead));
  wire::RetireBody retire;
  EXPECT_FALSE(wire::decode_body(
      body([&](Writer& w) { w.zigzag(past_int32); }), retire));
  wire::PeersBody peers;
  EXPECT_FALSE(wire::decode_body(body([&](Writer& w) {
                                   w.varint(1);
                                   w.zigzag(past_int32);
                                   w.varint(40000);
                                 }),
                                 peers));
  wire::QueryConfigBody query_config;
  EXPECT_FALSE(wire::decode_body(body([](Writer& w) {
                                   w.varint(1ull << 32);
                                   wire::encode_config(
                                       sample_config_without_rows(), w);
                                 }),
                                 query_config));
}

// --- frame layer ---

TEST(WireFrames, RoundTripAndIncrementalFeed) {
  Writer w;
  w.varint(1234);
  std::vector<std::uint8_t> stream;
  wire::append_frame(stream, wire::FrameKind::kSpawn, w.data());

  // Whole-buffer parse.
  std::size_t consumed = 0;
  wire::Frame f;
  ASSERT_EQ(wire::try_parse_frame(stream.data(), stream.size(), consumed, f),
            wire::FrameStatus::kFrame);
  EXPECT_EQ(consumed, stream.size());
  EXPECT_EQ(f.kind, wire::FrameKind::kSpawn);
  EXPECT_EQ(f.body, w.data());

  // Byte-at-a-time: kNeedMore until the last byte arrives.
  for (std::size_t len = 0; len + 1 < stream.size(); ++len) {
    EXPECT_EQ(wire::try_parse_frame(stream.data(), len, consumed, f),
              wire::FrameStatus::kNeedMore);
  }
}

TEST(WireFrames, BackToBackFramesParseInOrder) {
  std::vector<std::uint8_t> stream;
  wire::append_frame(stream, wire::FrameKind::kReady, {});
  Writer w;
  w.zigzag(-5);
  wire::append_frame(stream, wire::FrameKind::kAnnounce, w.data());

  std::size_t consumed = 0;
  wire::Frame f;
  ASSERT_EQ(wire::try_parse_frame(stream.data(), stream.size(), consumed, f),
            wire::FrameStatus::kFrame);
  EXPECT_EQ(f.kind, wire::FrameKind::kReady);
  const std::size_t first = consumed;
  ASSERT_EQ(wire::try_parse_frame(stream.data() + first,
                                  stream.size() - first, consumed, f),
            wire::FrameStatus::kFrame);
  EXPECT_EQ(f.kind, wire::FrameKind::kAnnounce);
  EXPECT_EQ(first + consumed, stream.size());
}

TEST(FramedConn, PiecewiseFeedParsesInOrderWithinBoundedBuffer) {
  // 100 frames of mixed sizes, fed into one Conn in random-sized pieces.
  std::mt19937_64 rng(0xC0FFEE);
  std::vector<std::vector<std::uint8_t>> bodies;
  std::vector<std::uint8_t> stream;
  std::size_t max_frame = 0;
  for (int i = 0; i < 100; ++i) {
    std::vector<std::uint8_t> body(rng() % 3 == 0 ? rng() % 20000
                                                  : rng() % 300);
    for (auto& b : body) b = static_cast<std::uint8_t>(rng());
    const std::size_t before = stream.size();
    wire::append_frame(stream, wire::FrameKind::kActorMsg, body);
    max_frame = std::max(max_frame, stream.size() - before);
    bodies.push_back(std::move(body));
  }
  for (const bool untrusted : {false, true}) {
    netio::Conn c;
    const auto bounded = [&] {
      return c.in.size() <= 2 * (c.in.size() - c.in_off) + max_frame;
    };
    std::size_t fed = 0;
    std::size_t got = 0;
    wire::Frame f;
    while (fed < stream.size()) {
      const std::size_t n = std::min<std::size_t>(
          stream.size() - fed, 1 + rng() % (2 * max_frame));
      c.in.insert(c.in.end(), stream.begin() + static_cast<std::ptrdiff_t>(fed),
                  stream.begin() + static_cast<std::ptrdiff_t>(fed + n));
      fed += n;
      ASSERT_TRUE(bounded()) << "after feeding " << fed;
      for (;;) {
        const bool cut = untrusted ? netio::try_next_frame(c, f) ==
                                         netio::FrameResult::kFrame
                                   : netio::next_frame(c, f);
        if (!cut) break;
        ASSERT_LT(got, bodies.size());
        EXPECT_EQ(f.body, bodies[got]) << "frame " << got;
        ++got;
        ASSERT_TRUE(bounded()) << "after frame " << got;
      }
    }
    EXPECT_EQ(got, bodies.size());
    EXPECT_TRUE(c.in.empty());
    EXPECT_EQ(c.in_off, 0u);
    EXPECT_FALSE(c.broken);
  }
}

TEST(FramedConn, CorruptionAfterParsedFramesBreaksUntrustedLink) {
  // Corruption behind already-parsed frames is still reported, at the read
  // offset, as kError with the connection marked broken.
  std::vector<std::uint8_t> stream;
  wire::append_frame(stream, wire::FrameKind::kReady, {});
  wire::append_frame(stream, wire::FrameKind::kActorMsg,
                     std::vector<std::uint8_t>(64, 7));
  stream.insert(stream.end(), 32, 0xFF);
  netio::Conn c;
  c.in = stream;
  wire::Frame f;
  std::string error;
  EXPECT_EQ(netio::try_next_frame(c, f, &error), netio::FrameResult::kFrame);
  EXPECT_EQ(f.kind, wire::FrameKind::kReady);
  EXPECT_EQ(netio::try_next_frame(c, f, &error), netio::FrameResult::kFrame);
  EXPECT_EQ(f.body, std::vector<std::uint8_t>(64, 7));
  EXPECT_EQ(netio::try_next_frame(c, f, &error), netio::FrameResult::kError);
  EXPECT_TRUE(c.broken);
  EXPECT_FALSE(error.empty());
}

TEST(WireFrames, CorruptionIsDetected) {
  Writer w;
  for (int i = 0; i < 64; ++i) w.varint(static_cast<std::uint64_t>(i) * 7);
  std::vector<std::uint8_t> stream;
  wire::append_frame(stream, wire::FrameKind::kActorMsg, w.data());

  std::size_t consumed = 0;
  wire::Frame f;
  std::string err;

  {  // bad magic
    auto bad = stream;
    bad[0] ^= 0xff;
    EXPECT_EQ(wire::try_parse_frame(bad.data(), bad.size(), consumed, f, &err),
              wire::FrameStatus::kError);
  }
  {  // bad version
    auto bad = stream;
    bad[4] ^= 0xff;
    EXPECT_EQ(wire::try_parse_frame(bad.data(), bad.size(), consumed, f, &err),
              wire::FrameStatus::kError);
  }
  {  // bad kind
    auto bad = stream;
    bad[5] = 0xee;
    EXPECT_EQ(wire::try_parse_frame(bad.data(), bad.size(), consumed, f, &err),
              wire::FrameStatus::kError);
  }
  {  // absurd length must error before any allocation happens
    auto bad = stream;
    bad[8] = 0xff;
    bad[9] = 0xff;
    bad[10] = 0xff;
    bad[11] = 0x7f;
    EXPECT_EQ(wire::try_parse_frame(bad.data(), bad.size(), consumed, f, &err),
              wire::FrameStatus::kError);
  }
  // Any bit flip in the body is caught by the CRC.
  for (std::size_t i = wire::kFrameHeaderBytes; i < stream.size(); ++i) {
    auto bad = stream;
    bad[i] ^= 0x10;
    EXPECT_EQ(wire::try_parse_frame(bad.data(), bad.size(), consumed, f, &err),
              wire::FrameStatus::kError)
        << "body flip at offset " << i << " escaped the CRC";
  }
}

// --- forward compatibility ---
//
// A frame from a *newer* build (higher wire version, or a FrameKind this
// build has never heard of) must be a clean, described decode error -- the
// serve layer turns it into a kQueryRejected farewell -- never an abort.
// The header is not covered by the CRC, so these edits isolate exactly the
// version/kind checks.

TEST(WireFrames, NewerVersionIsDescribedDecodeError) {
  std::vector<std::uint8_t> stream;
  wire::append_frame(stream, wire::FrameKind::kReady, {});
  std::size_t consumed = 0;
  wire::Frame f;
  std::string err;

  {  // one version ahead: "newer", so the peer can say so in its reject
    auto bad = stream;
    bad[4] = wire::kWireVersion + 1;
    ASSERT_EQ(wire::try_parse_frame(bad.data(), bad.size(), consumed, f, &err),
              wire::FrameStatus::kError);
    EXPECT_NE(err.find("newer"), std::string::npos) << err;
  }
  {  // one version behind: a plain mismatch, not "newer"
    ASSERT_GE(wire::kWireVersion, 2);
    auto bad = stream;
    bad[4] = wire::kWireVersion - 1;
    err.clear();
    ASSERT_EQ(wire::try_parse_frame(bad.data(), bad.size(), consumed, f, &err),
              wire::FrameStatus::kError);
    EXPECT_EQ(err.find("newer"), std::string::npos) << err;
    EXPECT_NE(err.find("mismatch"), std::string::npos) << err;
  }
}

TEST(WireFrames, UnknownFutureFrameKindIsDecodeError) {
  std::vector<std::uint8_t> stream;
  wire::append_frame(stream, wire::FrameKind::kReady, {});
  std::size_t consumed = 0;
  wire::Frame f;
  std::string err;
  for (const std::uint8_t kind :
       {static_cast<std::uint8_t>(wire::kMaxFrameKind + 1),
        static_cast<std::uint8_t>(200)}) {
    auto bad = stream;
    bad[5] = kind;
    EXPECT_EQ(wire::try_parse_frame(bad.data(), bad.size(), consumed, f, &err),
              wire::FrameStatus::kError)
        << "future kind " << int(kind) << " parsed";
  }
  // Every kind this build *does* define still parses (0 is below kHello).
  {
    auto bad = stream;
    bad[5] = 0;
    EXPECT_EQ(wire::try_parse_frame(bad.data(), bad.size(), consumed, f, &err),
              wire::FrameStatus::kError);
  }
  for (std::uint8_t kind = 1; kind <= wire::kMaxFrameKind; ++kind) {
    auto ok = stream;
    ok[5] = kind;
    EXPECT_EQ(wire::try_parse_frame(ok.data(), ok.size(), consumed, f, &err),
              wire::FrameStatus::kFrame)
        << "known kind " << int(kind) << " rejected";
  }
}

// --- fuzz loop ---
//
// Deterministic seed so failures reproduce.  The assertion is the totality
// contract itself: whatever bytes arrive, decoders return instead of
// crashing; ASan (CI) turns any out-of-bounds read into a hard failure.

TEST(WireFuzz, MutatedMessagesNeverMisbehave) {
  std::mt19937_64 rng(0xEA51DE);
  const std::vector<Message> catalogue = message_catalogue();
  std::vector<std::vector<std::uint8_t>> seeds;
  seeds.reserve(catalogue.size());
  for (const Message& m : catalogue) seeds.push_back(encode_one(m));

  for (int iter = 0; iter < 4000; ++iter) {
    auto bytes = seeds[rng() % seeds.size()];
    switch (rng() % 3) {
      case 0:  // truncate
        bytes.resize(rng() % (bytes.size() + 1));
        break;
      case 1:  // flip 1-4 bits
        for (std::uint64_t flips = 1 + rng() % 4; flips > 0 && !bytes.empty();
             --flips) {
          bytes[rng() % bytes.size()] ^= static_cast<std::uint8_t>(
              1u << (rng() % 8));
        }
        break;
      default:  // garbage tail
        for (std::uint64_t extra = rng() % 16; extra > 0; --extra) {
          bytes.push_back(static_cast<std::uint8_t>(rng()));
        }
        break;
    }
    Reader r(bytes);
    Message out;
    (void)wire::decode_message(r, out);
  }
}

TEST(WireFuzz, MutatedFramesNeverMisbehave) {
  std::mt19937_64 rng(0xF4A3E5);
  Writer w;
  for (int i = 0; i < 200; ++i) w.varint(rng());
  std::vector<std::uint8_t> frame;
  wire::append_frame(frame, wire::FrameKind::kActorMsg, w.data());

  for (int iter = 0; iter < 4000; ++iter) {
    auto bytes = frame;
    if (rng() % 2 == 0) {
      bytes.resize(rng() % (bytes.size() + 1));
    } else {
      for (std::uint64_t flips = 1 + rng() % 8; flips > 0; --flips) {
        bytes[rng() % bytes.size()] ^= static_cast<std::uint8_t>(1u
                                                                 << (rng() % 8));
      }
    }
    std::size_t consumed = 0;
    wire::Frame f;
    (void)wire::try_parse_frame(bytes.data(), bytes.size(), consumed, f);
  }

  // Pure noise, incrementally grown, as a cold TCP buffer would look.
  std::vector<std::uint8_t> noise;
  for (int i = 0; i < 2000; ++i) {
    noise.push_back(static_cast<std::uint8_t>(rng()));
    std::size_t consumed = 0;
    wire::Frame f;
    (void)wire::try_parse_frame(noise.data(), noise.size(), consumed, f);
  }
}

}  // namespace
}  // namespace ehja
