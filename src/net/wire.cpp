#include "net/wire.hpp"

#include <any>
#include <array>
#include <cstring>
#include <map>
#include <memory>
#include <type_traits>
#include <utility>

#include "util/assert.hpp"

namespace ehja::wire {

// --- CRC32 ---

namespace {

/// Slicing-by-8 tables over the reflected IEEE polynomial: entries[0] is
/// the classic byte-at-a-time table, entries[k][i] the CRC of byte i
/// followed by k zero bytes, so one step folds eight input bytes.
struct Crc32Table {
  std::uint32_t entries[8][256];
  Crc32Table() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      entries[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = entries[k - 1][i];
        entries[k][i] = (prev >> 8) ^ entries[0][prev & 0xFF];
      }
    }
  }
};

/// Little-endian 32-bit load, independent of host byte order (compilers
/// fold it into one load on little-endian hosts).
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Longest LEB128 encoding of a 64-bit value.
constexpr std::size_t kMaxVarintBytes = 10;

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  static const Crc32Table table;
  const auto& t = table.entries;
  std::uint32_t c = 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = load_le32(data) ^ c;
    const std::uint32_t hi = load_le32(data + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; size != 0; ++data, --size) {
    c = t[0][(c ^ *data) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// --- Writer ---

void Writer::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void Writer::varints(const std::uint64_t* values, std::size_t n) {
  const std::size_t at = buf_.size();
  buf_.resize(at + n * kMaxVarintBytes);
  std::uint8_t* const first = buf_.data() + at;
  std::uint8_t* out = first;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t v = values[i];
    while (v >= 0x80) {
      *out++ = static_cast<std::uint8_t>(v) | 0x80;
      v >>= 7;
    }
    *out++ = static_cast<std::uint8_t>(v);
  }
  buf_.resize(at + static_cast<std::size_t>(out - first));
}

void Writer::zigzag(std::int64_t v) {
  varint((static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63));
}

void Writer::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void Writer::bytes(const std::uint8_t* data, std::size_t size) {
  buf_.insert(buf_.end(), data, data + size);
}

// --- Reader ---

std::uint8_t Reader::u8() {
  if (!ok_ || size_ - pos_ < 1) {
    ok_ = false;
    return 0;
  }
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  if (!ok_ || size_ - pos_ < 2) {
    ok_ = false;
    return 0;
  }
  std::uint16_t v = static_cast<std::uint16_t>(
      data_[pos_] | (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  if (!ok_ || size_ - pos_ < 4) {
    ok_ = false;
    return 0;
  }
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  if (!ok_ || size_ - pos_ < 8) {
    ok_ = false;
    return 0;
  }
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

std::uint64_t Reader::varint() {
  std::uint64_t v = 0;
  for (unsigned shift = 0; shift < 70; shift += 7) {
    if (!ok_ || pos_ >= size_) {
      ok_ = false;
      return 0;
    }
    const std::uint8_t byte = data_[pos_++];
    // The 10th byte may only carry the final bit of a 64-bit value.
    if (shift == 63 && (byte & 0xFE)) {
      ok_ = false;
      return 0;
    }
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if (!(byte & 0x80)) return v;
  }
  ok_ = false;
  return 0;
}

bool Reader::varints(std::uint64_t* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (!ok_) return false;
    if (size_ - pos_ < kMaxVarintBytes) {
      // Near the end of the stream: the byte-checked path.
      out[i] = varint();
      continue;
    }
    // A whole maximal varint is in bounds, so the bytes need no
    // individual checks; the 10th-byte rule still rejects overlong input.
    const std::uint8_t* p = data_ + pos_;
    std::uint64_t v = 0;
    for (unsigned shift = 0;; shift += 7) {
      const std::uint8_t byte = *p++;
      if (shift == 63 && (byte & 0xFE)) {
        ok_ = false;
        return false;
      }
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if (!(byte & 0x80)) break;
    }
    pos_ = static_cast<std::size_t>(p - data_);
    out[i] = v;
  }
  return ok_;
}

std::int64_t Reader::zigzag() {
  const std::uint64_t v = varint();
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

double Reader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

bool Reader::can_hold(std::uint64_t count, std::size_t min_item_bytes) {
  if (!ok_) return false;
  EHJA_CHECK(min_item_bytes >= 1);
  if (count > remaining() / min_item_bytes) {
    ok_ = false;
    return false;
  }
  return true;
}

// --- composites ---
//
// Hand-written pairs, kept only where decoding checks an invariant that no
// field kind expresses, or where a column takes the bulk varint codec.

void fields(auto& ar, Is<PosRange> auto& v) {
  ar.varint(v.lo);
  ar.varint(v.hi);
}

void fields(auto& ar, Is<PartitionMap::Entry> auto& v) {
  fields(ar, v.range);
  ar.list(v.owners, 1, [&](auto& owner) { ar.id(owner); });
}

// Chunks are encoded columnar (all row ids, then all join attributes) so
// the codec streams each column of the batch sequentially; the derived
// position column is recomputed on decode rather than shipped.
void fields(Encoder& ar, const Chunk& v) {
  Writer& w = ar.writer();
  const std::size_t n = v.batch.size();
  w.reserve(1 + kMaxVarintBytes + 2 * n * kMaxVarintBytes);
  w.u8(static_cast<std::uint8_t>(v.rel));
  w.varint(n);
  w.varints(v.batch.ids().data(), n);
  w.varints(v.batch.keys().data(), n);
}

void fields(Decoder& ar, Chunk& v) {
  Reader& r = ar.reader();
  ar.code(v.rel, 1);
  const std::uint64_t count = r.varint();
  if (!r.can_hold(count, 2)) return;
  const std::size_t n = static_cast<std::size_t>(count);
  std::vector<std::uint64_t> ids(n);
  std::vector<std::uint64_t> keys(n);
  if (!r.varints(ids.data(), n) || !r.varints(keys.data(), n)) return;
  v.batch = TupleBatch::from_columns(std::move(ids), std::move(keys));
}

void fields(Encoder& ar, const PartitionMap& v) {
  ar.varint(v.positions());
  ar.list(v.entries(), 4, [&](const auto& e) { fields(ar, e); });
}

void fields(Decoder& ar, PartitionMap& v) {
  std::uint64_t positions = 0;
  std::vector<PartitionMap::Entry> entries;
  ar.varint(positions);
  ar.list(entries, 4, [&](auto& e) { fields(ar, e); });
  if (!ar.ok()) return;
  // Re-validate PartitionMap::check()'s invariants here, where a violation
  // is a decode error rather than the abort from_entries() would raise.
  bool valid = !entries.empty() && entries.front().range.lo == 0 &&
               entries.back().range.hi == positions;
  for (std::size_t i = 0; valid && i < entries.size(); ++i) {
    valid = !entries[i].range.empty() && !entries[i].owners.empty() &&
            (i + 1 == entries.size() ||
             entries[i].range.hi == entries[i + 1].range.lo);
  }
  ar.require(valid);
  if (valid) v = PartitionMap::from_entries(std::move(entries), positions);
}

void fields(Encoder& ar, const BinnedHistogram& v) {
  Writer& w = ar.writer();
  w.varint(v.lo());
  w.varint(v.hi());
  w.varint(v.bin_count());
  w.varints(v.weights().data(), v.bin_count());
}

void fields(Decoder& ar, BinnedHistogram& v) {
  Reader& r = ar.reader();
  const std::uint64_t lo = r.varint();
  const std::uint64_t hi = r.varint();
  const std::uint64_t bins = r.varint();
  if (!r.ok()) return;
  if (bins == 0) {
    // Only a default-constructed (never-initialized) histogram has no bins.
    ar.require(lo == 0 && hi == 0);
    v = BinnedHistogram{};
    return;
  }
  // The constructor clamps bins to the range width, so a legitimate encoding
  // always satisfies bins <= hi - lo; reconstructing with the encoded count
  // then reproduces the exact geometry (width = span / bins).
  ar.require(hi > lo && bins <= hi - lo);
  if (!r.can_hold(bins, 1)) return;
  std::vector<std::uint64_t> weights(static_cast<std::size_t>(bins));
  if (!r.varints(weights.data(), weights.size())) return;
  v = BinnedHistogram(lo, hi, std::move(weights));
}

/// Actor-keyed accounting maps (chunk counts, and the snapshot's
/// per-source maps of them): count, then (id, value) pairs in key order.
/// std::map only produces strictly increasing keys, so decoding rejects
/// anything else.
template <class V>
void fields(Encoder& ar, const std::map<ActorId, V>& m) {
  ar.varint(m.size());
  for (const auto& [id, value] : m) {
    ar.id(id);
    if constexpr (std::is_integral_v<V>) {
      ar.varint(value);
    } else {
      fields(ar, value);
    }
  }
}

template <class V>
void fields(Decoder& ar, std::map<ActorId, V>& m) {
  Reader& r = ar.reader();
  const std::uint64_t count = r.varint();
  m.clear();
  if (!r.can_hold(count, 2)) return;
  ActorId prev = kInvalidActor;
  for (std::uint64_t i = 0; i < count; ++i) {
    ActorId id = kInvalidActor;
    ar.id(id);
    ar.require(i == 0 || id > prev);
    prev = id;
    V value{};
    if constexpr (std::is_integral_v<V>) {
      ar.varint(value);
    } else {
      fields(ar, value);
    }
    if (!r.ok()) return;
    m.emplace(id, std::move(value));
  }
}

// --- payload field lists, one per struct in core/messages.hpp ---

void fields(auto& ar, Is<NodeMetrics> auto& v) {
  ar.id(v.actor);
  ar.id(v.node);
  ar.varint(v.build_tuples);
  ar.varint(v.probe_tuples);
  ar.varint(v.matches);
  ar.varint(v.chunks_received);
  ar.varint(v.chunks_forwarded);
  ar.varint(v.max_overshoot_bytes);
  ar.varint(v.spilled_build_tuples);
  ar.varint(v.spilled_probe_tuples);
  ar.varint(v.spilled_partitions);
  ar.varint(v.fence_dropped_tuples);
}

void fields(auto& ar, Is<JoinInitPayload> auto& v) {
  ar.code(v.role, 2);
  fields(ar, v.range);
  ar.varint(v.source_count);
  ar.varint(v.op_id);
  ar.varint(v.epoch);
}

void fields(auto& ar, Is<StartBuildPayload> auto& v) {
  fields(ar, v.map);
  ar.varint(v.epoch);
}

void fields(auto& ar, Is<ChunkPayload> auto& v) {
  fields(ar, v.chunk);
  ar.flag(v.forwarded);
  ar.varint(v.epoch);
}

void fields(auto& ar, Is<ForwardEndPayload> auto& v) { ar.varint(v.op_id); }

void fields(auto& ar, Is<MemoryFullPayload> auto& v) {
  ar.varint(v.footprint_bytes);
  ar.varint(v.budget_bytes);
}

void fields(auto& ar, Is<SplitRequestPayload> auto& v) {
  ar.varint(v.op_id);
  fields(ar, v.moved);
  ar.id(v.target);
}

void fields(auto& ar, Is<HandoffStartPayload> auto& v) {
  ar.varint(v.op_id);
  ar.id(v.target);
}

void fields(auto& ar, Is<OpCompletePayload> auto& v) {
  ar.varint(v.op_id);
  ar.varint(v.tuples_received);
}

void fields(auto& ar, Is<MapUpdatePayload> auto& v) {
  ar.varint(v.version);
  fields(ar, v.map);
}

void fields(auto& ar, Is<SourceDonePayload> auto& v) {
  ar.code(v.rel, 1);
  ar.varint(v.chunks_sent);
  ar.varint(v.tuples_sent);
  fields(ar, v.chunks_to);
}

void fields(auto& ar, Is<SourceProgressPayload> auto& v) {
  ar.code(v.rel, 1);
  ar.varint(v.tuples_sent);
}

void fields(auto& ar, Is<DrainProbePayload> auto& v) { ar.varint(v.epoch); }

void fields(auto& ar, Is<DrainAckPayload> auto& v) {
  ar.varint(v.epoch);
  ar.varint(v.data_chunks_received);
  ar.varint(v.data_chunks_forwarded);
  fields(ar, v.received_from);
  fields(ar, v.forwarded_to);
}

void fields(auto& ar, Is<StartProbePayload> auto& v) {
  fields(ar, v.map);
  ar.varint(v.epoch);
}

void fields(auto& ar, Is<HistogramRequestPayload> auto& v) {
  ar.varint(v.set_id);
  ar.varint(v.bins);
  ar.varint(v.round);
}

void fields(auto& ar, Is<HistogramReplyPayload> auto& v) {
  ar.varint(v.set_id);
  fields(ar, v.histogram);
  ar.varint(v.round);
}

void fields(auto& ar, Is<ReshuffleMovePayload> auto& v) {
  // The plan is a re-cut of one replica set's range: valid entries need not
  // start at position 0, so this is a raw entry list, not a PartitionMap.
  ar.list(v.plan, 4, [&](auto& e) { fields(ar, e); });
  ar.varint(v.round);
}

void fields(auto& ar, Is<ReshuffleDonePayload> auto& v) { ar.varint(v.round); }

void fields(auto& ar, Is<NodeReportPayload> auto& v) {
  fields(ar, v.metrics);
  ar.u64(v.checksum);
  ar.varint(v.result_rows);
}

void fields(auto& ar, Is<ResultChunkPayload> auto& v) {
  fields(ar, v.chunk);
  ar.flag(v.first);
  ar.varint(v.total);
}

void fields(auto& ar, Is<RecoveryFencePayload> auto& v) {
  ar.varint(v.epoch);
  ar.list(v.lost, 2, [&](auto& range) { fields(ar, range); });
}

void fields(auto& ar, Is<RangeResetPayload> auto& v) {
  ar.varint(v.epoch);
  ar.list(v.discard, 2, [&](auto& range) { fields(ar, range); });
  ar.flag(v.zero_probe_results);
  ar.opt(v.new_range, [&](auto& range) { fields(ar, range); });
  ar.flag(v.retired);
}

void fields(auto& ar, Is<RangeResetAckPayload> auto& v) { ar.varint(v.epoch); }

void fields(auto& ar, Is<ReplayRequestPayload> auto& v) {
  ar.varint(v.epoch);
  ar.code(v.rel, 1);
  ar.list(v.ranges, 2, [&](auto& range) { fields(ar, range); });
  ar.flag(v.pause_after);
}

void fields(auto& ar, Is<ReplayDonePayload> auto& v) {
  ar.varint(v.epoch);
  ar.code(v.rel, 1);
  ar.varint(v.tuples_replayed);
  fields(ar, v.chunks_to);
  ar.varint(v.chunks_sent_total);
}

/// The snapshot's metrics are the scheduler-accrued scalars only; the nodes
/// vector and the join result are deliberately not carried (the promoted
/// scheduler re-collects them with the final reports).
void fields(auto& ar, Is<RunMetrics> auto& v) {
  ar.f64(v.t_start);
  ar.f64(v.t_build_end);
  ar.f64(v.t_reshuffle_end);
  ar.f64(v.t_probe_end);
  ar.f64(v.t_complete);
  ar.f64(v.split_time);
  ar.f64(v.expand_time);
  ar.varint(v.initial_join_nodes);
  ar.varint(v.expansions);
  ar.varint(v.final_join_nodes);
  ar.flag(v.pool_exhausted);
  ar.varint(v.adaptive_splits);
  ar.varint(v.adaptive_replicas);
  ar.varint(v.source_build_chunks);
  ar.varint(v.source_probe_chunks);
  ar.varint(v.extra_build_chunks);
  ar.varint(v.failures_injected);
  ar.varint(v.failures_detected);
  ar.f64(v.detection_latency_total);
  ar.f64(v.detection_latency_max);
  ar.varint(v.false_positive_deaths);
  ar.varint(v.join_failures);
  ar.varint(v.source_failures);
  ar.varint(v.scheduler_failovers);
  ar.varint(v.recoveries);
  ar.f64(v.recovery_time_total);
  ar.varint(v.replayed_build_tuples);
  ar.varint(v.replayed_probe_tuples);
  ar.varint(v.build_tuples_total);
  ar.varint(v.probe_tuples_total);
}

void fields(auto& ar, Is<SchedulerSnapshotPayload> auto& v) {
  ar.varint(v.generation);
  ar.code(v.phase, 8);  // SchedulerActor phases kBuild..kDone
  ar.flag(v.probe_recovery);
  ar.varint(v.epoch);
  ar.varint(v.map_version);
  fields(ar, v.map);
  const auto ids = [&](auto& list) {
    ar.list(list, 1, [&](auto& id) { ar.id(id); });
  };
  ids(v.joins);
  ids(v.sources);
  ids(v.dead);
  ids(v.spilled);
  ids(v.pool_free);
  ar.varint(v.reshuffle_round);
  ar.varint(v.drain_epoch);
  fields(ar, v.source_chunks_to);
  fields(ar, v.metrics);
}

void fields(auto& ar, Is<SchedulerHandoffPayload> auto& v) {
  ar.varint(v.generation);
  ar.varint(v.epoch);
}

void fields(auto& ar, Is<SchedulerHandoffAckPayload> auto& v) {
  ar.varint(v.generation);
  ar.code(v.done_mask, 15);  // bits 0/1: R/S done; bits 2/3: R/S started
  ar.varint(v.build_tuples);
  ar.varint(v.probe_tuples);
  ar.varint(v.build_chunks);
  ar.varint(v.probe_chunks);
  fields(ar, v.chunks_to);
}

void encode(Writer& w, const BinnedHistogram& v) { write_fields(w, v); }
bool decode(Reader& r, BinnedHistogram& v) { return read_fields(r, v); }
void encode(Writer& w, const ChunkPayload& v) { write_fields(w, v); }
bool decode(Reader& r, ChunkPayload& v) { return read_fields(r, v); }

// --- message codec ---

namespace {

/// How messages with one tag cross the wire.  Signals carry no payload
/// (null encode/decode).
struct TagCodec {
  Tag tag{};
  bool known = false;
  void (*encode)(Writer&, const Message&) = nullptr;
  bool (*decode)(Reader&, Message&) = nullptr;
};

template <class P>
void encode_payload(Writer& w, const Message& msg) {
  write_fields(w, msg.as<P>());
}

template <class P>
bool decode_payload(Reader& r, Message& msg) {
  P payload;
  if (!read_fields(r, payload)) return false;
  msg.payload = std::make_shared<const std::any>(std::move(payload));
  return true;
}

template <class P>
constexpr TagCodec payload(Tag tag) {
  return {tag, true, &encode_payload<P>, &decode_payload<P>};
}

constexpr TagCodec signal(Tag tag) { return {tag, true}; }

/// The protocol vocabulary: every tag with the payload type Message::as<T>()
/// expects.  known_tag, encode_message and decode_message all read it.
constexpr TagCodec kVocabulary[] = {
    payload<JoinInitPayload>(Tag::kJoinInit),
    payload<StartBuildPayload>(Tag::kStartBuild),
    signal(Tag::kGenSlice),
    payload<ChunkPayload>(Tag::kDataChunk),
    payload<ForwardEndPayload>(Tag::kForwardEnd),
    payload<MemoryFullPayload>(Tag::kMemoryFull),
    payload<SplitRequestPayload>(Tag::kSplitRequest),
    payload<HandoffStartPayload>(Tag::kHandoffStart),
    payload<OpCompletePayload>(Tag::kOpComplete),
    signal(Tag::kRelief),
    signal(Tag::kSwitchToSpill),
    payload<MapUpdatePayload>(Tag::kMapUpdate),
    payload<SourceDonePayload>(Tag::kSourceDone),
    payload<DrainProbePayload>(Tag::kDrainProbe),
    payload<DrainAckPayload>(Tag::kDrainAck),
    signal(Tag::kBuildComplete),
    payload<StartProbePayload>(Tag::kStartProbe),
    payload<SourceProgressPayload>(Tag::kSourceProgress),
    payload<HistogramRequestPayload>(Tag::kHistogramRequest),
    payload<HistogramReplyPayload>(Tag::kHistogramReply),
    payload<ReshuffleMovePayload>(Tag::kReshuffleMove),
    payload<ReshuffleDonePayload>(Tag::kReshuffleDone),
    signal(Tag::kReportRequest),
    payload<NodeReportPayload>(Tag::kNodeReport),
    payload<ResultChunkPayload>(Tag::kResultChunk),
    signal(Tag::kPing),
    signal(Tag::kPong),
    signal(Tag::kHeartbeatTick),
    payload<RecoveryFencePayload>(Tag::kRecoveryFence),
    payload<RangeResetPayload>(Tag::kRangeReset),
    payload<RangeResetAckPayload>(Tag::kRangeResetAck),
    payload<ReplayRequestPayload>(Tag::kReplayRequest),
    payload<ReplayDonePayload>(Tag::kReplayDone),
    payload<SchedulerSnapshotPayload>(Tag::kSchedulerSnapshot),
    payload<SchedulerHandoffPayload>(Tag::kSchedulerHandoff),
    payload<SchedulerHandoffAckPayload>(Tag::kSchedulerHandoffAck),
};

/// kVocabulary indexed by tag value (every tag is below 128).
constexpr auto kCodecs = [] {
  std::array<TagCodec, 128> slots{};
  for (const TagCodec& codec : kVocabulary) {
    slots[static_cast<std::size_t>(codec.tag)] = codec;
  }
  return slots;
}();

const TagCodec* find_codec(int tag) {
  if (tag < 0 || static_cast<std::size_t>(tag) >= kCodecs.size() ||
      !kCodecs[static_cast<std::size_t>(tag)].known) {
    return nullptr;
  }
  return &kCodecs[static_cast<std::size_t>(tag)];
}

void header_fields(auto& ar, Is<Message> auto& msg) {
  ar.id(msg.tag);
  ar.id(msg.from);
  ar.varint(msg.wire_bytes);
}

}  // namespace

bool known_tag(int tag) { return find_codec(tag) != nullptr; }

void encode_message(const Message& msg, Writer& w) {
  const TagCodec* codec = find_codec(msg.tag);
  EHJA_CHECK_MSG(codec != nullptr, "encoding message with unknown tag");
  EHJA_CHECK_MSG(msg.has_payload() == (codec->encode != nullptr),
                 "message payload presence does not match its tag");
  Encoder ar(w);
  header_fields(ar, msg);
  if (codec->encode != nullptr) codec->encode(w, msg);
}

bool decode_message(Reader& r, Message& out) {
  Decoder ar(r);
  Message msg;
  header_fields(ar, msg);
  const TagCodec* codec = r.ok() ? find_codec(msg.tag) : nullptr;
  ar.require(codec != nullptr);
  if (!r.ok() || (codec->decode != nullptr && !codec->decode(r, msg))) {
    return false;
  }
  out = std::move(msg);
  return true;
}

// --- config codec ---

void fields(auto& ar, Is<DistributionSpec> auto& v) {
  ar.code(v.kind, 3);
  ar.f64(v.mean);
  ar.f64(v.sigma);
  ar.f64(v.zipf_s);
  ar.varint(v.domain);
}

void relation_scalars(auto& ar, Is<RelationSpec> auto& v) {
  ar.code(v.tag, 1);
  ar.varint(v.tuple_count);
  ar.varint(v.schema.tuple_bytes);
  // Schema::payload_bytes() asserts tuple_bytes >= 16; enforce it here so a
  // corrupt config is a decode error, not a later abort.
  ar.require(v.schema.tuple_bytes >= 16);
  fields(ar, v.dist);
}

// v6: materialized backing rows (pipeline intermediates) ride inside the
// relation spec, columnar (ids then keys) after the source checksum; the
// row count is tuple_count.
void fields(Encoder& ar, const RelationSpec& v) {
  relation_scalars(ar, v);
  ar.flag(v.data != nullptr);
  if (!v.data) return;
  Writer& w = ar.writer();
  w.u64(v.data->source_checksum);
  for (const Tuple& t : v.data->rows) w.varint(t.id);
  for (const Tuple& t : v.data->rows) w.varint(t.key);
}

void fields(Decoder& ar, RelationSpec& v) {
  relation_scalars(ar, v);
  bool has_data = false;
  ar.flag(has_data);
  v.data.reset();
  Reader& r = ar.reader();
  if (!has_data || !r.can_hold(v.tuple_count, 2)) return;
  const std::uint64_t source_checksum = r.u64();
  // Each column is read with the bulk reader, which stops at the first bad
  // or missing byte; the rows are built only once both columns are whole.
  const std::size_t n = static_cast<std::size_t>(v.tuple_count);
  std::vector<std::uint64_t> ids(n);
  if (!r.varints(ids.data(), n)) return;
  std::vector<std::uint64_t> keys(n);
  if (!r.varints(keys.data(), n)) return;
  auto data = std::make_shared<MaterializedRelation>();
  data->source_checksum = source_checksum;
  data->rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    data->rows.push_back(Tuple{ids[i], keys[i]});
  }
  v.data = std::move(data);
}

void fields(auto& ar, Is<LinkConfig> auto& v) {
  ar.code(v.topology, 1);
  ar.f64(v.bandwidth_bytes_per_sec);
  ar.f64(v.latency_sec);
  ar.f64(v.per_message_overhead_bytes);
  ar.f64(v.loopback_sec_per_byte);
  ar.f64(v.fault_jitter_sec);
  ar.f64(v.fault_drop_prob);
  ar.f64(v.fault_rto_sec);
  ar.u64(v.fault_seed);
}

void fields(auto& ar, Is<CostModel> auto& v) {
  ar.f64(v.tuple_generate_sec);
  ar.f64(v.tuple_insert_sec);
  ar.f64(v.tuple_probe_sec);
  ar.f64(v.tuple_compare_sec);
  ar.f64(v.match_emit_sec);
  ar.f64(v.tuple_pack_sec);
  ar.f64(v.control_handle_sec);
  ar.f64(v.cpu_scale);
}

void fields(auto& ar, Is<DiskConfig> auto& v) {
  ar.f64(v.write_bytes_per_sec);
  ar.f64(v.read_bytes_per_sec);
  ar.f64(v.seek_sec);
  ar.varint(v.io_buffer_bytes);
}

void fields(auto& ar, Is<KillSpec> auto& v) {
  ar.code(v.role, 2);
  ar.varint(v.pool_index);
  ar.f64(v.at_time);
  ar.varint(v.after_chunks);
}

void config_fields(auto& ar, Is<EhjaConfig> auto& v) {
  ar.code(v.algorithm, 4);
  ar.varint(v.initial_join_nodes);
  ar.varint(v.join_pool_nodes);
  ar.varint(v.data_sources);
  ar.varint(v.node_hash_memory_bytes);
  fields(ar, v.build_rel);
  fields(ar, v.probe_rel);
  ar.varint(v.chunk_tuples);
  ar.varint(v.generation_slice_tuples);
  ar.u64(v.seed);
  ar.varint(v.source_progress_slices);
  ar.varint(v.reshuffle_bins);
  ar.varint(v.spill_fanout);
  ar.code(v.pick_policy, 2);
  ar.code(v.split_variant, 1);
  ar.flag(v.balanced_initial_partition);
  ar.varint(v.partition_sample);
  // v.trace is deliberately not serialized: tracing is a coordinator-side
  // concern and the sink pointer is meaningless in another process.
  fields(ar, v.link);
  fields(ar, v.cost);
  fields(ar, v.disk);
  ar.list(v.faults.kills, 11, [&](auto& kill) { fields(ar, kill); });
  ar.flag(v.ft.force_enabled);
  ar.f64(v.ft.heartbeat_interval_sec);
  ar.f64(v.ft.heartbeat_timeout_sec);
  ar.code(v.ft.detector, 1);
  ar.f64(v.ft.phi_threshold);
  ar.varint(v.ft.phi_window);
  ar.flag(v.ft.standby_scheduler);
  ar.flag(v.capture_output);
  ar.varint(v.pipeline_stage);
}

void fields(Encoder& ar, const EhjaConfig& v) { config_fields(ar, v); }

void fields(Decoder& ar, EhjaConfig& v) {
  config_fields(ar, v);
  v.trace = nullptr;
}

// --- frame layer ---

void append_frame(std::vector<std::uint8_t>& out, FrameKind kind,
                  const std::vector<std::uint8_t>& body) {
  EHJA_CHECK_MSG(body.size() <= kMaxFrameBody, "frame body exceeds cap");
  Writer header;
  header.u32(kFrameMagic);
  header.u8(kWireVersion);
  header.u8(static_cast<std::uint8_t>(kind));
  header.u16(0);  // reserved
  header.u32(static_cast<std::uint32_t>(body.size()));
  header.u32(crc32(body.data(), body.size()));
  EHJA_CHECK(header.size() == kFrameHeaderBytes);
  out.insert(out.end(), header.data().begin(), header.data().end());
  out.insert(out.end(), body.begin(), body.end());
}

FrameStatus try_parse_frame(const std::uint8_t* data, std::size_t size,
                            std::size_t& consumed, Frame& out,
                            std::string* error) {
  consumed = 0;
  if (size < kFrameHeaderBytes) return FrameStatus::kNeedMore;
  Reader header(data, kFrameHeaderBytes);
  const std::uint32_t magic = header.u32();
  const std::uint8_t version = header.u8();
  const std::uint8_t kind = header.u8();
  header.u16();  // reserved
  const std::uint32_t body_len = header.u32();
  const std::uint32_t crc = header.u32();
  if (magic != kFrameMagic) {
    if (error) *error = "bad frame magic";
    return FrameStatus::kError;
  }
  if (version != kWireVersion) {
    // Distinguish "peer is newer" from garbage: the serve layer turns the
    // former into a polite reject, and both are clean errors, never aborts.
    if (error) {
      *error = version > kWireVersion ? "wire version newer than supported"
                                      : "wire version mismatch";
    }
    return FrameStatus::kError;
  }
  if (kind < static_cast<std::uint8_t>(FrameKind::kHello) ||
      kind > kMaxFrameKind) {
    if (error) *error = "unknown frame kind";
    return FrameStatus::kError;
  }
  if (body_len > kMaxFrameBody) {
    if (error) *error = "frame body exceeds cap";
    return FrameStatus::kError;
  }
  if (size < kFrameHeaderBytes + body_len) return FrameStatus::kNeedMore;
  const std::uint8_t* body = data + kFrameHeaderBytes;
  if (crc32(body, body_len) != crc) {
    if (error) *error = "frame CRC mismatch";
    return FrameStatus::kError;
  }
  out.kind = static_cast<FrameKind>(kind);
  out.body.assign(body, body + body_len);
  consumed = kFrameHeaderBytes + body_len;
  return FrameStatus::kFrame;
}

}  // namespace ehja::wire
