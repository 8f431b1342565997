#include "net/wire.hpp"

#include <cstring>
#include <limits>
#include <memory>
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

// --- decode helpers ---

namespace {

/// Read a byte that must be 0 or 1 (strict: round-trips are exact and flips
/// are decode errors, not silent coercions).
bool read_bool(Reader& r, bool& out) {
  const std::uint8_t v = r.u8();
  if (v > 1) r.fail();
  out = v == 1;
  return r.ok();
}

/// Read a u8 enum discriminant that must be <= max_value.
template <typename E>
bool read_enum(Reader& r, E& out, std::uint8_t max_value) {
  const std::uint8_t v = r.u8();
  if (v > max_value) r.fail();
  out = static_cast<E>(v);
  return r.ok();
}

/// Read a zigzag value that must fit an ActorId / NodeId (int32).
bool read_id(Reader& r, std::int32_t& out) {
  const std::int64_t v = r.zigzag();
  if (v < std::numeric_limits<std::int32_t>::min() ||
      v > std::numeric_limits<std::int32_t>::max()) {
    r.fail();
  }
  out = static_cast<std::int32_t>(v);
  return r.ok();
}

bool read_u32(Reader& r, std::uint32_t& out) {
  const std::uint64_t v = r.varint();
  if (v > std::numeric_limits<std::uint32_t>::max()) r.fail();
  out = static_cast<std::uint32_t>(v);
  return r.ok();
}

void encode_owners(Writer& w, const std::vector<ActorId>& owners) {
  w.varint(owners.size());
  for (ActorId owner : owners) w.zigzag(owner);
}

bool decode_owners(Reader& r, std::vector<ActorId>& owners) {
  const std::uint64_t count = r.varint();
  if (!r.can_hold(count, 1)) return false;
  owners.clear();
  owners.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    ActorId id = kInvalidActor;
    if (!read_id(r, id)) return false;
    owners.push_back(id);
  }
  return r.ok();
}

void encode_entry(Writer& w, const PartitionMap::Entry& e) {
  encode(w, e.range);
  encode_owners(w, e.owners);
}

bool decode_entry(Reader& r, PartitionMap::Entry& e) {
  return decode(r, e.range) && decode_owners(r, e.owners);
}

void encode_ranges(Writer& w, const std::vector<PosRange>& ranges) {
  w.varint(ranges.size());
  for (const PosRange& range : ranges) encode(w, range);
}

bool decode_ranges(Reader& r, std::vector<PosRange>& ranges) {
  const std::uint64_t count = r.varint();
  if (!r.can_hold(count, 2)) return false;
  ranges.clear();
  ranges.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    PosRange range;
    if (!decode(r, range)) return false;
    ranges.push_back(range);
  }
  return r.ok();
}

void encode_chunk_map(Writer& w, const std::map<ActorId, std::uint64_t>& m) {
  w.varint(m.size());
  for (const auto& [id, count] : m) {
    w.zigzag(id);
    w.varint(count);
  }
}

bool decode_chunk_map(Reader& r, std::map<ActorId, std::uint64_t>& m) {
  const std::uint64_t count = r.varint();
  if (!r.can_hold(count, 2)) return false;
  m.clear();
  ActorId prev = kInvalidActor;
  for (std::uint64_t i = 0; i < count; ++i) {
    ActorId id = kInvalidActor;
    if (!read_id(r, id)) return false;
    // std::map iterates in key order, so a valid encoding is strictly
    // increasing; anything else is corruption.
    if (i > 0 && id <= prev) {
      r.fail();
      return false;
    }
    prev = id;
    const std::uint64_t value = r.varint();
    if (!r.ok()) return false;
    m.emplace(id, value);
  }
  return true;
}

}  // namespace

// --- composite codecs ---

void encode(Writer& w, const PosRange& v) {
  w.varint(v.lo);
  w.varint(v.hi);
}

bool decode(Reader& r, PosRange& v) {
  v.lo = r.varint();
  v.hi = r.varint();
  return r.ok();
}

// Chunks are encoded columnar (all row ids, then all join attributes) so
// the codec streams each column of the batch sequentially; the derived
// position column is recomputed on decode rather than shipped.
void encode(Writer& w, const Chunk& v) {
  const std::size_t n = v.batch.size();
  w.reserve(1 + kMaxVarintBytes + 2 * n * kMaxVarintBytes);
  w.u8(static_cast<std::uint8_t>(v.rel));
  w.varint(n);
  w.varints(v.batch.ids().data(), n);
  w.varints(v.batch.keys().data(), n);
}

bool decode(Reader& r, Chunk& v) {
  if (!read_enum(r, v.rel, 1)) return false;
  const std::uint64_t count = r.varint();
  if (!r.can_hold(count, 2)) return false;
  const std::size_t n = static_cast<std::size_t>(count);
  std::vector<std::uint64_t> ids(n);
  std::vector<std::uint64_t> keys(n);
  if (!r.varints(ids.data(), n) || !r.varints(keys.data(), n)) return false;
  v.batch = TupleBatch::from_columns(std::move(ids), std::move(keys));
  return true;
}

void encode(Writer& w, const PartitionMap& v) {
  w.varint(v.positions());
  w.varint(v.size());
  for (const PartitionMap::Entry& e : v.entries()) encode_entry(w, e);
}

bool decode(Reader& r, PartitionMap& v) {
  const std::uint64_t positions = r.varint();
  const std::uint64_t count = r.varint();
  if (!r.can_hold(count, 4)) return false;
  std::vector<PartitionMap::Entry> entries;
  entries.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    PartitionMap::Entry e;
    if (!decode_entry(r, e)) return false;
    entries.push_back(std::move(e));
  }
  // Re-validate PartitionMap::check()'s invariants here, where a violation
  // is a decode error rather than the abort from_entries() would raise.
  if (entries.empty() || entries.front().range.lo != 0 ||
      entries.back().range.hi != positions) {
    r.fail();
    return false;
  }
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].range.empty() || entries[i].owners.empty() ||
        (i + 1 < entries.size() &&
         entries[i].range.hi != entries[i + 1].range.lo)) {
      r.fail();
      return false;
    }
  }
  v = PartitionMap::from_entries(std::move(entries), positions);
  return true;
}

void encode(Writer& w, const BinnedHistogram& v) {
  w.varint(v.lo());
  w.varint(v.hi());
  w.varint(v.bin_count());
  w.varints(v.weights().data(), v.bin_count());
}

bool decode(Reader& r, BinnedHistogram& v) {
  const std::uint64_t lo = r.varint();
  const std::uint64_t hi = r.varint();
  const std::uint64_t bins = r.varint();
  if (!r.ok()) return false;
  if (bins == 0) {
    // Only a default-constructed (never-initialized) histogram has no bins.
    if (lo != 0 || hi != 0) {
      r.fail();
      return false;
    }
    v = BinnedHistogram{};
    return true;
  }
  // The constructor clamps bins to the range width, so a legitimate encoding
  // always satisfies bins <= hi - lo; reconstructing with the encoded count
  // then reproduces the exact geometry (width = span / bins).
  if (hi <= lo || bins > hi - lo || !r.can_hold(bins, 1)) {
    r.fail();
    return false;
  }
  std::vector<std::uint64_t> weights(static_cast<std::size_t>(bins));
  if (!r.varints(weights.data(), weights.size())) return false;
  v = BinnedHistogram(lo, hi, std::move(weights));
  return true;
}

void encode(Writer& w, const NodeMetrics& v) {
  w.zigzag(v.actor);
  w.zigzag(v.node);
  w.varint(v.build_tuples);
  w.varint(v.probe_tuples);
  w.varint(v.matches);
  w.varint(v.chunks_received);
  w.varint(v.chunks_forwarded);
  w.varint(v.max_overshoot_bytes);
  w.varint(v.spilled_build_tuples);
  w.varint(v.spilled_probe_tuples);
  w.varint(v.spilled_partitions);
  w.varint(v.fence_dropped_tuples);
}

bool decode(Reader& r, NodeMetrics& v) {
  if (!read_id(r, v.actor) || !read_id(r, v.node)) return false;
  v.build_tuples = r.varint();
  v.probe_tuples = r.varint();
  v.matches = r.varint();
  v.chunks_received = r.varint();
  v.chunks_forwarded = r.varint();
  v.max_overshoot_bytes = r.varint();
  v.spilled_build_tuples = r.varint();
  v.spilled_probe_tuples = r.varint();
  v.spilled_partitions = r.varint();
  v.fence_dropped_tuples = r.varint();
  return r.ok();
}

// --- payload codecs ---

void encode(Writer& w, const JoinInitPayload& v) {
  w.u8(static_cast<std::uint8_t>(v.role));
  encode(w, v.range);
  w.varint(v.source_count);
  w.varint(v.op_id);
  w.varint(v.epoch);
}

bool decode(Reader& r, JoinInitPayload& v) {
  if (!read_enum(r, v.role, 2) || !decode(r, v.range)) return false;
  if (!read_u32(r, v.source_count)) return false;
  v.op_id = r.varint();
  v.epoch = r.varint();
  return r.ok();
}

void encode(Writer& w, const StartBuildPayload& v) {
  encode(w, v.map);
  w.varint(v.epoch);
}

bool decode(Reader& r, StartBuildPayload& v) {
  if (!decode(r, v.map)) return false;
  v.epoch = r.varint();
  return r.ok();
}

void encode(Writer& w, const ChunkPayload& v) {
  encode(w, v.chunk);
  w.u8(v.forwarded ? 1 : 0);
  w.varint(v.epoch);
}

bool decode(Reader& r, ChunkPayload& v) {
  if (!decode(r, v.chunk) || !read_bool(r, v.forwarded)) return false;
  v.epoch = r.varint();
  return r.ok();
}

void encode(Writer& w, const ForwardEndPayload& v) { w.varint(v.op_id); }

bool decode(Reader& r, ForwardEndPayload& v) {
  v.op_id = r.varint();
  return r.ok();
}

void encode(Writer& w, const MemoryFullPayload& v) {
  w.varint(v.footprint_bytes);
  w.varint(v.budget_bytes);
}

bool decode(Reader& r, MemoryFullPayload& v) {
  v.footprint_bytes = r.varint();
  v.budget_bytes = r.varint();
  return r.ok();
}

void encode(Writer& w, const SplitRequestPayload& v) {
  w.varint(v.op_id);
  encode(w, v.moved);
  w.zigzag(v.target);
}

bool decode(Reader& r, SplitRequestPayload& v) {
  v.op_id = r.varint();
  return decode(r, v.moved) && read_id(r, v.target);
}

void encode(Writer& w, const HandoffStartPayload& v) {
  w.varint(v.op_id);
  w.zigzag(v.target);
}

bool decode(Reader& r, HandoffStartPayload& v) {
  v.op_id = r.varint();
  return read_id(r, v.target);
}

void encode(Writer& w, const OpCompletePayload& v) {
  w.varint(v.op_id);
  w.varint(v.tuples_received);
}

bool decode(Reader& r, OpCompletePayload& v) {
  v.op_id = r.varint();
  v.tuples_received = r.varint();
  return r.ok();
}

void encode(Writer& w, const MapUpdatePayload& v) {
  w.varint(v.version);
  encode(w, v.map);
}

bool decode(Reader& r, MapUpdatePayload& v) {
  v.version = r.varint();
  return decode(r, v.map);
}

void encode(Writer& w, const SourceDonePayload& v) {
  w.u8(static_cast<std::uint8_t>(v.rel));
  w.varint(v.chunks_sent);
  w.varint(v.tuples_sent);
  encode_chunk_map(w, v.chunks_to);
}

bool decode(Reader& r, SourceDonePayload& v) {
  if (!read_enum(r, v.rel, 1)) return false;
  v.chunks_sent = r.varint();
  v.tuples_sent = r.varint();
  return decode_chunk_map(r, v.chunks_to);
}

void encode(Writer& w, const SourceProgressPayload& v) {
  w.u8(static_cast<std::uint8_t>(v.rel));
  w.varint(v.tuples_sent);
}

bool decode(Reader& r, SourceProgressPayload& v) {
  if (!read_enum(r, v.rel, 1)) return false;
  v.tuples_sent = r.varint();
  return r.ok();
}

void encode(Writer& w, const DrainProbePayload& v) { w.varint(v.epoch); }

bool decode(Reader& r, DrainProbePayload& v) {
  v.epoch = r.varint();
  return r.ok();
}

void encode(Writer& w, const DrainAckPayload& v) {
  w.varint(v.epoch);
  w.varint(v.data_chunks_received);
  w.varint(v.data_chunks_forwarded);
  encode_chunk_map(w, v.received_from);
  encode_chunk_map(w, v.forwarded_to);
}

bool decode(Reader& r, DrainAckPayload& v) {
  v.epoch = r.varint();
  v.data_chunks_received = r.varint();
  v.data_chunks_forwarded = r.varint();
  return decode_chunk_map(r, v.received_from) &&
         decode_chunk_map(r, v.forwarded_to);
}

void encode(Writer& w, const StartProbePayload& v) {
  encode(w, v.map);
  w.varint(v.epoch);
}

bool decode(Reader& r, StartProbePayload& v) {
  if (!decode(r, v.map)) return false;
  v.epoch = r.varint();
  return r.ok();
}

void encode(Writer& w, const HistogramRequestPayload& v) {
  w.varint(v.set_id);
  w.varint(v.bins);
  w.varint(v.round);
}

bool decode(Reader& r, HistogramRequestPayload& v) {
  v.set_id = r.varint();
  const std::uint64_t bins = r.varint();
  if (bins > std::numeric_limits<std::size_t>::max()) r.fail();
  v.bins = static_cast<std::size_t>(bins);
  return read_u32(r, v.round);
}

void encode(Writer& w, const HistogramReplyPayload& v) {
  w.varint(v.set_id);
  encode(w, v.histogram);
  w.varint(v.round);
}

bool decode(Reader& r, HistogramReplyPayload& v) {
  v.set_id = r.varint();
  return decode(r, v.histogram) && read_u32(r, v.round);
}

void encode(Writer& w, const ReshuffleMovePayload& v) {
  // The plan is a re-cut of one replica set's range: valid entries need not
  // start at position 0, so this is a raw entry list, not a PartitionMap.
  w.varint(v.plan.size());
  for (const PartitionMap::Entry& e : v.plan) encode_entry(w, e);
  w.varint(v.round);
}

bool decode(Reader& r, ReshuffleMovePayload& v) {
  const std::uint64_t count = r.varint();
  if (!r.can_hold(count, 4)) return false;
  v.plan.clear();
  v.plan.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    PartitionMap::Entry e;
    if (!decode_entry(r, e)) return false;
    v.plan.push_back(std::move(e));
  }
  return read_u32(r, v.round);
}

void encode(Writer& w, const ReshuffleDonePayload& v) { w.varint(v.round); }

bool decode(Reader& r, ReshuffleDonePayload& v) {
  return read_u32(r, v.round);
}

void encode(Writer& w, const NodeReportPayload& v) {
  encode(w, v.metrics);
  w.u64(v.checksum);
  w.varint(v.result_rows);
}

bool decode(Reader& r, NodeReportPayload& v) {
  if (!decode(r, v.metrics)) return false;
  v.checksum = r.u64();
  v.result_rows = r.varint();
  return r.ok();
}

void encode(Writer& w, const ResultChunkPayload& v) {
  encode(w, v.chunk);
  w.u8(v.first ? 1 : 0);
  w.varint(v.total);
}

bool decode(Reader& r, ResultChunkPayload& v) {
  if (!decode(r, v.chunk)) return false;
  if (!read_bool(r, v.first)) return false;
  v.total = r.varint();
  return r.ok();
}

void encode(Writer& w, const RecoveryFencePayload& v) {
  w.varint(v.epoch);
  encode_ranges(w, v.lost);
}

bool decode(Reader& r, RecoveryFencePayload& v) {
  v.epoch = r.varint();
  return decode_ranges(r, v.lost);
}

void encode(Writer& w, const RangeResetPayload& v) {
  w.varint(v.epoch);
  encode_ranges(w, v.discard);
  w.u8(v.zero_probe_results ? 1 : 0);
  w.u8(v.new_range.has_value() ? 1 : 0);
  if (v.new_range) encode(w, *v.new_range);
  w.u8(v.retired ? 1 : 0);
}

bool decode(Reader& r, RangeResetPayload& v) {
  v.epoch = r.varint();
  if (!decode_ranges(r, v.discard) || !read_bool(r, v.zero_probe_results)) {
    return false;
  }
  bool has_range = false;
  if (!read_bool(r, has_range)) return false;
  if (has_range) {
    PosRange range;
    if (!decode(r, range)) return false;
    v.new_range = range;
  } else {
    v.new_range.reset();
  }
  return read_bool(r, v.retired);
}

void encode(Writer& w, const RangeResetAckPayload& v) { w.varint(v.epoch); }

bool decode(Reader& r, RangeResetAckPayload& v) {
  v.epoch = r.varint();
  return r.ok();
}

void encode(Writer& w, const ReplayRequestPayload& v) {
  w.varint(v.epoch);
  w.u8(static_cast<std::uint8_t>(v.rel));
  encode_ranges(w, v.ranges);
  w.u8(v.pause_after ? 1 : 0);
}

bool decode(Reader& r, ReplayRequestPayload& v) {
  v.epoch = r.varint();
  return read_enum(r, v.rel, 1) && decode_ranges(r, v.ranges) &&
         read_bool(r, v.pause_after);
}

void encode(Writer& w, const ReplayDonePayload& v) {
  w.varint(v.epoch);
  w.u8(static_cast<std::uint8_t>(v.rel));
  w.varint(v.tuples_replayed);
  encode_chunk_map(w, v.chunks_to);
  w.varint(v.chunks_sent_total);
}

bool decode(Reader& r, ReplayDonePayload& v) {
  v.epoch = r.varint();
  if (!read_enum(r, v.rel, 1)) return false;
  v.tuples_replayed = r.varint();
  if (!decode_chunk_map(r, v.chunks_to)) return false;
  v.chunks_sent_total = r.varint();
  return r.ok();
}

namespace {

/// Nested per-source per-destination chunk accounting (snapshot only).
void encode_chunks_to(
    Writer& w, const std::map<ActorId, std::map<ActorId, std::uint64_t>>& m) {
  w.varint(m.size());
  for (const auto& [source, dests] : m) {
    w.zigzag(source);
    encode_chunk_map(w, dests);
  }
}

bool decode_chunks_to(
    Reader& r, std::map<ActorId, std::map<ActorId, std::uint64_t>>& m) {
  const std::uint64_t count = r.varint();
  if (!r.can_hold(count, 2)) return false;
  m.clear();
  ActorId prev = kInvalidActor;
  for (std::uint64_t i = 0; i < count; ++i) {
    ActorId id = kInvalidActor;
    if (!read_id(r, id)) return false;
    if (i > 0 && id <= prev) {
      r.fail();
      return false;
    }
    prev = id;
    std::map<ActorId, std::uint64_t> dests;
    if (!decode_chunk_map(r, dests)) return false;
    m.emplace(id, std::move(dests));
  }
  return true;
}

/// The snapshot's metrics are the scheduler-accrued scalars only; the nodes
/// vector and the join result are deliberately not carried (the promoted
/// scheduler re-collects them with the final reports).
void encode_run_metrics(Writer& w, const RunMetrics& v) {
  w.f64(v.t_start);
  w.f64(v.t_build_end);
  w.f64(v.t_reshuffle_end);
  w.f64(v.t_probe_end);
  w.f64(v.t_complete);
  w.f64(v.split_time);
  w.f64(v.expand_time);
  w.varint(v.initial_join_nodes);
  w.varint(v.expansions);
  w.varint(v.final_join_nodes);
  w.u8(v.pool_exhausted ? 1 : 0);
  w.varint(v.adaptive_splits);
  w.varint(v.adaptive_replicas);
  w.varint(v.source_build_chunks);
  w.varint(v.source_probe_chunks);
  w.varint(v.extra_build_chunks);
  w.varint(v.failures_injected);
  w.varint(v.failures_detected);
  w.f64(v.detection_latency_total);
  w.f64(v.detection_latency_max);
  w.varint(v.false_positive_deaths);
  w.varint(v.join_failures);
  w.varint(v.source_failures);
  w.varint(v.scheduler_failovers);
  w.varint(v.recoveries);
  w.f64(v.recovery_time_total);
  w.varint(v.replayed_build_tuples);
  w.varint(v.replayed_probe_tuples);
  w.varint(v.build_tuples_total);
  w.varint(v.probe_tuples_total);
}

bool decode_run_metrics(Reader& r, RunMetrics& v) {
  v = RunMetrics{};
  v.t_start = r.f64();
  v.t_build_end = r.f64();
  v.t_reshuffle_end = r.f64();
  v.t_probe_end = r.f64();
  v.t_complete = r.f64();
  v.split_time = r.f64();
  v.expand_time = r.f64();
  if (!read_u32(r, v.initial_join_nodes) || !read_u32(r, v.expansions) ||
      !read_u32(r, v.final_join_nodes) || !read_bool(r, v.pool_exhausted) ||
      !read_u32(r, v.adaptive_splits) || !read_u32(r, v.adaptive_replicas)) {
    return false;
  }
  v.source_build_chunks = r.varint();
  v.source_probe_chunks = r.varint();
  v.extra_build_chunks = r.varint();
  if (!read_u32(r, v.failures_injected) || !read_u32(r, v.failures_detected)) {
    return false;
  }
  v.detection_latency_total = r.f64();
  v.detection_latency_max = r.f64();
  if (!read_u32(r, v.false_positive_deaths) ||
      !read_u32(r, v.join_failures) || !read_u32(r, v.source_failures) ||
      !read_u32(r, v.scheduler_failovers) || !read_u32(r, v.recoveries)) {
    return false;
  }
  v.recovery_time_total = r.f64();
  v.replayed_build_tuples = r.varint();
  v.replayed_probe_tuples = r.varint();
  v.build_tuples_total = r.varint();
  v.probe_tuples_total = r.varint();
  return r.ok();
}

}  // namespace

void encode(Writer& w, const SchedulerSnapshotPayload& v) {
  w.varint(v.generation);
  w.u8(v.phase);
  w.u8(v.probe_recovery ? 1 : 0);
  w.varint(v.epoch);
  w.varint(v.map_version);
  encode(w, v.map);
  encode_owners(w, v.joins);
  encode_owners(w, v.sources);
  encode_owners(w, v.dead);
  encode_owners(w, v.spilled);
  encode_owners(w, v.pool_free);  // NodeId shares ActorId's representation
  w.varint(v.reshuffle_round);
  w.varint(v.drain_epoch);
  encode_chunks_to(w, v.source_chunks_to);
  encode_run_metrics(w, v.metrics);
}

bool decode(Reader& r, SchedulerSnapshotPayload& v) {
  v.generation = r.varint();
  // Phase discriminants: kBuild..kDone (9 values).
  const std::uint8_t phase = r.u8();
  if (phase > 8) {
    r.fail();
    return false;
  }
  v.phase = phase;
  if (!read_bool(r, v.probe_recovery)) return false;
  v.epoch = r.varint();
  v.map_version = r.varint();
  if (!decode(r, v.map)) return false;
  if (!decode_owners(r, v.joins) || !decode_owners(r, v.sources) ||
      !decode_owners(r, v.dead) || !decode_owners(r, v.spilled) ||
      !decode_owners(r, v.pool_free)) {
    return false;
  }
  if (!read_u32(r, v.reshuffle_round)) return false;
  v.drain_epoch = r.varint();
  return decode_chunks_to(r, v.source_chunks_to) &&
         decode_run_metrics(r, v.metrics);
}

void encode(Writer& w, const SchedulerHandoffPayload& v) {
  w.varint(v.generation);
  w.varint(v.epoch);
}

bool decode(Reader& r, SchedulerHandoffPayload& v) {
  v.generation = r.varint();
  v.epoch = r.varint();
  return r.ok();
}

void encode(Writer& w, const SchedulerHandoffAckPayload& v) {
  w.varint(v.generation);
  w.u8(v.done_mask);
  w.varint(v.build_tuples);
  w.varint(v.probe_tuples);
  w.varint(v.build_chunks);
  w.varint(v.probe_chunks);
  encode_chunk_map(w, v.chunks_to);
}

bool decode(Reader& r, SchedulerHandoffAckPayload& v) {
  v.generation = r.varint();
  const std::uint8_t mask = r.u8();
  if (mask > 15) {  // bits 0/1: R/S done; bits 2/3: R/S stream started
    r.fail();
    return false;
  }
  v.done_mask = mask;
  v.build_tuples = r.varint();
  v.probe_tuples = r.varint();
  v.build_chunks = r.varint();
  v.probe_chunks = r.varint();
  return decode_chunk_map(r, v.chunks_to);
}

// --- message codec ---

bool known_tag(int tag) {
  switch (static_cast<Tag>(tag)) {
    case Tag::kJoinInit:
    case Tag::kStartBuild:
    case Tag::kGenSlice:
    case Tag::kDataChunk:
    case Tag::kForwardEnd:
    case Tag::kMemoryFull:
    case Tag::kSplitRequest:
    case Tag::kHandoffStart:
    case Tag::kOpComplete:
    case Tag::kRelief:
    case Tag::kSwitchToSpill:
    case Tag::kMapUpdate:
    case Tag::kSourceDone:
    case Tag::kDrainProbe:
    case Tag::kDrainAck:
    case Tag::kBuildComplete:
    case Tag::kStartProbe:
    case Tag::kSourceProgress:
    case Tag::kHistogramRequest:
    case Tag::kHistogramReply:
    case Tag::kReshuffleMove:
    case Tag::kReshuffleDone:
    case Tag::kReportRequest:
    case Tag::kNodeReport:
    case Tag::kResultChunk:
    case Tag::kPing:
    case Tag::kPong:
    case Tag::kHeartbeatTick:
    case Tag::kRecoveryFence:
    case Tag::kRangeReset:
    case Tag::kRangeResetAck:
    case Tag::kReplayRequest:
    case Tag::kReplayDone:
    case Tag::kSchedulerSnapshot:
    case Tag::kSchedulerHandoff:
    case Tag::kSchedulerHandoffAck:
      return true;
  }
  return false;
}

bool tag_has_payload(Tag tag) {
  switch (tag) {
    case Tag::kGenSlice:
    case Tag::kRelief:
    case Tag::kSwitchToSpill:
    case Tag::kBuildComplete:
    case Tag::kReportRequest:
    case Tag::kPing:
    case Tag::kPong:
    case Tag::kHeartbeatTick:
      return false;
    default:
      return true;
  }
}

void encode_message(const Message& msg, Writer& w) {
  EHJA_CHECK_MSG(known_tag(msg.tag), "encoding message with unknown tag");
  const Tag tag = static_cast<Tag>(msg.tag);
  EHJA_CHECK_MSG(msg.has_payload() == tag_has_payload(tag),
                 "message payload presence does not match its tag");
  w.zigzag(msg.tag);
  w.zigzag(msg.from);
  w.varint(msg.wire_bytes);
  switch (tag) {
    case Tag::kJoinInit:
      encode(w, msg.as<JoinInitPayload>());
      break;
    case Tag::kStartBuild:
      encode(w, msg.as<StartBuildPayload>());
      break;
    case Tag::kDataChunk:
      encode(w, msg.as<ChunkPayload>());
      break;
    case Tag::kForwardEnd:
      encode(w, msg.as<ForwardEndPayload>());
      break;
    case Tag::kMemoryFull:
      encode(w, msg.as<MemoryFullPayload>());
      break;
    case Tag::kSplitRequest:
      encode(w, msg.as<SplitRequestPayload>());
      break;
    case Tag::kHandoffStart:
      encode(w, msg.as<HandoffStartPayload>());
      break;
    case Tag::kOpComplete:
      encode(w, msg.as<OpCompletePayload>());
      break;
    case Tag::kMapUpdate:
      encode(w, msg.as<MapUpdatePayload>());
      break;
    case Tag::kSourceDone:
      encode(w, msg.as<SourceDonePayload>());
      break;
    case Tag::kDrainProbe:
      encode(w, msg.as<DrainProbePayload>());
      break;
    case Tag::kDrainAck:
      encode(w, msg.as<DrainAckPayload>());
      break;
    case Tag::kStartProbe:
      encode(w, msg.as<StartProbePayload>());
      break;
    case Tag::kSourceProgress:
      encode(w, msg.as<SourceProgressPayload>());
      break;
    case Tag::kHistogramRequest:
      encode(w, msg.as<HistogramRequestPayload>());
      break;
    case Tag::kHistogramReply:
      encode(w, msg.as<HistogramReplyPayload>());
      break;
    case Tag::kReshuffleMove:
      encode(w, msg.as<ReshuffleMovePayload>());
      break;
    case Tag::kReshuffleDone:
      encode(w, msg.as<ReshuffleDonePayload>());
      break;
    case Tag::kNodeReport:
      encode(w, msg.as<NodeReportPayload>());
      break;
    case Tag::kResultChunk:
      encode(w, msg.as<ResultChunkPayload>());
      break;
    case Tag::kRecoveryFence:
      encode(w, msg.as<RecoveryFencePayload>());
      break;
    case Tag::kRangeReset:
      encode(w, msg.as<RangeResetPayload>());
      break;
    case Tag::kRangeResetAck:
      encode(w, msg.as<RangeResetAckPayload>());
      break;
    case Tag::kReplayRequest:
      encode(w, msg.as<ReplayRequestPayload>());
      break;
    case Tag::kReplayDone:
      encode(w, msg.as<ReplayDonePayload>());
      break;
    case Tag::kSchedulerSnapshot:
      encode(w, msg.as<SchedulerSnapshotPayload>());
      break;
    case Tag::kSchedulerHandoff:
      encode(w, msg.as<SchedulerHandoffPayload>());
      break;
    case Tag::kSchedulerHandoffAck:
      encode(w, msg.as<SchedulerHandoffAckPayload>());
      break;
    case Tag::kGenSlice:
    case Tag::kRelief:
    case Tag::kSwitchToSpill:
    case Tag::kBuildComplete:
    case Tag::kReportRequest:
    case Tag::kPing:
    case Tag::kPong:
    case Tag::kHeartbeatTick:
      break;  // signals carry no payload
  }
}

namespace {

/// Decode a payload of type T and wrap it into a Message.
template <typename T>
bool decode_payload_message(Reader& r, Tag tag, std::size_t wire_bytes,
                            Message& out) {
  T payload;
  if (!decode(r, payload)) return false;
  out = make_message(tag, std::move(payload), wire_bytes);
  return true;
}

}  // namespace

bool decode_message(Reader& r, Message& out) {
  const std::int64_t raw_tag = r.zigzag();
  if (!r.ok() || raw_tag < std::numeric_limits<int>::min() ||
      raw_tag > std::numeric_limits<int>::max() ||
      !known_tag(static_cast<int>(raw_tag))) {
    r.fail();
    return false;
  }
  const Tag tag = static_cast<Tag>(raw_tag);
  ActorId from = kInvalidActor;
  if (!read_id(r, from)) return false;
  const std::uint64_t wire_bytes = r.varint();
  if (!r.ok() || wire_bytes > std::numeric_limits<std::size_t>::max()) {
    r.fail();
    return false;
  }
  const std::size_t bytes = static_cast<std::size_t>(wire_bytes);
  bool decoded = false;
  switch (tag) {
    case Tag::kJoinInit:
      decoded = decode_payload_message<JoinInitPayload>(r, tag, bytes, out);
      break;
    case Tag::kStartBuild:
      decoded = decode_payload_message<StartBuildPayload>(r, tag, bytes, out);
      break;
    case Tag::kDataChunk:
      decoded = decode_payload_message<ChunkPayload>(r, tag, bytes, out);
      break;
    case Tag::kForwardEnd:
      decoded = decode_payload_message<ForwardEndPayload>(r, tag, bytes, out);
      break;
    case Tag::kMemoryFull:
      decoded = decode_payload_message<MemoryFullPayload>(r, tag, bytes, out);
      break;
    case Tag::kSplitRequest:
      decoded =
          decode_payload_message<SplitRequestPayload>(r, tag, bytes, out);
      break;
    case Tag::kHandoffStart:
      decoded =
          decode_payload_message<HandoffStartPayload>(r, tag, bytes, out);
      break;
    case Tag::kOpComplete:
      decoded = decode_payload_message<OpCompletePayload>(r, tag, bytes, out);
      break;
    case Tag::kMapUpdate:
      decoded = decode_payload_message<MapUpdatePayload>(r, tag, bytes, out);
      break;
    case Tag::kSourceDone:
      decoded = decode_payload_message<SourceDonePayload>(r, tag, bytes, out);
      break;
    case Tag::kDrainProbe:
      decoded = decode_payload_message<DrainProbePayload>(r, tag, bytes, out);
      break;
    case Tag::kDrainAck:
      decoded = decode_payload_message<DrainAckPayload>(r, tag, bytes, out);
      break;
    case Tag::kStartProbe:
      decoded = decode_payload_message<StartProbePayload>(r, tag, bytes, out);
      break;
    case Tag::kSourceProgress:
      decoded =
          decode_payload_message<SourceProgressPayload>(r, tag, bytes, out);
      break;
    case Tag::kHistogramRequest:
      decoded =
          decode_payload_message<HistogramRequestPayload>(r, tag, bytes, out);
      break;
    case Tag::kHistogramReply:
      decoded =
          decode_payload_message<HistogramReplyPayload>(r, tag, bytes, out);
      break;
    case Tag::kReshuffleMove:
      decoded =
          decode_payload_message<ReshuffleMovePayload>(r, tag, bytes, out);
      break;
    case Tag::kReshuffleDone:
      decoded =
          decode_payload_message<ReshuffleDonePayload>(r, tag, bytes, out);
      break;
    case Tag::kNodeReport:
      decoded = decode_payload_message<NodeReportPayload>(r, tag, bytes, out);
      break;
    case Tag::kResultChunk:
      decoded = decode_payload_message<ResultChunkPayload>(r, tag, bytes, out);
      break;
    case Tag::kRecoveryFence:
      decoded =
          decode_payload_message<RecoveryFencePayload>(r, tag, bytes, out);
      break;
    case Tag::kRangeReset:
      decoded = decode_payload_message<RangeResetPayload>(r, tag, bytes, out);
      break;
    case Tag::kRangeResetAck:
      decoded =
          decode_payload_message<RangeResetAckPayload>(r, tag, bytes, out);
      break;
    case Tag::kReplayRequest:
      decoded =
          decode_payload_message<ReplayRequestPayload>(r, tag, bytes, out);
      break;
    case Tag::kReplayDone:
      decoded = decode_payload_message<ReplayDonePayload>(r, tag, bytes, out);
      break;
    case Tag::kSchedulerSnapshot:
      decoded =
          decode_payload_message<SchedulerSnapshotPayload>(r, tag, bytes, out);
      break;
    case Tag::kSchedulerHandoff:
      decoded =
          decode_payload_message<SchedulerHandoffPayload>(r, tag, bytes, out);
      break;
    case Tag::kSchedulerHandoffAck:
      decoded = decode_payload_message<SchedulerHandoffAckPayload>(r, tag,
                                                                  bytes, out);
      break;
    case Tag::kGenSlice:
    case Tag::kRelief:
    case Tag::kSwitchToSpill:
    case Tag::kBuildComplete:
    case Tag::kReportRequest:
    case Tag::kPing:
    case Tag::kPong:
    case Tag::kHeartbeatTick:
      out = make_signal(tag, bytes);
      decoded = true;
      break;
  }
  if (!decoded) return false;
  out.from = from;
  return r.ok();
}

// --- config codec ---

namespace {

void encode_dist(Writer& w, const DistributionSpec& v) {
  w.u8(static_cast<std::uint8_t>(v.kind));
  w.f64(v.mean);
  w.f64(v.sigma);
  w.f64(v.zipf_s);
  w.varint(v.domain);
}

bool decode_dist(Reader& r, DistributionSpec& v) {
  if (!read_enum(r, v.kind, 3)) return false;
  v.mean = r.f64();
  v.sigma = r.f64();
  v.zipf_s = r.f64();
  v.domain = r.varint();
  return r.ok();
}

void encode_relation(Writer& w, const RelationSpec& v) {
  w.u8(static_cast<std::uint8_t>(v.tag));
  w.varint(v.tuple_count);
  w.varint(v.schema.tuple_bytes);
  encode_dist(w, v.dist);
  // v6: materialized backing rows (pipeline intermediates) ride inside the
  // relation spec, columnar (ids then keys) with the source checksum.
  w.u8(v.data ? 1 : 0);
  if (v.data) {
    w.u64(v.data->source_checksum);
    for (const Tuple& t : v.data->rows) w.varint(t.id);
    for (const Tuple& t : v.data->rows) w.varint(t.key);
  }
}

bool decode_relation(Reader& r, RelationSpec& v) {
  if (!read_enum(r, v.tag, 1)) return false;
  v.tuple_count = r.varint();
  if (!read_u32(r, v.schema.tuple_bytes)) return false;
  // Schema::payload_bytes() asserts tuple_bytes >= 16; enforce it here so a
  // corrupt config is a decode error, not a later abort.
  if (v.schema.tuple_bytes < 16) {
    r.fail();
    return false;
  }
  if (!decode_dist(r, v.dist)) return false;
  bool has_data = false;
  if (!read_bool(r, has_data)) return false;
  if (!has_data) {
    v.data.reset();
    return true;
  }
  if (!r.can_hold(v.tuple_count, 2)) return false;
  const std::uint64_t source_checksum = r.u64();
  // Each column is read with the bulk reader, which stops at the first bad
  // or missing byte; the rows are built only once both columns are whole.
  const std::size_t n = static_cast<std::size_t>(v.tuple_count);
  std::vector<std::uint64_t> ids(n);
  if (!r.varints(ids.data(), n)) return false;
  std::vector<std::uint64_t> keys(n);
  if (!r.varints(keys.data(), n)) return false;
  auto data = std::make_shared<MaterializedRelation>();
  data->source_checksum = source_checksum;
  data->rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    data->rows.push_back(Tuple{ids[i], keys[i]});
  }
  v.data = std::move(data);
  return true;
}

void encode_link(Writer& w, const LinkConfig& v) {
  w.u8(static_cast<std::uint8_t>(v.topology));
  w.f64(v.bandwidth_bytes_per_sec);
  w.f64(v.latency_sec);
  w.f64(v.per_message_overhead_bytes);
  w.f64(v.loopback_sec_per_byte);
  w.f64(v.fault_jitter_sec);
  w.f64(v.fault_drop_prob);
  w.f64(v.fault_rto_sec);
  w.u64(v.fault_seed);
}

bool decode_link(Reader& r, LinkConfig& v) {
  if (!read_enum(r, v.topology, 1)) return false;
  v.bandwidth_bytes_per_sec = r.f64();
  v.latency_sec = r.f64();
  v.per_message_overhead_bytes = r.f64();
  v.loopback_sec_per_byte = r.f64();
  v.fault_jitter_sec = r.f64();
  v.fault_drop_prob = r.f64();
  v.fault_rto_sec = r.f64();
  v.fault_seed = r.u64();
  return r.ok();
}

void encode_cost(Writer& w, const CostModel& v) {
  w.f64(v.tuple_generate_sec);
  w.f64(v.tuple_insert_sec);
  w.f64(v.tuple_probe_sec);
  w.f64(v.tuple_compare_sec);
  w.f64(v.match_emit_sec);
  w.f64(v.tuple_pack_sec);
  w.f64(v.control_handle_sec);
  w.f64(v.cpu_scale);
}

bool decode_cost(Reader& r, CostModel& v) {
  v.tuple_generate_sec = r.f64();
  v.tuple_insert_sec = r.f64();
  v.tuple_probe_sec = r.f64();
  v.tuple_compare_sec = r.f64();
  v.match_emit_sec = r.f64();
  v.tuple_pack_sec = r.f64();
  v.control_handle_sec = r.f64();
  v.cpu_scale = r.f64();
  return r.ok();
}

void encode_disk(Writer& w, const DiskConfig& v) {
  w.f64(v.write_bytes_per_sec);
  w.f64(v.read_bytes_per_sec);
  w.f64(v.seek_sec);
  w.varint(v.io_buffer_bytes);
}

bool decode_disk(Reader& r, DiskConfig& v) {
  v.write_bytes_per_sec = r.f64();
  v.read_bytes_per_sec = r.f64();
  v.seek_sec = r.f64();
  const std::uint64_t buffer = r.varint();
  if (buffer > std::numeric_limits<std::size_t>::max()) r.fail();
  v.io_buffer_bytes = static_cast<std::size_t>(buffer);
  return r.ok();
}

void encode_faults(Writer& w, const FaultPlan& v) {
  w.varint(v.kills.size());
  for (const KillSpec& kill : v.kills) {
    w.u8(static_cast<std::uint8_t>(kill.role));
    w.varint(kill.pool_index);
    w.f64(kill.at_time);
    w.varint(kill.after_chunks);
  }
}

bool decode_faults(Reader& r, FaultPlan& v) {
  const std::uint64_t count = r.varint();
  if (!r.can_hold(count, 11)) return false;
  v.kills.clear();
  v.kills.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    KillSpec kill;
    if (!read_enum(r, kill.role, 2)) return false;
    if (!read_u32(r, kill.pool_index)) return false;
    kill.at_time = r.f64();
    kill.after_chunks = r.varint();
    if (!r.ok()) return false;
    v.kills.push_back(kill);
  }
  return true;
}

}  // namespace

void encode_config(const EhjaConfig& config, Writer& w) {
  w.u8(static_cast<std::uint8_t>(config.algorithm));
  w.varint(config.initial_join_nodes);
  w.varint(config.join_pool_nodes);
  w.varint(config.data_sources);
  w.varint(config.node_hash_memory_bytes);
  encode_relation(w, config.build_rel);
  encode_relation(w, config.probe_rel);
  w.varint(config.chunk_tuples);
  w.varint(config.generation_slice_tuples);
  w.u64(config.seed);
  w.varint(config.source_progress_slices);
  w.varint(config.reshuffle_bins);
  w.varint(config.spill_fanout);
  w.u8(static_cast<std::uint8_t>(config.pick_policy));
  w.u8(static_cast<std::uint8_t>(config.split_variant));
  w.u8(config.balanced_initial_partition ? 1 : 0);
  w.varint(config.partition_sample);
  // config.trace is deliberately not serialized: tracing is a
  // coordinator-side concern and the sink pointer is meaningless in another
  // process.
  encode_link(w, config.link);
  encode_cost(w, config.cost);
  encode_disk(w, config.disk);
  encode_faults(w, config.faults);
  w.u8(config.ft.force_enabled ? 1 : 0);
  w.f64(config.ft.heartbeat_interval_sec);
  w.f64(config.ft.heartbeat_timeout_sec);
  w.u8(static_cast<std::uint8_t>(config.ft.detector));
  w.f64(config.ft.phi_threshold);
  w.varint(config.ft.phi_window);
  w.u8(config.ft.standby_scheduler ? 1 : 0);
  w.u8(config.capture_output ? 1 : 0);
  w.varint(config.pipeline_stage);
}

bool decode_config(Reader& r, EhjaConfig& config) {
  if (!read_enum(r, config.algorithm, 4)) return false;
  if (!read_u32(r, config.initial_join_nodes) ||
      !read_u32(r, config.join_pool_nodes) ||
      !read_u32(r, config.data_sources)) {
    return false;
  }
  config.node_hash_memory_bytes = r.varint();
  if (!decode_relation(r, config.build_rel) ||
      !decode_relation(r, config.probe_rel)) {
    return false;
  }
  if (!read_u32(r, config.chunk_tuples) ||
      !read_u32(r, config.generation_slice_tuples)) {
    return false;
  }
  config.seed = r.u64();
  if (!read_u32(r, config.source_progress_slices)) return false;
  const std::uint64_t bins = r.varint();
  const std::uint64_t fanout = r.varint();
  if (!r.ok() || bins > std::numeric_limits<std::size_t>::max() ||
      fanout > std::numeric_limits<std::size_t>::max()) {
    r.fail();
    return false;
  }
  config.reshuffle_bins = static_cast<std::size_t>(bins);
  config.spill_fanout = static_cast<std::size_t>(fanout);
  if (!read_enum(r, config.pick_policy, 2) ||
      !read_enum(r, config.split_variant, 1) ||
      !read_bool(r, config.balanced_initial_partition)) {
    return false;
  }
  config.partition_sample = r.varint();
  config.trace = nullptr;
  if (!decode_link(r, config.link) || !decode_cost(r, config.cost) ||
      !decode_disk(r, config.disk) || !decode_faults(r, config.faults)) {
    return false;
  }
  if (!read_bool(r, config.ft.force_enabled)) return false;
  config.ft.heartbeat_interval_sec = r.f64();
  config.ft.heartbeat_timeout_sec = r.f64();
  if (!read_enum(r, config.ft.detector, 1)) return false;
  config.ft.phi_threshold = r.f64();
  if (!read_u32(r, config.ft.phi_window)) return false;
  if (!read_bool(r, config.ft.standby_scheduler)) return false;
  if (!read_bool(r, config.capture_output)) return false;
  return read_u32(r, config.pipeline_stage);
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
