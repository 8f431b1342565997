// Versioned binary wire format for the socket runtime.
//
// Everything that crosses a process boundary in the socket runtime goes
// through this module: the actor messages of core/messages.hpp (including
// the recovery/epoch/fence vocabulary), the EhjaConfig handed to workers in
// the connection handshake, and the bodies of the runtime's own control
// frames (hello/peers/spawn/announce/node-dead/retire/query-config).
//
// Layering:
//   * Primitives -- explicit little-endian fixed-width integers, LEB128
//     varints, zigzag-folded signed varints, bit-cast doubles.  Nothing is
//     ever written through a struct overlay, so the format is independent of
//     host endianness and padding.
//   * Field lists -- one `fields(ar, v)` per payload and config struct names
//     each field's kind (range-checked varint, int32 id, strict bool,
//     bounded u8 code, fixed u64, f64, bounded string, optional,
//     can_hold-guarded list).  Encoder runs it to write, Decoder to read and
//     check, so the two directions cannot drift apart.
//   * Composites -- hand-written pairs, kept only where decoding checks an
//     invariant no field kind expresses or a column takes the bulk varint
//     codec: PartitionMap (contiguous cover of the position space), Chunk
//     and BinnedHistogram (columnar varints), RelationSpec's materialized
//     rows (columns sized by tuple_count), and the actor-keyed chunk maps
//     (strictly increasing keys).  They live in wire.cpp.
//   * Message codec -- one table in wire.cpp maps every Tag to its payload
//     type (or marks it a signal); known_tag, encode_message and
//     decode_message read it and carry (tag, from, wire_bytes, payload),
//     reconstructing the exact std::any payload type that
//     Message::as<T>() expects.
//   * Frame layer -- a 16-byte header (magic, version, kind, length) plus a
//     CRC32 over the body.  try_parse_frame() consumes a byte stream
//     incrementally, so a TCP receive buffer can be fed as-is.
//
// Robustness contract: decoding is total.  Truncated, bit-flipped or
// adversarial input makes decode functions return false (or
// FrameStatus::kError) -- never undefined behaviour, never an unbounded
// allocation, never an EHJA_CHECK abort.  Every length read from the wire is
// validated against the bytes actually remaining before anything is
// allocated.  tests/test_wire.cpp fuzzes exactly this contract under ASan.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/config.hpp"
#include "core/messages.hpp"
#include "net/wire_format.hpp"
#include "runtime/message.hpp"

namespace ehja::wire {

/// Wire protocol version; bumped on any incompatible layout change.  A
/// version mismatch is a decode error (mixed-build clusters must fail the
/// handshake, not misinterpret frames).  v2: chunk bodies switched from
/// row-interleaved to columnar encoding (ids column, then keys column).
/// v3: scheduler-failover vocabulary (snapshot/handoff/ack), incarnation
/// epochs on kStartBuild/kStartProbe, kill-spec roles and detector fields
/// in the config handshake.
/// v4: serving layer -- phi_window in the config handshake, client-facing
/// frame kinds (submit/accept/reject/result/status/cancel), per-query
/// config shipping (kQueryConfig) and actor retirement (kRetire) on the
/// fleet links.
/// v5: intra-node parallelism knobs (thread count, build discipline) in the
/// config handshake.
/// v6: materialized pipelines -- stage-tagged configs (pipeline_stage,
/// capture_output), relation specs optionally carrying concrete rows
/// (columnar, checksum-stamped) so a stage's captured output ships to
/// workers inside the config frame, and the kResultChunk message streaming
/// captured output rows back to the scheduler.
/// v7: drops v5's intra-node knobs from the config handshake; kJoinInit
/// carries the recovery epoch a freshly spawned join adopts.
inline constexpr std::uint8_t kWireVersion = 7;

/// CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) over `size` bytes.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

// --- primitives ---

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// LEB128 unsigned varint (1..10 bytes).
  void varint(std::uint64_t v);
  /// `n` varints back to back (the columnar chunk codec's hot loop).
  void varints(const std::uint64_t* values, std::size_t n);
  /// Zigzag-folded signed varint (small magnitudes stay small).
  void zigzag(std::int64_t v);
  /// IEEE-754 double, bit-cast and stored little-endian.
  void f64(double v);
  void bytes(const std::uint8_t* data, std::size_t size);

  /// Capacity for `extra` more bytes, so a known-size body grows once.
  void reserve(std::size_t extra) { buf_.reserve(buf_.size() + extra); }
  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader with a latched failure flag: every accessor
/// returns a zero value once the stream has under-run or a varint was
/// malformed, and ok() reports the verdict.  Callers check ok() at structure
/// boundaries (and *must* check it before trusting any length/count).
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Reader(const std::vector<std::uint8_t>& buf)
      : Reader(buf.data(), buf.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::uint64_t varint();
  /// Read `n` varints into `out`; false (latched) on any corruption.
  bool varints(std::uint64_t* out, std::size_t n);
  std::int64_t zigzag();
  double f64();

  bool ok() const { return ok_; }
  std::size_t remaining() const { return size_ - pos_; }
  /// Mark the stream corrupt (decoders call this on semantic violations).
  void fail() { ok_ = false; }

  /// True when `count` items of at least `min_item_bytes` each could still
  /// be present; otherwise latches failure.  Guards every vector/map
  /// allocation against a corrupt length demanding gigabytes.
  bool can_hold(std::uint64_t count, std::size_t min_item_bytes);

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// --- field archives ---
//
// Each payload's layout is one field list,
//
//   void fields(auto& ar, Is<Payload> auto& v) { ar.varint(v.op_id); ... }
//
// run by an Encoder over a const payload (writing) and by a Decoder over a
// fresh one (reading).  Every call names a field's wire form; the Decoder
// applies that form's check and latches failure on the Reader, so a field
// list cannot decode differently from how it encodes.

/// V is T or const T: one field list serves both directions.
template <class V, class T>
concept Is = std::same_as<std::remove_const_t<V>, T>;

class Encoder {
 public:
  explicit Encoder(Writer& w) : w_(w) {}
  Writer& writer() { return w_; }

  /// LEB128 varint; the Decoder rejects values T cannot hold.
  template <std::unsigned_integral T>
  void varint(T v) { w_.varint(v); }
  /// Zigzag varint of an ActorId / NodeId; the Decoder rejects non-int32.
  void id(std::int32_t v) { w_.zigzag(v); }
  /// One byte, 0 or 1; the Decoder rejects anything else.
  void flag(bool v) { w_.u8(v ? 1 : 0); }
  /// One byte holding an enum or a small code; the Decoder rejects values
  /// above `max`.
  template <class E>
  void code(E v, std::uint8_t /*max*/) { w_.u8(static_cast<std::uint8_t>(v)); }
  /// Eight fixed bytes, for values that use all 64 bits (checksums, seeds).
  void u64(std::uint64_t v) { w_.u64(v); }
  void f64(double v) { w_.f64(v); }
  /// Varint length, then the bytes; strings longer than `max` are cut.
  void text(const std::string& s, std::size_t max) {
    const std::size_t n = s.size() < max ? s.size() : max;
    w_.varint(n);
    w_.bytes(reinterpret_cast<const std::uint8_t*>(s.data()), n);
  }
  /// Presence flag, then `item` on the value.
  template <class T, class F>
  void opt(const std::optional<T>& v, F&& item) {
    flag(v.has_value());
    if (v) item(*v);
  }
  /// Varint count, then `item` on each element.  The Decoder first checks
  /// the count against the bytes left at `min_item_bytes` per element.
  template <class T, class F>
  void list(const std::vector<T>& v, std::size_t /*min_item_bytes*/,
            F&& item) {
    w_.varint(v.size());
    for (const T& x : v) item(x);
  }
  /// A decode-side invariant; nothing to write.
  void require(bool) {}

 private:
  Writer& w_;
};

class Decoder {
 public:
  explicit Decoder(Reader& r) : r_(r) {}
  Reader& reader() { return r_; }
  bool ok() const { return r_.ok(); }

  template <std::unsigned_integral T>
  void varint(T& v) {
    const std::uint64_t x = r_.varint();
    if constexpr (sizeof(T) < sizeof(std::uint64_t)) {
      if (x > std::numeric_limits<T>::max()) r_.fail();
    }
    v = static_cast<T>(x);
  }
  void id(std::int32_t& v) {
    const std::int64_t x = r_.zigzag();
    if (x < std::numeric_limits<std::int32_t>::min() ||
        x > std::numeric_limits<std::int32_t>::max()) {
      r_.fail();
    }
    v = static_cast<std::int32_t>(x);
  }
  void flag(bool& v) {
    const std::uint8_t x = r_.u8();
    if (x > 1) r_.fail();
    v = x == 1;
  }
  template <class E>
  void code(E& v, std::uint8_t max) {
    const std::uint8_t x = r_.u8();
    if (x > max) r_.fail();
    v = static_cast<E>(x);
  }
  void u64(std::uint64_t& v) { v = r_.u64(); }
  void f64(double& v) { v = r_.f64(); }
  void text(std::string& s, std::size_t max) {
    const std::uint64_t n = r_.varint();
    if (n > max) r_.fail();
    s.clear();
    if (!r_.can_hold(n, 1)) return;
    s.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      s.push_back(static_cast<char>(r_.u8()));
    }
  }
  template <class T, class F>
  void opt(std::optional<T>& v, F&& item) {
    bool present = false;
    flag(present);
    if (!present || !r_.ok()) {
      v.reset();
      return;
    }
    item(v.emplace());
  }
  template <class T, class F>
  void list(std::vector<T>& v, std::size_t min_item_bytes, F&& item) {
    const std::uint64_t n = r_.varint();
    v.clear();
    if (!r_.can_hold(n, min_item_bytes)) return;
    v.resize(static_cast<std::size_t>(n));
    for (T& x : v) {
      item(x);
      if (!r_.ok()) return;
    }
  }
  void require(bool holds) {
    if (!holds) r_.fail();
  }

 private:
  Reader& r_;
};

/// Append `v`'s fields to `w`.
template <class T>
void write_fields(Writer& w, const T& v) {
  Encoder ar(w);
  fields(ar, v);
}

/// Read `v`'s fields from `r`; false when any field failed its check.
template <class T>
bool read_fields(Reader& r, T& v) {
  Decoder ar(r);
  fields(ar, v);
  return r.ok();
}

/// A frame body holding exactly `v`.
template <class T>
std::vector<std::uint8_t> encode_body(const T& v) {
  Writer w;
  write_fields(w, v);
  return w.take();
}

/// Decode a frame body that must hold exactly one `v`.
template <class T>
bool decode_body(const std::vector<std::uint8_t>& body, T& v) {
  Reader r(body);
  return read_fields(r, v) && r.remaining() == 0;
}

// --- payload codecs ---
//
// The field lists of core/messages.hpp's payloads live in wire.cpp, next to
// the tag table.  Only these stay callable on their own: the histogram (its
// bulk codec is tested directly) and the data-chunk payload (perfbench times
// the chunk codec through it).

void encode(Writer& w, const BinnedHistogram& v);
bool decode(Reader& r, BinnedHistogram& v);
void encode(Writer& w, const ChunkPayload& v);
bool decode(Reader& r, ChunkPayload& v);

// --- message codec ---

/// True when `tag` names a message of the protocol vocabulary.
bool known_tag(int tag);

/// Serialize (tag, from, wire_bytes, payload).  Aborts on a tag/payload
/// combination the protocol never produces -- that is a local protocol bug,
/// not wire corruption.
void encode_message(const Message& msg, Writer& w);
/// Reconstruct a Message, including the exact std::any payload type for its
/// tag; false on any corruption (unknown tag, payload/signal mismatch,
/// truncation, invariant-violating composite).
bool decode_message(Reader& r, Message& out);

// --- config codec (worker handshake) ---

/// Everything a worker needs to reconstruct the run: all EhjaConfig fields
/// except the trace sink (tracing stays coordinator-side; the Decoder sets
/// it to nullptr).
void fields(Encoder& ar, const EhjaConfig& v);
void fields(Decoder& ar, EhjaConfig& v);

inline void encode_config(const EhjaConfig& config, Writer& w) {
  write_fields(w, config);
}
inline bool decode_config(Reader& r, EhjaConfig& config) {
  return read_fields(r, config);
}

// --- socket runtime control frame bodies ---

/// kHello (worker -> coordinator) and kPeerHello (worker -> worker).
struct HelloBody {
  NodeId node = -1;
  std::uint16_t port = 0;  // mesh listener; 0 on kPeerHello
  std::uint64_t incarnation = 0;
};
void fields(auto& ar, Is<HelloBody> auto& v) {
  ar.id(v.node);
  ar.varint(v.port);
  ar.varint(v.incarnation);
}

/// kPeers (coordinator -> worker): every other worker's mesh port.
struct PeersBody {
  struct Peer {
    NodeId node = -1;
    std::uint16_t port = 0;
  };
  std::vector<Peer> peers;
};
void fields(auto& ar, Is<PeersBody> auto& v) {
  ar.list(v.peers, 2, [&](auto& peer) {
    ar.id(peer.node);
    ar.varint(peer.port);
  });
}

/// kSpawn (coordinator -> worker): instantiate one actor.
struct SpawnBody {
  ActorId id = kInvalidActor;
  std::uint8_t kind = 0;  // RemoteSpawnSpec::Kind
  std::uint32_t source_index = 0;
  ActorId scheduler = kInvalidActor;
  std::uint32_t config_id = 0;  // 0: the handshake config
};
void fields(auto& ar, Is<SpawnBody> auto& v) {
  ar.id(v.id);
  ar.code(v.kind, 1);
  ar.varint(v.source_index);
  ar.id(v.scheduler);
  ar.varint(v.config_id);
}

/// kAnnounce (coordinator -> worker): the node an actor lives on.
struct AnnounceBody {
  ActorId id = kInvalidActor;
  NodeId owner = -1;
};
void fields(auto& ar, Is<AnnounceBody> auto& v) {
  ar.id(v.id);
  ar.id(v.owner);
}

/// kNodeDead (coordinator -> worker): fail-stop notice.
struct NodeDeadBody {
  NodeId node = -1;
};
void fields(auto& ar, Is<NodeDeadBody> auto& v) { ar.id(v.node); }

/// kRetire (coordinator -> worker): forget a finished actor.
struct RetireBody {
  ActorId id = kInvalidActor;
};
void fields(auto& ar, Is<RetireBody> auto& v) { ar.id(v.id); }

/// kQueryConfig (coordinator -> worker): a per-query config and the id
/// kSpawn bodies name it by.
struct QueryConfigBody {
  std::uint32_t id = 0;
  EhjaConfig config;
};
void fields(auto& ar, Is<QueryConfigBody> auto& v) {
  ar.varint(v.id);
  fields(ar, v.config);
}

// --- frame layer ---

enum class FrameKind : std::uint8_t {
  kHello = 1,     // worker -> coordinator: node, listen port, incarnation
  kWelcome = 2,   // coordinator -> worker: wire version check + EhjaConfig
  kPeers = 3,     // coordinator -> worker: worker mesh table
  kPeerHello = 4, // worker -> worker: first frame on a mesh connection
  kReady = 5,     // worker -> coordinator: mesh established
  kSpawn = 6,     // coordinator -> worker: instantiate an actor
  kAnnounce = 7,  // coordinator -> worker: actor id -> node routes
  kActorMsg = 8,  // any -> any: one Message between actors
  kNodeDead = 9,  // coordinator -> worker: fail-stop notice
  kShutdown = 10, // coordinator -> worker: clean exit
  // v4 fleet extensions (serve mode; coordinator <-> warm workers).
  kQueryConfig = 11,  // coordinator -> worker: per-query EhjaConfig + id
  kRetire = 12,       // coordinator -> worker: forget a finished actor
  // v4 client-facing kinds (ehja_client <-> ehja_serve).  These share the
  // frame layer (magic/version/CRC) with the fleet protocol but carry
  // serve/serve_wire.hpp payloads.
  kClientHello = 13,    // client -> server: protocol handshake
  kServerHello = 14,    // server -> client: accepted, server limits
  kSubmitQuery = 15,    // client -> server: tenant, priority, join spec
  kQueryAccepted = 16,  // server -> client: query id, queue position
  kQueryRejected = 17,  // server -> client: reason + retry-after hint
  kQueryResult = 18,    // server -> client: metrics + result digest
  kQueryStatusReq = 19, // client -> server: poll one query
  kQueryStatus = 20,    // server -> client: queued/running/... snapshot
  kCancelQuery = 21,    // client -> server: abandon a queued query
  kShutdownNotice = 22, // server -> client: draining, resubmit elsewhere
};

/// Highest FrameKind value this build understands; try_parse_frame rejects
/// kinds above this so a frame from a *newer* build is a clean decode error
/// (and the serve layer answers kQueryRejected) instead of an abort.
inline constexpr std::uint8_t kMaxFrameKind =
    static_cast<std::uint8_t>(FrameKind::kShutdownNotice);

/// Frame header: magic u32 | version u8 | kind u8 | reserved u16 |
/// body_len u32 | crc32(body) u32 -- 16 bytes, all little-endian.
/// (kFrameHeaderBytes lives in net/wire_format.hpp so relation/chunk.hpp
/// can model transport overhead without depending on the codec.)
inline constexpr std::uint32_t kFrameMagic = 0x454A4857;  // "WHJE" LE
/// Upper bound on one frame body; a corrupt length past this is an error,
/// not an allocation (biggest legitimate frame: a data chunk, ~2 MB).
inline constexpr std::uint32_t kMaxFrameBody = 64u << 20;

struct Frame {
  FrameKind kind = FrameKind::kHello;
  std::vector<std::uint8_t> body;
};

/// Append a complete frame (header + body) to `out`.
void append_frame(std::vector<std::uint8_t>& out, FrameKind kind,
                  const std::vector<std::uint8_t>& body);

enum class FrameStatus {
  kNeedMore,  // prefix of a valid frame; feed more bytes
  kFrame,     // one frame extracted; `consumed` bytes were used
  kError,     // corrupt stream (bad magic/version/kind/length/CRC)
};

/// Try to extract one frame from the front of [data, data+size).  On
/// kFrame, `consumed` is the total bytes to drop from the stream and `out`
/// holds the frame.  On kError, `error` (if non-null) describes the
/// corruption; the stream is unrecoverable (TCP guarantees ordering, so a
/// bad header means a framing bug or corruption, not a resync point).
FrameStatus try_parse_frame(const std::uint8_t* data, std::size_t size,
                            std::size_t& consumed, Frame& out,
                            std::string* error = nullptr);

}  // namespace ehja::wire
