// Versioned binary wire format for the socket runtime.
//
// Everything that crosses a process boundary in the socket runtime goes
// through this module: the actor messages of core/messages.hpp (including
// the recovery/epoch/fence vocabulary), the EhjaConfig handed to workers in
// the connection handshake, and the control frames of the runtime itself
// (hello/spawn/announce/shutdown; socket_runtime.cpp defines their bodies
// with the same Writer/Reader primitives).
//
// Layering:
//   * Primitives -- explicit little-endian fixed-width integers, LEB128
//     varints, zigzag-folded signed varints, bit-cast doubles.  Nothing is
//     ever written through a struct overlay, so the format is independent of
//     host endianness and padding.
//   * Payload codecs -- one encode/decode overload pair per payload struct
//     and per composite (PosRange, PartitionMap, Chunk, BinnedHistogram,
//     NodeMetrics, EhjaConfig).
//   * Message codec -- encode_message/decode_message switch on Tag and
//     carry (tag, from, wire_bytes, payload), reconstructing the exact
//     std::any payload type that Message::as<T>() expects.
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

#include <cstddef>
#include <cstdint>
#include <string>
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

// --- composite codecs (shared building blocks) ---

void encode(Writer& w, const PosRange& v);
bool decode(Reader& r, PosRange& v);
void encode(Writer& w, const Chunk& v);
bool decode(Reader& r, Chunk& v);
void encode(Writer& w, const PartitionMap& v);
bool decode(Reader& r, PartitionMap& v);  // validates map invariants
void encode(Writer& w, const BinnedHistogram& v);
bool decode(Reader& r, BinnedHistogram& v);
void encode(Writer& w, const NodeMetrics& v);
bool decode(Reader& r, NodeMetrics& v);

// --- payload codecs, one pair per struct in core/messages.hpp ---

void encode(Writer& w, const JoinInitPayload& v);
bool decode(Reader& r, JoinInitPayload& v);
void encode(Writer& w, const StartBuildPayload& v);
bool decode(Reader& r, StartBuildPayload& v);
void encode(Writer& w, const ChunkPayload& v);
bool decode(Reader& r, ChunkPayload& v);
void encode(Writer& w, const ForwardEndPayload& v);
bool decode(Reader& r, ForwardEndPayload& v);
void encode(Writer& w, const MemoryFullPayload& v);
bool decode(Reader& r, MemoryFullPayload& v);
void encode(Writer& w, const SplitRequestPayload& v);
bool decode(Reader& r, SplitRequestPayload& v);
void encode(Writer& w, const HandoffStartPayload& v);
bool decode(Reader& r, HandoffStartPayload& v);
void encode(Writer& w, const OpCompletePayload& v);
bool decode(Reader& r, OpCompletePayload& v);
void encode(Writer& w, const MapUpdatePayload& v);
bool decode(Reader& r, MapUpdatePayload& v);
void encode(Writer& w, const SourceDonePayload& v);
bool decode(Reader& r, SourceDonePayload& v);
void encode(Writer& w, const SourceProgressPayload& v);
bool decode(Reader& r, SourceProgressPayload& v);
void encode(Writer& w, const DrainProbePayload& v);
bool decode(Reader& r, DrainProbePayload& v);
void encode(Writer& w, const DrainAckPayload& v);
bool decode(Reader& r, DrainAckPayload& v);
void encode(Writer& w, const StartProbePayload& v);
bool decode(Reader& r, StartProbePayload& v);
void encode(Writer& w, const HistogramRequestPayload& v);
bool decode(Reader& r, HistogramRequestPayload& v);
void encode(Writer& w, const HistogramReplyPayload& v);
bool decode(Reader& r, HistogramReplyPayload& v);
void encode(Writer& w, const ReshuffleMovePayload& v);
bool decode(Reader& r, ReshuffleMovePayload& v);
void encode(Writer& w, const ReshuffleDonePayload& v);
bool decode(Reader& r, ReshuffleDonePayload& v);
void encode(Writer& w, const NodeReportPayload& v);
bool decode(Reader& r, NodeReportPayload& v);
void encode(Writer& w, const ResultChunkPayload& v);
bool decode(Reader& r, ResultChunkPayload& v);
void encode(Writer& w, const RecoveryFencePayload& v);
bool decode(Reader& r, RecoveryFencePayload& v);
void encode(Writer& w, const RangeResetPayload& v);
bool decode(Reader& r, RangeResetPayload& v);
void encode(Writer& w, const RangeResetAckPayload& v);
bool decode(Reader& r, RangeResetAckPayload& v);
void encode(Writer& w, const ReplayRequestPayload& v);
bool decode(Reader& r, ReplayRequestPayload& v);
void encode(Writer& w, const ReplayDonePayload& v);
bool decode(Reader& r, ReplayDonePayload& v);
void encode(Writer& w, const SchedulerSnapshotPayload& v);
bool decode(Reader& r, SchedulerSnapshotPayload& v);
void encode(Writer& w, const SchedulerHandoffPayload& v);
bool decode(Reader& r, SchedulerHandoffPayload& v);
void encode(Writer& w, const SchedulerHandoffAckPayload& v);
bool decode(Reader& r, SchedulerHandoffAckPayload& v);

// --- message codec ---

/// True when `tag` names a message of the protocol vocabulary.
bool known_tag(int tag);
/// True when messages with `tag` carry a payload (signals carry none).
bool tag_has_payload(Tag tag);

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
/// except the trace sink (tracing stays coordinator-side; workers get
/// nullptr).
void encode_config(const EhjaConfig& config, Writer& w);
bool decode_config(Reader& r, EhjaConfig& config);

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
