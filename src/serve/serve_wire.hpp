// Client-facing protocol payloads for ehja_serve (wire v4).
//
// These ride the same frame layer as the fleet protocol (net/wire.hpp:
// magic, version, kind, CRC32) but cross a *trust boundary*: the peer may
// be a newer build, a different tool, or garbage.  Each payload is one
// field list on net/wire.hpp's archives, so every decoder is total with the
// fleet codec's checks: truncation, bad lengths, unknown enum values and
// uint32 fields past 2^32 - 1 return false, never abort -- and the server
// pairs them with netio::try_next_frame so a hostile byte stream costs one
// connection, not the process.
//
// Conversation shape (client side in serve/client.hpp):
//
//   client  kClientHello   {tenant}
//   server  kServerHello   {ok, draining, message}
//   client  kSubmitQuery   {client_seq, EhjaConfig}
//   server  kQueryAccepted {client_seq, query_id, queue_position}
//        |  kQueryRejected {client_seq, reason, retry_after_ms, message}
//   server  kQueryResult   {query_id, matches, checksum, ...}   (when done)
//   client  kQueryStatusReq / kCancelQuery;  server kQueryStatus
//   server  kShutdownNotice {message}                           (draining)
//
// client_seq correlates a submit with its accept/reject on a connection
// carrying many in-flight queries; query_id is the server-global name used
// everywhere after acceptance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/config.hpp"
#include "net/wire.hpp"
#include "serve/admission.hpp"

namespace ehja::serve {

/// Why a query (or frame) bounced; superset of AdmitReject with the
/// protocol-level causes the controller never sees.
enum class RejectCode : std::uint8_t {
  kQueueFull = 0,
  kNeverAdmittable = 1,
  kUnknownTenant = 2,
  kDraining = 3,
  kBadConfig = 4,   // EhjaConfig::validate_or_error failed
  kBadFrame = 5,    // undecodable payload, unknown kind, newer version
  kNoHello = 6,     // submit before the hello handshake
};

RejectCode reject_code(AdmitReject reason);
const char* reject_code_name(RejectCode code);

enum class QueryState : std::uint8_t {
  kQueued = 0,
  kRunning = 1,
  kDone = 2,
  kCancelled = 3,
  kUnknown = 4,
};

/// Longest string a payload carries (tenant names, messages); longer ones
/// are cut on encode, and a longer length on the wire is a decode error.
inline constexpr std::size_t kMaxText = 64 * 1024;

// Each payload's field list follows its struct (see net/wire.hpp's field
// archives); encode() and decode_payload() below run it.

struct ClientHelloPayload {
  std::string tenant;
};
void fields(auto& ar, wire::Is<ClientHelloPayload> auto& v) {
  ar.text(v.tenant, kMaxText);
}

struct ServerHelloPayload {
  bool ok = false;        // tenant recognised
  bool draining = false;  // shutdown in progress; submits will bounce
  std::string message;
};
void fields(auto& ar, wire::Is<ServerHelloPayload> auto& v) {
  ar.flag(v.ok);
  ar.flag(v.draining);
  ar.text(v.message, kMaxText);
}

struct SubmitQueryPayload {
  std::uint64_t client_seq = 0;
  EhjaConfig config;
};
void fields(auto& ar, wire::Is<SubmitQueryPayload> auto& v) {
  ar.varint(v.client_seq);
  fields(ar, v.config);
}

struct QueryAcceptedPayload {
  std::uint64_t client_seq = 0;
  std::uint64_t query_id = 0;
  std::uint32_t queue_position = 0;  // 1-based
};
void fields(auto& ar, wire::Is<QueryAcceptedPayload> auto& v) {
  ar.varint(v.client_seq);
  ar.varint(v.query_id);
  ar.varint(v.queue_position);
}

struct QueryRejectedPayload {
  std::uint64_t client_seq = 0;  // 0 when the submit was undecodable
  RejectCode reason = RejectCode::kBadFrame;
  std::uint32_t retry_after_ms = 0;  // > 0: transient, try again
  std::string message;
};
void fields(auto& ar, wire::Is<QueryRejectedPayload> auto& v) {
  ar.varint(v.client_seq);
  ar.code(v.reason, static_cast<std::uint8_t>(RejectCode::kNoHello));
  ar.varint(v.retry_after_ms);
  ar.text(v.message, kMaxText);
}

/// The completed join, summarized.  matches/checksum are the JoinResult the
/// client compares against its serial oracle (byte-identical results are
/// the acceptance bar for the whole serving layer).
struct QueryResultPayload {
  std::uint64_t query_id = 0;
  std::uint64_t matches = 0;
  std::uint64_t checksum = 0;
  std::uint64_t build_tuples = 0;
  std::uint64_t probe_tuples = 0;
  std::uint32_t expansions = 0;
  double queue_sec = 0.0;  // accepted -> admitted
  double run_sec = 0.0;    // admitted -> complete
};
void fields(auto& ar, wire::Is<QueryResultPayload> auto& v) {
  ar.varint(v.query_id);
  ar.varint(v.matches);
  ar.u64(v.checksum);
  ar.varint(v.build_tuples);
  ar.varint(v.probe_tuples);
  ar.varint(v.expansions);
  ar.f64(v.queue_sec);
  ar.f64(v.run_sec);
}

struct QueryStatusReqPayload {
  std::uint64_t query_id = 0;
};
void fields(auto& ar, wire::Is<QueryStatusReqPayload> auto& v) {
  ar.varint(v.query_id);
}

struct QueryStatusPayload {
  std::uint64_t query_id = 0;
  QueryState state = QueryState::kUnknown;
  std::uint32_t queue_position = 0;  // kQueued only
};
void fields(auto& ar, wire::Is<QueryStatusPayload> auto& v) {
  ar.varint(v.query_id);
  ar.code(v.state, static_cast<std::uint8_t>(QueryState::kUnknown));
  ar.varint(v.queue_position);
}

struct CancelQueryPayload {
  std::uint64_t query_id = 0;
};
void fields(auto& ar, wire::Is<CancelQueryPayload> auto& v) {
  ar.varint(v.query_id);
}

struct ShutdownNoticePayload {
  std::string message;
};
void fields(auto& ar, wire::Is<ShutdownNoticePayload> auto& v) {
  ar.text(v.message, kMaxText);
}

/// Append one payload to `w`.
template <class P>
void encode(wire::Writer& w, const P& v) {
  wire::write_fields(w, v);
}

/// Total decode of one payload: true only when every field passed its check
/// and the body was consumed exactly.
template <class P>
bool decode_payload(wire::Reader& r, P& v) {
  return wire::read_fields(r, v) && r.remaining() == 0;
}

}  // namespace ehja::serve
