// The GraphLog wire protocol: versioned, length-prefixed, CRC-checked
// frames carrying the Session API over a byte stream.
//
// Everything below the wire already exists — epoch-snapshot Server/
// Session, governor budgets, WAL durability — so the protocol's job is
// narrow: move Session operations (open/refresh/close, queries, write
// batches, relation fetches) between a remote Client and a NetServer
// with the exact in-process semantics, so remote results are
// bit-identical to local ones.
//
// Frame format (little-endian, same framing discipline as the WAL):
//
//   [u32 payload_len][u32 crc32(payload)][payload]
//   payload = [u8 protocol_version][u8 msg_type][body]
//
// A frame whose declared extent outruns the stream, or a stream that
// ends mid-frame, is a clean close from the peer's perspective; a frame
// whose CRC fails, whose version is unknown, or whose declared length
// exceeds kMaxFrameBytes is a protocol error — the server answers with
// an error frame when it still can, then closes. Body decoders are
// bounds-checked cursors (the WAL codec idiom): a checksum-valid but
// logically malformed body is an error, never a wild read.
//
// Versioning: every frame carries its protocol version byte. Version 1
// peers require an exact match; the kHello/kHelloOk exchange is where a
// future version negotiates down. Message-type values and the layout of
// existing bodies are frozen once released — new fields append behind a
// version bump.
//
// Error taxonomy on the wire: an error frame carries the full StatusCode
// enum as a u16 plus the message, so kCancelled / kDeadlineExceeded /
// kBudgetExceeded / kParseError / ... round-trip to the remote caller
// exactly as an in-process caller would see them. kOverloaded errors
// additionally carry a retry_after_ms hint — the admission controller's
// deterministic load-shedding advice (net_server.h).
//
// WriteBatches reuse the durability layer's BatchCodec for their wire
// body. kLoadFile ops never cross the wire: the Client captures the
// file's bytes locally and ships them as a kFacts op (the same
// capture-at-source contract WAL replay honors), and the server
// rejects any kLoadFile op it receives — a
// remote path name must never be read on the server's filesystem.

#ifndef GRAPHLOG_NET_PROTOCOL_H_
#define GRAPHLOG_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "gov/governor.h"
#include "obs/metrics.h"
#include "server/server.h"

namespace graphlog::net {

/// \brief Protocol revision this build speaks. v1 peers require equality.
inline constexpr uint8_t kProtocolVersion = 1;

/// \brief Upper bound on one frame's payload; a declared length past it
/// is a protocol error, not an allocation.
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

/// \brief Frame type tags. Values are wire format — append, never renumber.
enum class MsgType : uint8_t {
  kHello = 0,          ///< client -> server: version handshake
  kHelloOk = 1,        ///< server -> client: handshake accepted
  kOpenSession = 2,    ///< open one session on this connection
  kSessionOpened = 3,  ///< session name + pinned epoch
  kQuery = 4,          ///< run one query on the connection's session
  kQueryResult = 5,    ///< stats/flags/explain of a completed query
  kApplyBatch = 6,     ///< commit one WriteBatch (BatchCodec body)
  kApplyResult = 7,    ///< facts inserted + committed epoch
  kRefresh = 8,        ///< re-pin the session to the head snapshot
  kRefreshed = 9,      ///< new pinned epoch
  kFetchRelation = 10, ///< fetch one relation's rows as fact text
  kRelationData = 11,  ///< the fetched text
  kListRelations = 12, ///< list relations visible to the session
  kRelationList = 13,  ///< (name, arity, rows) per relation
  kCloseSession = 14,  ///< close the connection's session
  kSessionClosed = 15,
  kPing = 16,
  kPong = 17,
  kError = 18,         ///< StatusCode + message (+ retry-after advice)
};

/// \brief One decoded frame: the type tag plus the raw body bytes.
struct Frame {
  MsgType type = MsgType::kError;
  std::string body;
};

// ---------------------------------------------------------------------------
// Wire primitives — little-endian, bounds-checked. Shared by every body
// codec and reusable by tests that craft malformed frames on purpose.

void PutU8(std::string* out, uint8_t v);
void PutU16(std::string* out, uint16_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutStr(std::string* out, std::string_view s);

/// \brief Bounds-checked reader over an encoded body; every Get fails
/// (returns false) rather than reading past the buffer.
struct Cursor {
  std::string_view data;
  size_t pos = 0;

  bool GetU8(uint8_t* v);
  bool GetU16(uint16_t* v);
  bool GetU32(uint32_t* v);
  bool GetU64(uint64_t* v);
  bool GetStr(std::string* s);
  bool done() const { return pos == data.size(); }
};

// ---------------------------------------------------------------------------
// Message bodies.

/// \brief kHello / kHelloOk body.
struct WireHello {
  uint32_t version = kProtocolVersion;
};

/// \brief kOpenSession body: the remote half of SessionOptions. A zero
/// budget/deadline defers to the server's per-connection defaults
/// (NetServerOptions); a set one overrides them for this session.
struct WireSessionOpen {
  std::string name;  ///< empty = server auto-assigns
  gov::ResourceBudget budget;
  uint64_t deadline_ms = 0;
};

/// \brief kSessionOpened / kRefreshed body.
struct WireSessionInfo {
  std::string name;
  uint64_t epoch = 0;
};

/// \brief kQuery body: the remote projection of QueryRequest. Only knobs
/// that change *what* runs cross the wire; observability stays
/// server-side (metrics/slow-log are the operator's, not the client's).
struct WireQuery {
  uint8_t language = 0;  ///< 0 = GraphLog, 1 = Datalog
  std::string text;
  uint32_t num_threads = 1;
  bool columnar = false;
  bool specialize_bound_closures = false;
  bool explain = false;  ///< return the EXPLAIN rendering too
  gov::ResourceBudget budget;  ///< zero fields defer to server defaults
  uint64_t deadline_ms = 0;    ///< 0 defers to the server default
};

/// \brief kQueryResult body: the remote projection of QueryResponse.
struct WireQueryResult {
  uint64_t tuples_derived = 0;
  uint64_t graphs_translated = 0;
  uint64_t graphs_summarized = 0;
  uint64_t result_tuples = 0;
  uint64_t epoch = 0;  ///< session epoch the query ran at
  bool truncated = false;
  bool cache_hit = false;
  bool served_from_view = false;
  std::string truncated_by;
  std::string explain;
};

/// \brief kApplyResult body.
struct WireApplyResult {
  uint64_t facts = 0;
  uint64_t epoch = 0;  ///< committed epoch
};

/// \brief One row of a kRelationList body.
struct WireRelationInfo {
  std::string name;
  uint32_t arity = 0;
  uint64_t rows = 0;
};

/// \brief kError body: the Status taxonomy on the wire. retry_after_ms
/// is nonzero only for kOverloaded — the admission controller's hint.
struct WireError {
  StatusCode code = StatusCode::kInternal;
  std::string message;
  uint32_t retry_after_ms = 0;
};

// Body codecs. Encode appends to *body; Decode requires the body to be
// exactly one encoded message (trailing bytes are an error).
void EncodeHello(const WireHello& m, std::string* body);
Status DecodeHello(std::string_view body, WireHello* m);
void EncodeSessionOpen(const WireSessionOpen& m, std::string* body);
Status DecodeSessionOpen(std::string_view body, WireSessionOpen* m);
void EncodeSessionInfo(const WireSessionInfo& m, std::string* body);
Status DecodeSessionInfo(std::string_view body, WireSessionInfo* m);
void EncodeQuery(const WireQuery& m, std::string* body);
Status DecodeQuery(std::string_view body, WireQuery* m);
void EncodeQueryResult(const WireQueryResult& m, std::string* body);
Status DecodeQueryResult(std::string_view body, WireQueryResult* m);
void EncodeApplyResult(const WireApplyResult& m, std::string* body);
Status DecodeApplyResult(std::string_view body, WireApplyResult* m);
void EncodeRelationList(const std::vector<WireRelationInfo>& m,
                        std::string* body);
Status DecodeRelationList(std::string_view body,
                          std::vector<WireRelationInfo>* m);
void EncodeError(const WireError& m, std::string* body);
Status DecodeError(std::string_view body, WireError* m);

/// \brief Rebuilds the Status an error frame carries. An unknown code
/// (from a newer peer) degrades to kInternal with the message preserved.
Status WireErrorToStatus(const WireError& e);

/// \brief Projects a non-OK Status into an error frame body.
WireError StatusToWireError(const Status& s, uint32_t retry_after_ms = 0);

// ---------------------------------------------------------------------------
// Batch access for the wire.

/// \brief Befriended by WriteBatch: translates batches for the wire.
struct WireBatchAccess {
  /// True when `batch` holds a kLoadFile op (servers reject these).
  static bool HasLoadFile(const WriteBatch& batch);
  /// Returns a copy of `batch` with every kLoadFile op replaced by a
  /// kFacts op holding the file's bytes, read here (the client side) —
  /// the capture-at-source contract. Fails if a file cannot be read.
  static Result<WriteBatch> CaptureLoadFiles(const WriteBatch& batch);
  /// Number of ops in the batch (for reporting).
  static size_t OpCount(const WriteBatch& batch) { return batch.size(); }
};

// ---------------------------------------------------------------------------
// Frame I/O over a connected socket.

/// \brief Serializes one frame (header + version + type + body) into the
/// exact bytes SendFrame would write. Exposed so tests can mutate them.
std::string SerializeFrame(const Frame& frame);

/// \brief Writes one frame to `fd`, handling short writes and EINTR.
/// Counts the bytes into `bytes_out` when non-null.
Status SendFrame(int fd, const Frame& frame, obs::Counter* bytes_out);

/// \brief Reads one frame from `fd`. Counts bytes into `bytes_in` when
/// non-null. Outcomes:
///   * OK — a checksum-valid frame of this protocol version.
///   * a status for which IsCleanClose() holds — the peer closed at a
///     frame boundary (normal disconnect).
///   * kCorruptedLog — mid-frame EOF or CRC mismatch.
///   * kInvalidArgument — declared length past kMaxFrameBytes.
///   * kUnsupported — version byte mismatch.
Result<Frame> RecvFrame(int fd, obs::Counter* bytes_in);

/// \brief True when a RecvFrame error means "peer closed cleanly".
bool IsCleanClose(const Status& s);

}  // namespace graphlog::net

#endif  // GRAPHLOG_NET_PROTOCOL_H_
