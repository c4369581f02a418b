// Write-ahead log of committed WriteBatches.
//
// The server's WriteBatch op list (kFacts/kInsert/kLoadFile/kClear, with
// kLoadFile contents captured at commit) is already a logical redo log in
// memory; this file makes it survive a crash. The log is a headerless
// sequence of records, each framing one committed batch:
//
//   [u32 payload_len][u32 crc32(payload)][payload]
//   payload = u64 committed_epoch
//           + encoded ops (kind, text, args)
//           + captured kLoadFile contents, in op order
//
// kLoadFile records replay from the bytes the original commit read —
// recovery NEVER re-reads a path from disk, so files edited or deleted
// after the commit cannot change what replays.
//
// Crash anatomy, applied when scanning the log (ScanWal):
//
//   * A record whose declared extent runs past EOF, or a trailing
//     fragment shorter than a header, is a TORN TAIL — the crash
//     interrupted the final append. Recovery replays the prefix and
//     truncates the tear.
//   * A complete record with a bad checksum that ends exactly at EOF is
//     also classified torn (a zeroed-out tail block from a crashed
//     in-place write looks like this); same treatment.
//   * A complete record with a bad checksum FOLLOWED BY MORE BYTES cannot
//     be a crash artifact of an append-only log — it is interior
//     corruption. The scan fails with kCorruptedLog and nothing is
//     applied; a half-replayed log is worse than a refused one.
//
// fsync policy (fsync_policy.h) decides when appended records reach
// stable storage; under kAlways the commit path syncs before the epoch
// publishes, so every acknowledged commit survives any crash.

#ifndef GRAPHLOG_DURABILITY_WAL_H_
#define GRAPHLOG_DURABILITY_WAL_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "durability/fsync_policy.h"
#include "gov/fault_injection.h"
#include "obs/metrics.h"
#include "server/server.h"

namespace graphlog::durability {

/// \brief CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `len`
/// bytes. Crc32("123456789") == 0xCBF43926, the standard check value.
uint32_t Crc32(const void* data, size_t len);

/// \brief Encodes/decodes a WriteBatch (+ captured file contents) to the
/// WAL payload wire format. Befriended by WriteBatch for op access.
struct BatchCodec {
  /// Appends the encoding of `batch` to `out`. `files` carries the raw
  /// text captured at commit for each kLoadFile op, in op order.
  static Status Encode(const WriteBatch& batch,
                       const std::vector<std::string>& files,
                       std::string* out);
  /// Inverse of Encode; `data` must be exactly one encoded batch.
  static Status Decode(std::string_view data, WriteBatch* batch,
                       std::vector<std::string>* files);
};

/// \brief One committed batch read back from the log.
struct WalRecord {
  uint64_t epoch = 0;
  WriteBatch batch;
  std::vector<std::string> files;  ///< captured kLoadFile contents
};

/// \brief Result of scanning a log file (see crash anatomy above).
struct WalScan {
  std::vector<WalRecord> records;  ///< the valid committed prefix
  /// Bytes of the valid prefix; a torn log truncates to this offset.
  uint64_t valid_prefix_bytes = 0;
  /// Total bytes the file held when scanned.
  uint64_t file_bytes = 0;
  /// True when bytes past the valid prefix were classified as a torn
  /// tail (to be truncated), false when the file ended exactly on a
  /// record boundary.
  bool torn = false;
};

/// \brief Reads every record of the log at `path`, classifying any
/// malformed suffix. A missing file scans as empty. Interior corruption
/// fails with kCorruptedLog and NO records (never a partial prefix whose
/// end was chosen by corruption rather than a crash).
Result<WalScan> ScanWal(const std::string& path);

/// \brief Truncates the file at `path` to `size` bytes (recovery's
/// torn-tail repair).
Status TruncateFile(const std::string& path, uint64_t size);

struct WalOptions {
  FsyncPolicy fsync = FsyncPolicy::kAlways;
  /// kGroupCommit: at most one fsync per window.
  uint64_t group_window_ms = 5;
  /// wal.appends / wal.fsyncs / wal.bytes_appended / wal.append_ns.
  obs::MetricsRegistry* metrics = nullptr;
  /// Sites wal.append (before the record write) and wal.fsync (before
  /// the sync); an injected failure surfaces to the commit path before
  /// the epoch publishes.
  gov::FaultInjector* faults = nullptr;
};

/// \brief Appender over one log file. Single-writer (the server calls it
/// under its commit lock); opening is append-at-end, so recovery must
/// scan + truncate the file first.
class Wal {
 public:
  static Result<std::unique_ptr<Wal>> Open(const std::string& path,
                                           WalOptions opts = {});
  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// \brief Frames and appends one committed batch, then syncs per the
  /// fsync policy. On any failure (injected or real) the log is restored
  /// to its pre-append length so a half-written record never lingers for
  /// the next append to bury mid-file.
  Status Append(uint64_t epoch, const WriteBatch& batch,
                const std::vector<std::string>& files);

  /// \brief Forces an fsync regardless of policy (checkpoint barrier).
  Status Sync();

  /// \brief Empties the log (checkpoint truncates the WAL behind it).
  Status Reset();

  /// \brief Current end-of-log offset == bytes of committed records.
  uint64_t tail_offset() const { return tail_; }

  const std::string& path() const { return path_; }
  FsyncPolicy fsync_policy() const { return opts_.fsync; }
  void set_fsync_policy(FsyncPolicy p) { opts_.fsync = p; }

 private:
  Wal(std::string path, int fd, uint64_t tail, WalOptions opts);
  Status DoSync();

  std::string path_;
  int fd_ = -1;
  uint64_t tail_ = 0;
  WalOptions opts_;
  std::chrono::steady_clock::time_point last_sync_;
  bool sync_pending_ = false;  ///< unsynced bytes under kGroupCommit
};

}  // namespace graphlog::durability

#endif  // GRAPHLOG_DURABILITY_WAL_H_
