#ifndef ULTRAVERSE_SQLDB_WAL_WAL_H_
#define ULTRAVERSE_SQLDB_WAL_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sqldb/query_log.h"
#include "util/status.h"

namespace ultraverse::sql {

/// Durable write-ahead query log (DESIGN.md §11). Each record is
///
///   [u8 type][u32 payload_len][u32 crc32(type || payload)][payload]
///
/// little-endian, appended strictly sequentially. Two record types exist:
/// committed LogEntry records and what-if commit markers (the atomic
/// what-if publish protocol). Recovery scans from the start, verifies
/// every CRC, and truncates at the first torn or corrupt record — the
/// classic ARIES-style "the tail may be torn, the prefix is truth" rule.
enum class WalRecordType : uint8_t {
  kEntry = 1,
  kWhatIfCommit = 2,
};

/// Durable image of a committed retroactive operation: everything recovery
/// needs to re-apply the what-if deterministically. `kind` mirrors
/// core::RetroOp::Kind (sqldb cannot depend on core): 0=add 1=remove
/// 2=change. `new_stmt_nondet` is the nondeterminism the retroactive
/// statement generated when the live replay first executed it — recovery
/// re-injects it so the re-derived universe is bit-identical.
struct WhatIfMarker {
  uint8_t kind = 1;
  uint64_t index = 0;
  std::string new_sql;
  NondetRecord new_stmt_nondet;
  /// Number of WAL entry records preceding this marker (set by recovery;
  /// markers apply to the log prefix that existed when they committed).
  uint64_t entries_before = 0;
};

struct WalOptions {
  /// Fsync after every Nth appended entry record (group commit). 1 =
  /// every append (safest, slowest), 0 = only on explicit Sync() and
  /// commit markers. Unsynced appends sit in a process-local buffer and
  /// are LOST on crash — exactly the durability contract of group commit.
  uint64_t fsync_every_n = 1;
  /// When false, Sync() writes the buffer to the file but skips fsync(2)
  /// (benchmarks isolating serialization cost from disk cost).
  bool use_fsync = true;
};

/// Append side of the WAL. Internally synchronized: concurrent committers
/// (server sessions) append under an internal mutex and wait for group
/// durability with WaitDurable, which broadcasts a failed group fsync to
/// EVERY waiter in the group — not just the caller that happened to
/// trigger the sync.
class Wal {
 public:
  /// Opens (creating or appending to) the log at `path`.
  static Result<std::unique_ptr<Wal>> Open(const std::string& path,
                                           WalOptions options = {});
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Serializes one committed entry into the append buffer; flushes +
  /// fsyncs (waiting for the result) when the group-commit threshold is
  /// reached. Sub-threshold appends return OK with durability deferred —
  /// the group-commit contract: a crash loses the unsynced window.
  Status AppendEntry(const LogEntry& entry);

  /// Appends one committed entry WITHOUT waiting for durability and
  /// returns its append sequence number (monotonic from 1). Callers that
  /// need the entry durable pass the seq to WaitDurable — typically after
  /// releasing whatever commit lock serialized the append, so concurrent
  /// committers pile into one fsync (real group commit). `sync_due`
  /// (nullable) is set when the group-commit threshold has been reached,
  /// i.e. the caller owes a WaitDurable under the configured durability
  /// contract (fsync_every_n).
  Result<uint64_t> AppendEntryAsync(const LogEntry& entry,
                                    bool* sync_due = nullptr);

  /// Blocks until every record up to `seq` is durably synced, running the
  /// sync itself when no other thread is already doing so (leader
  /// self-promotion). If the sync covering `seq` fails, ALL waiters whose
  /// records fell in that group receive the same error — the group's
  /// durability failed for every member, not just the leader.
  /// seq 0 (no WAL record) returns OK immediately.
  Status WaitDurable(uint64_t seq);

  /// Appends a what-if commit marker and ALWAYS flushes + fsyncs before
  /// returning: the marker's durability is the commit point of the atomic
  /// what-if publish protocol. If the marker's group fails to sync, the
  /// marker bytes that reached the file are truncated away (and the
  /// truncation synced) before the error returns, so recovery never
  /// applies a what-if the caller was told aborted (DESIGN.md §11). When
  /// that cannot be guaranteed — a record was appended behind the marker,
  /// or the truncation itself fails — the outcome is unknown: the WAL
  /// fail-stops (every later append returns kDataLoss) and recovery after
  /// a restart decides.
  Status AppendWhatIfCommit(const WhatIfMarker& marker);

  /// Flushes buffered records to the file and fsyncs (per options).
  Status Sync();

  /// Simulated process death: drops the unsynced append buffer and closes
  /// the descriptor WITHOUT flushing — exactly what a crash costs a
  /// group-commit window. The crash harness calls this instead of letting
  /// the destructor's best-effort Sync() run.
  void Abandon();

  /// Highest append seq assigned so far (0 = nothing appended).
  uint64_t appended_seq() const;

  const std::string& path() const { return path_; }

 private:
  Wal(std::string path, int fd, WalOptions options);
  Status AppendRecordLocked(WalRecordType type, const std::string& payload);
  /// Runs one sync pass covering everything appended so far. Caller holds
  /// `lk` and has set sync_in_flight_; the file IO runs unlocked so
  /// appenders keep filling the next group. Broadcasts the result.
  Status RunSyncLocked(std::unique_lock<std::mutex>& lk);
  /// Writes `pending` and fsyncs; `*written` is how many bytes reached the
  /// file, also on failure.
  Status WriteAndFsync(const std::string& pending, uint64_t* written);
  /// Removes the failed marker appended as `seq` at file offset `offset`
  /// (see AppendWhatIfCommit), or fail-stops the WAL.
  Status TruncateFailedMarker(uint64_t seq, uint64_t offset,
                              const Status& cause);

  std::string path_;
  int fd_ = -1;
  WalOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::string buffer_;        // serialized but not yet written+synced
  uint64_t unsynced_appends_ = 0;
  uint64_t appended_seq_ = 0;    // last seq handed out
  uint64_t synced_seq_ = 0;      // highest seq known durable
  uint64_t failed_upto_seq_ = 0; // failed group covered (..failed_upto_seq_]
  Status sync_error_;            // the failed group's error (sticky per group)
  bool sync_in_flight_ = false;  // a leader is writing+fsyncing unlocked
  uint64_t file_size_ = 0;       // bytes in the file (written, maybe unsynced)
  uint64_t group_start_ = 0;     // file offset of the last non-empty group
  Status fail_stop_;             // set when a marker's outcome is unknown
};

/// Result of scanning a WAL file.
struct WalRecovery {
  /// Entry records in order, statements re-parsed from their SQL text.
  std::vector<LogEntry> entries;
  /// Committed what-if markers in order, `entries_before` populated.
  std::vector<WhatIfMarker> markers;
  size_t valid_bytes = 0;      // byte length of the intact prefix
  size_t truncated_bytes = 0;  // bytes dropped past the intact prefix
  bool tail_torn = false;      // truncation happened (torn or corrupt tail)
};

/// Scans the WAL at `path`, verifying length framing and CRCs. Stops at
/// the first torn (runs past EOF) or corrupt (CRC mismatch) record and
/// reports everything before it. When `truncate_file` is set the file is
/// truncated to the intact prefix, making recovery idempotent on disk.
/// A missing file recovers to an empty log (fresh deployment).
Result<WalRecovery> RecoverWal(const std::string& path, bool truncate_file);

/// Rebuilds `log` (cleared first) from the WAL's entry records: the
/// durable QueryLog::Recover. Statements round-trip through the regular
/// parser; a recovered entry whose SQL no longer parses is a hard
/// kDataLoss error (the log only ever holds statements that parsed).
/// Returns the scan report (markers included, for the caller's
/// commit-marker resolution).
Result<WalRecovery> RecoverQueryLog(const std::string& path, QueryLog* log,
                                    bool truncate_file = true);

// --- Serialization (exposed for tests) -------------------------------------

/// Serializes `entry` to the WAL payload encoding.
std::string EncodeLogEntry(const LogEntry& entry);
/// Parses a payload back; statements are re-parsed from the SQL text.
Result<LogEntry> DecodeLogEntry(const std::string& payload);

std::string EncodeWhatIfMarker(const WhatIfMarker& marker);
Result<WhatIfMarker> DecodeWhatIfMarker(const std::string& payload);

}  // namespace ultraverse::sql

#endif  // ULTRAVERSE_SQLDB_WAL_WAL_H_
