#ifndef ULTRAVERSE_SQLDB_QUERY_LOG_H_
#define ULTRAVERSE_SQLDB_QUERY_LOG_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "sqldb/ast.h"
#include "sqldb/database.h"
#include "util/sha256.h"
#include "util/status.h"

namespace ultraverse::sql {

/// One committed top-level query (stands in for a MySQL binary-log event).
struct LogEntry {
  uint64_t index = 0;     // commit order, 1-based
  std::string sql;        // statement text as committed
  StatementPtr stmt;      // parsed form (shared, immutable after commit)
  NondetRecord nondet;    // recorded nondeterminism for faithful replay
  int64_t timestamp = 0;  // logical commit time

  /// Application-level transaction tag (from the augmented application's
  /// Ultraverse_log call); empty for raw SQL traffic.
  std::string app_txn;
  std::vector<Value> app_args;

  /// Application-level blackbox/nondeterministic API results observed when
  /// the transaction originally ran, keyed by deterministic symbol name
  /// (e.g. "bb_rand_1", "bb_http_send_1.code"). Replays of the original
  /// application code re-inject these (§4.4).
  std::map<std::string, Value> app_blackbox;

  /// Values every procedure variable held while this entry originally
  /// executed (recorded when the transpiled procedure ran). Row-wise
  /// analysis concretizes SELECT-INTO-derived RI values from these (§4.3).
  std::map<std::string, std::vector<Value>> captured_vars;

  /// Hash-jumper: post-commit table hashes of the tables this query
  /// modified (§4.5). Logged asynchronously by the analyzer.
  std::map<std::string, Digest256> table_hashes;
};

/// Append-only committed-query log. Entries live in a deque so references
/// to committed entries stay valid while regular traffic appends new ones
/// (a what-if replay reads old entries concurrently, §4.4).
class QueryLog {
 public:
  /// Appends and assigns the next commit index (returned).
  uint64_t Append(LogEntry entry);

  const std::deque<LogEntry>& entries() const { return entries_; }
  std::deque<LogEntry>& mutable_entries() {
    BumpEpoch();
    BumpGeneration();
    return entries_;
  }
  size_t size() const { return entries_.size(); }
  const LogEntry& at(uint64_t index) const { return entries_[index - 1]; }
  LogEntry& at_mutable(uint64_t index) {
    BumpEpoch();
    BumpGeneration();
    return entries_[index - 1];
  }
  uint64_t last_index() const { return entries_.size(); }

  /// Monotone history epoch (DESIGN.md §14): advances on every commit
  /// (Append), on every mutable access to committed entries, and — via
  /// BumpEpoch from the facade — on every what-if publish that rewrites
  /// history in place. Two equal epochs imply bit-identical history, so
  /// every derived cache (hash timelines, what-if results, analysis
  /// snapshots) keys on it instead of on log *size*, which an equal-length
  /// in-place rewrite leaves unchanged. Safe to read concurrently with an
  /// appending writer.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  void BumpEpoch() { epoch_.fetch_add(1, std::memory_order_acq_rel); }

  /// Rewrite generation (DESIGN.md §14): advances on every in-place change
  /// to committed history — a mutable access (a publish's rewrite, WAL
  /// recovery's clear) — and, via BumpGeneration from the facade, whenever
  /// what it derived from committed entries is rebuilt rather than
  /// extended. Append leaves it alone. So while the generation holds, a
  /// prefix read earlier is still a prefix of the log, and a history
  /// snapshot may be extended by the appended entries alone. Guarded like
  /// the entries themselves (the facade's commit lock).
  uint64_t generation() const { return generation_; }
  void BumpGeneration() { ++generation_; }

  /// Byte size a MySQL-style binary log would use: statement text plus a
  /// fixed per-event header (MySQL binlog v4 events carry a 19-byte common
  /// header plus query-event metadata; we charge 60 bytes, matching the
  /// order of magnitude of Table 7(b)'s MySQL column).
  size_t MySqlStyleBytes() const;

  /// Durable-WAL recovery: clears this log and rebuilds it from the intact
  /// prefix of the WAL at `path` (sqldb/wal). Statements round-trip through
  /// the regular parser; the torn tail is truncated on disk. Returns the
  /// number of entries recovered. Implemented in wal/wal.cc.
  Result<size_t> Recover(const std::string& path);

 private:
  std::deque<LogEntry> entries_;
  std::atomic<uint64_t> epoch_{0};
  uint64_t generation_ = 0;
};

}  // namespace ultraverse::sql

#endif  // ULTRAVERSE_SQLDB_QUERY_LOG_H_
