#ifndef ULTRAVERSE_CORE_HISTORY_H_
#define ULTRAVERSE_CORE_HISTORY_H_

#include <memory>
#include <vector>

#include "core/rw_sets.h"
#include "sqldb/database.h"
#include "sqldb/query_log.h"

namespace ultraverse::core {

/// Immutable view of one history epoch (DESIGN.md §14), the only history a
/// RetroactiveEngine reads: owned copies of the committed entries up to the
/// horizon, the canonicalized per-entry analysis, the static footprints, a
/// frozen copy of the analyzer and the epoch. Shared read-only by any
/// number of concurrent what-ifs while traffic keeps committing, and always
/// held by shared_ptr (SnapshotHistory(), SnapshotOfLog()). A facade
/// snapshot extends its predecessor: the commit lock is held only to copy
/// what was committed since (plus the O(tables) database clone).
struct HistorySnapshot : std::enable_shared_from_this<HistorySnapshot> {
  uint64_t epoch = 0;    // history epoch this view pins
  uint64_t horizon = 0;  // committed entries covered (log prefix length)
  /// QueryLog::generation() at build time: a later snapshot may extend
  /// this one only while the generation still holds.
  uint64_t generation = 0;
  /// CoW clone of the database at the horizon; null in SnapshotOfLog views.
  std::shared_ptr<const sql::Database> db;
  /// Immutable segments of owned entry copies, shared with neighbouring
  /// snapshots; `entries` points into them. A publish rewrites live log
  /// entries in place (an add/remove inserts or erases mid-deque), so
  /// pointers into the live log would race with in-flight analyses.
  std::vector<std::shared_ptr<const std::vector<sql::LogEntry>>> entry_storage;
  std::shared_ptr<const std::vector<const sql::LogEntry*>> entries;
  /// Entry i+1 -> element i; the naive strategy needs none.
  std::shared_ptr<const std::vector<QueryRW>> analysis;
  /// Aligned with `analysis`, for DependencyOptions::static_footprints.
  /// Null = no pre-filter.
  std::shared_ptr<const std::vector<TableFootprint>> footprints;
  /// Analyzes a what-if's new statement and §6 rules; engines copy it.
  std::shared_ptr<const QueryAnalyzer> analyzer;
};

/// A view of `log` as it stands now, its entries copied into one owned
/// segment, with `analysis`, no footprints and a copy of `analyzer` (null =
/// none): for self-contained universes (oracle, recovery, tests). A facade
/// caller uses Ultraverse::SnapshotHistory() instead.
std::shared_ptr<const HistorySnapshot> SnapshotOfLog(
    const sql::QueryLog& log, std::vector<QueryRW> analysis = {},
    const QueryAnalyzer* analyzer = nullptr);

}  // namespace ultraverse::core

#endif  // ULTRAVERSE_CORE_HISTORY_H_
