#ifndef ULTRAVERSE_SQLDB_TABLE_H_
#define ULTRAVERSE_SQLDB_TABLE_H_

#include <cstdint>
#include <map>
#include <set>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sqldb/schema.h"
#include "sqldb/value.h"
#include "util/status.h"
#include "util/table_hash.h"

namespace ultraverse::sql {

using RowId = uint64_t;

/// A heap table: slotted row storage with tombstones, optional secondary
/// hash indexes, an undo journal providing point-in-time rollback (the
/// "system versioning" rollback option of §5), and an optional incremental
/// Hash-jumper table hash (§4.5). The hash is kept only when its database
/// logs digests (Ultraverse::Options::eager_hash_log); otherwise no write,
/// undo or replay ever hashes a row.
///
/// Storage is copy-on-write (§4.4 selective staging): rows live in
/// shared_ptr-backed pages and the journal in sealed shared chunks, so
/// Clone() shares everything and costs O(#pages) pointer copies. A clone
/// (or its source) materializes a private copy of a page/chunk/index set
/// only when it first mutates it, so staging a temporary replay database
/// never pays for tables — or pages — the replay does not touch.
class Table {
 public:
  explicit Table(TableSchema schema)
      : schema_(std::move(schema)),
        col_type_mask_(schema_.columns.size(), 0),
        indexes_(std::make_shared<IndexMap>()) {}

  const TableSchema& schema() const { return schema_; }
  TableSchema* mutable_schema() { return &schema_; }

  /// Number of live rows.
  size_t LiveRowCount() const { return live_count_; }

  /// Inserts a row (must match schema width). `commit_index` tags the undo
  /// journal entry. Returns the new row's id.
  Result<RowId> Insert(Row row, uint64_t commit_index);

  /// Deletes a live row by id.
  Status Delete(RowId id, uint64_t commit_index);

  /// Overwrites a live row by id.
  Status Update(RowId id, Row new_row, uint64_t commit_index);

  bool IsLive(RowId id) const {
    return id < row_count_ && PageOf(id)->alive[Slot(id)];
  }
  const Row& GetRow(RowId id) const { return PageOf(id)->rows[Slot(id)]; }

  /// Visits every live row; `fn` returning false stops the scan.
  template <typename Fn>
  void Scan(Fn&& fn) const {
    RowId id = 0;
    for (const auto& page : pages_) {
      for (size_t i = 0; i < page->rows.size(); ++i, ++id) {
        if (!page->alive[i]) continue;
        if (!fn(id, page->rows[i])) return;
      }
    }
  }

  /// All live row ids (stable snapshot for mutating scans).
  std::vector<RowId> LiveRowIds() const;

  /// Visits live rows one CoW page at a time: `fn(ids, rows, n)` receives up
  /// to kPageRows parallel arrays of row ids and row pointers, in ascending
  /// id order, and returns false to stop. The VM's batch filter runs its
  /// predicate over each chunk with one page dereference per page instead of
  /// one id->page resolution per row.
  template <typename Fn>
  void ScanBatch(Fn&& fn) const {
    RowId ids[kPageRows];
    const Row* rows[kPageRows];
    RowId base = 0;
    for (const auto& page : pages_) {
      size_t n = 0;
      for (size_t i = 0; i < page->rows.size(); ++i) {
        if (!page->alive[i]) continue;
        ids[n] = base + i;
        rows[n] = &page->rows[i];
        ++n;
      }
      if (n > 0 && !fn(ids, rows, n)) return;
      base += kPageRows;
    }
  }

  // --- Secondary hash indexes -------------------------------------------

  /// Builds (or rebuilds) a hash index over `column_index`. Creating a
  /// real index over a column that carries an advisory one promotes it:
  /// the advisory mark is cleared.
  Status CreateIndex(int column_index);

  /// Builds a hash index that is a pure access-path hint: the VM's
  /// adaptive indexer creates these when an equality predicate repeatedly
  /// scans a large table. Advisory indexes are not logical state — the
  /// state-diff oracle excludes them from its cross-database index
  /// comparison, the tree walker's chooser never considers them, and the
  /// VM probes them only under the totality + typed-exactness proof that
  /// makes the probe observably identical to a scan (DESIGN.md §12).
  Status CreateAdvisoryIndex(int column_index);
  bool IsAdvisoryIndex(int column_index) const {
    return advisory_cols_.count(column_index) > 0;
  }

  bool HasIndex(int column_index) const {
    return indexes_->count(column_index) > 0;
  }
  /// Row ids whose `column_index` equals `v` (only if indexed).
  std::vector<RowId> IndexLookup(int column_index, const Value& v) const;

  /// Number of live index entries for `v` without materializing the ids —
  /// the cost estimate behind the index-vs-scan access-path choice.
  size_t IndexCountForKey(int column_index, const Value& v) const;

  /// Monotone mask of every DataType ever stored in the column (bit =
  /// 1 << int(DataType)); a conservative superset of the types currently
  /// present. The VM consults this to prove that an encode-based index
  /// probe and the coercing SQL comparison agree before letting a SELECT
  /// take the index path (see DESIGN.md §12).
  uint8_t ColumnTypeMask(int column_index) const {
    return col_type_mask_[size_t(column_index)];
  }

  /// Column indexes that carry a secondary index (ascending).
  std::vector<int> IndexedColumns() const;

  /// Live-entry content of one secondary index: encoded key -> number of
  /// live rows the index holds for it. The state-diff oracle compares this
  /// multiset across databases (row ids differ across replay modes, key
  /// multisets must not).
  std::map<std::string, size_t> IndexKeyCounts(int column_index) const;

  // --- Undo journal / time travel ---------------------------------------

  /// Rolls the table content back to its state right after `commit_index`
  /// committed (entries tagged with larger indices are undone).
  void RollbackToIndex(uint64_t commit_index);

  /// Query-selective rollback (Appendix E's M^-1(D, I)): undoes, in reverse
  /// journal order, exactly the journal entries of the given commits.
  /// UPDATE entries restore only the columns that entry changed, so writes
  /// of cell-independent commits are preserved.
  void RollbackCommits(const std::set<uint64_t>& commits);

  /// Drops undo entries older than `commit_index` (checkpoint trim).
  void TrimJournalBefore(uint64_t commit_index);

  /// Drops the whole journal and marks commits before `commit_index` as
  /// untrimmable history (publish reset): a selective what-if publish
  /// replays its slots at post-horizon commit indexes, so the adopted
  /// journal neither matches the rewritten log's indexing nor stays clear
  /// of the indexes future commits will use. What-ifs that must undo a
  /// commit below the mark then re-execute the history naively, exactly
  /// like after a checkpoint trim; post-publish traffic journals normally.
  void ResetJournal(uint64_t commit_index);

  size_t JournalSize() const { return sealed_entries_ + tail_.size(); }

  /// Commits before this index have had their undo entries trimmed by a
  /// checkpoint; they can no longer be rolled back from the journal.
  uint64_t trimmed_before() const { return trimmed_before_; }

  // --- Hash-jumper -------------------------------------------------------

  /// The table's incremental digest; nullptr while the table keeps none.
  const TableHash* table_hash() const { return hashing_ ? &hash_ : nullptr; }

  /// Starts or stops keeping the digest. Turning it on hashes every live
  /// row once; from then on each write and undo adds or subtracts the
  /// digests of the rows it touches.
  void SetHashing(bool on);

  /// Copy-on-write copy (used to stage temporary replay databases): shares
  /// row pages, sealed journal chunks, and the index set with this table.
  /// Either side materializes private copies on its first mutation.
  std::unique_ptr<Table> Clone() const;

  /// Rough full logical footprint in bytes (for the RAM-overhead
  /// benchmarks). Shared CoW state is counted in full — this is the size
  /// of the table's contents, not of what it uniquely owns.
  size_t ApproxMemoryBytes() const;

  /// Bytes this table uniquely owns: pages/chunks/indexes still shared
  /// with a CoW sibling count only as a pointer. A fresh clone reports
  /// near-zero; the figure grows as mutations materialize private copies.
  size_t ApproxOwnedBytes() const;

  /// True while any row page, journal chunk, or the index set is still
  /// shared with a CoW sibling (diagnostics/tests).
  bool SharesCowState() const;

 private:
  enum class UndoOp { kInsert, kDelete, kUpdate };
  struct UndoEntry {
    uint64_t commit_index;
    UndoOp op;
    RowId row_id;
    Row old_row;  // for kDelete / kUpdate
    /// kUpdate: which columns this entry changed (column-masked undo).
    std::vector<uint8_t> changed_mask;
  };

  /// Rows per CoW page; power of two so id -> (page, slot) is shift/mask.
  static constexpr size_t kPageRows = 256;
  static constexpr size_t kPageShift = 8;
  static constexpr size_t kPageMask = kPageRows - 1;
  /// Entries per sealed journal chunk.
  static constexpr size_t kJournalChunk = 256;

  struct RowPage {
    std::vector<Row> rows;
    std::vector<uint8_t> alive;
  };
  /// Immutable once sealed; min/max commit bounds let rollback and trim
  /// skip whole chunks without inspecting entries.
  struct JournalChunk {
    std::vector<UndoEntry> entries;
    uint64_t min_commit = 0;
    uint64_t max_commit = 0;
  };
  using IndexMap =
      std::unordered_map<int, std::unordered_multimap<std::string, RowId>>;

  static size_t PageIndex(RowId id) { return size_t(id) >> kPageShift; }
  static size_t Slot(RowId id) { return size_t(id) & kPageMask; }
  const RowPage* PageOf(RowId id) const { return pages_[PageIndex(id)].get(); }

  /// Returns the page holding `id`, materializing a private copy first if
  /// it is still shared with a CoW sibling.
  RowPage* OwnedPage(RowId id);
  /// Materializes a private index set if it is shared.
  IndexMap* OwnedIndexes();

  void IndexAdd(RowId id, const Row& row);
  void IndexRemove(RowId id, const Row& row);

  void HashAdd(const Row& row) {
    if (hashing_) hash_.AddRow(EncodeRow(row));
  }
  void HashRemove(const Row& row) {
    if (hashing_) hash_.RemoveRow(EncodeRow(row));
  }

  /// ORs the row's value types into col_type_mask_ (called on every path
  /// that introduces row content: insert, update, and undo restores).
  void NoteRowTypes(const Row& row) {
    for (size_t i = 0; i < row.size() && i < col_type_mask_.size(); ++i) {
      col_type_mask_[i] |= uint8_t(1u << unsigned(row[i].type()));
    }
  }

  // Journal plumbing over sealed chunks + owned tail.
  void AppendJournal(UndoEntry entry);
  void SealTail();
  /// Moves the newest sealed chunk's entries back into the tail (copying
  /// if the chunk is shared). Requires an empty tail.
  void UnsealLastChunk();
  const UndoEntry& LastJournalEntry() const;
  UndoEntry PopJournalEntry();

  /// Undoes one journal entry. `masked` selects the column-masked UPDATE
  /// semantics of RollbackCommits; RollbackToIndex restores full rows.
  void ApplyUndo(UndoEntry entry, bool masked);

  TableSchema schema_;
  std::vector<uint8_t> col_type_mask_;  // per column; see ColumnTypeMask()
  std::vector<std::shared_ptr<RowPage>> pages_;
  size_t row_count_ = 0;  // total slots, live + tombstoned
  size_t live_count_ = 0;
  std::vector<std::shared_ptr<const JournalChunk>> sealed_;
  size_t sealed_entries_ = 0;
  std::vector<UndoEntry> tail_;  // open (always privately owned) chunk
  uint64_t trimmed_before_ = 0;
  std::shared_ptr<IndexMap> indexes_;
  std::set<int> advisory_cols_;  // subset of indexes_ keys; see above
  bool hashing_ = false;
  TableHash hash_;  // zero while !hashing_
};

}  // namespace ultraverse::sql

#endif  // ULTRAVERSE_SQLDB_TABLE_H_
