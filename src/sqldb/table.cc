#include "sqldb/table.h"

#include <algorithm>
#include <iterator>

namespace ultraverse::sql {

// --- CoW materialization ---------------------------------------------------

namespace {

/// True when `p` holds the only reference, so the caller may write in place.
/// use_count() is a relaxed load: reading 1 does not order this thread after
/// a sibling that read the object and then dropped its reference from
/// another thread (a staged what-if copying a shared page, or a released
/// snapshot), so an in-place write would race those reads. Copying the
/// pointer is an acq_rel increment of the same count, which does.
template <typename T>
bool SoleOwner(const std::shared_ptr<T>& p) {
  if (p.use_count() > 1) return false;
  std::shared_ptr<T> sync = p;
  return true;
}

}  // namespace

Table::RowPage* Table::OwnedPage(RowId id) {
  std::shared_ptr<RowPage>& page = pages_[PageIndex(id)];
  if (!SoleOwner(page)) page = std::make_shared<RowPage>(*page);
  return page.get();
}

Table::IndexMap* Table::OwnedIndexes() {
  if (!SoleOwner(indexes_)) indexes_ = std::make_shared<IndexMap>(*indexes_);
  return indexes_.get();
}

// --- Journal plumbing ------------------------------------------------------

void Table::SealTail() {
  if (tail_.empty()) return;
  JournalChunk chunk;
  chunk.min_commit = tail_.front().commit_index;
  chunk.max_commit = 0;
  for (const UndoEntry& e : tail_) {
    chunk.min_commit = std::min(chunk.min_commit, e.commit_index);
    chunk.max_commit = std::max(chunk.max_commit, e.commit_index);
  }
  chunk.entries = std::move(tail_);
  tail_.clear();
  sealed_entries_ += chunk.entries.size();
  sealed_.push_back(std::make_shared<const JournalChunk>(std::move(chunk)));
}

void Table::AppendJournal(UndoEntry entry) {
  tail_.push_back(std::move(entry));
  if (tail_.size() >= kJournalChunk) SealTail();
}

void Table::UnsealLastChunk() {
  const std::shared_ptr<const JournalChunk>& chunk = sealed_.back();
  sealed_entries_ -= chunk->entries.size();
  tail_ = chunk->entries;  // copy: the chunk may be shared with a sibling
  sealed_.pop_back();
}

const Table::UndoEntry& Table::LastJournalEntry() const {
  if (!tail_.empty()) return tail_.back();
  return sealed_.back()->entries.back();
}

Table::UndoEntry Table::PopJournalEntry() {
  if (tail_.empty()) UnsealLastChunk();
  UndoEntry entry = std::move(tail_.back());
  tail_.pop_back();
  return entry;
}

// --- Mutations -------------------------------------------------------------

Result<RowId> Table::Insert(Row row, uint64_t commit_index) {
  if (row.size() != schema_.columns.size()) {
    return Status::InvalidArgument("row width mismatch for table " +
                                   schema_.name);
  }
  RowId id = row_count_;
  RowPage* page;
  if (PageIndex(id) == pages_.size()) {
    pages_.push_back(std::make_shared<RowPage>());
    pages_.back()->rows.reserve(kPageRows);
    pages_.back()->alive.reserve(kPageRows);
    page = pages_.back().get();
  } else {
    page = OwnedPage(id);
  }
  page->rows.push_back(std::move(row));
  page->alive.push_back(1);
  ++row_count_;
  ++live_count_;
  const Row& stored = page->rows[Slot(id)];
  NoteRowTypes(stored);
  IndexAdd(id, stored);
  HashAdd(stored);
  AppendJournal({commit_index, UndoOp::kInsert, id, {}, {}});
  return id;
}

Status Table::Delete(RowId id, uint64_t commit_index) {
  if (!IsLive(id)) return Status::NotFound("row not live");
  RowPage* page = OwnedPage(id);
  Row& row = page->rows[Slot(id)];
  IndexRemove(id, row);
  HashRemove(row);
  page->alive[Slot(id)] = 0;
  --live_count_;
  AppendJournal({commit_index, UndoOp::kDelete, id, row, {}});
  return Status::OK();
}

Status Table::Update(RowId id, Row new_row, uint64_t commit_index) {
  if (!IsLive(id)) return Status::NotFound("row not live");
  if (new_row.size() != schema_.columns.size()) {
    return Status::InvalidArgument("row width mismatch for table " +
                                   schema_.name);
  }
  RowPage* page = OwnedPage(id);
  Row& row = page->rows[Slot(id)];
  IndexRemove(id, row);
  HashRemove(row);
  std::vector<uint8_t> mask(row.size(), 0);
  for (size_t i = 0; i < row.size(); ++i) {
    if (!row[i].Equals(new_row[i])) mask[i] = 1;
  }
  AppendJournal({commit_index, UndoOp::kUpdate, id, row, std::move(mask)});
  row = std::move(new_row);
  NoteRowTypes(row);
  IndexAdd(id, row);
  HashAdd(row);
  return Status::OK();
}

std::vector<RowId> Table::LiveRowIds() const {
  std::vector<RowId> ids;
  ids.reserve(live_count_);
  Scan([&](RowId id, const Row&) {
    ids.push_back(id);
    return true;
  });
  return ids;
}

Status Table::CreateIndex(int column_index) {
  if (column_index < 0 || column_index >= int(schema_.columns.size())) {
    return Status::InvalidArgument("index column out of range");
  }
  auto& idx = (*OwnedIndexes())[column_index];
  idx.clear();
  Scan([&](RowId id, const Row& row) {
    idx.emplace(row[column_index].Encode(), id);
    return true;
  });
  // A user-created index over an advisory column promotes it to logical
  // state: it re-enters the state diff and the tree walker's chooser.
  advisory_cols_.erase(column_index);
  return Status::OK();
}

Status Table::CreateAdvisoryIndex(int column_index) {
  UV_RETURN_NOT_OK(CreateIndex(column_index));
  advisory_cols_.insert(column_index);
  return Status::OK();
}

std::vector<RowId> Table::IndexLookup(int column_index, const Value& v) const {
  std::vector<RowId> out;
  auto it = indexes_->find(column_index);
  if (it == indexes_->end()) return out;
  auto range = it->second.equal_range(v.Encode());
  for (auto i = range.first; i != range.second; ++i) out.push_back(i->second);
  return out;
}

size_t Table::IndexCountForKey(int column_index, const Value& v) const {
  auto it = indexes_->find(column_index);
  if (it == indexes_->end()) return 0;
  auto range = it->second.equal_range(v.Encode());
  return size_t(std::distance(range.first, range.second));
}

std::vector<int> Table::IndexedColumns() const {
  std::vector<int> cols;
  cols.reserve(indexes_->size());
  for (const auto& [col, idx] : *indexes_) {
    (void)idx;
    cols.push_back(col);
  }
  std::sort(cols.begin(), cols.end());
  return cols;
}

std::map<std::string, size_t> Table::IndexKeyCounts(int column_index) const {
  std::map<std::string, size_t> counts;
  auto it = indexes_->find(column_index);
  if (it == indexes_->end()) return counts;
  for (const auto& [key, id] : it->second) {
    if (IsLive(id)) ++counts[key];
  }
  return counts;
}

void Table::IndexAdd(RowId id, const Row& row) {
  if (indexes_->empty()) return;
  for (auto& [col, idx] : *OwnedIndexes()) {
    idx.emplace(row[col].Encode(), id);
  }
}

void Table::IndexRemove(RowId id, const Row& row) {
  if (indexes_->empty()) return;
  for (auto& [col, idx] : *OwnedIndexes()) {
    auto range = idx.equal_range(row[col].Encode());
    for (auto i = range.first; i != range.second; ++i) {
      if (i->second == id) {
        idx.erase(i);
        break;
      }
    }
  }
}

// --- Rollback --------------------------------------------------------------

void Table::ApplyUndo(UndoEntry entry, bool masked) {
  RowPage* page = OwnedPage(entry.row_id);
  size_t slot = Slot(entry.row_id);
  switch (entry.op) {
    case UndoOp::kInsert:
      if (page->alive[slot]) {
        IndexRemove(entry.row_id, page->rows[slot]);
        HashRemove(page->rows[slot]);
        page->alive[slot] = 0;
        --live_count_;
      }
      break;
    case UndoOp::kDelete:
      if (!page->alive[slot]) {
        page->rows[slot] = std::move(entry.old_row);
        page->alive[slot] = 1;
        ++live_count_;
        NoteRowTypes(page->rows[slot]);
        IndexAdd(entry.row_id, page->rows[slot]);
        HashAdd(page->rows[slot]);
      }
      break;
    case UndoOp::kUpdate: {
      Row& row = page->rows[slot];
      // A masked rollback can undo an UPDATE whose row a kept later DELETE
      // already removed: the dead row gets its old cells back, but it has
      // no index entries or digest to maintain.
      const bool live = page->alive[slot];
      if (live) {
        IndexRemove(entry.row_id, row);
        HashRemove(row);
      }
      if (masked) {
        // Column-masked: restore only the columns this entry changed, so
        // later cell-independent writes by unselected commits survive.
        for (size_t i = 0; i < row.size() && i < entry.old_row.size(); ++i) {
          if (entry.changed_mask.empty() || entry.changed_mask[i]) {
            row[i] = std::move(entry.old_row[i]);
          }
        }
      } else {
        row = std::move(entry.old_row);
      }
      NoteRowTypes(row);
      if (live) {
        IndexAdd(entry.row_id, row);
        HashAdd(row);
      }
      break;
    }
  }
}

void Table::RollbackToIndex(uint64_t commit_index) {
  while (JournalSize() > 0 &&
         LastJournalEntry().commit_index > commit_index) {
    ApplyUndo(PopJournalEntry(), /*masked=*/false);
  }
}

void Table::RollbackCommits(const std::set<uint64_t>& commits) {
  if (commits.empty() || JournalSize() == 0) return;
  // Entries older than the oldest selected commit can neither be undone
  // nor reordered: leave their (possibly shared) chunks untouched and
  // work only on the journal suffix. This keeps selective rollback
  // proportional to the undone history, not to the table's full journal.
  const uint64_t min_commit = *commits.begin();
  size_t boundary = sealed_.size();
  for (size_t i = 0; i < sealed_.size(); ++i) {
    if (sealed_[i]->max_commit >= min_commit) {
      boundary = i;
      break;
    }
  }
  std::vector<UndoEntry> work;
  for (size_t i = boundary; i < sealed_.size(); ++i) {
    work.insert(work.end(), sealed_[i]->entries.begin(),
                sealed_[i]->entries.end());
    sealed_entries_ -= sealed_[i]->entries.size();
  }
  sealed_.resize(boundary);
  work.insert(work.end(), std::make_move_iterator(tail_.begin()),
              std::make_move_iterator(tail_.end()));
  tail_.clear();

  // Undo matching entries newest-first, keeping the others.
  std::vector<UndoEntry> kept;
  kept.reserve(work.size());
  for (auto it = work.rbegin(); it != work.rend(); ++it) {
    if (!commits.count(it->commit_index)) {
      kept.push_back(std::move(*it));
      continue;
    }
    ApplyUndo(std::move(*it), /*masked=*/true);
  }
  for (auto it = kept.rbegin(); it != kept.rend(); ++it) {
    AppendJournal(std::move(*it));
  }
}

void Table::ResetJournal(uint64_t commit_index) {
  sealed_.clear();
  sealed_entries_ = 0;
  tail_.clear();
  trimmed_before_ = std::max(trimmed_before_, commit_index);
}

void Table::TrimJournalBefore(uint64_t commit_index) {
  trimmed_before_ = std::max(trimmed_before_, commit_index);
  // Whole chunks below the horizon drop without being copied; the boundary
  // chunk is filtered with the same stop-at-first-kept-entry semantics the
  // flat journal used.
  size_t drop = 0;
  while (drop < sealed_.size() &&
         sealed_[drop]->max_commit < commit_index) {
    sealed_entries_ -= sealed_[drop]->entries.size();
    ++drop;
  }
  if (drop > 0) sealed_.erase(sealed_.begin(), sealed_.begin() + drop);
  if (!sealed_.empty() && sealed_.front()->min_commit < commit_index) {
    const auto& entries = sealed_.front()->entries;
    size_t keep_from = 0;
    while (keep_from < entries.size() &&
           entries[keep_from].commit_index < commit_index) {
      ++keep_from;
    }
    JournalChunk filtered;
    filtered.entries.assign(entries.begin() + keep_from, entries.end());
    sealed_entries_ -= keep_from;
    if (filtered.entries.empty()) {
      sealed_.erase(sealed_.begin());
    } else {
      filtered.min_commit = filtered.entries.front().commit_index;
      filtered.max_commit = filtered.min_commit;
      for (const UndoEntry& e : filtered.entries) {
        filtered.min_commit = std::min(filtered.min_commit, e.commit_index);
        filtered.max_commit = std::max(filtered.max_commit, e.commit_index);
      }
      sealed_.front() =
          std::make_shared<const JournalChunk>(std::move(filtered));
    }
    return;
  }
  if (sealed_.empty() && !tail_.empty()) {
    size_t keep_from = 0;
    while (keep_from < tail_.size() &&
           tail_[keep_from].commit_index < commit_index) {
      ++keep_from;
    }
    if (keep_from > 0) {
      tail_.erase(tail_.begin(), tail_.begin() + keep_from);
    }
  }
}

void Table::SetHashing(bool on) {
  if (on == hashing_) return;
  hashing_ = on;
  hash_.Reset();
  if (!on) return;
  Scan([&](RowId, const Row& row) {
    HashAdd(row);
    return true;
  });
}

// --- Clone / memory --------------------------------------------------------

std::unique_ptr<Table> Table::Clone() const {
  auto copy = std::make_unique<Table>(schema_);
  copy->col_type_mask_ = col_type_mask_;
  copy->pages_ = pages_;      // O(#pages) shared_ptr copies
  copy->row_count_ = row_count_;
  copy->live_count_ = live_count_;
  copy->sealed_ = sealed_;    // O(#chunks) shared_ptr copies
  copy->sealed_entries_ = sealed_entries_;
  copy->tail_ = tail_;        // bounded by kJournalChunk entries
  copy->trimmed_before_ = trimmed_before_;
  copy->indexes_ = indexes_;  // shared until either side writes
  copy->advisory_cols_ = advisory_cols_;
  copy->hashing_ = hashing_;
  copy->hash_ = hash_;
  return copy;
}

bool Table::SharesCowState() const {
  if (indexes_.use_count() > 1) return true;
  for (const auto& page : pages_) {
    if (page.use_count() > 1) return true;
  }
  for (const auto& chunk : sealed_) {
    if (chunk.use_count() > 1) return true;
  }
  return false;
}

namespace {

size_t RowBytes(const Row& row) {
  size_t b = sizeof(Row) + row.size() * sizeof(Value);
  for (const Value& v : row) {
    if (v.type() == DataType::kString) b += v.AsStringRef().capacity();
  }
  return b;
}

size_t UndoBytes(const std::vector<Value>& old_row) {
  return sizeof(uint64_t) + sizeof(RowId) + RowBytes(old_row);
}

}  // namespace

size_t Table::ApproxMemoryBytes() const {
  size_t bytes = sizeof(Table);
  for (const auto& page : pages_) {
    bytes += sizeof(RowPage) + page->alive.capacity();
    for (const Row& row : page->rows) bytes += RowBytes(row);
  }
  for (const auto& chunk : sealed_) {
    for (const auto& e : chunk->entries) bytes += UndoBytes(e.old_row);
  }
  for (const auto& e : tail_) bytes += UndoBytes(e.old_row);
  for (const auto& [col, idx] : *indexes_) {
    (void)col;
    bytes += idx.size() * (sizeof(RowId) + 24);
  }
  return bytes;
}

size_t Table::ApproxOwnedBytes() const {
  size_t bytes = sizeof(Table);
  for (const auto& page : pages_) {
    if (page.use_count() > 1) {
      bytes += sizeof(page);  // shared: only the reference is ours
      continue;
    }
    bytes += sizeof(RowPage) + page->alive.capacity();
    for (const Row& row : page->rows) bytes += RowBytes(row);
  }
  for (const auto& chunk : sealed_) {
    if (chunk.use_count() > 1) {
      bytes += sizeof(chunk);
      continue;
    }
    for (const auto& e : chunk->entries) bytes += UndoBytes(e.old_row);
  }
  for (const auto& e : tail_) bytes += UndoBytes(e.old_row);
  if (indexes_.use_count() > 1) {
    bytes += sizeof(indexes_);
  } else {
    for (const auto& [col, idx] : *indexes_) {
      (void)col;
      bytes += idx.size() * (sizeof(RowId) + 24);
    }
  }
  return bytes;
}

}  // namespace ultraverse::sql
