#include "sqldb/wal/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "sqldb/parser.h"
#include "util/binary_codec.h"
#include "util/crc32.h"

namespace ultraverse::sql {

namespace {

// Primitive little-endian encoding lives in util/binary_codec.h (shared
// with the server wire protocol); only the Value/Nondet shapes are local.

void PutValue(std::string* out, const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      PutU8(out, 0);
      break;
    case DataType::kInt:
      PutU8(out, 1);
      PutI64(out, v.AsInt());
      break;
    case DataType::kDouble:
      PutU8(out, 2);
      PutDouble(out, v.AsDouble());
      break;
    case DataType::kString:
      PutU8(out, 3);
      PutString(out, v.AsStringRef());
      break;
    case DataType::kBool:
      PutU8(out, 4);
      PutU8(out, v.AsBool() ? 1 : 0);
      break;
  }
}

void PutValueVec(std::string* out, const std::vector<Value>& values) {
  PutU32(out, uint32_t(values.size()));
  for (const Value& v : values) PutValue(out, v);
}

using Reader = BinaryReader;

Status ReadVal(Reader* r, Value* v) {
  uint8_t tag;
  UV_RETURN_NOT_OK(r->U8(&tag));
  switch (tag) {
    case 0:
      *v = Value::Null();
      return Status::OK();
    case 1: {
      int64_t i;
      UV_RETURN_NOT_OK(r->I64(&i));
      *v = Value::Int(i);
      return Status::OK();
    }
    case 2: {
      double d;
      UV_RETURN_NOT_OK(r->Dbl(&d));
      *v = Value::Double(d);
      return Status::OK();
    }
    case 3: {
      std::string s;
      UV_RETURN_NOT_OK(r->Str(&s));
      *v = Value::String(std::move(s));
      return Status::OK();
    }
    case 4: {
      uint8_t b;
      UV_RETURN_NOT_OK(r->U8(&b));
      *v = Value::Bool(b != 0);
      return Status::OK();
    }
    default:
      return Status::DataLoss("bad value tag in WAL payload");
  }
}

Status ReadValVec(Reader* r, std::vector<Value>* values) {
  uint32_t n;
  UV_RETURN_NOT_OK(r->U32(&n));
  values->clear();
  values->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Value v;
    UV_RETURN_NOT_OK(ReadVal(r, &v));
    values->push_back(std::move(v));
  }
  return Status::OK();
}

void PutNondet(std::string* out, const NondetRecord& nd) {
  PutValueVec(out, nd.values);
  PutU32(out, uint32_t(nd.auto_inc_ids.size()));
  for (int64_t id : nd.auto_inc_ids) PutI64(out, id);
}

Status ReadNondet(Reader* r, NondetRecord* nd) {
  UV_RETURN_NOT_OK(ReadValVec(r, &nd->values));
  uint32_t n;
  UV_RETURN_NOT_OK(r->U32(&n));
  nd->auto_inc_ids.clear();
  nd->auto_inc_ids.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    int64_t id;
    UV_RETURN_NOT_OK(r->I64(&id));
    nd->auto_inc_ids.push_back(id);
  }
  return Status::OK();
}

}  // namespace

std::string EncodeLogEntry(const LogEntry& entry) {
  std::string out;
  PutU64(&out, entry.index);
  PutString(&out, entry.sql);
  PutI64(&out, entry.timestamp);
  PutNondet(&out, entry.nondet);
  PutString(&out, entry.app_txn);
  PutValueVec(&out, entry.app_args);
  PutU32(&out, uint32_t(entry.app_blackbox.size()));
  for (const auto& [key, value] : entry.app_blackbox) {
    PutString(&out, key);
    PutValue(&out, value);
  }
  PutU32(&out, uint32_t(entry.captured_vars.size()));
  for (const auto& [name, values] : entry.captured_vars) {
    PutString(&out, name);
    PutValueVec(&out, values);
  }
  PutU32(&out, uint32_t(entry.table_hashes.size()));
  for (const auto& [table, digest] : entry.table_hashes) {
    PutString(&out, table);
    for (uint64_t limb : digest.limbs) PutU64(&out, limb);
  }
  return out;
}

Result<LogEntry> DecodeLogEntry(const std::string& payload) {
  LogEntry entry;
  Reader r(payload);
  UV_RETURN_NOT_OK(r.U64(&entry.index));
  UV_RETURN_NOT_OK(r.Str(&entry.sql));
  UV_RETURN_NOT_OK(r.I64(&entry.timestamp));
  UV_RETURN_NOT_OK(ReadNondet(&r, &entry.nondet));
  UV_RETURN_NOT_OK(r.Str(&entry.app_txn));
  UV_RETURN_NOT_OK(ReadValVec(&r, &entry.app_args));
  uint32_t n;
  UV_RETURN_NOT_OK(r.U32(&n));
  for (uint32_t i = 0; i < n; ++i) {
    std::string key;
    Value value;
    UV_RETURN_NOT_OK(r.Str(&key));
    UV_RETURN_NOT_OK(ReadVal(&r, &value));
    entry.app_blackbox.emplace(std::move(key), std::move(value));
  }
  UV_RETURN_NOT_OK(r.U32(&n));
  for (uint32_t i = 0; i < n; ++i) {
    std::string name;
    std::vector<Value> values;
    UV_RETURN_NOT_OK(r.Str(&name));
    UV_RETURN_NOT_OK(ReadValVec(&r, &values));
    entry.captured_vars.emplace(std::move(name), std::move(values));
  }
  UV_RETURN_NOT_OK(r.U32(&n));
  for (uint32_t i = 0; i < n; ++i) {
    std::string table;
    UV_RETURN_NOT_OK(r.Str(&table));
    Digest256 digest;
    for (uint64_t& limb : digest.limbs) UV_RETURN_NOT_OK(r.U64(&limb));
    entry.table_hashes.emplace(std::move(table), digest);
  }
  if (!r.exhausted()) {
    return Status::DataLoss("trailing bytes after WAL entry payload");
  }
  // Round-trip through the regular parser: the stmt pointer is process
  // state, only the SQL text is durable.
  UV_ASSIGN_OR_RETURN(entry.stmt, Parser::ParseStatement(entry.sql));
  return entry;
}

std::string EncodeWhatIfMarker(const WhatIfMarker& marker) {
  std::string out;
  PutU8(&out, marker.kind);
  PutU64(&out, marker.index);
  PutString(&out, marker.new_sql);
  PutNondet(&out, marker.new_stmt_nondet);
  return out;
}

Result<WhatIfMarker> DecodeWhatIfMarker(const std::string& payload) {
  WhatIfMarker marker;
  Reader r(payload);
  UV_RETURN_NOT_OK(r.U8(&marker.kind));
  UV_RETURN_NOT_OK(r.U64(&marker.index));
  UV_RETURN_NOT_OK(r.Str(&marker.new_sql));
  UV_RETURN_NOT_OK(ReadNondet(&r, &marker.new_stmt_nondet));
  if (!r.exhausted()) {
    return Status::DataLoss("trailing bytes after WAL marker payload");
  }
  if (marker.kind > 2) {
    return Status::DataLoss("bad what-if marker kind");
  }
  return marker;
}

// --- Append side ------------------------------------------------------------

Wal::Wal(std::string path, int fd, WalOptions options)
    : path_(std::move(path)), fd_(fd), options_(options) {
  const off_t end = ::lseek(fd_, 0, SEEK_END);
  file_size_ = end > 0 ? uint64_t(end) : 0;
}

Wal::~Wal() {
  if (fd_ >= 0) {
    // Best effort: flush what the caller appended but never synced. A
    // crash simulation abandons the object without running this (the
    // harness leaks or skips the destructor via its owning scope).
    (void)Sync();
    ::close(fd_);
  }
}

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& path,
                                       WalOptions options) {
  int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd < 0) {
    return Status::Unavailable("cannot open WAL " + path + ": " +
                               std::strerror(errno));
  }
  return std::unique_ptr<Wal>(new Wal(path, fd, options));
}

Status Wal::AppendRecordLocked(WalRecordType type, const std::string& payload) {
  UV_RETURN_NOT_OK(fail_stop_);
  UV_FAILPOINT("wal.append");
  std::string framed;
  framed.reserve(payload.size() + 9);
  PutU8(&framed, uint8_t(type));
  PutU32(&framed, uint32_t(payload.size()));
  std::string crc_domain;
  crc_domain.reserve(payload.size() + 1);
  crc_domain.push_back(char(type));
  crc_domain.append(payload);
  PutU32(&framed, Crc32(crc_domain));
  framed.append(payload);
  buffer_.append(framed);
  ++appended_seq_;
  static obs::Counter* const appends =
      obs::Registry::Global().counter("uv.wal.appends");
  appends->Inc();
  return Status::OK();
}

Status Wal::AppendEntry(const LogEntry& entry) {
  uint64_t seq = 0;
  bool need_sync = false;
  std::string payload = EncodeLogEntry(entry);
  {
    std::lock_guard<std::mutex> g(mu_);
    UV_RETURN_NOT_OK(AppendRecordLocked(WalRecordType::kEntry, payload));
    seq = appended_seq_;
    ++unsynced_appends_;
    need_sync = options_.fsync_every_n != 0 &&
                unsynced_appends_ >= options_.fsync_every_n;
  }
  if (need_sync) return WaitDurable(seq);
  return Status::OK();
}

Result<uint64_t> Wal::AppendEntryAsync(const LogEntry& entry,
                                       bool* sync_due) {
  std::string payload = EncodeLogEntry(entry);
  std::lock_guard<std::mutex> g(mu_);
  UV_RETURN_NOT_OK(AppendRecordLocked(WalRecordType::kEntry, payload));
  ++unsynced_appends_;
  if (sync_due) {
    *sync_due = options_.fsync_every_n != 0 &&
                unsynced_appends_ >= options_.fsync_every_n;
  }
  return appended_seq_;
}

Status Wal::WaitDurable(uint64_t seq) {
  if (seq == 0) return Status::OK();
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    // A failed group reports its error to EVERY member: any seq the failed
    // sync covered gets the same sticky status, whether this thread led
    // the sync or was parked waiting on it.
    if (seq <= failed_upto_seq_) return sync_error_;
    if (seq <= synced_seq_) return Status::OK();
    if (fd_ < 0) {
      return Status::Unavailable("WAL abandoned with records in flight");
    }
    if (!sync_in_flight_) {
      // Leader self-promotion: nobody is syncing, so this waiter runs the
      // sync for everything appended so far — later appends during the IO
      // form the next group.
      sync_in_flight_ = true;
      (void)RunSyncLocked(lk);
      continue;  // re-check: our seq is now synced or in the failed range
    }
    cv_.wait(lk);
  }
}

Status Wal::AppendWhatIfCommit(const WhatIfMarker& marker) {
  std::string payload = EncodeWhatIfMarker(marker);
  uint64_t seq = 0;
  uint64_t offset_in_group = 0;  // the buffer is the marker's group
  {
    std::lock_guard<std::mutex> g(mu_);
    offset_in_group = buffer_.size();
    UV_RETURN_NOT_OK(
        AppendRecordLocked(WalRecordType::kWhatIfCommit, payload));
    seq = appended_seq_;
  }
  // The marker IS the commit point: it must be durable before the live
  // tables swap, whatever the group-commit setting says.
  Status st = WaitDurable(seq);
  if (st.ok()) return st;
  return TruncateFailedMarker(seq, offset_in_group, st);
}

Status Wal::TruncateFailedMarker(uint64_t seq, uint64_t offset_in_group,
                                 const Status& cause) {
  // The caller reports this publish as aborted, so the file must not keep
  // a marker that recovery would apply: the write may well have landed
  // before the fsync failed.
  std::unique_lock<std::mutex> lk(mu_);
  while (sync_in_flight_) cv_.wait(lk);
  if (!fail_stop_.ok()) return fail_stop_;
  if (appended_seq_ == seq && fd_ >= 0) {
    // Nothing follows the marker, so its group is the last non-empty one
    // written and the marker starts offset_in_group bytes into it.
    const uint64_t offset = group_start_ + offset_in_group;
    if (file_size_ <= offset) return cause;  // no marker byte landed
    Status injected;
    UV_FAILPOINT_STATUS("wal.marker.truncate", injected);
    if (injected.ok() && ::ftruncate(fd_, off_t(offset)) == 0 &&
        (!options_.use_fsync || ::fsync(fd_) == 0)) {
      file_size_ = offset;
      static obs::Counter* const truncated =
          obs::Registry::Global().counter("uv.wal.marker_truncated");
      truncated->Inc();
      return cause;
    }
  }
  fail_stop_ = Status::DataLoss(
      "WAL fail-stopped: a what-if marker failed to sync (" +
      cause.message() +
      ") and could not be removed; its outcome is unknown until restart "
      "recovery");
  return fail_stop_;
}

void Wal::Abandon() {
  std::lock_guard<std::mutex> g(mu_);
  buffer_.clear();
  unsynced_appends_ = 0;
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  cv_.notify_all();
}

uint64_t Wal::appended_seq() const {
  std::lock_guard<std::mutex> g(mu_);
  return appended_seq_;
}

Status Wal::Sync() {
  std::unique_lock<std::mutex> lk(mu_);
  // Wait out any in-flight group sync, then run one pass of our own so
  // everything appended before this call is durable (or reported failed).
  while (sync_in_flight_) cv_.wait(lk);
  uint64_t seq = appended_seq_;
  if (seq > 0 && seq <= failed_upto_seq_) return sync_error_;
  sync_in_flight_ = true;
  return RunSyncLocked(lk);
}

Status Wal::RunSyncLocked(std::unique_lock<std::mutex>& lk) {
  uint64_t covers = appended_seq_;
  std::string pending;
  pending.swap(buffer_);
  unsynced_appends_ = 0;
  if (!pending.empty()) group_start_ = file_size_;
  lk.unlock();
  uint64_t written = 0;
  Status st = WriteAndFsync(pending, &written);
  lk.lock();
  file_size_ += written;
  sync_in_flight_ = false;
  if (st.ok()) {
    if (covers > synced_seq_) synced_seq_ = covers;
  } else {
    // Durability failed for the WHOLE group: every record up to `covers`
    // that was not already durable shares this error. WaitDurable hands
    // the same status to each waiter in the group.
    sync_error_ = st;
    if (covers > failed_upto_seq_) failed_upto_seq_ = covers;
  }
  cv_.notify_all();
  return st;
}

Status Wal::WriteAndFsync(const std::string& pending, uint64_t* written) {
  // A crash here loses the whole in-memory buffer — the group-commit
  // window — which is exactly what process death before write(2) costs.
  UV_FAILPOINT("wal.sync.pre_write");
  while (*written < pending.size()) {
    ssize_t n = ::write(fd_, pending.data() + *written,
                        pending.size() - *written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable("WAL write failed: " +
                                 std::string(std::strerror(errno)));
    }
    *written += uint64_t(n);
  }
  if (options_.use_fsync) {
    // The group's records hit the page cache; the fsync is what makes the
    // group durable. A failure here is a durability failure for every
    // record in the group — the classic all-waiters-must-hear-it case.
    UV_FAILPOINT("wal.sync.fsync");
    if (::fsync(fd_) != 0) {
      return Status::Unavailable("WAL fsync failed: " +
                                 std::string(std::strerror(errno)));
    }
    static obs::Counter* const fsyncs =
        obs::Registry::Global().counter("uv.wal.fsyncs");
    fsyncs->Inc();
  }
  return Status::OK();
}

// --- Recovery side ----------------------------------------------------------

Result<WalRecovery> RecoverWal(const std::string& path, bool truncate_file) {
  WalRecovery recovery;
  std::ifstream in(path, std::ios::binary);
  if (!in) return recovery;  // no file yet: empty log
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string data = buf.str();

  size_t pos = 0;
  while (pos < data.size()) {
    // Header: type(1) + len(4) + crc(4). Anything shorter is a torn tail.
    if (pos + 9 > data.size()) break;
    uint8_t type = uint8_t(data[pos]);
    uint32_t len = 0, crc = 0;
    for (int i = 0; i < 4; ++i) {
      len |= uint32_t(uint8_t(data[pos + 1 + i])) << (8 * i);
      crc |= uint32_t(uint8_t(data[pos + 5 + i])) << (8 * i);
    }
    if (pos + 9 + len > data.size()) break;  // torn payload
    std::string crc_domain;
    crc_domain.reserve(len + 1);
    crc_domain.push_back(char(type));
    crc_domain.append(data, pos + 9, len);
    if (Crc32(crc_domain) != crc) break;  // corrupt record: stop here
    std::string payload = data.substr(pos + 9, len);
    if (type == uint8_t(WalRecordType::kEntry)) {
      Result<LogEntry> entry = DecodeLogEntry(payload);
      if (!entry.ok()) break;  // CRC passed but content bad: treat as end
      recovery.entries.push_back(std::move(entry).value());
    } else if (type == uint8_t(WalRecordType::kWhatIfCommit)) {
      Result<WhatIfMarker> marker = DecodeWhatIfMarker(payload);
      if (!marker.ok()) break;
      marker->entries_before = recovery.entries.size();
      recovery.markers.push_back(std::move(marker).value());
    } else {
      break;  // unknown record type: cannot trust framing past it
    }
    pos += 9 + len;
  }

  recovery.valid_bytes = pos;
  recovery.truncated_bytes = data.size() - pos;
  recovery.tail_torn = recovery.truncated_bytes > 0;

  static obs::Counter* const recovered =
      obs::Registry::Global().counter("uv.wal.recovered_entries");
  static obs::Counter* const truncated =
      obs::Registry::Global().counter("uv.wal.truncated_bytes");
  recovered->Add(recovery.entries.size());
  truncated->Add(recovery.truncated_bytes);

  if (truncate_file && recovery.tail_torn) {
    if (::truncate(path.c_str(), off_t(pos)) != 0) {
      return Status::Unavailable("WAL truncate failed: " +
                                 std::string(std::strerror(errno)));
    }
  }
  return recovery;
}

Result<WalRecovery> RecoverQueryLog(const std::string& path, QueryLog* log,
                                    bool truncate_file) {
  UV_ASSIGN_OR_RETURN(WalRecovery recovery, RecoverWal(path, truncate_file));
  log->mutable_entries().clear();
  for (LogEntry& entry : recovery.entries) {
    log->Append(entry);  // reassigns index = position, matching append order
  }
  return recovery;
}

// Declared in query_log.h; lives here so query_log.cc stays WAL-free (the
// in-memory log has no durability dependency unless the WAL is linked in).
Result<size_t> QueryLog::Recover(const std::string& path) {
  UV_ASSIGN_OR_RETURN(WalRecovery recovery,
                      RecoverQueryLog(path, this, /*truncate_file=*/true));
  return recovery.entries.size();
}

}  // namespace ultraverse::sql
