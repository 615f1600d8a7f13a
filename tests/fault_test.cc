// Fault-injection framework, durable WAL, and atomic what-if commit tests
// (DESIGN.md §11): failpoint trigger semantics, torn-tail truncation on
// every byte boundary, recovery idempotence, the two-phase what-if publish
// (crash at any failpoint recovers to pre or post, never between), the
// explicit replay-error classification, cancellation/deadline drain, and
// bounded retry of transient faults.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/replay.h"
#include "core/txn_scheduler.h"
#include "core/ultraverse.h"
#include "fault/failpoint.h"
#include "fault/recovery.h"
#include "obs/metrics.h"
#include "oracle/oracle.h"
#include "sqldb/parser.h"
#include "sqldb/state_diff.h"
#include "sqldb/wal/wal.h"
#include "util/cancellation.h"

namespace ultraverse::fault {
namespace {

namespace fs = std::filesystem;

std::string TmpPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().counter(name)->Value();
}

std::vector<std::string> BasicHistory() {
  return {
      "CREATE TABLE accounts (id INT PRIMARY KEY AUTO_INCREMENT,"
      " owner VARCHAR, balance INT)",
      "INSERT INTO accounts (owner, balance) VALUES ('alice', 100)",
      "INSERT INTO accounts (owner, balance) VALUES ('bob', 50)",
      "UPDATE accounts SET balance = balance + 10 WHERE owner = 'alice'",
      "INSERT INTO accounts (owner, balance) VALUES ('carol', 75)",
      "UPDATE accounts SET balance = balance - 25 WHERE owner = 'bob'",
      "DELETE FROM accounts WHERE balance > 105",
  };
}

Result<core::RetroOp> MakeOp(core::RetroOp::Kind kind, uint64_t index,
                             const std::string& new_sql = "") {
  core::RetroOp op;
  op.kind = kind;
  op.index = index;
  if (kind != core::RetroOp::Kind::kRemove) {
    UV_ASSIGN_OR_RETURN(op.new_stmt, sql::Parser::ParseStatement(new_sql));
    op.new_sql = new_sql;
  }
  return op;
}

/// Every test disarms on both ends: the registry and its gate are
/// process-global, and a leaked arming would bleed into unrelated tests.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Global().DisarmAll(); }
  void TearDown() override { FailpointRegistry::Global().DisarmAll(); }
};

// --- failpoint trigger semantics -------------------------------------------

TEST_F(FaultTest, DisabledSiteIsInertAndUnregistered) {
  EXPECT_FALSE(FailpointsActive());
  EXPECT_TRUE(UV_FAILPOINT_EVAL("fault.test.inert").ok());
  // Without tracking or arming the fast path never touches the registry,
  // so the site must not have registered.
  for (const auto& name : FailpointRegistry::Global().KnownSites()) {
    EXPECT_NE(name, "fault.test.inert");
  }
}

TEST_F(FaultTest, ArmedErrorInjectsConfiguredCode) {
  FailpointConfig config;
  config.error_code = StatusCode::kTimeout;
  FailpointRegistry::Global().Arm("fault.test.err", config);
  EXPECT_TRUE(FailpointsActive());
  Status st = UV_FAILPOINT_EVAL("fault.test.err");
  EXPECT_EQ(st.code(), StatusCode::kTimeout);
  EXPECT_EQ(FailpointRegistry::Global().Fires("fault.test.err"), 1u);
  FailpointRegistry::Global().Disarm("fault.test.err");
  EXPECT_FALSE(FailpointsActive());
  EXPECT_TRUE(UV_FAILPOINT_EVAL("fault.test.err").ok());
}

TEST_F(FaultTest, OnceFiresExactlyOnce) {
  FailpointConfig config;
  config.max_fires = 1;
  FailpointRegistry::Global().Arm("fault.test.once", config);
  EXPECT_FALSE(UV_FAILPOINT_EVAL("fault.test.once").ok());
  EXPECT_TRUE(UV_FAILPOINT_EVAL("fault.test.once").ok());
  EXPECT_TRUE(UV_FAILPOINT_EVAL("fault.test.once").ok());
  EXPECT_EQ(FailpointRegistry::Global().Fires("fault.test.once"), 1u);
}

TEST_F(FaultTest, SkipAndEveryNSchedule) {
  // skip_first=2, every_n=2: fires on evaluations 3, 5, 7, ...
  FailpointConfig config;
  config.skip_first = 2;
  config.every_n = 2;
  FailpointRegistry::Global().Arm("fault.test.sched", config);
  std::vector<bool> fired;
  for (int i = 0; i < 7; ++i) {
    fired.push_back(!UV_FAILPOINT_EVAL("fault.test.sched").ok());
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, true, false,
                                      true}));
}

TEST_F(FaultTest, ProbabilityEndpoints) {
  FailpointConfig never;
  never.probability = 0.0;
  FailpointRegistry::Global().Arm("fault.test.p0", never);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(UV_FAILPOINT_EVAL("fault.test.p0").ok());
  }
  FailpointConfig always;
  always.probability = 1.0;
  FailpointRegistry::Global().Arm("fault.test.p1", always);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(UV_FAILPOINT_EVAL("fault.test.p1").ok());
  }
}

TEST_F(FaultTest, CrashActionThrowsCrashException) {
  FailpointConfig config;
  config.action = FailAction::kCrash;
  config.max_fires = 1;
  FailpointRegistry::Global().Arm("fault.test.crash", config);
  bool caught = false;
  try {
    (void)UV_FAILPOINT_EVAL("fault.test.crash");
  } catch (const CrashException& e) {
    caught = true;
    EXPECT_EQ(e.site, "fault.test.crash");
  }
  EXPECT_TRUE(caught);
}

TEST_F(FaultTest, ArmFromSpecParsesActionsAndModifiers) {
  auto& registry = FailpointRegistry::Global();
  ASSERT_TRUE(registry
                  .ArmFromSpec("fault.test.a=error(timeout):once,"
                               "fault.test.b=delay(10),fault.test.c=crash")
                  .ok());
  Status st = UV_FAILPOINT_EVAL("fault.test.a");
  EXPECT_EQ(st.code(), StatusCode::kTimeout);
  EXPECT_TRUE(UV_FAILPOINT_EVAL("fault.test.a").ok());  // :once spent
  EXPECT_TRUE(UV_FAILPOINT_EVAL("fault.test.b").ok());  // delay then OK

  EXPECT_FALSE(registry.ArmFromSpec("fault.test.x=bogus").ok());
  EXPECT_FALSE(registry.ArmFromSpec("no-equals-sign").ok());
}

TEST_F(FaultTest, TrackingRegistersUnarmedSites) {
  auto& registry = FailpointRegistry::Global();
  registry.SetTracking(true);
  EXPECT_TRUE(UV_FAILPOINT_EVAL("fault.test.tracked").ok());
  bool found = false;
  for (const auto& name : registry.KnownSites()) {
    found |= name == "fault.test.tracked";
  }
  EXPECT_TRUE(found);
  EXPECT_GE(registry.Evaluations("fault.test.tracked"), 1u);
  EXPECT_EQ(registry.Fires("fault.test.tracked"), 0u);
}

TEST_F(FaultTest, InjectedFaultCounterAdvances) {
  uint64_t before = CounterValue("uv.fault.injected");
  FailpointRegistry::Global().Arm("fault.test.count", {});
  EXPECT_FALSE(UV_FAILPOINT_EVAL("fault.test.count").ok());
  EXPECT_EQ(CounterValue("uv.fault.injected"), before + 1);
}

// --- replay-error classification -------------------------------------------

TEST(ReplayErrorClassTest, ClassifiesEveryFate) {
  using core::ClassifyReplayError;
  using core::ReplayErrorClass;
  EXPECT_EQ(ClassifyReplayError(Status::Unavailable("flaky")),
            ReplayErrorClass::kRetryable);
  EXPECT_EQ(ClassifyReplayError(Status::Internal("invariant")),
            ReplayErrorClass::kFatal);
  EXPECT_EQ(ClassifyReplayError(Status::DataLoss("wal")),
            ReplayErrorClass::kFatal);
  EXPECT_EQ(ClassifyReplayError(Status::Cancelled("token")),
            ReplayErrorClass::kFatal);
  EXPECT_EQ(ClassifyReplayError(Status::DeadlineExceeded("late")),
            ReplayErrorClass::kFatal);
  // SQL-semantic failures legitimately happen in the alternate universe;
  // the interpreter's step-budget kTimeout is deterministic, not transient.
  EXPECT_EQ(ClassifyReplayError(Status::ConstraintViolation("dup")),
            ReplayErrorClass::kBenignSkip);
  EXPECT_EQ(ClassifyReplayError(Status::Timeout("budget")),
            ReplayErrorClass::kBenignSkip);
  EXPECT_EQ(ClassifyReplayError(Status::NotFound("table")),
            ReplayErrorClass::kBenignSkip);
  EXPECT_EQ(ClassifyReplayError(Status::Signal("45000")),
            ReplayErrorClass::kBenignSkip);
}

// --- WAL framing + recovery ------------------------------------------------

TEST_F(FaultTest, LogEntryEncodingRoundTrips) {
  auto u = oracle::Universe::Build(BasicHistory());
  ASSERT_TRUE(u.ok()) << u.status().message();
  for (const auto& entry : (*u)->log().entries()) {
    std::string payload = sql::EncodeLogEntry(entry);
    auto decoded = sql::DecodeLogEntry(payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(decoded->index, entry.index);
    EXPECT_EQ(decoded->sql, entry.sql);
    EXPECT_EQ(decoded->timestamp, entry.timestamp);
    ASSERT_NE(decoded->stmt, nullptr);  // round-tripped through the parser
    // Re-encoding the decoded entry must be byte-identical: proves every
    // field (nondet record, hashes, app args) survived the round trip.
    EXPECT_EQ(sql::EncodeLogEntry(*decoded), payload);
  }
}

TEST_F(FaultTest, WhatIfMarkerEncodingRoundTrips) {
  sql::WhatIfMarker marker;
  marker.kind = 2;
  marker.index = 5;
  marker.new_sql = "UPDATE accounts SET balance = 0 WHERE owner = 'bob'";
  std::string payload = sql::EncodeWhatIfMarker(marker);
  auto decoded = sql::DecodeWhatIfMarker(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->kind, marker.kind);
  EXPECT_EQ(decoded->index, marker.index);
  EXPECT_EQ(decoded->new_sql, marker.new_sql);
  EXPECT_EQ(sql::EncodeWhatIfMarker(*decoded), payload);
}

TEST_F(FaultTest, WalAppendRecoverRoundTrip) {
  std::string path = TmpPath("wal_roundtrip.wal");
  fs::remove(path);
  auto u = oracle::Universe::Build(BasicHistory());
  ASSERT_TRUE(u.ok());
  {
    auto wal = sql::Wal::Open(path);
    ASSERT_TRUE(wal.ok()) << wal.status().message();
    for (const auto& entry : (*u)->log().entries()) {
      ASSERT_TRUE((*wal)->AppendEntry(entry).ok());
    }
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  sql::QueryLog recovered_log;
  auto count = recovered_log.Recover(path);
  ASSERT_TRUE(count.ok()) << count.status().message();
  EXPECT_EQ(*count, (*u)->log().size());
  for (size_t i = 0; i < recovered_log.size(); ++i) {
    EXPECT_EQ(recovered_log.entries()[i].sql, (*u)->log().entries()[i].sql);
  }

  // Full state recovery: re-executing the recovered entries with their
  // recorded nondeterminism reproduces the live database bit-for-bit.
  auto state = RecoverState(path);
  ASSERT_TRUE(state.ok()) << state.status().message();
  EXPECT_EQ(state->report.entries_replayed, (*u)->log().size());
  EXPECT_EQ(state->report.markers_applied, 0u);
  EXPECT_FALSE(state->report.tail_torn);
  sql::StateDiff diff =
      sql::DiffDatabases(*state->db, *(*u)->db(), "recovered", "live");
  EXPECT_TRUE(diff.equal()) << diff.ToString();
}

TEST_F(FaultTest, TornTailTruncatesAtEveryByteBoundary) {
  std::string path = TmpPath("wal_torn.wal");
  std::string scratch = TmpPath("wal_torn_scratch.wal");
  fs::remove(path);
  auto u = oracle::Universe::Build(BasicHistory());
  ASSERT_TRUE(u.ok());
  const auto& entries = (*u)->log().entries();
  ASSERT_GE(entries.size(), 2u);

  // fsync_every_n=1 flushes each append, so the file size after each
  // append is an exact record boundary.
  auto wal = sql::Wal::Open(path);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->AppendEntry(entries[0]).ok());
  size_t boundary1 = fs::file_size(path);
  ASSERT_TRUE((*wal)->AppendEntry(entries[1]).ok());
  size_t boundary2 = fs::file_size(path);
  (*wal)->Abandon();
  ASSERT_LT(boundary1, boundary2);

  // Cut the file at every byte of the last record: recovery must always
  // keep exactly the first record and truncate the torn tail on disk.
  for (size_t cut = boundary1; cut < boundary2; ++cut) {
    fs::copy_file(path, scratch, fs::copy_options::overwrite_existing);
    fs::resize_file(scratch, cut);
    auto recovery = sql::RecoverWal(scratch, /*truncate_file=*/true);
    ASSERT_TRUE(recovery.ok()) << "cut=" << cut;
    EXPECT_EQ(recovery->entries.size(), 1u) << "cut=" << cut;
    EXPECT_EQ(recovery->valid_bytes, boundary1) << "cut=" << cut;
    EXPECT_EQ(recovery->tail_torn, cut != boundary1) << "cut=" << cut;
    EXPECT_EQ(recovery->truncated_bytes, cut - boundary1) << "cut=" << cut;
    EXPECT_EQ(fs::file_size(scratch), boundary1) << "cut=" << cut;

    // Idempotence: recovering the truncated file again is clean.
    auto again = sql::RecoverWal(scratch, /*truncate_file=*/true);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->entries.size(), 1u);
    EXPECT_FALSE(again->tail_torn);
  }

  // A cut inside the very first record recovers to an empty log.
  fs::copy_file(path, scratch, fs::copy_options::overwrite_existing);
  fs::resize_file(scratch, boundary1 / 2);
  auto recovery = sql::RecoverWal(scratch, /*truncate_file=*/true);
  ASSERT_TRUE(recovery.ok());
  EXPECT_TRUE(recovery->entries.empty());
  EXPECT_TRUE(recovery->tail_torn);
  fs::remove(scratch);
}

TEST_F(FaultTest, CorruptedRecordStopsTheScan) {
  std::string path = TmpPath("wal_corrupt.wal");
  fs::remove(path);
  auto u = oracle::Universe::Build(BasicHistory());
  ASSERT_TRUE(u.ok());
  const auto& entries = (*u)->log().entries();
  size_t boundary1 = 0;
  {
    auto wal = sql::Wal::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendEntry(entries[0]).ok());
    boundary1 = fs::file_size(path);
    ASSERT_TRUE((*wal)->AppendEntry(entries[1]).ok());
    ASSERT_TRUE((*wal)->AppendEntry(entries[2]).ok());
    (*wal)->Abandon();
  }
  // Flip one payload byte in the middle of the second record: its CRC
  // fails, and everything from there on is dropped — even the intact
  // third record (the prefix rule; a hole would reorder history).
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(boundary1) + 12);
    char byte = 0;
    f.seekg(static_cast<std::streamoff>(boundary1) + 12);
    f.read(&byte, 1);
    byte ^= 0x40;
    f.seekp(static_cast<std::streamoff>(boundary1) + 12);
    f.write(&byte, 1);
  }
  auto recovery = sql::RecoverWal(path, /*truncate_file=*/true);
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(recovery->entries.size(), 1u);
  EXPECT_TRUE(recovery->tail_torn);
  EXPECT_EQ(fs::file_size(path), boundary1);
}

TEST_F(FaultTest, GroupCommitLosesOnlyTheUnsyncedWindow) {
  std::string path = TmpPath("wal_group.wal");
  fs::remove(path);
  auto u = oracle::Universe::Build(BasicHistory());
  ASSERT_TRUE(u.ok());
  const auto& entries = (*u)->log().entries();

  sql::WalOptions options;
  options.fsync_every_n = 0;  // only explicit Sync() flushes
  auto wal = sql::Wal::Open(path, options);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->AppendEntry(entries[0]).ok());
  ASSERT_TRUE((*wal)->AppendEntry(entries[1]).ok());
  ASSERT_TRUE((*wal)->Sync().ok());
  ASSERT_TRUE((*wal)->AppendEntry(entries[2]).ok());  // in the buffer only
  (*wal)->Abandon();  // crash: the unsynced window is gone

  auto recovery = sql::RecoverWal(path, /*truncate_file=*/true);
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(recovery->entries.size(), 2u);
  EXPECT_FALSE(recovery->tail_torn);  // clean loss, not corruption
}

TEST_F(FaultTest, CommitMarkerSyncFlushesBufferedEntries) {
  std::string path = TmpPath("wal_marker_sync.wal");
  fs::remove(path);
  auto u = oracle::Universe::Build(BasicHistory());
  ASSERT_TRUE(u.ok());
  const auto& entries = (*u)->log().entries();

  sql::WalOptions options;
  options.fsync_every_n = 0;
  auto wal = sql::Wal::Open(path, options);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->AppendEntry(entries[0]).ok());
  ASSERT_TRUE((*wal)->AppendEntry(entries[1]).ok());
  sql::WhatIfMarker marker;
  marker.kind = 1;  // remove
  marker.index = 2;
  // The marker is the commit point: it must always sync, carrying any
  // buffered entries ahead of it to disk.
  ASSERT_TRUE((*wal)->AppendWhatIfCommit(marker).ok());
  (*wal)->Abandon();

  auto recovery = sql::RecoverWal(path, /*truncate_file=*/true);
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(recovery->entries.size(), 2u);
  ASSERT_EQ(recovery->markers.size(), 1u);
  EXPECT_EQ(recovery->markers[0].entries_before, 2u);
}

TEST_F(FaultTest, RecoveryIsIdempotent) {
  std::string path = TmpPath("wal_idem.wal");
  fs::remove(path);
  auto u = oracle::Universe::Build(BasicHistory());
  ASSERT_TRUE(u.ok());
  {
    auto wal = sql::Wal::Open(path);
    ASSERT_TRUE(wal.ok());
    for (const auto& entry : (*u)->log().entries()) {
      ASSERT_TRUE((*wal)->AppendEntry(entry).ok());
    }
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  auto first = RecoverState(path);
  auto second = RecoverState(path);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->report.entries_replayed, second->report.entries_replayed);
  sql::StateDiff diff =
      sql::DiffDatabases(*first->db, *second->db, "first", "second");
  EXPECT_TRUE(diff.equal()) << diff.ToString();

  uint64_t recovered_before = CounterValue("uv.wal.recovered_entries");
  auto third = RecoverState(path);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(CounterValue("uv.wal.recovered_entries"),
            recovered_before + (*u)->log().size());
  EXPECT_NE(obs::Registry::Global().Collect().FindHistogram(
                "uv.fault.recovery_us"),
            nullptr);
}

TEST_F(FaultTest, WalCountersAdvance) {
  std::string path = TmpPath("wal_counters.wal");
  fs::remove(path);
  auto u = oracle::Universe::Build(BasicHistory());
  ASSERT_TRUE(u.ok());
  uint64_t appends = CounterValue("uv.wal.appends");
  uint64_t fsyncs = CounterValue("uv.wal.fsyncs");
  {
    auto wal = sql::Wal::Open(path);
    ASSERT_TRUE(wal.ok());
    for (const auto& entry : (*u)->log().entries()) {
      ASSERT_TRUE((*wal)->AppendEntry(entry).ok());
    }
  }
  EXPECT_EQ(CounterValue("uv.wal.appends"),
            appends + (*u)->log().size());
  EXPECT_GE(CounterValue("uv.wal.fsyncs"), fsyncs + (*u)->log().size());
}

// --- durable what-if harness -----------------------------------------------

struct DurableOutcome {
  bool crashed = false;
  std::string crash_site;
  Status engine_status;
};

/// Builds the history's universe, mirrors its log into a fresh WAL, then
/// runs the selective replay with the WAL attached. Failpoints must be
/// armed BEFORE calling (the harness itself evaluates wal.append during
/// mirroring, so don't arm that one here). A simulated crash abandons the
/// WAL exactly like process death.
Result<DurableOutcome> RunDurableWhatIf(
    const std::vector<std::string>& history, const core::RetroOp& op,
    const std::string& wal_path,
    core::RetroactiveEngine::Options opts = {}) {
  UV_ASSIGN_OR_RETURN(auto u, oracle::Universe::Build(history));
  UV_ASSIGN_OR_RETURN(auto wal, sql::Wal::Open(wal_path));
  for (const auto& entry : u->log().entries()) {
    UV_RETURN_NOT_OK(wal->AppendEntry(entry));
  }
  UV_RETURN_NOT_OK(wal->Sync());
  UV_ASSIGN_OR_RETURN(std::shared_ptr<const core::HistorySnapshot> view,
                      u->History());
  opts.mode = core::ReplayMode::kSelective;
  opts.parallel = false;
  opts.wal = wal.get();
  core::RetroactiveEngine engine(u->db(), std::move(view), opts);
  DurableOutcome out;
  try {
    auto result = engine.Execute(op);
    out.engine_status = result.ok() ? Status::OK() : result.status();
  } catch (const CrashException& e) {
    out.crashed = true;
    out.crash_site = e.site;
    wal->Abandon();
  }
  return out;
}

void ArmCrashOnce(const std::string& site) {
  FailpointConfig config;
  config.action = FailAction::kCrash;
  config.max_fires = 1;
  FailpointRegistry::Global().Arm(site, config);
}

TEST_F(FaultTest, CrashBeforeMarkerRecoversPreWhatIfState) {
  std::string path = TmpPath("wal_crash_pre.wal");
  fs::remove(path);
  auto op = MakeOp(core::RetroOp::Kind::kRemove, 2);
  ASSERT_TRUE(op.ok());
  ArmCrashOnce("whatif.publish.pre_marker");
  auto out = RunDurableWhatIf(BasicHistory(), *op, path);
  ASSERT_TRUE(out.ok()) << out.status().message();
  ASSERT_TRUE(out->crashed);
  EXPECT_EQ(out->crash_site, "whatif.publish.pre_marker");

  auto recovered = RecoverState(path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(recovered->report.markers_applied, 0u);
  auto pre = oracle::Universe::Build(BasicHistory());
  ASSERT_TRUE(pre.ok());
  sql::StateDiff diff =
      sql::DiffDatabases(*recovered->db, *(*pre)->db(), "recovered", "pre");
  EXPECT_TRUE(diff.equal()) << diff.ToString();
}

void ExpectRecoversPostState(const std::string& crash_site,
                             const std::string& path_name) {
  std::string path = TmpPath(path_name);
  fs::remove(path);
  auto op = MakeOp(core::RetroOp::Kind::kRemove, 2);
  ASSERT_TRUE(op.ok());
  ArmCrashOnce(crash_site);
  auto out = RunDurableWhatIf(BasicHistory(), *op, path);
  ASSERT_TRUE(out.ok()) << out.status().message();
  ASSERT_TRUE(out->crashed);
  EXPECT_EQ(out->crash_site, crash_site);

  auto recovered = RecoverState(path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(recovered->report.markers_applied, 1u);
  // Reference: the fully rewritten universe.
  auto post = oracle::Universe::Build(BasicHistory());
  ASSERT_TRUE(post.ok());
  ASSERT_TRUE((*post)->RunFullNaive(*op).ok());
  sql::StateDiff diff =
      sql::DiffDatabases(*recovered->db, *(*post)->db(), "recovered", "post");
  EXPECT_TRUE(diff.equal()) << diff.ToString();
}

TEST_F(FaultTest, CrashAfterMarkerRecoversPostWhatIfState) {
  ExpectRecoversPostState("whatif.publish.post_marker", "wal_crash_post.wal");
}

TEST_F(FaultTest, CrashAfterSwapRecoversPostWhatIfState) {
  ExpectRecoversPostState("whatif.publish.post_swap", "wal_crash_swap.wal");
}

TEST_F(FaultTest, DurableCommitDemandsTextualStatement) {
  std::string path = TmpPath("wal_no_sql.wal");
  fs::remove(path);
  core::RetroOp op;
  op.kind = core::RetroOp::Kind::kChange;
  op.index = 2;
  auto stmt = sql::Parser::ParseStatement(
      "INSERT INTO accounts (owner, balance) VALUES ('dave', 1)");
  ASSERT_TRUE(stmt.ok());
  op.new_stmt = std::move(*stmt);
  // new_sql left empty: the marker could not be recovered, so the durable
  // publish must refuse before touching the live database.
  auto out = RunDurableWhatIf(BasicHistory(), op, path);
  ASSERT_TRUE(out.ok());
  ASSERT_FALSE(out->crashed);
  EXPECT_EQ(out->engine_status.code(), StatusCode::kInvalidArgument);
}

// --- cancellation, deadlines, retry ----------------------------------------

TEST_F(FaultTest, CancelledTokenLeavesLiveDbUntouched) {
  auto u = oracle::Universe::Build(BasicHistory());
  auto ref = oracle::Universe::Build(BasicHistory());
  ASSERT_TRUE(u.ok() && ref.ok());
  auto history = (*u)->History();
  ASSERT_TRUE(history.ok());
  auto op = MakeOp(core::RetroOp::Kind::kRemove, 2);
  ASSERT_TRUE(op.ok());

  CancelToken token;
  token.Cancel();
  core::RetroactiveEngine::Options opts;
  opts.parallel = false;
  opts.cancel = &token;
  core::RetroactiveEngine engine((*u)->db(), *history, opts);
  auto result = engine.Execute(*op);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  sql::StateDiff diff =
      sql::DiffDatabases(*(*u)->db(), *(*ref)->db(), "cancelled", "untouched");
  EXPECT_TRUE(diff.equal()) << diff.ToString();
}

TEST_F(FaultTest, ExpiredDeadlineSurfacesDeadlineExceeded) {
  auto u = oracle::Universe::Build(BasicHistory());
  ASSERT_TRUE(u.ok());
  auto history = (*u)->History();
  ASSERT_TRUE(history.ok());
  auto op = MakeOp(core::RetroOp::Kind::kRemove, 2);
  ASSERT_TRUE(op.ok());

  CancelToken token;
  token.SetDeadlineAfterMicros(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  core::RetroactiveEngine::Options opts;
  opts.parallel = false;
  opts.cancel = &token;
  core::RetroactiveEngine engine((*u)->db(), *history, opts);
  auto result = engine.Execute(*op);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(FaultTest, MidReplayCancellationKeepsLiveDbUntouched) {
  // An injected kCancelled mid-slot classifies as fatal: the staged
  // temporary state is abandoned and adoption never starts.
  auto u = oracle::Universe::Build(BasicHistory());
  auto ref = oracle::Universe::Build(BasicHistory());
  ASSERT_TRUE(u.ok() && ref.ok());
  auto history = (*u)->History();
  ASSERT_TRUE(history.ok());
  auto op = MakeOp(core::RetroOp::Kind::kRemove, 2);
  ASSERT_TRUE(op.ok());

  FailpointConfig config;
  config.error_code = StatusCode::kCancelled;
  config.max_fires = 1;
  FailpointRegistry::Global().Arm("replay.slot.pre_exec", config);

  core::RetroactiveEngine::Options opts;
  opts.parallel = false;
  core::RetroactiveEngine engine((*u)->db(), *history, opts);
  auto result = engine.Execute(*op);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  sql::StateDiff diff =
      sql::DiffDatabases(*(*u)->db(), *(*ref)->db(), "aborted", "untouched");
  EXPECT_TRUE(diff.equal()) << diff.ToString();
}

TEST_F(FaultTest, TransientFaultRetriesToSuccess) {
  auto u = oracle::Universe::Build(BasicHistory());
  auto ref = oracle::Universe::Build(BasicHistory());
  ASSERT_TRUE(u.ok() && ref.ok());
  auto history = (*u)->History();
  ASSERT_TRUE(history.ok());
  auto op = MakeOp(core::RetroOp::Kind::kRemove, 2);
  ASSERT_TRUE(op.ok());

  // The first slot's first two attempts hit an injected kUnavailable; the
  // third succeeds inside the retry budget.
  FailpointConfig config;
  config.error_code = StatusCode::kUnavailable;
  config.max_fires = 2;
  FailpointRegistry::Global().Arm("replay.slot.pre_exec", config);
  uint64_t retries_before = CounterValue("uv.retry.attempts");

  core::RetroactiveEngine::Options opts;
  opts.parallel = false;
  opts.retry.max_attempts = 3;
  opts.retry.backoff_rounds = 1;
  core::RetroactiveEngine engine((*u)->db(), *history, opts);
  auto result = engine.Execute(*op);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(CounterValue("uv.retry.attempts"), retries_before + 2);

  // The retried universe must still match the full-naive reference.
  ASSERT_TRUE((*ref)->RunFullNaive(*op).ok());
  sql::StateDiff diff =
      sql::DiffDatabases(*(*u)->db(), *(*ref)->db(), "retried", "reference");
  EXPECT_TRUE(diff.equal()) << diff.ToString();
}

TEST_F(FaultTest, ExhaustedRetryBudgetFailsAndLeavesDbUntouched) {
  auto u = oracle::Universe::Build(BasicHistory());
  auto ref = oracle::Universe::Build(BasicHistory());
  ASSERT_TRUE(u.ok() && ref.ok());
  auto history = (*u)->History();
  ASSERT_TRUE(history.ok());
  auto op = MakeOp(core::RetroOp::Kind::kRemove, 2);
  ASSERT_TRUE(op.ok());

  FailpointConfig config;  // no max_fires: every attempt fails
  config.error_code = StatusCode::kUnavailable;
  FailpointRegistry::Global().Arm("replay.slot.pre_exec", config);

  core::RetroactiveEngine::Options opts;
  opts.parallel = false;
  opts.retry.max_attempts = 2;
  opts.retry.backoff_rounds = 1;
  core::RetroactiveEngine engine((*u)->db(), *history, opts);
  auto result = engine.Execute(*op);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  sql::StateDiff diff =
      sql::DiffDatabases(*(*u)->db(), *(*ref)->db(), "failed", "untouched");
  EXPECT_TRUE(diff.equal()) << diff.ToString();
}

TEST_F(FaultTest, FatalErrorAbortsWithoutRetry) {
  auto u = oracle::Universe::Build(BasicHistory());
  auto ref = oracle::Universe::Build(BasicHistory());
  ASSERT_TRUE(u.ok() && ref.ok());
  auto history = (*u)->History();
  ASSERT_TRUE(history.ok());
  auto op = MakeOp(core::RetroOp::Kind::kRemove, 2);
  ASSERT_TRUE(op.ok());

  FailpointConfig config;
  config.error_code = StatusCode::kInternal;
  config.max_fires = 1;
  FailpointRegistry::Global().Arm("replay.slot.pre_exec", config);

  core::RetroactiveEngine::Options opts;
  opts.parallel = false;
  core::RetroactiveEngine engine((*u)->db(), *history, opts);
  auto result = engine.Execute(*op);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  sql::StateDiff diff =
      sql::DiffDatabases(*(*u)->db(), *(*ref)->db(), "aborted", "untouched");
  EXPECT_TRUE(diff.equal()) << diff.ToString();
}

TEST_F(FaultTest, BenignFaultSkipsTheSlotAndContinues) {
  auto u = oracle::Universe::Build(BasicHistory());
  ASSERT_TRUE(u.ok());
  auto history = (*u)->History();
  ASSERT_TRUE(history.ok());
  auto op = MakeOp(core::RetroOp::Kind::kRemove, 2);
  ASSERT_TRUE(op.ok());

  FailpointConfig config;
  config.error_code = StatusCode::kConstraintViolation;
  config.max_fires = 1;
  FailpointRegistry::Global().Arm("replay.slot.pre_exec", config);

  core::RetroactiveEngine::Options opts;
  opts.parallel = false;
  core::RetroactiveEngine engine((*u)->db(), *history, opts);
  auto result = engine.Execute(*op);
  EXPECT_TRUE(result.ok()) << result.status().message();
}

TEST_F(FaultTest, ReplayCrashReachesCallerAndLeavesLiveDbUntouched) {
  // A simulated crash mid-replay must surface as a CrashException from
  // Execute() — under the critical-path RTT charge too — before anything
  // was adopted: the live database stays byte-identical.
  auto u = oracle::Universe::Build(BasicHistory());
  auto ref = oracle::Universe::Build(BasicHistory());
  ASSERT_TRUE(u.ok() && ref.ok());
  auto history = (*u)->History();
  ASSERT_TRUE(history.ok());
  auto op = MakeOp(core::RetroOp::Kind::kRemove, 2);
  ASSERT_TRUE(op.ok());

  ArmCrashOnce("replay.slot.pre_exec");
  core::RetroactiveEngine::Options opts;
  opts.parallel = true;
  core::RetroactiveEngine engine((*u)->db(), *history, opts);
  bool caught = false;
  try {
    (void)engine.Execute(*op);
  } catch (const CrashException& e) {
    caught = true;
    EXPECT_EQ(e.site, "replay.slot.pre_exec");
  }
  EXPECT_TRUE(caught);
  EXPECT_EQ(core::FingerprintDatabase(*(*u)->db()),
            core::FingerprintDatabase(*(*ref)->db()));
  sql::StateDiff diff =
      sql::DiffDatabases(*(*u)->db(), *(*ref)->db(), "crashed", "untouched");
  EXPECT_TRUE(diff.equal()) << diff.ToString();
}

TEST_F(FaultTest, SchedulerHonorsCancelledToken) {
  sql::Database db;
  auto create = sql::Parser::ParseStatement(
      "CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  ASSERT_TRUE(create.ok());
  sql::ExecContext ctx;
  ASSERT_TRUE(db.Execute(**create, 1, &ctx).ok());

  std::vector<sql::StatementPtr> batch;
  for (int i = 0; i < 4; ++i) {
    auto stmt = sql::Parser::ParseStatement(
        "INSERT INTO t (id, v) VALUES (" + std::to_string(i) + ", 0)");
    ASSERT_TRUE(stmt.ok());
    batch.push_back(std::move(*stmt));
  }

  CancelToken token;
  token.Cancel();
  core::QueryAnalyzer analyzer;
  core::TxnScheduler::Options opts;
  opts.num_threads = 2;
  opts.cancel = &token;
  core::TxnScheduler scheduler(&db, &analyzer, opts);
  auto result = scheduler.ExecuteBatch(batch, 2);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

// --- facade integration ----------------------------------------------------

TEST_F(FaultTest, FacadeWalSurvivesCrashAndWhatIf) {
  std::string path = TmpPath("wal_facade.wal");
  fs::remove(path);
  core::Ultraverse::Options options;
  options.wal_path = path;
  core::Ultraverse uv(options);
  ASSERT_TRUE(uv.wal_status().ok()) << uv.wal_status().message();
  ASSERT_NE(uv.wal(), nullptr);
  for (const auto& stmt : BasicHistory()) {
    auto r = uv.ExecuteSql(stmt);
    ASSERT_TRUE(r.ok()) << stmt << ": " << r.status().message();
  }

  // Restart before any what-if: recovery rebuilds the exact live state.
  {
    auto recovered = RecoverState(path);
    ASSERT_TRUE(recovered.ok()) << recovered.status().message();
    EXPECT_EQ(recovered->report.entries_replayed, uv.log()->size());
    sql::StateDiff diff =
        sql::DiffDatabases(*recovered->db, *uv.db(), "recovered", "live");
    EXPECT_TRUE(diff.equal()) << diff.ToString();
  }

  // A committed what-if publishes its durable marker through the facade's
  // WAL; recovery then re-derives the alternate universe.
  auto op = uv.MakeOp(core::RetroOp::Kind::kRemove, 2, "");
  ASSERT_TRUE(op.ok()) << op.status().message();
  auto stats = uv.WhatIf(*op, core::SystemMode::kT);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  auto recovered = RecoverState(path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(recovered->report.markers_applied, 1u);
  sql::StateDiff diff =
      sql::DiffDatabases(*recovered->db, *uv.db(), "recovered", "whatif");
  EXPECT_TRUE(diff.equal()) << diff.ToString();
  fs::remove(path);
}

TEST_F(FaultTest, FailedWalAppendLeavesTheCommitUnapplied) {
  // A commit whose WAL append fails reports the error and must not stay
  // applied: the live database, the in-memory log and the WAL all agree
  // that it never happened, so restart recovery lands on the live state.
  std::string path = TmpPath("wal_append_fail.wal");
  fs::remove(path);
  core::Ultraverse::Options options;
  options.wal_path = path;
  core::Ultraverse uv(options);
  ASSERT_TRUE(uv.wal_status().ok()) << uv.wal_status().message();
  for (const auto& stmt : BasicHistory()) {
    ASSERT_TRUE(uv.ExecuteSql(stmt).ok()) << stmt;
  }
  ASSERT_TRUE(uv.LoadApplication(R"JS(
function Deposit(owner, amount) {
  SQL_exec("UPDATE accounts SET balance = balance + " + amount +
           " WHERE owner = '" + owner + "'");
}
)JS")
                  .ok());

  // The fingerprint covers rows only; the diff also compares the catalog,
  // indexes and AUTO_INCREMENT counters.
  const auto expect_recovers_live = [&](const char* when) {
    SCOPED_TRACE(when);
    auto recovered = RecoverState(path);
    ASSERT_TRUE(recovered.ok()) << recovered.status().message();
    EXPECT_EQ(core::FingerprintDatabase(*recovered->db), uv.StateFingerprint());
    sql::StateDiff diff =
        sql::DiffDatabases(*recovered->db, *uv.db(), "recovered", "live");
    EXPECT_TRUE(diff.equal()) << diff.ToString();
  };
  const auto check = [&](const char* what, const std::function<Status()>& commit) {
    SCOPED_TRACE(what);
    const size_t size = uv.log()->size();
    const uint64_t epoch = uv.log()->epoch();
    const std::string before = uv.StateFingerprint();
    FailpointConfig once;
    once.max_fires = 1;
    FailpointRegistry::Global().Arm("wal.append", once);
    Status failed = commit();
    EXPECT_EQ(failed.code(), StatusCode::kUnavailable) << failed.ToString();
    EXPECT_EQ(uv.log()->size(), size);
    EXPECT_EQ(uv.log()->epoch(), epoch);
    EXPECT_EQ(uv.StateFingerprint(), before);
    expect_recovers_live("after the failed append");

    ASSERT_TRUE(commit().ok());
    EXPECT_EQ(uv.log()->size(), size + 1);
    expect_recovers_live("after the retry");
  };
  check("ExecuteSql", [&] {
    return uv
        .ExecuteSql("INSERT INTO accounts (owner, balance) VALUES ('dan', 5)")
        .status();
  });
  check("RunTransaction", [&] {
    return uv
        .RunTransaction("Deposit",
                        {app::AppValue::String("alice"),
                         app::AppValue::Number(7)},
                        core::SystemMode::kT)
        .status();
  });
  // DDL changes the catalog, which row-level rollback cannot undo: without
  // the savepoint the first attempt would leave the change behind and the
  // retry would fail (the table exists / is gone).
  check("CREATE TABLE", [&] {
    return uv.ExecuteSql("CREATE TABLE extra (id INT PRIMARY KEY, v INT)")
        .status();
  });
  ASSERT_TRUE(uv.ExecuteSql("INSERT INTO extra (id, v) VALUES (1, 2)").ok());
  const int balance = uv.db()->FindTable("accounts")->schema().ColumnIndex(
      "balance");
  ASSERT_FALSE(uv.db()->FindTable("accounts")->HasIndex(balance));
  check("CREATE INDEX", [&] {
    Status st =
        uv.ExecuteSql("CREATE INDEX by_balance ON accounts (balance)").status();
    // The fingerprint cannot see an index: look at the table itself.
    EXPECT_EQ(uv.db()->FindTable("accounts")->HasIndex(balance), st.ok());
    return st;
  });
  check("DROP TABLE", [&] {
    return uv.ExecuteSql("DROP TABLE extra").status();
  });
  // LoadApplication commits each transpiled procedure as DDL: a failed
  // append must leave it out of the live catalog too, not just the log.
  const char* kWithdraw = R"JS(
function Withdraw(owner, amount) {
  SQL_exec("UPDATE accounts SET balance = balance - " + amount +
           " WHERE owner = '" + owner + "'");
}
)JS";
  check("LoadApplication", [&] { return uv.LoadApplication(kWithdraw); });
  fs::remove(path);
}

// --- Group-commit durability error broadcast --------------------------------

TEST_F(FaultTest, GroupFsyncFailureReachesEveryWaiter) {
  // N committers append into one group-commit window, then all wait for
  // durability. The single covering fsync fails (injected): EVERY waiter
  // must receive that error — the leader that happened to run the sync, the
  // threads parked on the condvar, and late arrivals whose records fell in
  // the failed range. A waiter getting OK here would ack an entry that was
  // never made durable.
  std::string path = TmpPath("wal_group_err.wal");
  fs::remove(path);
  auto u = oracle::Universe::Build(BasicHistory());
  ASSERT_TRUE(u.ok());
  const auto& entries = (*u)->log().entries();

  sql::WalOptions options;
  options.fsync_every_n = 0;  // no auto-sync: WaitDurable leads the fsync
  auto wal = sql::Wal::Open(path, options);
  ASSERT_TRUE(wal.ok());

  constexpr size_t kWaiters = 5;
  std::vector<uint64_t> seqs;
  for (size_t i = 0; i < kWaiters; ++i) {
    auto seq = (*wal)->AppendEntryAsync(entries[i % entries.size()]);
    ASSERT_TRUE(seq.ok());
    seqs.push_back(*seq);
  }

  FailpointConfig config;
  config.error_code = StatusCode::kUnavailable;
  config.max_fires = 1;  // ONE failed fsync; a retry would succeed
  FailpointRegistry::Global().Arm("wal.sync.fsync", config);

  std::vector<Status> results(kWaiters);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kWaiters; ++i) {
    threads.emplace_back(
        [&, i] { results[i] = (*wal)->WaitDurable(seqs[i]); });
  }
  for (auto& t : threads) t.join();
  for (size_t i = 0; i < kWaiters; ++i) {
    EXPECT_FALSE(results[i].ok()) << "waiter " << i << " was told its record"
                                  << " is durable after the group fsync failed";
    EXPECT_EQ(results[i].code(), StatusCode::kUnavailable) << "waiter " << i;
  }
  // The failure is sticky for the covered range: a waiter arriving long
  // after the failed sync still hears about it.
  Status late = (*wal)->WaitDurable(seqs.back());
  EXPECT_EQ(late.code(), StatusCode::kUnavailable);
  fs::remove(path);
}

// --- A what-if marker whose own fsync fails ---------------------------------

TEST_F(FaultTest, MarkerFsyncFailureAbortsAndRecoveryAgrees) {
  // The marker's write reached the file, then its group's fsync failed and
  // the publish aborted with the live tables untouched. Recovery used to
  // apply that marker anyway, landing in a universe the server never
  // published. The failed marker is now truncated before the error
  // returns (DESIGN.md §11).
  std::string wal_path = TmpPath("marker_fsync.wal");
  fs::remove(wal_path);
  core::Ultraverse::Options options;
  options.wal_path = wal_path;  // fsync_every_n = 1: every commit syncs alone
  core::Ultraverse uv(options);
  for (const auto& stmt : BasicHistory()) {
    ASSERT_TRUE(uv.ExecuteSql(stmt).ok());
  }
  const std::string before = uv.StateFingerprint();
  auto op = uv.MakeOp(core::RetroOp::Kind::kRemove, 2, "");
  ASSERT_TRUE(op.ok());

  FailpointConfig config;
  config.max_fires = 1;  // the next fsync is the marker's own group
  FailpointRegistry::Global().Arm("wal.sync.fsync", config);
  const uint64_t truncated = CounterValue("uv.wal.marker_truncated");
  auto result = uv.WhatIf(*op, core::SystemMode::kTD);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable)
      << result.status().ToString();
  EXPECT_EQ(CounterValue("uv.wal.marker_truncated"), truncated + 1);
  EXPECT_EQ(uv.StateFingerprint(), before);
  auto recovered = RecoverState(wal_path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->report.markers_applied, 0u);
  EXPECT_EQ(core::FingerprintDatabase(*recovered->db), before);

  // The WAL stays usable: a later commit and a clean publish recover too.
  ASSERT_TRUE(
      uv.ExecuteSql("INSERT INTO accounts (owner, balance) VALUES ('dan', 5)")
          .ok());
  ASSERT_TRUE(uv.WhatIf(*op, core::SystemMode::kTD).ok());
  recovered = RecoverState(wal_path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->report.markers_applied, 1u);
  EXPECT_EQ(core::FingerprintDatabase(*recovered->db), uv.StateFingerprint());
  fs::remove(wal_path);
}

TEST_F(FaultTest, UnremovableFailedMarkerFailStopsTheWal) {
  // When the failed marker cannot be truncated, its outcome is unknown:
  // the WAL refuses every later append, and restart recovery decides
  // (here: the marker is in the file, so recovery applies it).
  std::string wal_path = TmpPath("marker_failstop.wal");
  fs::remove(wal_path);
  core::Ultraverse::Options options;
  options.wal_path = wal_path;
  core::Ultraverse uv(options);
  for (const auto& stmt : BasicHistory()) {
    ASSERT_TRUE(uv.ExecuteSql(stmt).ok());
  }
  auto op = uv.MakeOp(core::RetroOp::Kind::kRemove, 2, "");
  ASSERT_TRUE(op.ok());
  FailpointConfig once;
  once.max_fires = 1;
  FailpointRegistry::Global().Arm("wal.sync.fsync", once);
  FailpointRegistry::Global().Arm("wal.marker.truncate", once);
  auto result = uv.WhatIf(*op, core::SystemMode::kTD);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
      << result.status().ToString();
  Result<sql::ExecResult> later =
      uv.ExecuteSql("INSERT INTO accounts (owner, balance) VALUES ('dan', 5)");
  ASSERT_FALSE(later.ok());
  EXPECT_EQ(later.status().code(), StatusCode::kDataLoss);
  auto recovered = RecoverState(wal_path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->report.markers_applied, 1u);
  fs::remove(wal_path);
}

// --- Deadline expiry mid-staging --------------------------------------------

TEST_F(FaultTest, DeadlineDuringStagingLeavesLiveDbUntouched) {
  // The deadline fires while the replay is STAGING the temporary database
  // (an injected delay at replay.stage.pre outlasts the token): the staged
  // state must be abandoned before adoption, the live database bit-exact
  // untouched, and later analyze verdicts unaffected by the residue.
  std::string wal_path = TmpPath("deadline_staging.wal");
  fs::remove(wal_path);
  core::Ultraverse::Options options;
  options.wal_path = wal_path;
  core::Ultraverse uv(options);
  core::Ultraverse ref;  // never sees the what-if: the "untouched" oracle
  for (const auto& stmt : BasicHistory()) {
    ASSERT_TRUE(uv.ExecuteSql(stmt).ok());
    ASSERT_TRUE(ref.ExecuteSql(stmt).ok());
  }
  const std::string before = uv.StateFingerprint();
  auto op = uv.MakeOp(core::RetroOp::Kind::kRemove, 2, "");
  ASSERT_TRUE(op.ok());

  FailpointConfig config;
  config.action = FailAction::kDelay;
  config.delay_micros = 50'000;
  FailpointRegistry::Global().Arm("replay.stage.pre", config);

  CancelToken token;
  token.SetDeadlineAfterMicros(10'000);  // expires inside the staging delay
  core::RequestContext ctx;
  ctx.cancel = &token;
  auto result = uv.WhatIf(*op, core::SystemMode::kTD, {}, ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();

  EXPECT_EQ(uv.StateFingerprint(), before);
  sql::StateDiff diff =
      sql::DiffDatabases(*uv.db(), *ref.db(), "deadline", "untouched");
  EXPECT_TRUE(diff.equal()) << diff.ToString();
  // The abandoned attempt left no trace in the WAL either: recovery
  // reproduces the pre-attempt state.
  auto recovered = RecoverState(wal_path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->report.markers_applied, 0u);
  EXPECT_EQ(core::FingerprintDatabase(*recovered->db), before);

  // Explain-verdict consistency: with the failpoint gone, the same op
  // analyzes identically in selective and full-naive modes — the failed
  // attempt poisoned no cache and skewed no verdict.
  FailpointRegistry::Global().DisarmAll();
  auto selective = uv.WhatIfAnalyze(*op, core::SystemMode::kTD);
  ASSERT_TRUE(selective.ok()) << selective.status().message();
  auto snap = uv.SnapshotHistory();
  ASSERT_TRUE(snap.ok());
  auto naive = uv.WhatIfAnalyzeAt(**snap, *op, core::SystemMode::kTD,
                                  /*full_naive=*/true);
  ASSERT_TRUE(naive.ok()) << naive.status().message();
  EXPECT_EQ(selective->fingerprint, naive->fingerprint);
  fs::remove(wal_path);
}

// --- Publish rewrites the durable history ------------------------------------

TEST_F(FaultTest, RecoveryReplaysRewrittenHistoryAfterStackedPublishes) {
  // Two stacked publishes with live commits in between: the second what-if
  // (and recovery's replay of both markers) must run against the REWRITTEN
  // history the first publish produced, not the original one. Regression
  // for the stale-history-after-publish bug the network gate caught.
  std::string path = TmpPath("wal_stacked_publish.wal");
  fs::remove(path);
  core::Ultraverse::Options options;
  options.wal_path = path;
  core::Ultraverse uv(options);
  for (const auto& stmt : BasicHistory()) {
    ASSERT_TRUE(uv.ExecuteSql(stmt).ok());
  }

  auto change = uv.MakeOp(
      core::RetroOp::Kind::kChange, 4,
      "UPDATE accounts SET balance = balance + 30 WHERE owner = 'alice'");
  ASSERT_TRUE(change.ok()) << change.status().message();
  ASSERT_TRUE(uv.WhatIf(*change, core::SystemMode::kTD).ok());

  // Live traffic on top of the published universe...
  ASSERT_TRUE(
      uv.ExecuteSql("INSERT INTO accounts (owner, balance) VALUES ('dave', 5)")
          .ok());
  // ...then a second publish whose index addresses the rewritten log.
  auto remove = uv.MakeOp(core::RetroOp::Kind::kRemove, 6, "");
  ASSERT_TRUE(remove.ok());
  ASSERT_TRUE(uv.WhatIf(*remove, core::SystemMode::kTD).ok());

  // The published universe must agree with its ground-truth reference for
  // a THIRD question asked on top of both publishes...
  auto probe = uv.MakeOp(core::RetroOp::Kind::kRemove, 2, "");
  ASSERT_TRUE(probe.ok());
  auto selective = uv.WhatIfAnalyze(*probe, core::SystemMode::kTD);
  ASSERT_TRUE(selective.ok()) << selective.status().message();
  auto snap = uv.SnapshotHistory();
  ASSERT_TRUE(snap.ok());
  auto naive = uv.WhatIfAnalyzeAt(**snap, *probe, core::SystemMode::kTD,
                                  /*full_naive=*/true);
  ASSERT_TRUE(naive.ok()) << naive.status().message();
  EXPECT_EQ(selective->fingerprint, naive->fingerprint);

  // ...and cold recovery replays marker-over-marker to the same state.
  auto recovered = RecoverState(path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(recovered->report.markers_applied, 2u);
  sql::StateDiff diff =
      sql::DiffDatabases(*recovered->db, *uv.db(), "recovered", "live");
  EXPECT_TRUE(diff.equal()) << diff.ToString();
  fs::remove(path);
}

}  // namespace
}  // namespace ultraverse::fault
