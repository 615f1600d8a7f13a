#ifndef ULTRAVERSE_ORACLE_ORACLE_H_
#define ULTRAVERSE_ORACLE_ORACLE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/replay.h"
#include "core/rw_sets.h"
#include "sqldb/database.h"
#include "sqldb/query_log.h"
#include "sqldb/state_diff.h"
#include "util/status.h"

namespace ultraverse::oracle {

/// A self-contained what-if scenario: a SQL history plus one retroactive
/// operation over it. Serializes to (and parses back from) a plain .sql
/// file — the fuzzer's repro format.
struct WhatIfCase {
  std::vector<std::string> history;  // one statement per element
  core::RetroOp::Kind kind = core::RetroOp::Kind::kRemove;
  uint64_t index = 0;       // τ (1-based index into history)
  std::string new_sql;      // for kAdd / kChange

  /// Repro format: the history statements one per line, then a trailing
  ///   -- whatif: remove <index>
  ///   -- whatif: add <index> <sql>
  ///   -- whatif: change <index> <sql>
  /// directive comment. Re-runnable with tools/fuzz_whatif --repro.
  std::string ToReproSql() const;
  static Result<WhatIfCase> ParseReproSql(const std::string& text);
};

/// One replay configuration put under differential test. Every config runs
/// through RetroactiveEngine with ReplayMode::kSelective; the oracle's
/// reference side always runs ReplayMode::kFullNaive.
struct ModeConfig {
  std::string name;           // for reports ("selective+hj" etc.)
  bool deps = true;           // column-wise + row-wise pruning
  bool hash_jumper = false;
  /// Strategy of the checked side: kSelective, or kAuto to let the cost
  /// rule pick (a long whole-suffix history then re-executes in full).
  core::ReplayMode mode = core::ReplayMode::kSelective;
  /// Execution engine for the selective side's database (replay clones
  /// inherit it). Unset = whatever the universe was built with.
  std::optional<sql::ExecEngine> engine;
  /// Decision-provenance level for the selective run (DESIGN.md §13).
  obs::ExplainLevel explain = obs::ExplainLevel::kSummary;
  /// Log indices forced into the replay plan (the explain oracle's
  /// counterfactual knob; see RetroactiveEngine::Options::forced_replay).
  std::vector<uint64_t> forced_replay;
};

/// The standard mode pairs of the oracle smoke suite: selective/full ×
/// Hash-jumper on/off, a cross-engine config that replays the selective
/// side on the tree walker while the reference runs the process default,
/// and the per-what-if strategy choice (kAuto).
std::vector<ModeConfig> StandardModeConfigs();

/// An executable universe: a fresh in-memory database plus the committed
/// query log built by replaying a SQL history through the same
/// record-nondeterminism + eager-hash-log protocol the facade uses.
/// Building the same history twice yields bit-identical universes (fresh
/// databases seed identical RNGs and logical clocks), which is what lets
/// the oracle run two engine configurations from equal starting points.
class Universe {
 public:
  /// Executes `history` statement by statement. Statements that fail to
  /// parse or execute return an error (the fuzzer only emits statements it
  /// has validated on a shadow universe).
  static Result<std::unique_ptr<Universe>> Build(
      const std::vector<std::string>& history);

  /// Same, but pins the database's execution engine before the history
  /// runs (the exec-diff oracle builds one universe per engine).
  static Result<std::unique_ptr<Universe>> Build(
      const std::vector<std::string>& history,
      std::optional<sql::ExecEngine> engine);

  sql::Database* db() { return db_.get(); }
  const sql::QueryLog& log() const { return log_; }
  /// Mutable log access for tests that patch history in place (the
  /// equal-length rewrite regressions) or advance the epoch by hand.
  sql::QueryLog* mutable_log() { return &log_; }

  /// Per-entry R/W analysis of the full log (computed once, cached).
  Result<const std::vector<core::QueryRW>*> Analysis();
  core::QueryAnalyzer* analyzer() { return &analyzer_; }
  /// The history view an engine replays over: the log as it stands now,
  /// with Analysis() and a copy of the analyzer (core::SnapshotOfLog).
  Result<std::shared_ptr<const core::HistorySnapshot>> History();

  /// Runs the retroactive op under `config` (ReplayMode::kSelective).
  Status RunSelective(const core::RetroOp& op, const ModeConfig& config,
                      core::ReplayStats* stats = nullptr);
  /// Runs the retroactive op under ReplayMode::kFullNaive (ground truth).
  Status RunFullNaive(const core::RetroOp& op,
                      core::ReplayStats* stats = nullptr);

 private:
  Universe() = default;

  std::unique_ptr<sql::Database> db_;
  sql::QueryLog log_;
  core::QueryAnalyzer analyzer_;
  std::vector<core::QueryRW> analysis_;
  bool analysis_ready_ = false;
  std::map<std::string, Digest256> last_hash_;  // eager hash logging
};

/// Differential check outcome for one (case, mode) pair.
struct OracleResult {
  bool ok = false;               // built, engines agree (states or rejection)
  std::string mode;              // ModeConfig::name
  std::string error;             // non-divergence failure (bad op / build)
  std::string note;              // agreed rejection of the rewritten history
  sql::StateDiff diff;           // populated when states diverge; a "status"
                                 // entry marks an asymmetric replay failure
  core::ReplayStats selective_stats;
};

/// Hook applied to the selective-side database after replay and before
/// diffing — tests plant corruption here to prove the diff detects it.
using CorruptHook = std::function<void(sql::Database*)>;

/// Builds the case's universe twice, runs the selective configuration on
/// one and the full-naive reference on the other, and deep-diffs the
/// resulting live databases (rows, indexes, auto-increment counters,
/// catalog). Divergence details land in OracleResult::diff.
OracleResult CheckCase(const WhatIfCase& c, const ModeConfig& config,
                       const CorruptHook& corrupt = nullptr);

/// Runs `c` against every config; returns the first failing result, or an
/// ok result when every mode pair agrees with the reference.
OracleResult CheckCaseAllModes(const WhatIfCase& c,
                               const std::vector<ModeConfig>& configs);

/// Cross-engine differential (mode "exec-diff"): builds the case's history
/// once on the tree walker and once on the bytecode VM, requires identical
/// post-build states, then runs the same selective what-if replay on both
/// and requires identical final states. An asymmetric failure on either
/// phase is a "status" divergence, like any oracle state mismatch.
OracleResult CheckCaseExecDiff(const WhatIfCase& c);

/// Greedy end-first shrinker: drops history statements (re-anchoring the
/// retroactive index) while `still_fails(candidate)` holds, until no single
/// removal reproduces. Returns the minimal reproducing case.
WhatIfCase ShrinkCaseIf(
    const WhatIfCase& c,
    const std::function<bool(const WhatIfCase&)>& still_fails);

/// ShrinkCaseIf with the real predicate: some config in `configs` still
/// reports a divergence (build/replay errors do not count as reproducing).
WhatIfCase ShrinkCase(const WhatIfCase& c,
                      const std::vector<ModeConfig>& configs);

/// Static-soundness oracle: builds a fresh universe for `history`, replays
/// its log through a fresh QueryAnalyzer with a SoundnessChecker attached,
/// and returns one description per containment violation (empty = the
/// static summaries cover every dynamic access). Build failures are
/// errors; containment violations are data.
Result<std::vector<std::string>> CheckStaticContainment(
    const std::vector<std::string>& history);

/// Explain-soundness oracle (`fuzz_whatif --check-explain`): runs the case
/// at ExplainLevel::kFull and re-validates every stated prune reason
/// against ground truth. Returns one description per violation (empty =
/// every reason is sound). Checks, in order:
///   1. Report bookkeeping: verdict totals sum to the suffix size, every
///      suffix transaction is explained exactly once, replayed count
///      matches ReplayStats, read-only verdicts have empty write sets.
///   2. The selective final state equals the full-naive reference.
///   3. For a spread sample of pruned transactions q: re-running the same
///      what-if with forced_replay={q} must reproduce the identical final
///      state — a pruned txn whose forced re-execution changes the outcome
///      was unsoundly pruned.
///   4. With the Hash-jumper enabled: kHashJumpSkip verdicts only past the
///      convergence point, carrying a digest that matches the logged
///      timeline's carry-forward at the jump index.
/// Build/replay failures are errors; unsound reasons are data.
Result<std::vector<std::string>> CheckCaseExplain(const WhatIfCase& c);

}  // namespace ultraverse::oracle

#endif  // ULTRAVERSE_ORACLE_ORACLE_H_
