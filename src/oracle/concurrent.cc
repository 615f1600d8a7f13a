#include "oracle/concurrent.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <thread>

#include "core/ultraverse.h"
#include "util/status.h"

namespace ultraverse::oracle {
namespace {

using core::HistorySnapshot;
using core::RetroOp;
using core::SystemMode;
using core::Ultraverse;
using core::WhatIfAnalysis;

/// Shared race state: the facade under test plus thread-safe report
/// accumulation. Writers and analysts only ever touch the facade through
/// its public API — the whole point is that the facade's own locking and
/// epoch discipline make that safe.
struct RaceState {
  explicit RaceState(Ultraverse::Options opts) : uv(std::move(opts)) {}

  Ultraverse uv;
  uint64_t seeded_len = 0;  // history length before the race starts

  /// Lowest epoch at which a published what-if may have landed. A publish
  /// swaps the live state to the alternate universe while the raw log
  /// keeps the original history (the WAL marker carries the rewrite), so
  /// from that epoch on the log no longer re-derives the live state and
  /// the selective-vs-full-naive fingerprint comparison is undefined.
  /// Snapshots pinned at epochs strictly below the fence are publish-free
  /// and must compare equal.
  std::atomic<uint64_t> publish_fence{UINT64_MAX};

  std::mutex mu;  // guards everything below
  ConcurrentFuzzReport report;
  std::set<uint64_t> epochs_pinned;

  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> g(mu);
    ++report.divergences;
    report.failures.push_back(what);
  }
};

/// Writer thread: commits DML that is valid regardless of interleaving.
/// Updates touch the seeded id range; inserts use a per-writer id stripe so
/// primary keys never collide across threads.
void WriterLoop(RaceState* st, const ConcurrentFuzzOptions& opts, int wid) {
  std::mt19937_64 rng(opts.seed * 7919 + uint64_t(wid));
  uint64_t next_fresh_id = 1000 + uint64_t(wid) * 100000;
  size_t committed = 0;
  while (committed < opts.commits_per_writer) {
    std::string sql;
    switch (rng() % 4) {
      case 0:
        sql = "UPDATE a SET v = v + " + std::to_string(1 + rng() % 9) +
              " WHERE id = " + std::to_string(1 + rng() % 8);
        break;
      case 1:
        sql = "UPDATE b SET w = w * 2 WHERE id = " +
              std::to_string(1 + rng() % 8);
        break;
      case 2:
        sql = "INSERT INTO a (id, v) VALUES (" +
              std::to_string(next_fresh_id++) + ", " +
              std::to_string(rng() % 100) + ")";
        break;
      default:
        // Deleting an id from the writer's own stripe: either gone already
        // (0 rows) or removes a row only this writer ever wrote.
        sql = "DELETE FROM a WHERE id = " +
              std::to_string(1000 + uint64_t(wid) * 100000 + rng() % 50);
        break;
    }
    auto r = st->uv.ExecuteSql(sql);
    if (!r.ok()) {
      st->Fail("writer commit failed: " + r.status().ToString() + " [" +
               sql + "]");
      return;
    }
    ++committed;
  }
  std::lock_guard<std::mutex> g(st->mu);
  st->report.commits += committed;
}

/// Analyst thread: pins a shared snapshot, runs the selective analysis and
/// the full-naive reference against the SAME snapshot, and requires equal
/// fingerprints — the schedule-independence invariant. Occasionally
/// exercises the memoized entry point and the publish path.
void AnalystLoop(RaceState* st, const ConcurrentFuzzOptions& opts, int aid) {
  std::mt19937_64 rng(opts.seed * 104729 + uint64_t(aid));
  for (size_t i = 0; i < opts.analyses_per_analyst; ++i) {
    auto snap_r = st->uv.SnapshotHistory();
    if (!snap_r.ok()) {
      st->Fail("SnapshotHistory: " + snap_r.status().ToString());
      return;
    }
    std::shared_ptr<const HistorySnapshot> snap = *snap_r;
    {
      std::lock_guard<std::mutex> g(st->mu);
      st->epochs_pinned.insert(snap->epoch);
    }
    // Target only the seeded DML prefix (entries 3..seeded_len), never a
    // CREATE TABLE. Published removes shrink the log, so a snapshot may
    // hold fewer entries than were seeded: stay below its horizon.
    uint64_t last = std::min(st->seeded_len, snap->horizon);
    if (last < 3) continue;
    RetroOp op;
    op.kind = RetroOp::Kind::kRemove;
    op.index = 3 + rng() % (last - 2);

    auto sel = st->uv.WhatIfAnalyzeAt(*snap, op, SystemMode::kTD, false);
    auto ref = st->uv.WhatIfAnalyzeAt(*snap, op, SystemMode::kT, true);
    // The fence can move while we analyze; re-check before judging.
    std::string verdict = JudgeAnalysisPair(
        sel, ref, snap->epoch < st->publish_fence.load());
    if (!verdict.empty()) {
      std::ostringstream os;
      os << "divergence at epoch " << snap->epoch << " horizon "
         << snap->horizon << " op remove " << op.index << ": " << verdict;
      st->Fail(os.str());
      return;
    }
    {
      std::lock_guard<std::mutex> g(st->mu);
      ++st->report.analyses;
    }
    if (!sel.ok()) continue;  // both rejected the op alike

    // Memoized path: same op twice in a row — the second answer must come
    // from the result cache unless a commit advanced the epoch in between.
    if (rng() % 4 == 0) {
      auto first = st->uv.WhatIfAnalyze(op, SystemMode::kTD);
      auto second = st->uv.WhatIfAnalyze(op, SystemMode::kTD);
      if (first.ok() && second.ok()) {
        if (second->cache_hit) {
          std::lock_guard<std::mutex> g(st->mu);
          ++st->report.cache_hits;
        }
        if (second->cache_hit &&
            second->fingerprint != first->fingerprint) {
          st->Fail("result cache returned a different fingerprint for the "
                   "same (epoch, op)");
          return;
        }
      }
    }

    // Publish path: must land or lose the epoch race cleanly. The fence
    // is lowered BEFORE the attempt: the publish lands at whatever epoch
    // its internal snapshot pins, which is at least the epoch read here.
    if (opts.try_publish && rng() % 4 == 0) {
      uint64_t pre = st->uv.history_epoch();
      uint64_t cur = st->publish_fence.load();
      while (pre < cur &&
             !st->publish_fence.compare_exchange_weak(cur, pre)) {
      }
      auto pub = st->uv.WhatIf(op, SystemMode::kTD);
      std::lock_guard<std::mutex> g(st->mu);
      if (pub.ok()) {
        ++st->report.publishes;
      } else if (pub.status().code() == StatusCode::kAborted) {
        ++st->report.publish_aborts;
      } else {
        ++st->report.divergences;
        st->report.failures.push_back("publish failed with non-abort: " +
                                      pub.status().ToString());
        return;
      }
    }

    if (opts.progress && i + 1 == opts.analyses_per_analyst) {
      opts.progress("analyst " + std::to_string(aid) + " done");
    }
  }
}

}  // namespace

std::string JudgeAnalysisPair(const Result<WhatIfAnalysis>& selective,
                              const Result<WhatIfAnalysis>& full_naive,
                              bool compare_fingerprints) {
  if (!selective.ok() || !full_naive.ok()) {
    if (!selective.ok() && !full_naive.ok() &&
        selective.status().ToString() == full_naive.status().ToString()) {
      return "";
    }
    return "analyze failed: sel=" + selective.status().ToString() +
           " ref=" + full_naive.status().ToString();
  }
  if (compare_fingerprints &&
      selective->fingerprint != full_naive->fingerprint) {
    return "selective " + selective->fingerprint + " != full-naive " +
           full_naive->fingerprint;
  }
  return "";
}

ConcurrentFuzzReport ConcurrentFuzz(const ConcurrentFuzzOptions& options) {
  Ultraverse::Options uv_opts;
  uv_opts.rng_seed = options.seed;
  RaceState st(uv_opts);

  // Seed schema + history. Everything here is committed before any thread
  // starts, so every snapshot any analyst pins contains this prefix.
  auto seed_sql = [&](const std::string& sql) {
    auto r = st.uv.ExecuteSql(sql);
    if (!r.ok()) {
      st.Fail("seed failed: " + r.status().ToString() + " [" + sql + "]");
      return false;
    }
    return true;
  };
  if (!seed_sql("CREATE TABLE a (id INT PRIMARY KEY, v INT)")) {
    return st.report;
  }
  if (!seed_sql("CREATE TABLE b (id INT PRIMARY KEY, w INT)")) {
    return st.report;
  }
  std::mt19937_64 rng(options.seed);
  for (size_t i = 0; i < options.history_statements; ++i) {
    std::string sql;
    if (i < 8) {
      sql = "INSERT INTO a (id, v) VALUES (" + std::to_string(i + 1) + ", " +
            std::to_string(rng() % 50) + ")";
    } else if (i < 16) {
      sql = "INSERT INTO b (id, w) VALUES (" + std::to_string(i - 7) + ", " +
            std::to_string(1 + rng() % 9) + ")";
    } else if (rng() % 2 == 0) {
      sql = "UPDATE a SET v = v + " + std::to_string(1 + rng() % 5) +
            " WHERE id = " + std::to_string(1 + rng() % 8);
    } else {
      sql = "UPDATE b SET w = w + " + std::to_string(1 + rng() % 3) +
            " WHERE id = " + std::to_string(1 + rng() % 8);
    }
    if (!seed_sql(sql)) return st.report;
  }
  st.seeded_len = st.uv.log()->last_index();

  std::vector<std::thread> threads;
  for (int w = 0; w < options.writer_threads; ++w) {
    threads.emplace_back(WriterLoop, &st, options, w);
  }
  for (int a = 0; a < options.analyst_threads; ++a) {
    threads.emplace_back(AnalystLoop, &st, options, a);
  }
  for (auto& t : threads) t.join();

  st.report.snapshots_pinned = st.epochs_pinned.size();
  return st.report;
}

}  // namespace ultraverse::oracle
