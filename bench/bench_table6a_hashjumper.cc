// Table 6(a): Hash-jumper runtime across hash-hit points (10%/25%/50%/100%
// of the history), reproducing the Figure-7 scenario on top of each
// benchmark's background traffic:
//
//   * a hot "membership" row accumulates points through a chain of
//     read-modify-write updates (each depends on the previous one),
//   * the retroactive target is the first accumulation,
//   * at the hit point an *overwriting* update (SET score = constant) is
//     committed — replaying it makes the alternate timeline reconverge with
//     the original one, which the Hash-jumper detects, early-terminating
//     the replay of everything after it (§4.5),
//   * 100% = no overwrite: the whole chain replays (and implicitly
//     measures the overhead of running with Hash-jumper enabled).
#include <cstdio>

#include "bench_util.h"

namespace ultraverse::bench {
namespace {

using core::SystemMode;
using core::Ultraverse;

struct Run {
  double seconds = 0;
  bool hit = false;
  uint64_t jump_index = 0;
  size_t replayed = 0;
  size_t critical_path = 0;
  double virtual_rtt_ms = 0;
};

Run RunOne(const std::string& name, size_t history, double hit_point) {
  Ultraverse::Options uv_opts;
  uv_opts.hash_jumper = true;
  uv_opts.eager_hash_log = true;
  Ultraverse uv(uv_opts);
  workload::Driver::Config config;
  config.dependency_rate = 0.0;  // background traffic is independent
  config.commit_mode = SystemMode::kB;
  workload::Driver driver(workload::MakeWorkload(name, 1), &uv, config);
  if (!driver.Setup().ok()) std::exit(1);
  if (!uv.ExecuteSql("CREATE TABLE membership (uid INT PRIMARY KEY,"
                     " score INT)")
           .ok() ||
      !uv.ExecuteSql("INSERT INTO membership VALUES (1, 0)").ok()) {
    std::exit(1);
  }

  // Retro target: the first accumulation of the hot member's score.
  if (!uv.ExecuteSql("UPDATE membership SET score = score + 5 WHERE uid = 1")
           .ok()) {
    std::exit(1);
  }
  uint64_t target = uv.log()->last_index();

  size_t inject_at = size_t(double(history) * hit_point);
  Rng rng(3);
  for (size_t i = 0; i < history; ++i) {
    if (i == inject_at && hit_point < 1.0) {
      // Figure 7's Q99: an overwrite independent of the prior value — the
      // timelines reconverge here.
      if (!uv.ExecuteSql("UPDATE membership SET score = 7777 WHERE uid = 1")
               .ok()) {
        std::exit(1);
      }
    }
    if (i % 4 == 0) {
      // The dependent chain: read-modify-write of the hot score.
      if (!uv.ExecuteSql("UPDATE membership SET score = score + " +
                         std::to_string(rng.UniformInt(1, 9)) +
                         " WHERE uid = 1")
               .ok()) {
        std::exit(1);
      }
    } else {
      if (!driver.RunHistory(1).ok()) std::exit(1);
    }
  }

  core::RetroOp op;
  op.kind = core::RetroOp::Kind::kRemove;
  op.index = target;
  auto stats = uv.WhatIf(op, SystemMode::kTD);
  if (!stats.ok()) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(),
                 stats.status().ToString().c_str());
    std::exit(1);
  }
  Run run;
  run.seconds = TotalSeconds(*stats);
  run.hit = stats->hash_jump;
  run.jump_index = stats->hash_jump_index;
  run.replayed = stats->replayed;
  run.critical_path = stats->critical_path;
  run.virtual_rtt_ms = VirtualRttMs(*stats);
  return run;
}

void RunBench() {
  BenchSession session("table6a_hashjumper");
  PrintHeader("Table 6(a): Hash-jumper runtime vs hash-hit point",
              "paper: runtime proportional to the hit point (e.g. TATP 52s "
              "@10% vs 512s @100%); ~2.4% overhead when no hit occurs");
  size_t history = 1200 * size_t(HistoryScale());
  double hit_points[] = {0.10, 0.25, 0.50, 1.0};

  PrintRow({"bench", "at 10%", "at 25%", "at 50%", "at 100%", "hits"});
  for (const auto& name : workload::AllWorkloadNames()) {
    std::vector<std::string> cells;
    std::string hits;
    for (double hp : hit_points) {
      Run run = RunOne(name, history, hp);
      cells.push_back(FmtSeconds(run.seconds));
      hits += run.hit ? "Y" : "n";
      session.Row({{"workload", name},
                   {"hit_point", hp},
                   {"seconds", run.seconds},
                   {"hash_jump", run.hit ? 1 : 0},
                   {"jump_index", run.jump_index},
                   {"replayed", run.replayed},
                   {"critical_path", run.critical_path},
                   {"virtual_rtt_ms", run.virtual_rtt_ms}});
    }
    PrintRow({name, cells[0], cells[1], cells[2], cells[3], hits});
  }
  std::printf("\nShape check: runtime grows with the hash-hit point "
              "(Y = jump fired);\nthe 100%% column replays the full chain "
              "(no hit) — Table 6(a).\n");
}

}  // namespace
}  // namespace ultraverse::bench

int main(int argc, char** argv) {
  ultraverse::bench::ParseBenchFlags(&argc, argv);
  ultraverse::bench::RunBench();
  return 0;
}
