// Figure 8(a): what-if analysis runtime of the four system configurations
// (B, T, D, T+D) over a large application-transaction history window with
// 1% of queries retroactively targeted. Histories are scaled down from the
// paper's 1M queries (UV_BENCH_SCALE=full enlarges 8x).
#include <cstdio>

#include "bench_util.h"

namespace ultraverse::bench {
namespace {

void Run() {
  size_t history = 1500 * size_t(HistoryScale());
  BenchSession session("fig8a_modes");
  PrintHeader("Figure 8(a): what-if runtime, B / T / D / T+D",
              "paper: T+D 23.6x faster than B on average; T ~2x from RTT "
              "consolidation; D gains from pruning + parallel replay");
  std::printf("history = %zu application transactions (scaled from 1M)\n\n",
              history);

  PrintRow({"bench", "B", "T", "D", "T+D", "B/T+D", "T+D/tree", "vm-gain",
            "hj-cost"});
  // The four system modes run on the compiled VM engine; a fifth run
  // repeats T+D on the tree walker so the engine win is visible per
  // workload (DESIGN.md §12), and a sixth repeats it with the Hash-jumper
  // and its eager hash log on. The Hash-jumper never fires on these
  // histories, so the sixth run's engine wall time over the fourth's is
  // what an enabled-but-idle Hash-jumper costs.
  struct RunSpec {
    core::SystemMode mode;
    sql::ExecEngine engine;
    bool hash_jumper;
  } runs[6] = {{core::SystemMode::kB, sql::ExecEngine::kVm, false},
               {core::SystemMode::kT, sql::ExecEngine::kVm, false},
               {core::SystemMode::kD, sql::ExecEngine::kVm, false},
               {core::SystemMode::kTD, sql::ExecEngine::kVm, false},
               {core::SystemMode::kTD, sql::ExecEngine::kTree, false},
               {core::SystemMode::kTD, sql::ExecEngine::kVm, true}};
  for (const auto& name : workload::AllWorkloadNames()) {
    double secs[6] = {0, 0, 0, 0, 0, 0};
    double wall_ms[6] = {0, 0, 0, 0, 0, 0};
    for (int m = 0; m < 6; ++m) {
      InstanceOptions opts;
      opts.workload = name;
      opts.history_txns = history;
      opts.exec_engine = runs[m].engine;
      opts.hash_jumper = runs[m].hash_jumper;
      opts.eager_hash_log = runs[m].hash_jumper;
      // SEATS/TPC-C are fully dependent in the paper; others mixed.
      opts.dependency_rate =
          (name == "seats" || name == "tpcc") ? 1.0 : 0.3;
      Instance inst = BuildInstance(opts);
      core::RetroOp op;
      op.kind = core::RetroOp::Kind::kRemove;
      op.index = inst.retro_target;
      auto stats = inst.uv->WhatIf(op, runs[m].mode);
      if (!stats.ok()) {
        std::fprintf(stderr, "%s/%s: %s\n", name.c_str(),
                     core::SystemModeName(runs[m].mode),
                     stats.status().ToString().c_str());
        std::exit(1);
      }
      secs[m] = TotalSeconds(*stats);
      wall_ms[m] = double(stats->report.WallMicros()) / 1e3;
      session.Row({{"workload", name},
                   {"mode", core::SystemModeName(runs[m].mode)},
                   {"engine", m == 4 ? "tree" : "vm"},
                   {"hash_jumper", runs[m].hash_jumper ? 1 : 0},
                   {"seconds", secs[m]},
                   {"wall_ms", wall_ms[m]},
                   {"hash_jump", stats->hash_jump ? 1 : 0},
                   {"replayed", stats->replayed},
                   {"skipped", stats->skipped},
                   {"critical_path", stats->critical_path},
                   {"virtual_rtt_ms", VirtualRttMs(*stats)}});
    }
    char speedup[32], vm_gain[32], hj_cost[32];
    std::snprintf(speedup, sizeof(speedup), "%.1fx",
                  secs[3] > 0 ? secs[0] / secs[3] : 0.0);
    std::snprintf(vm_gain, sizeof(vm_gain), "%.1fx",
                  secs[3] > 0 ? secs[4] / secs[3] : 0.0);
    std::snprintf(hj_cost, sizeof(hj_cost), "%+.0f%%",
                  wall_ms[3] > 0 ? 100.0 * (wall_ms[5] / wall_ms[3] - 1.0)
                                 : 0.0);
    PrintRow({name, FmtSeconds(secs[0]), FmtSeconds(secs[1]),
              FmtSeconds(secs[2]), FmtSeconds(secs[3]), speedup,
              FmtSeconds(secs[4]), vm_gain, hj_cost});
  }
  std::printf("\nShape check: T+D < D,T < B for every benchmark; the T win\n"
              "comes from collapsed round trips, the D win from dependency\n"
              "pruning and parallel replay (Figure 8(a)).\n"
              "hj-cost: T+D engine wall time with the (never firing)\n"
              "Hash-jumper and eager hash log on, vs off.\n");
}

}  // namespace
}  // namespace ultraverse::bench

int main(int argc, char** argv) {
  ultraverse::bench::ParseBenchFlags(&argc, argv);
  ultraverse::bench::Run();
  return 0;
}
