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

  PrintRow({"bench", "B", "T", "D", "T+D", "B/T+D", "T+D/tree", "vm-gain"});
  // The four system modes run on the compiled VM engine; a fifth run
  // repeats T+D on the tree walker so the engine win is visible per
  // workload (DESIGN.md §12).
  struct RunSpec {
    core::SystemMode mode;
    sql::ExecEngine engine;
  } runs[5] = {{core::SystemMode::kB, sql::ExecEngine::kVm},
               {core::SystemMode::kT, sql::ExecEngine::kVm},
               {core::SystemMode::kD, sql::ExecEngine::kVm},
               {core::SystemMode::kTD, sql::ExecEngine::kVm},
               {core::SystemMode::kTD, sql::ExecEngine::kTree}};
  for (const auto& name : workload::AllWorkloadNames()) {
    double secs[5] = {0, 0, 0, 0, 0};
    for (int m = 0; m < 5; ++m) {
      InstanceOptions opts;
      opts.workload = name;
      opts.history_txns = history;
      opts.exec_engine = runs[m].engine;
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
      session.Row({{"workload", name},
                   {"mode", core::SystemModeName(runs[m].mode)},
                   {"engine", m == 4 ? "tree" : "vm"},
                   {"seconds", secs[m]},
                   {"replayed", stats->replayed},
                   {"skipped", stats->skipped},
                   {"critical_path", stats->critical_path},
                   {"virtual_rtt_ms", VirtualRttMs(*stats)}});
    }
    char speedup[32], vm_gain[32];
    std::snprintf(speedup, sizeof(speedup), "%.1fx",
                  secs[3] > 0 ? secs[0] / secs[3] : 0.0);
    std::snprintf(vm_gain, sizeof(vm_gain), "%.1fx",
                  secs[3] > 0 ? secs[4] / secs[3] : 0.0);
    PrintRow({name, FmtSeconds(secs[0]), FmtSeconds(secs[1]),
              FmtSeconds(secs[2]), FmtSeconds(secs[3]), speedup,
              FmtSeconds(secs[4]), vm_gain});
  }
  std::printf("\nShape check: T+D < D,T < B for every benchmark; the T win\n"
              "comes from collapsed round trips, the D win from dependency\n"
              "pruning and parallel replay (Figure 8(a)).\n");
}

}  // namespace
}  // namespace ultraverse::bench

int main(int argc, char** argv) {
  ultraverse::bench::ParseBenchFlags(&argc, argv);
  ultraverse::bench::Run();
  return 0;
}
