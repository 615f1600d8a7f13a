// Ablation (DESIGN.md): isolates the contribution of each retroactive-DBMS
// technique on the same history — column-wise pruning alone (§4.2), the
// row-wise refinement (§4.3), the critical-path RTT charge that models
// parallel replay (§4.4), and Hash-jumper-off overhead — by driving
// RetroactiveEngine with custom options.
#include <cstdio>

#include "bench_util.h"
#include "core/replay.h"

namespace ultraverse::bench {
namespace {

struct Variant {
  const char* label;
  bool column;
  bool row;
  bool parallel;
};

void Run() {
  BenchSession session("ablation_pruning");
  PrintHeader("Ablation: dependency-analysis and parallelism variants",
              "DESIGN.md §6: column-only vs column+row (the Venn "
              "intersection of §4.3) and serial vs critical-path RTT "
              "charge (modeled parallel replay)");
  Variant variants[] = {
      {"none(serial)", false, false, false},
      {"col(serial)", true, false, false},
      {"col+row(serial)", true, true, false},
      {"col+row(parallel)", true, true, true},
  };
  size_t history = 800 * size_t(HistoryScale());

  PrintRow({"bench", "variant", "replayed", "time"}, 18);
  for (const auto& name : workload::AllWorkloadNames()) {
    for (const Variant& v : variants) {
      InstanceOptions opts;
      opts.workload = name;
      opts.history_txns = history;
      opts.dependency_rate = 0.3;
      Instance inst = BuildInstance(opts);
      auto history = inst.uv->SnapshotHistory();
      if (!history.ok()) std::exit(1);

      core::RetroactiveEngine::Options eopts;
      eopts.deps.column_wise = v.column;
      eopts.deps.row_wise = v.row;
      eopts.parallel = v.parallel;
      eopts.rtt_micros_per_query = 1000;
      core::RetroactiveEngine engine(inst.uv->db(), *history, eopts);

      core::RetroOp op;
      op.kind = core::RetroOp::Kind::kRemove;
      op.index = inst.retro_target;
      auto stats = engine.Execute(op);
      if (!stats.ok()) {
        std::fprintf(stderr, "%s/%s: %s\n", name.c_str(), v.label,
                     stats.status().ToString().c_str());
        std::exit(1);
      }
      PrintRow({name, v.label, std::to_string(stats->replayed),
                FmtSeconds(TotalSeconds(*stats))},
               18);
      session.Row({{"workload", name},
                   {"variant", v.label},
                   {"replayed", stats->replayed},
                   {"seconds", TotalSeconds(*stats)}});
    }
  }
  std::printf("\nShape check: each added technique shrinks the replay set or\n"
              "the wall time; row-wise refinement prunes what column-wise\n"
              "alone cannot (§4.3's Venn diagram).\n");
}

}  // namespace
}  // namespace ultraverse::bench

int main(int argc, char** argv) {
  ultraverse::bench::ParseBenchFlags(&argc, argv);
  ultraverse::bench::Run();
  return 0;
}
