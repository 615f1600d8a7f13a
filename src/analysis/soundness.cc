#include "analysis/soundness.h"

#include <sstream>

namespace ultraverse::analysis {

namespace {

bool ColumnsContained(const core::ColumnSet& dyn, const core::ColumnSet& stat,
                      const char* label, std::string* breach) {
  for (const auto& c : dyn.items) {
    if (!stat.items.count(c)) {
      *breach = std::string(label) + " column \"" + c +
                "\" accessed dynamically but absent from the static summary";
      return false;
    }
  }
  return true;
}

bool RowsContained(const core::RowSet& dyn, const core::RowSet& stat,
                   const char* label, std::string* breach) {
  for (const auto& [col, dview] : dyn.cols) {
    auto it = stat.cols.find(col);
    if (it == stat.cols.end()) {
      *breach = std::string(label) + " row key \"" + col +
                "\" accessed dynamically but absent from the static summary";
      return false;
    }
    // Predicate-region containment (DESIGN.md §15): the dynamic region of
    // every key must lie inside the static one. This is the row-granularity
    // half of the soundness invariant the predicate pre-filter relies on.
    const core::ValueRegion& sview = it->second;
    if (!dview.ContainedIn(sview)) {
      *breach = std::string(label) + " row key \"" + col +
                "\" dynamic region " + dview.ToString() +
                " not contained in static region " + sview.ToString();
      return false;
    }
  }
  return true;
}

bool TablesContained(const std::set<std::string>& dyn,
                     const std::set<std::string>& stat, const char* label,
                     std::string* breach) {
  for (const auto& t : dyn) {
    if (!stat.count(t)) {
      *breach = std::string(label) + " table \"" + t +
                "\" accessed dynamically but absent from the static summary";
      return false;
    }
  }
  return true;
}

}  // namespace

std::string ContainmentBreach(const core::QueryRW& dyn,
                              const core::QueryRW& stat) {
  std::string breach;
  if (!ColumnsContained(dyn.rc, stat.rc, "read", &breach)) return breach;
  if (!ColumnsContained(dyn.wc, stat.wc, "write", &breach)) return breach;
  if (!RowsContained(dyn.rr, stat.rr, "read", &breach)) return breach;
  if (!RowsContained(dyn.wr, stat.wr, "write", &breach)) return breach;
  if (!TablesContained(dyn.read_tables, stat.read_tables, "read", &breach)) {
    return breach;
  }
  if (!TablesContained(dyn.write_tables, stat.write_tables, "write",
                       &breach)) {
    return breach;
  }
  // Flags are one-directional: static may widen (nested DDL marks is_ddl)
  // but must never miss a dynamic flag.
  if (dyn.is_ddl && !stat.is_ddl) {
    return "dynamic is_ddl not predicted statically";
  }
  if (dyn.overwrites && !stat.overwrites) {
    return "dynamic overwrites not predicted statically";
  }
  return "";
}

SoundnessChecker::SoundnessChecker(core::QueryAnalyzer* analyzer)
    : analyzer_(analyzer),
      static_(analyzer->registry()),
      pending_(Status::Internal("no statement observed")) {
  analyzer_->set_observer(this);
}

SoundnessChecker::~SoundnessChecker() {
  if (analyzer_->observer() == this) analyzer_->set_observer(nullptr);
}

void SoundnessChecker::BeforeStatement(const sql::Statement& stmt) {
  // RI overrides can be configured between statements (ConfigureRi after
  // attach); mirroring them each time keeps RowSet keys aligned.
  static_.SyncRiOverrides(analyzer_->ri_configs());
  pending_ = static_.Summarize(stmt);
}

void SoundnessChecker::AfterStatement(const sql::Statement& stmt,
                                      const core::QueryRW& raw) {
  ++checked_;
  std::string detail;
  if (!pending_.ok()) {
    // The dynamic walk succeeded (we are here) while the static walk
    // errored: the summary missed an analyzable statement — a violation.
    detail = "static summarization failed: " + pending_.status().ToString();
  } else {
    detail = ContainmentBreach(raw, pending_->rw);
  }
  if (detail.empty()) return;
  Violation v;
  v.statement_ordinal = checked_ - 1;
  v.sql = sql::ToSql(stmt);
  v.detail = std::move(detail);
  violations_.push_back(std::move(v));
}

}  // namespace ultraverse::analysis
