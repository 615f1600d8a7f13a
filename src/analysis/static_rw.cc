#include "analysis/static_rw.h"

namespace ultraverse::analysis {

// ---------------------------------------------------------------------------
// StaticAnalyzer
// ---------------------------------------------------------------------------

StaticAnalyzer::StaticAnalyzer() = default;

StaticAnalyzer::StaticAnalyzer(const core::SchemaRegistry* follow)
    : follow_(follow) {}

void StaticAnalyzer::SetRiOverride(const std::string& table,
                                   const std::string& ri_column,
                                   std::vector<std::string> aliases) {
  ri_overrides_[table] =
      core::QueryAnalyzer::RiConfig{ri_column, std::move(aliases)};
  procedure_cache_.clear();
}

void StaticAnalyzer::SyncRiOverrides(
    const std::map<std::string, core::QueryAnalyzer::RiConfig>& configs) {
  if (ri_overrides_ == configs) return;
  ri_overrides_ = configs;
  procedure_cache_.clear();
}

Result<StaticSummary> StaticAnalyzer::Summarize(
    const sql::Statement& stmt) const {
  StaticSummary sum;
  core::SchemaRegistry scratch = registry();  // intra-statement DDL visible
  UV_RETURN_NOT_OK(
      core::AnalyzeAbstract(stmt, &scratch, ri_overrides_, &sum.rw, &sum));
  sum.footprint = core::FootprintOf(sum.rw);
  return sum;
}

Result<StaticSummary> StaticAnalyzer::AnalyzeNext(const sql::Statement& stmt) {
  if (follow_) {
    return Status::InvalidArgument(
        "AnalyzeNext requires an owned registry (follower mode is "
        "read-only)");
  }
  StaticSummary sum;
  UV_RETURN_NOT_OK(
      core::AnalyzeAbstract(stmt, &owned_, ri_overrides_, &sum.rw, &sum));
  sum.footprint = core::FootprintOf(sum.rw);
  if (sum.has_ddl) procedure_cache_.clear();
  return sum;
}

Result<const StaticSummary*> StaticAnalyzer::ProcedureSummary(
    const std::string& name) {
  auto it = procedure_cache_.find(name);
  if (it != procedure_cache_.end()) return &it->second;
  const auto* proc = registry().FindProcedure(name);
  if (!proc) return Status::NotFound("unknown procedure " + name);
  StaticSummary sum;
  core::SchemaRegistry scratch = registry();
  UV_RETURN_NOT_OK(
      core::AnalyzeAbstractBody(*proc, &scratch, ri_overrides_, &sum.rw, &sum));
  sum.footprint = core::FootprintOf(sum.rw);
  auto [pos, inserted] = procedure_cache_.emplace(name, std::move(sum));
  (void)inserted;
  return &pos->second;
}

std::vector<core::TableFootprint> StaticLogFootprints(
    const sql::QueryLog& log) {
  std::vector<core::TableFootprint> out;
  out.reserve(log.size());
  StaticAnalyzer analyzer;
  for (const auto& entry : log.entries()) {
    auto sum = analyzer.AnalyzeNext(*entry.stmt);
    if (sum.ok()) {
      out.push_back(std::move(sum->footprint));
    } else {
      core::TableFootprint universal;
      universal.universal = true;  // never skipped: sound fallback
      out.push_back(std::move(universal));
    }
  }
  return out;
}

}  // namespace ultraverse::analysis
