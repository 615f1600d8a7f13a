#include "analysis/shard_advisor.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "analysis/conflict_matrix.h"
#include "analysis/static_rw.h"
#include "core/predicate.h"
#include "core/rw_sets.h"
#include "sqldb/value.h"

namespace ultraverse::analysis {

namespace {

/// Column conflict restricted to one table: a WW/WR/RW overlap among
/// "T.column" items. A column conflict always names a shared table, so
/// classifying per shared table covers the global relation exactly.
bool ConflictsOnTable(const core::QueryRW& a, const core::QueryRW& b,
                      const std::string& table) {
  std::string prefix = table + ".";
  auto hit = [&](const core::ColumnSet& x, const core::ColumnSet& y) {
    for (auto it = x.items.lower_bound(prefix);
         it != x.items.end() &&
         it->compare(0, prefix.size(), prefix) == 0;
         ++it) {
      if (y.items.count(*it)) return true;
    }
    return false;
  };
  return hit(a.wc, b.wc) || hit(a.wc, b.rc) || hit(a.rc, b.wc);
}

/// The statement's row view on one RI key: the join of its read and write
/// regions. A statement that touches the table without any entry for the
/// key (CALL/DDL artifacts) degrades to ⊤.
core::ValueRegion StatementRegion(const core::QueryRW& rw,
                                  const std::string& key) {
  core::ValueRegion out = core::ValueRegion::EmptySet();
  bool any = false;
  for (const core::RowSet* rs : {&rw.rr, &rw.wr}) {
    auto it = rs->cols.find(key);
    if (it == rs->cols.end()) continue;
    out.MergeWith(it->second);
    any = true;
  }
  return any ? out : core::ValueRegion::Top();
}

/// Union-find over table names for the colocation components.
class TableUnion {
 public:
  std::string Find(const std::string& t) {
    auto it = parent_.find(t);
    if (it == parent_.end()) {
      parent_[t] = t;
      return t;
    }
    if (it->second == t) return t;
    std::string root = Find(it->second);
    parent_[t] = root;
    return root;
  }
  void Union(const std::string& a, const std::string& b) {
    parent_[Find(a)] = Find(b);
  }
  std::map<std::string, std::vector<std::string>> Components() {
    std::map<std::string, std::vector<std::string>> out;
    for (const auto& [t, _] : std::map<std::string, std::string>(parent_)) {
      out[Find(t)].push_back(t);
    }
    return out;
  }

 private:
  std::map<std::string, std::string> parent_;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string ShardAdvice::ToString() const {
  std::ostringstream os;
  os << "shard advisor: " << statements_analyzed << " statements";
  if (statements_beyond_pair_cap) {
    os << " (" << statements_beyond_pair_cap
       << " beyond the pairwise cap: grouped but not pair-checked)";
  }
  os << "\npairs sharing a table: " << pairs_checked << " ("
     << pairs_disjoint << " column-disjoint, " << pairs_refuted
     << " predicate-refuted, " << pairs_conflicting << " conflicting)\n";
  os << "table groups (colocation components):\n";
  if (groups.empty()) os << "  (none)\n";
  for (size_t i = 0; i < groups.size(); ++i) {
    os << "  group " << (i + 1) << ":";
    for (const auto& t : groups[i].tables) os << " " << t;
    os << "\n";
  }
  os << "key-range splits:\n";
  if (splits.empty()) os << "  (no tables with a row-identifier column)\n";
  for (const auto& s : splits) {
    os << "  " << s.table << " on " << s.ri_column << ": "
       << (s.partitionable ? "partitionable" : "NOT partitionable") << " ("
       << s.statements << " stmts, " << s.refuted_pairs << "/"
       << s.conflicting_pairs << " conflicting pairs predicate-refuted)";
    if (!s.boundaries.empty()) {
      os << "; range boundaries:";
      for (const auto& b : s.boundaries) os << " " << b;
    }
    os << "\n";
  }
  return os.str();
}

std::string ShardAdvice::ToJson() const {
  std::ostringstream os;
  os << "{\"statements_analyzed\":" << statements_analyzed
     << ",\"statements_beyond_pair_cap\":" << statements_beyond_pair_cap
     << ",\"pairs_checked\":" << pairs_checked
     << ",\"pairs_disjoint\":" << pairs_disjoint
     << ",\"pairs_refuted\":" << pairs_refuted
     << ",\"pairs_conflicting\":" << pairs_conflicting << ",\"groups\":[";
  for (size_t i = 0; i < groups.size(); ++i) {
    if (i) os << ",";
    os << "[";
    for (size_t j = 0; j < groups[i].tables.size(); ++j) {
      if (j) os << ",";
      os << "\"" << JsonEscape(groups[i].tables[j]) << "\"";
    }
    os << "]";
  }
  os << "],\"splits\":[";
  for (size_t i = 0; i < splits.size(); ++i) {
    const TableSplit& s = splits[i];
    if (i) os << ",";
    os << "{\"table\":\"" << JsonEscape(s.table) << "\",\"ri_column\":\""
       << JsonEscape(s.ri_column) << "\",\"partitionable\":"
       << (s.partitionable ? "true" : "false")
       << ",\"statements\":" << s.statements
       << ",\"conflicting_pairs\":" << s.conflicting_pairs
       << ",\"refuted_pairs\":" << s.refuted_pairs << ",\"boundaries\":[";
    for (size_t j = 0; j < s.boundaries.size(); ++j) {
      if (j) os << ",";
      os << "\"" << JsonEscape(s.boundaries[j]) << "\"";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

Result<ShardAdvice> AdviseSharding(
    const std::vector<sql::StatementPtr>& statements, size_t shards) {
  if (shards < 2) shards = 2;
  ShardAdvice advice;
  StaticAnalyzer analyzer;
  TableUnion tables;

  struct StmtInfo {
    core::QueryRW rw;
    std::set<std::string> tables;  // read ∪ write
    bool has_ddl = false;
  };
  std::vector<StmtInfo> infos;  // first kShardPairwiseCap statements only
  std::set<std::string> ddl_touched;  // tables a DDL statement names
  bool any_failure = false;

  for (const auto& stmt : statements) {
    ++advice.statements_analyzed;
    auto sum = analyzer.AnalyzeNext(*stmt);
    if (!sum.ok()) {
      // Sound fallback: an unanalyzable statement could touch anything, so
      // every colocation/partition claim below is withdrawn.
      any_failure = true;
      continue;
    }
    StmtInfo info;
    info.rw = sum->rw;
    info.has_ddl = sum->has_ddl;
    info.tables.insert(sum->rw.read_tables.begin(),
                       sum->rw.read_tables.end());
    info.tables.insert(sum->rw.write_tables.begin(),
                       sum->rw.write_tables.end());
    // Tables one statement co-accesses must colocate.
    const std::string* first = nullptr;
    for (const auto& t : info.tables) {
      tables.Find(t);
      if (first) tables.Union(*first, t);
      else first = &t;
    }
    // Schema-*defining* DDL (CREATE TABLE/INDEX/VIEW in the setup prefix)
    // doesn't complicate sharding — every input starts with it. Mutating
    // DDL (ALTER/DROP/TRUNCATE/RENAME, or DDL reached through a procedure
    // body) withdraws partition claims for the tables it touches.
    bool defining_ddl = stmt->kind == sql::StatementKind::kCreateTable ||
                        stmt->kind == sql::StatementKind::kCreateIndex ||
                        stmt->kind == sql::StatementKind::kCreateView ||
                        stmt->kind == sql::StatementKind::kCreateProcedure ||
                        stmt->kind == sql::StatementKind::kCreateTrigger;
    if (info.has_ddl && !defining_ddl) {
      ddl_touched.insert(info.tables.begin(), info.tables.end());
    }
    if (infos.size() < kShardPairwiseCap) {
      infos.push_back(std::move(info));
    } else {
      ++advice.statements_beyond_pair_cap;
    }
  }

  // Per-table statement lists (pairwise-capped set only).
  std::map<std::string, std::vector<size_t>> touching;
  for (size_t i = 0; i < infos.size(); ++i) {
    for (const auto& t : infos[i].tables) touching[t].push_back(i);
  }

  // Pairwise classification per shared table, aggregated into global pair
  // stats. A pair can share several tables; it counts once, at its worst
  // verdict across them.
  struct PairState {
    bool conflicts = false;   // column conflict on some shared table
    bool unrefuted = false;   // ... that predicate regions cannot refute
  };
  std::map<uint64_t, PairState> pair_states;
  // Statements on a non-refuted conflicting pair whose region on the
  // table's RI key is not point-only block that table's partitioning.
  std::set<std::string> blocked;

  for (const auto& [table, stmts] : touching) {
    const core::SchemaRegistry::TableInfo* ti =
        analyzer.registry().FindTable(table);
    std::string key = table + "." + (ti && !ti->ri_column.empty()
                                         ? ti->ri_column
                                         : std::string("__row"));
    ShardAdvice::TableSplit split;
    split.table = table;
    split.ri_column = key;
    split.statements = stmts.size();

    std::vector<core::ValueRegion> regions;
    regions.reserve(stmts.size());
    for (size_t i : stmts) {
      regions.push_back(StatementRegion(infos[i].rw, key));
    }
    for (size_t a = 0; a < stmts.size(); ++a) {
      for (size_t b = a + 1; b < stmts.size(); ++b) {
        uint64_t pair_key = uint64_t(stmts[a]) * infos.size() + stmts[b];
        PairState& state = pair_states[pair_key];
        if (!ConflictsOnTable(infos[stmts[a]].rw, infos[stmts[b]].rw,
                              table)) {
          continue;
        }
        state.conflicts = true;
        ++split.conflicting_pairs;
        if (!regions[a].Intersects(regions[b])) {
          ++split.refuted_pairs;
        } else {
          state.unrefuted = true;
          // An intersecting pair still colocates on one shard when both
          // sides are point sets (the boundary pass keeps each statement's
          // span whole); a scan/range side forces cross-shard traffic.
          if (!regions[a].IsPointsOnly() || !regions[b].IsPointsOnly()) {
            blocked.insert(table);
          }
        }
      }
    }

    split.partitionable = !any_failure && ti && !ti->ri_column.empty() &&
                          !ddl_touched.count(table) &&
                          !blocked.count(table);

    // Range boundaries: merge each point-only statement's [min,max] key
    // span (whole spans never straddle a boundary), then cut the merged
    // ranges into ≤`shards` weight-balanced groups.
    if (split.partitionable) {
      struct Span {
        sql::Value lo, hi;
        size_t weight = 1;
      };
      std::vector<Span> spans;
      bool decodable = true;
      for (const core::ValueRegion& r : regions) {
        if (!r.IsPointsOnly() || r.points.empty()) continue;
        Span s;
        bool first = true;
        for (const std::string& enc : r.points) {
          sql::Value v;
          if (!sql::Value::Decode(enc, &v)) {
            decodable = false;
            break;
          }
          if (first || v.Compare(s.lo) < 0) s.lo = v;
          if (first || v.Compare(s.hi) > 0) s.hi = v;
          first = false;
        }
        if (!decodable) break;
        if (!first) spans.push_back(std::move(s));
      }
      if (decodable && spans.size() > 1) {
        std::sort(spans.begin(), spans.end(),
                  [](const Span& a, const Span& b) {
                    return a.lo.Compare(b.lo) < 0;
                  });
        std::vector<Span> merged;
        for (Span& s : spans) {
          if (!merged.empty() && s.lo.Compare(merged.back().hi) <= 0) {
            if (s.hi.Compare(merged.back().hi) > 0) merged.back().hi = s.hi;
            merged.back().weight += s.weight;
          } else {
            merged.push_back(std::move(s));
          }
        }
        size_t total = 0;
        for (const Span& s : merged) total += s.weight;
        size_t cuts = std::min(shards, merged.size()) - 1;
        size_t acc = 0, made = 0;
        for (size_t i = 0; i + 1 < merged.size() && made < cuts; ++i) {
          acc += merged[i].weight;
          if (acc * (cuts + 1) >= total * (made + 1)) {
            split.boundaries.push_back(
                merged[i + 1].lo.ToDisplayString());
            ++made;
          }
        }
      }
    }
    advice.splits.push_back(std::move(split));
  }

  for (const auto& [pair_key, state] : pair_states) {
    (void)pair_key;
    ++advice.pairs_checked;
    if (!state.conflicts) ++advice.pairs_disjoint;
    else if (!state.unrefuted) ++advice.pairs_refuted;
    else ++advice.pairs_conflicting;
  }

  if (any_failure) {
    // Everything colocates; claims above were already withdrawn.
    std::string first;
    for (const auto& t : analyzer.registry().TableNames()) {
      if (first.empty()) first = t;
      else tables.Union(first, t);
      tables.Find(t);
    }
  }
  for (auto& [root, members] : tables.Components()) {
    (void)root;
    std::sort(members.begin(), members.end());
    advice.groups.push_back(ShardAdvice::TableGroup{std::move(members)});
  }
  return advice;
}

}  // namespace ultraverse::analysis
