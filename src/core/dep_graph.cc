#include "core/dep_graph.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ultraverse::core {

namespace {

/// Generic single-granularity replay-set computation (Theorems 11 & 19):
/// one ascending pass maintaining the accumulated writes (rule-1
/// dependencies, transitive because members join the accumulator) and
/// accumulated reads (Props. 9/10: later writers to a read cell replay so
/// consulted tables evolve correctly).
/// Per-granularity exclusion cause, recorded (when requested) at the exact
/// position of each skip/join decision in the ascending pass below.
enum class Cause : uint8_t {
  kMember,
  kTargetSlot,
  kReadOnly,
  kStatic,
  kPredicate,
  kNoRule,
};

/// Predicate-veto state (DESIGN.md §15): row sets of the target + joined
/// members, compared through their typed predicate regions when a classic
/// dependency rule fires. Kept separately from the granularity
/// accumulators so the *column* pass gets the same row-level refutation
/// power as the row pass.
struct RegionAccumulators {
  RowSet w, r, ow;

  explicit RegionAccumulators(const QueryRW& target_rw) {
    w = target_rw.wr;
    r = target_rw.rr;
    if (target_rw.overwrites) ow = target_rw.wr;
  }
  void Join(const QueryRW& rw) {
    w.Merge(rw.wr);
    r.Merge(rw.rr);
    if (rw.overwrites) ow.Merge(rw.wr);
  }
  /// Mirrors the three closure rules below at region granularity. False
  /// means every rule is provably refuted: the candidate shares no row —
  /// in any replay universe — with the accumulated members.
  bool CouldDepend(const QueryRW& rw) const {
    return rw.rr.RegionIntersects(w) || rw.wr.RegionIntersects(r) ||
           rw.wr.RegionIntersects(rw.overwrites ? w : ow);
  }
  /// Evidence string for a refuted candidate: the candidate's typed row
  /// views against the accumulated views on the keys it touches.
  std::string Describe(const QueryRW& rw) const {
    std::string out;
    auto add = [&](const char* tag, const RowSet& mine, const RowSet& acc) {
      for (const auto& [col, vals] : mine.cols) {
        auto it = acc.cols.find(col);
        if (it == acc.cols.end()) continue;
        if (out.size() > 160) return;
        if (!out.empty()) out += "; ";
        out += std::string(tag) + " " + col + " " +
               RowSet::TypedRegionOf(vals).ToString() + " vs members " +
               RowSet::TypedRegionOf(it->second).ToString();
      }
    };
    add("reads", rw.rr, w);
    add("writes", rw.wr, r);
    add("writes", rw.wr, rw.overwrites ? w : ow);
    if (out.empty()) out = "no shared row keys with members";
    return out;
  }
};

template <typename Sets>
std::set<uint64_t> ClosureOneGranularity(
    const std::vector<QueryRW>& analysis, uint64_t target_index,
    const QueryRW& target_rw, bool target_occupies_slot, Sets sets,
    const std::vector<TableFootprint>* static_footprints,
    bool predicate_filter = false, const std::set<uint64_t>* forced = nullptr,
    std::vector<Cause>* causes = nullptr,
    std::vector<std::string>* details = nullptr) {
  auto acc_w = sets.Writes(target_rw);  // by value: accumulators
  auto acc_r = sets.Reads(target_rw);
  // Accumulated *dynamic* table footprint of target + joined members. A
  // candidate whose static footprint (⊇ its dynamic footprint) is disjoint
  // from it shares no table — hence no "T.col"/"_S.T" cell — with any
  // accumulator, so every closure rule below is trivially false.
  TableFootprint acc_fp = FootprintOf(target_rw);
  // Overwriting-write accumulator: the subset of acc_w written by queries
  // that can clobber *pre-existing* cells (UPDATE/DELETE/DDL — see
  // QueryRW::overwrites). Used by the write-write rule below.
  std::decay_t<decltype(sets.Writes(target_rw))> acc_ow;
  if (target_rw.overwrites) acc_ow = sets.Writes(target_rw);
  std::optional<RegionAccumulators> regions;
  if (predicate_filter) regions.emplace(target_rw);

  std::set<uint64_t> members;
  if (causes) {
    causes->assign(analysis.size() + 1 - target_index, Cause::kNoRule);
  }
  if (details) {
    details->assign(analysis.size() + 1 - target_index, std::string());
  }
  auto record = [&](uint64_t idx, Cause c) {
    if (causes) (*causes)[idx - target_index] = c;
  };
  for (uint64_t idx = target_index; idx <= analysis.size(); ++idx) {
    // For remove/change the target *is* log[target_index]; it is seeded
    // into the accumulators above and must not re-join as a member. For
    // add, the new query slots in *before* log[target_index]: that commit
    // is an ordinary suffix statement and must be dependency-checked like
    // any other. (An earlier revision skipped it unconditionally, so a
    // retroactively added statement never saw the original commit at its
    // own insertion index replay — the differential oracle caught the
    // resulting divergences; see DESIGN.md §9.)
    if (target_occupies_slot && idx == target_index) {
      record(idx, Cause::kTargetSlot);
      continue;
    }
    const QueryRW& rw = analysis[idx - 1];
    if (forced && forced->count(idx)) {
      // Seeded member (counterfactual forced replay): joins without a
      // rule firing, and its sets feed the accumulators so every later
      // writer of its cells joins through the ordinary rules below.
      record(idx, Cause::kMember);
      members.insert(idx);
      sets.MergeInto(&acc_w, sets.Writes(rw));
      sets.MergeInto(&acc_r, sets.Reads(rw));
      if (rw.overwrites) sets.MergeInto(&acc_ow, sets.Writes(rw));
      if (static_footprints) acc_fp.Merge(FootprintOf(rw));
      if (regions) regions->Join(rw);
      continue;
    }
    if (sets.WriteEmpty(rw)) {
      record(idx, Cause::kReadOnly);
      continue;  // read-only queries never replay
    }
    if (static_footprints && idx - 1 < static_footprints->size() &&
        !(*static_footprints)[idx - 1].Intersects(acc_fp)) {
      record(idx, Cause::kStatic);
      continue;  // statically disjoint: no rule can fire
    }
    bool rule1 = sets.Intersect(sets.Reads(rw), acc_w);
    bool read_then_write = sets.Intersect(sets.Writes(rw), acc_r);
    // Write-write: values must land in rewritten-history order, exactly as
    // the conflict DAG orders WW edges. Two directions (both
    // differential-oracle finds, DESIGN.md §9):
    //  - An *overwriting* writer (UPDATE/DELETE/DDL, directly or through a
    //    trigger/procedure body) whose writes touch anything the
    //    target/members wrote must replay, or a retroactively added
    //    INSERT keeps its values on cells the later blind overwrite
    //    should clobber.
    //  - A pure row-creating writer (INSERT) must replay only when its
    //    cells intersect the accumulated *overwriting* writes: its staged
    //    rows do not exist yet at the point the earlier overwrite replays,
    //    so leaving it in place lets that overwrite corrupt them.
    // INSERT-vs-INSERT intersections are exempt: fresh rows cannot clobber
    // each other, and joining them would drag unrelated row-creating
    // history into every replay of a table without an RI column (where
    // all row info is wildcard).
    bool write_write =
        sets.Intersect(sets.Writes(rw), rw.overwrites ? acc_w : acc_ow);
    if (rule1 || read_then_write || write_write) {
      // Predicate-region veto (DESIGN.md §15): a rule fired on this
      // granularity's sets, but if the typed row regions are provably
      // disjoint from every rule shape the collision is spurious — no
      // replay universe makes these statements touch a shared row. Running
      // the veto *after* the classic rules keeps provenance honest:
      // kPredicate means "columns/rows collided and only the regions
      // refuted it", never "trivially disjoint anyway".
      if (regions && !regions->CouldDepend(rw)) {
        record(idx, Cause::kPredicate);
        if (details) (*details)[idx - target_index] = regions->Describe(rw);
        continue;
      }
      record(idx, Cause::kMember);
      members.insert(idx);
      sets.MergeInto(&acc_w, sets.Writes(rw));
      sets.MergeInto(&acc_r, sets.Reads(rw));
      if (rw.overwrites) sets.MergeInto(&acc_ow, sets.Writes(rw));
      if (static_footprints) acc_fp.Merge(FootprintOf(rw));
      if (regions) regions->Join(rw);
    }
  }
  return members;
}

struct ColumnGranularity {
  const ColumnSet& Reads(const QueryRW& rw) const { return rw.rc; }
  const ColumnSet& Writes(const QueryRW& rw) const { return rw.wc; }
  bool WriteEmpty(const QueryRW& rw) const { return rw.wc.empty(); }
  bool Intersect(const ColumnSet& a, const ColumnSet& b) const {
    return a.Intersects(b);
  }
  void MergeInto(ColumnSet* acc, const ColumnSet& s) const { acc->Merge(s); }
};

struct RowGranularity {
  const RowSet& Reads(const QueryRW& rw) const { return rw.rr; }
  const RowSet& Writes(const QueryRW& rw) const { return rw.wr; }
  bool WriteEmpty(const QueryRW& rw) const { return rw.wr.empty(); }
  bool Intersect(const RowSet& a, const RowSet& b) const {
    return a.Intersects(b);
  }
  void MergeInto(RowSet* acc, const RowSet& s) const { acc->Merge(s); }
};

}  // namespace

ReplayPlan ComputeReplayPlan(const std::vector<QueryRW>& analysis,
                             uint64_t target_index, const QueryRW& target_rw,
                             bool target_occupies_slot,
                             const DependencyOptions& options) {
  static obs::Histogram* const plan_us =
      obs::Registry::Global().histogram("uv.depgraph.plan_us");
  obs::ScopedLatency latency(plan_us);
  obs::TraceSpan span("depgraph.plan",
                      {{"history", analysis.size()}, {"target", target_index}});
  ReplayPlan plan;

  std::set<uint64_t> members;
  const size_t suffix = analysis.size() + 1 >= target_index
                            ? analysis.size() + 1 - target_index
                            : 0;
  std::vector<Cause> col_causes, row_causes;
  std::vector<std::string> col_details, row_details;
  std::vector<Cause>* col_rec =
      options.record_exclusions ? &col_causes : nullptr;
  std::vector<Cause>* row_rec =
      options.record_exclusions ? &row_causes : nullptr;
  std::vector<std::string>* col_det =
      options.record_exclusions ? &col_details : nullptr;
  std::vector<std::string>* row_det =
      options.record_exclusions ? &row_details : nullptr;
  if (options.column_wise && options.row_wise) {
    // Theorem 20: 𝕀 = 𝕀_c ∩ 𝕀_r.
    std::set<uint64_t> col = ClosureOneGranularity(
        analysis, target_index, target_rw, target_occupies_slot,
        ColumnGranularity{}, options.static_footprints,
        options.predicate_filter, options.forced_members, col_rec, col_det);
    std::set<uint64_t> row = ClosureOneGranularity(
        analysis, target_index, target_rw, target_occupies_slot,
        RowGranularity{}, options.static_footprints, options.predicate_filter,
        options.forced_members, row_rec, row_det);
    for (uint64_t idx : col) {
      if (row.count(idx)) members.insert(idx);
    }
  } else if (options.column_wise) {
    members = ClosureOneGranularity(
        analysis, target_index, target_rw, target_occupies_slot,
        ColumnGranularity{}, options.static_footprints,
        options.predicate_filter, options.forced_members, col_rec, col_det);
  } else {
    // No dependency analysis: replay the whole suffix (baseline behaviour).
    // Same slot-occupancy rule as above: for add, log[target_index] is part
    // of the suffix and replays after the inserted query.
    for (uint64_t idx = target_index; idx <= analysis.size(); ++idx) {
      if (target_occupies_slot && idx == target_index) continue;
      members.insert(idx);
    }
  }

  plan.replay_indices.assign(members.begin(), members.end());

  if (options.record_exclusions) {
    // Merge the per-granularity causes into one verdict per suffix
    // position. Column causes dominate; a column member the row closure
    // rejected is the Theorem-20 intersection pruning it.
    plan.exclusions_base = target_index;
    plan.exclusions.assign(suffix, PlanExclusion::kMember);
    plan.cluster_ids.assign(suffix, -1);
    plan.exclusion_detail.assign(suffix, std::string());
    int32_t next_cluster = 0;
    for (size_t j = 0; j < suffix; ++j) {
      uint64_t idx = target_index + j;
      if (col_causes.empty()) {
        // Baseline full-suffix plan: everything but the target slot replays.
        plan.exclusions[j] = members.count(idx) ? PlanExclusion::kMember
                                                : PlanExclusion::kTargetSlot;
        if (members.count(idx)) plan.cluster_ids[j] = next_cluster++;
        continue;
      }
      switch (col_causes[j]) {
        case Cause::kTargetSlot:
          plan.exclusions[j] = PlanExclusion::kTargetSlot;
          break;
        case Cause::kReadOnly:
          plan.exclusions[j] = PlanExclusion::kReadOnly;
          break;
        case Cause::kStatic:
          plan.exclusions[j] = PlanExclusion::kStaticDisjoint;
          break;
        case Cause::kPredicate:
          plan.exclusions[j] = PlanExclusion::kPredicateDisjoint;
          if (j < col_details.size()) {
            plan.exclusion_detail[j] = col_details[j];
          }
          break;
        case Cause::kNoRule:
          plan.exclusions[j] = PlanExclusion::kColumnDisjoint;
          break;
        case Cause::kMember:
          plan.cluster_ids[j] = next_cluster++;
          if (members.count(idx)) {
            plan.exclusions[j] = PlanExclusion::kMember;
          } else if (j < row_causes.size() &&
                     row_causes[j] == Cause::kPredicate) {
            // Column member pruned by the *row* pass's predicate tier:
            // surface the stronger, evidence-carrying verdict.
            plan.exclusions[j] = PlanExclusion::kPredicateDisjoint;
            if (j < row_details.size()) {
              plan.exclusion_detail[j] = row_details[j];
            }
          } else {
            plan.exclusions[j] = PlanExclusion::kClusterExcluded;
          }
          break;
      }
    }
  }

  // §4.4 table classification over the replayed queries + the target.
  auto classify = [&](const QueryRW& rw) {
    plan.mutated_tables.insert(rw.write_tables.begin(), rw.write_tables.end());
    for (const auto& t : rw.read_tables) plan.consulted_tables.insert(t);
    if (rw.is_ddl) plan.needs_schema_rebuild = true;
  };
  classify(target_rw);
  for (uint64_t idx : plan.replay_indices) classify(analysis[idx - 1]);
  for (const auto& t : plan.mutated_tables) plan.consulted_tables.erase(t);
  static obs::Counter* const plan_members =
      obs::Registry::Global().counter("uv.depgraph.plan.members");
  plan_members->Add(plan.replay_indices.size());
  return plan;
}

namespace {

/// RI values query `rw` touches in the table of cell column `column`, from
/// its row set `rs` (keys "t.<ri_col>" or "_S.t"). nullptr means every row:
/// a wildcard entry, or no row info recorded (conservative).
const std::set<std::string>* CellValues(const RowSet& rs,
                                        const std::string& column) {
  const bool is_schema = column.rfind("_S.", 0) == 0;
  const std::string table =
      is_schema ? column.substr(3) : column.substr(0, column.find('.'));
  for (const auto& [key, vals] : rs.cols) {
    bool schema_key = key.rfind("_S.", 0) == 0;
    if (schema_key != is_schema) continue;
    std::string t = is_schema ? key.substr(3) : key.substr(0, key.find('.'));
    if (t != table) continue;
    return vals.wildcard ? nullptr : &vals.values;
  }
  return nullptr;
}

}  // namespace

std::vector<std::vector<uint32_t>> BuildConflictDag(
    const std::vector<const QueryRW*>& ordered) {
  obs::TraceSpan span("depgraph.conflict_dag", {{"queries", ordered.size()}});
  // Per (table-column) cell tracking. Wildcard accesses touch every RI
  // value of the column; a wildcard write acts as a barrier.
  struct ColState {
    int last_wild_writer = -1;
    std::vector<int> wild_readers;                  // since last wild write
    std::map<std::string, int> last_writer;         // RI value -> position
    std::map<std::string, std::vector<int>> readers_since_write;
  };
  std::map<std::string, ColState> cols;

  std::vector<std::vector<uint32_t>> deps(ordered.size());
  for (size_t i = 0; i < ordered.size(); ++i) {
    const QueryRW& rw = *ordered[i];
    std::set<uint32_t> my_deps;
    auto add_dep = [&](int pos) {
      if (pos >= 0 && pos != int(i)) my_deps.insert(uint32_t(pos));
    };

    // Reads first (RW dependencies onto earlier writers).
    for (const auto& c : rw.rc.items) {
      ColState& st = cols[c];
      const std::set<std::string>* values = CellValues(rw.rr, c);
      add_dep(st.last_wild_writer);
      if (!values) {
        for (const auto& [v, w] : st.last_writer) {
          (void)v;
          add_dep(w);
        }
        st.wild_readers.push_back(int(i));
      } else {
        for (const auto& v : *values) {
          auto it = st.last_writer.find(v);
          if (it != st.last_writer.end()) add_dep(it->second);
          st.readers_since_write[v].push_back(int(i));
        }
      }
    }
    // Writes (WR onto earlier readers, WW onto earlier writers).
    for (const auto& c : rw.wc.items) {
      ColState& st = cols[c];
      const std::set<std::string>* values = CellValues(rw.wr, c);
      add_dep(st.last_wild_writer);
      if (!values) {
        for (const auto& [v, w] : st.last_writer) {
          (void)v;
          add_dep(w);
        }
        for (int r : st.wild_readers) add_dep(r);
        for (const auto& [v, readers] : st.readers_since_write) {
          (void)v;
          for (int r : readers) add_dep(r);
        }
        st.last_writer.clear();
        st.readers_since_write.clear();
        st.wild_readers.clear();
        st.last_wild_writer = int(i);
      } else {
        for (int r : st.wild_readers) add_dep(r);
        for (const auto& v : *values) {
          auto it = st.last_writer.find(v);
          if (it != st.last_writer.end()) add_dep(it->second);
          auto rit = st.readers_since_write.find(v);
          if (rit != st.readers_since_write.end()) {
            for (int r : rit->second) add_dep(r);
            rit->second.clear();
          }
          st.last_writer[v] = int(i);
        }
      }
    }
    deps[i].assign(my_deps.begin(), my_deps.end());
  }
  static obs::Counter* const conflict_edges =
      obs::Registry::Global().counter("uv.depgraph.conflict.edges");
  size_t edges = 0;
  for (const auto& d : deps) edges += d.size();
  conflict_edges->Add(edges);
  return deps;
}

uint32_t ConflictCriticalPath(const std::vector<const QueryRW*>& ordered) {
  obs::TraceSpan span("depgraph.critical_path",
                      {{"queries", ordered.size()}});
  // BuildConflictDag's cell state with every position list folded into the
  // largest depth it holds (0 = none). The maxima are exact: an entry is
  // only replaced or cleared by a writer that depends on it, so that writer
  // is deeper than anything it removes, and whoever would have depended on
  // the removed entry depends on the writer too. Keys view strings owned
  // by `ordered`, which outlives the pass.
  struct ValDepth {
    uint32_t writer = 0;
    uint32_t readers = 0;  // since that write
  };
  struct ColDepth {
    uint32_t wild_writer = 0;
    // Since the last wildcard write:
    uint32_t wild_readers = 0;
    uint32_t value_writers = 0;  // max over values[*].writer
    uint32_t value_readers = 0;  // max over values[*].readers
    std::unordered_map<std::string_view, ValDepth> values;
  };
  std::unordered_map<std::string_view, ColDepth> cols;

  uint32_t longest = 0;
  for (const QueryRW* q : ordered) {
    const QueryRW& rw = *q;
    // A query never depends on itself, so its depth comes from the state
    // before it; the updates then apply in BuildConflictDag's order.
    uint32_t deps = 0;
    auto at_least = [&deps](uint32_t d) { deps = std::max(deps, d); };
    for (const auto& c : rw.rc.items) {
      auto it = cols.find(c);
      if (it == cols.end()) continue;
      const ColDepth& st = it->second;
      at_least(st.wild_writer);
      const std::set<std::string>* values = CellValues(rw.rr, c);
      if (!values) {
        at_least(st.value_writers);
        continue;
      }
      for (const auto& v : *values) {
        auto vit = st.values.find(v);
        if (vit != st.values.end()) at_least(vit->second.writer);
      }
    }
    for (const auto& c : rw.wc.items) {
      auto it = cols.find(c);
      if (it == cols.end()) continue;
      const ColDepth& st = it->second;
      at_least(st.wild_writer);
      at_least(st.wild_readers);
      const std::set<std::string>* values = CellValues(rw.wr, c);
      if (!values) {
        at_least(st.value_writers);
        at_least(st.value_readers);
        continue;
      }
      for (const auto& v : *values) {
        auto vit = st.values.find(v);
        if (vit == st.values.end()) continue;
        at_least(vit->second.writer);
        at_least(vit->second.readers);
      }
    }
    const uint32_t depth = deps + 1;
    longest = std::max(longest, depth);

    for (const auto& c : rw.rc.items) {
      ColDepth& st = cols[c];
      const std::set<std::string>* values = CellValues(rw.rr, c);
      if (!values) {
        st.wild_readers = std::max(st.wild_readers, depth);
        continue;
      }
      for (const auto& v : *values) {
        ValDepth& vd = st.values[v];
        vd.readers = std::max(vd.readers, depth);
        st.value_readers = std::max(st.value_readers, depth);
      }
    }
    for (const auto& c : rw.wc.items) {
      ColDepth& st = cols[c];
      const std::set<std::string>* values = CellValues(rw.wr, c);
      if (!values) {
        st = ColDepth{};  // barrier: every earlier access is behind it
        st.wild_writer = depth;
        continue;
      }
      for (const auto& v : *values) {
        st.values[v] = ValDepth{depth, 0};
        st.value_writers = std::max(st.value_writers, depth);
      }
    }
  }
  return longest;
}

}  // namespace ultraverse::core
