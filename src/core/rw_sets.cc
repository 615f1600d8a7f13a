#include "core/rw_sets.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/nondet_builtins.h"
#include "util/string_util.h"

namespace ultraverse::core {

namespace {
using sql::Expr;
using sql::ExprKind;
using sql::ExprPtr;
using sql::IsDdl;
using sql::SelectStatement;
using sql::Statement;
using sql::StatementKind;
using sql::Value;
}  // namespace

// ---------------------------------------------------------------------------
// Set operations
// ---------------------------------------------------------------------------

bool ColumnSet::Intersects(const ColumnSet& other) const {
  const auto& small = items.size() <= other.items.size() ? items : other.items;
  const auto& big = items.size() <= other.items.size() ? other.items : items;
  for (const auto& s : small) {
    if (big.count(s)) return true;
  }
  return false;
}

void RowSet::Merge(const RowSet& other) {
  for (const auto& [col, region] : other.cols) {
    auto [it, fresh] = cols.emplace(col, region);
    if (!fresh) it->second.MergeWith(region);
  }
}

void RowSet::AddConstrained(const std::string& column,
                            const std::optional<std::set<std::string>>& values,
                            const ValueRegion& region) {
  ValueRegion view =
      values ? ValueRegion::OfPoints(*values).MeetWith(region) : region;
  auto [it, fresh] = cols.try_emplace(column, std::move(view));
  if (!fresh) it->second.MergeWith(view);
}

bool RowSet::RegionIntersects(const RowSet& other) const {
  for (const auto& [col, region] : cols) {
    auto it = other.cols.find(col);
    if (it != other.cols.end() && region.Intersects(it->second)) return true;
  }
  return false;
}

size_t QueryRW::ApproxLogBytes() const {
  // Ultraverse's compact dependency log: column ids (2 bytes each against a
  // catalog dictionary) + RI values; a ⊤ or range key is one flag byte.
  size_t bytes = 4;  // entry header
  bytes += 2 * (rc.items.size() + wc.items.size());
  for (const RowSet* rows : {&rr, &wr}) {
    for (const auto& [col, region] : rows->cols) {
      (void)col;
      if (!region.IsPointsOnly()) {
        ++bytes;
        continue;
      }
      for (const auto& v : region.points) {
        bytes += std::min<size_t>(v.size(), 9);
      }
    }
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// TableFootprint
// ---------------------------------------------------------------------------

void TableFootprint::Merge(const TableFootprint& other) {
  universal = universal || other.universal;
  tables.insert(other.tables.begin(), other.tables.end());
}

bool TableFootprint::Intersects(const TableFootprint& other) const {
  if (universal || other.universal) return true;
  const auto& small = tables.size() <= other.tables.size() ? tables
                                                           : other.tables;
  const auto& big = tables.size() <= other.tables.size() ? other.tables
                                                         : tables;
  for (const auto& t : small) {
    if (big.count(t)) return true;
  }
  return false;
}

namespace {
/// "T.col" -> T, "_S.T" -> T (schema pseudo-columns project onto their
/// object so a DDL's footprint collides with DML on the same table).
std::string FootprintTable(const std::string& item) {
  if (item.rfind("_S.", 0) == 0) return item.substr(3);
  size_t dot = item.find('.');
  return dot == std::string::npos ? item : item.substr(0, dot);
}
}  // namespace

TableFootprint FootprintOf(const QueryRW& rw) {
  TableFootprint fp;
  for (const auto& c : rw.rc.items) fp.tables.insert(FootprintTable(c));
  for (const auto& c : rw.wc.items) fp.tables.insert(FootprintTable(c));
  for (const auto& [col, vals] : rw.rr.cols) {
    (void)vals;
    fp.tables.insert(FootprintTable(col));
  }
  for (const auto& [col, vals] : rw.wr.cols) {
    (void)vals;
    fp.tables.insert(FootprintTable(col));
  }
  fp.tables.insert(rw.read_tables.begin(), rw.read_tables.end());
  fp.tables.insert(rw.write_tables.begin(), rw.write_tables.end());
  return fp;
}

// ---------------------------------------------------------------------------
// SchemaRegistry
// ---------------------------------------------------------------------------

void SchemaRegistry::ApplyDdl(const Statement& stmt) {
  switch (stmt.kind) {
    case StatementKind::kCreateTable: {
      TableInfo info;
      info.columns = stmt.create_table.schema.columns;
      info.foreign_keys = stmt.create_table.schema.foreign_keys;
      int pk = stmt.create_table.schema.PrimaryKeyIndex();
      if (pk >= 0) info.ri_column = info.columns[pk].name;
      tables_[stmt.create_table.schema.name] = std::move(info);
      break;
    }
    case StatementKind::kAlterTable: {
      auto it = tables_.find(stmt.alter_table.table);
      if (it == tables_.end()) break;
      if (stmt.alter_table.action == sql::AlterAction::kAddColumn) {
        it->second.columns.push_back(stmt.alter_table.add_column);
      } else {
        auto& cols = it->second.columns;
        cols.erase(std::remove_if(cols.begin(), cols.end(),
                                  [&](const sql::ColumnDef& c) {
                                    return c.name ==
                                           stmt.alter_table.drop_column;
                                  }),
                   cols.end());
      }
      break;
    }
    case StatementKind::kDropTable:
      tables_.erase(stmt.drop_name);
      break;
    case StatementKind::kCreateView:
      views_[stmt.create_view.name] = stmt.create_view.select;
      break;
    case StatementKind::kDropView:
      views_.erase(stmt.drop_name);
      break;
    case StatementKind::kCreateProcedure:
      procedures_[stmt.create_procedure.name] = stmt.create_procedure;
      break;
    case StatementKind::kDropProcedure:
      procedures_.erase(stmt.drop_name);
      break;
    case StatementKind::kCreateTrigger:
      triggers_[stmt.create_trigger.name] = stmt.create_trigger;
      break;
    case StatementKind::kDropTrigger:
      triggers_.erase(stmt.drop_name);
      break;
    default:
      break;
  }
}

const SchemaRegistry::TableInfo* SchemaRegistry::FindTable(
    const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

SchemaRegistry::TableInfo* SchemaRegistry::FindTableMutable(
    const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

const sql::CreateProcedureStatement* SchemaRegistry::FindProcedure(
    const std::string& name) const {
  auto it = procedures_.find(name);
  return it == procedures_.end() ? nullptr : &it->second;
}

const std::shared_ptr<SelectStatement>* SchemaRegistry::FindView(
    const std::string& name) const {
  auto it = views_.find(name);
  return it == views_.end() ? nullptr : &it->second;
}

std::vector<const sql::CreateTriggerStatement*> SchemaRegistry::TriggersOn(
    const std::string& table, sql::TriggerEvent event) const {
  std::vector<const sql::CreateTriggerStatement*> out;
  for (const auto& [name, trig] : triggers_) {
    (void)name;
    if (trig.table == table && trig.event == event) out.push_back(&trig);
  }
  return out;
}

const sql::CreateTriggerStatement* SchemaRegistry::FindTrigger(
    const std::string& name) const {
  auto it = triggers_.find(name);
  return it == triggers_.end() ? nullptr : &it->second;
}

std::vector<std::string> SchemaRegistry::TablesReferencing(
    const std::string& table) const {
  std::vector<std::string> out;
  for (const auto& [name, info] : tables_) {
    for (const auto& fk : info.foreign_keys) {
      if (fk.ref_table == table) {
        out.push_back(name);
        break;
      }
    }
  }
  return out;
}

void SchemaRegistry::SetRiColumn(const std::string& table,
                                 const std::string& column) {
  auto it = tables_.find(table);
  if (it != tables_.end()) it->second.ri_column = column;
}

void SchemaRegistry::AddRiAlias(const std::string& table,
                                const std::string& alias_column) {
  auto it = tables_.find(table);
  if (it != tables_.end()) it->second.ri_aliases.push_back(alias_column);
}

std::vector<std::string> SchemaRegistry::TableNames() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, info] : tables_) {
    (void)info;
    out.push_back(name);
  }
  return out;
}

std::vector<std::string> SchemaRegistry::ProcedureNames() const {
  std::vector<std::string> out;
  out.reserve(procedures_.size());
  for (const auto& [name, proc] : procedures_) {
    (void)proc;
    out.push_back(name);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Union-find over merged RI values (§4.3 "Merging RI values")
// ---------------------------------------------------------------------------

std::string QueryAnalyzer::Find(const std::string& key) {
  auto it = merge_parent_.find(key);
  if (it == merge_parent_.end() || it->second == key) return key;
  std::string root = Find(it->second);
  it->second = root;
  return root;
}

void QueryAnalyzer::Union(const std::string& a, const std::string& b) {
  std::string ra = Find(a), rb = Find(b);
  if (ra != rb) {
    merge_parent_[ra] = rb;
    ++merge_generation_;
  }
}

/// The merge classes of one union-find generation, grouped by column, for
/// closing interval regions (CanonicalizeRowSets): each class's member
/// encodings (representative included), the class of each member, and the
/// members sorted by value, so an interval finds the classes it touches by
/// binary search rather than a scan of every merge.
struct QueryAnalyzer::MergeClassIndex {
  struct Column {
    std::vector<std::vector<std::string>> members;  // per class
    std::map<std::string, size_t> class_of;         // member enc -> class
    std::vector<std::pair<sql::Value, size_t>> by_value;
    /// Undecodable or NaN members (outside the value order): tested singly.
    std::vector<std::pair<std::string, size_t>> unordered;
  };
  std::map<std::string, Column> columns;  // "Table.col" -> its classes
};

const QueryAnalyzer::MergeClassIndex& QueryAnalyzer::MergeClasses() {
  if (merge_classes_ && merge_classes_gen_ == merge_generation_) {
    return *merge_classes_;
  }
  std::map<std::string, std::vector<std::string>> classes;  // root -> keys
  for (const auto& [key, parent] : merge_parent_) {
    (void)parent;
    classes[Find(key)].push_back(key);
  }
  auto index = std::make_shared<MergeClassIndex>();
  for (auto& [root, keys] : classes) {
    keys.push_back(root);
    // Keys are "<Table.col>|<value_enc>" (the first '|' splits them), and
    // a merge only ever joins keys of one column.
    const size_t bar = root.find('|');
    MergeClassIndex::Column& col = index->columns[root.substr(0, bar)];
    const size_t c = col.members.size();
    col.members.emplace_back();
    for (const std::string& key : keys) {
      std::string enc = key.substr(bar + 1);
      col.class_of.emplace(enc, c);
      sql::Value v;
      if (sql::Value::Decode(enc, &v) &&
          !(v.type() == sql::DataType::kDouble && std::isnan(v.AsDouble()))) {
        col.by_value.emplace_back(std::move(v), c);
      } else {
        col.unordered.emplace_back(enc, c);
      }
      col.members[c].push_back(std::move(enc));
    }
  }
  for (auto& [name, col] : index->columns) {
    (void)name;
    std::sort(col.by_value.begin(), col.by_value.end(),
              [](const auto& a, const auto& b) {
                return a.first.Compare(b.first) < 0;
              });
  }
  merge_classes_ = std::move(index);
  merge_classes_gen_ = merge_generation_;
  return *merge_classes_;
}

// ---------------------------------------------------------------------------
// Per-statement analysis: one walker, two domains
// ---------------------------------------------------------------------------

namespace {

void ApplyRiConfig(SchemaRegistry* reg,
                   const std::map<std::string, QueryAnalyzer::RiConfig>& configs,
                   const std::string& table) {
  auto it = configs.find(table);
  if (it == configs.end()) return;
  reg->SetRiColumn(table, it->second.ri_column);
  auto* info = reg->FindTableMutable(table);
  if (info) info->ri_aliases = it->second.aliases;
}

}  // namespace

/// Walks one statement (recursively through procedures, transactions and
/// triggers) and fills a QueryRW following the Appendix A policy tables.
/// The domain decides only which runtime facts the walk may read
/// (DESIGN.md §10):
///   - concrete (`owner_` set): variable values, the entry's auto-increment
///     ids and captured SELECT ... INTO values, the learned alias→RI map
///     and the RI-merge union-find;
///   - abstract (`owner_` null): none of them — variables are bound by name
///     with no value, folding is literal-only and alias lookups widen. It
///     records the lint facts instead (`lint_`), and marks nested DDL.
class RwWalker {
 public:
  /// Concrete domain: `owner` supplies its registry, RI configuration and
  /// learned facts, and learns from this statement. `nondet` and
  /// `captured` may be null (a statement that never ran).
  RwWalker(QueryAnalyzer* owner, const sql::NondetRecord* nondet,
           const std::map<std::string, std::vector<Value>>* captured,
           QueryRW* out)
      : reg_(&owner->registry_),
        ri_configs_(&owner->ri_overrides_),
        out_(out),
        owner_(owner),
        nondet_(nondet),
        captured_(captured) {}

  /// Abstract domain over `reg`, which evolves through the statement's DDL.
  RwWalker(SchemaRegistry* reg,
           const std::map<std::string, QueryAnalyzer::RiConfig>* ri_configs,
           QueryRW* out, LintFacts* lint)
      : reg_(reg), ri_configs_(ri_configs), out_(out), lint_(lint) {}

  Status Analyze(const Statement& stmt) {
    if (IsDdl(stmt.kind)) {
      out_->is_ddl = true;
      out_->overwrites = true;  // catalog state is replaced, not created
    }
    return AnalyzeStmt(stmt, /*depth=*/0);
  }

  /// A stored procedure's body with its parameters bound, value-less.
  Status AnalyzeProcedureBody(const sql::CreateProcedureStatement& proc) {
    for (const auto& p : proc.params) vars_[p.name] = std::nullopt;
    return AnalyzeBody(proc.body, /*depth=*/1);
  }

 private:
  using VarMap = std::map<std::string, std::optional<Value>>;

  static constexpr int kMaxDepth = 16;

  // --- helpers -----------------------------------------------------------

  void ReadSchema(const std::string& name) {
    out_->rc.Add("_S." + name);
    out_->rr.AddWildcard("_S." + name);
    if (reg_->FindTable(name)) out_->read_tables.insert(name);
  }
  void WriteSchema(const std::string& name) {
    out_->wc.Add("_S." + name);
    out_->wr.AddWildcard("_S." + name);
    out_->write_tables.insert(name);
  }

  /// Constant-folds `e` given bound procedure variables. nullopt = unknown.
  /// In the abstract domain every variable is bound to nullopt, so only
  /// literals fold — to the same Value the concrete domain folds them to.
  std::optional<Value> ConstEval(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kLiteral:
        return e.literal;
      case ExprKind::kVarRef: {
        auto it = vars_.find(e.var_name);
        if (it != vars_.end()) return it->second;
        return std::nullopt;
      }
      case ExprKind::kColumnRef: {
        // Inside procedures a bare name may be a variable.
        if (e.table.empty()) {
          auto it = vars_.find(e.column);
          if (it != vars_.end()) return it->second;
        }
        return std::nullopt;
      }
      case ExprKind::kBinary: {
        auto l = ConstEval(*e.children[0]);
        auto r = ConstEval(*e.children[1]);
        if (!l || !r) return std::nullopt;
        const Value& a = *l;
        const Value& b = *r;
        if (a.is_null() || b.is_null()) return Value::Null();
        switch (e.binary_op) {
          case sql::BinaryOp::kAdd:
            if (a.type() == sql::DataType::kInt &&
                b.type() == sql::DataType::kInt) {
              return Value::Int(a.AsInt() + b.AsInt());
            }
            return Value::Double(a.AsDouble() + b.AsDouble());
          case sql::BinaryOp::kSub:
            if (a.type() == sql::DataType::kInt &&
                b.type() == sql::DataType::kInt) {
              return Value::Int(a.AsInt() - b.AsInt());
            }
            return Value::Double(a.AsDouble() - b.AsDouble());
          case sql::BinaryOp::kMul:
            if (a.type() == sql::DataType::kInt &&
                b.type() == sql::DataType::kInt) {
              return Value::Int(a.AsInt() * b.AsInt());
            }
            return Value::Double(a.AsDouble() * b.AsDouble());
          default:
            return std::nullopt;
        }
      }
      case ExprKind::kFuncCall:
        if (e.func_name == "CONCAT") {
          std::string s;
          for (const auto& child : e.children) {
            auto v = ConstEval(*child);
            if (!v) return std::nullopt;
            s += v->ToDisplayString();
          }
          return Value::String(std::move(s));
        }
        return std::nullopt;
      default:
        return std::nullopt;
    }
  }

  /// The value a new variable binding carries: folded in the concrete
  /// domain, none in the abstract domain (the name alone is bound).
  std::optional<Value> BoundValue(const Expr& e) {
    return owner_ ? ConstEval(e) : std::nullopt;
  }

  /// Like ConstEval but returns *all* values an expression can take: a
  /// procedure variable whose value came from SELECT ... INTO is symbolic
  /// statically, but the values it actually held were captured when the
  /// transaction ran — the §4.3 "concretized at the moment of retroactive
  /// operation" mechanism. Loops may bind several values; all are returned
  /// (a sound over-approximation). nullopt = genuinely unknown.
  std::optional<std::vector<Value>> MultiEval(const Expr& e) {
    if (auto single = ConstEval(e)) return std::vector<Value>{*single};
    std::string var;
    if (e.kind == ExprKind::kVarRef) {
      var = e.var_name;
    } else if (e.kind == ExprKind::kColumnRef && e.table.empty()) {
      var = e.column;
    }
    if (!var.empty() && captured_) {
      auto it = captured_->find(var);
      if (it != captured_->end() && !it->second.empty()) return it->second;
    }
    return std::nullopt;
  }

  /// RI values the learned alias→RI map holds for `table.alias = v`; null
  /// when the value is unseen — always, in the abstract domain.
  const std::set<std::string>* AliasToRi(const std::string& table,
                                         const std::string& alias,
                                         const Value& v) {
    if (!owner_) return nullptr;
    auto it = owner_->alias_to_ri_.find(table + "." + alias + "|" +
                                        v.Encode());
    return it == owner_->alias_to_ri_.end() ? nullptr : &it->second;
  }

  // --- lint facts (abstract domain only) -----------------------------------

  /// Records `e` when it is a call of a nondeterministic builtin.
  void NoteNondetCall(const Expr& e) {
    if (lint_ && e.kind == ExprKind::kFuncCall &&
        nondet::IsSqlNondetBuiltin(e.func_name)) {
      lint_->nondet_builtins.insert(e.func_name);
    }
  }

  /// Nondet-builtin scan for expressions the R/W walk never visits
  /// (variable initializers, CALL arguments).
  void NoteNondet(const Expr& e) {
    if (!lint_) return;
    NoteNondetCall(e);
    if (e.kind == ExprKind::kSubquery && e.subquery) {
      NoteNondetSelect(*e.subquery);
    }
    for (const auto& child : e.children) NoteNondet(*child);
  }
  void NoteNondetSelect(const SelectStatement& sel) {
    for (const auto& item : sel.items) NoteNondet(*item.expr);
    for (const auto& join : sel.joins) {
      if (join.on) NoteNondet(*join.on);
    }
    if (sel.where) NoteNondet(*sel.where);
    for (const auto& g : sel.group_by) NoteNondet(*g);
    if (sel.having) NoteNondet(*sel.having);
    for (const auto& o : sel.order_by) NoteNondet(*o.expr);
  }

  /// A write naming a column the table's current schema lacks.
  void NoteDeadColumnWrite(const SchemaRegistry::TableInfo& info,
                           const std::string& table,
                           const std::string& column) {
    if (!lint_) return;
    for (const auto& c : info.columns) {
      if (EqualsIgnoreCase(c.name, column)) return;
    }
    lint_->dead_column_writes.push_back(table + "." + column);
  }

  // --- R/W extraction ------------------------------------------------------

  /// Resolves the owning table of a column reference among `sources`
  /// (alias -> table name); empty = unresolved.
  std::string ResolveColumnTable(
      const Expr& col, const std::vector<std::pair<std::string, std::string>>&
                           sources) {
    if (!col.table.empty()) {
      for (const auto& [alias, table] : sources) {
        if (EqualsIgnoreCase(alias, col.table)) return table;
      }
      return col.table;  // qualified by real table name
    }
    for (const auto& [alias, table] : sources) {
      (void)alias;
      const auto* info = reg_->FindTable(table);
      if (!info) continue;
      for (const auto& c : info->columns) {
        if (EqualsIgnoreCase(c.name, col.column)) return table;
      }
    }
    return "";
  }

  /// Adds the columns referenced by `e` to `rc` (qualified through
  /// `sources`); unresolvable names inside procedures are variables, so
  /// they contribute nothing.
  void CollectColumns(
      const Expr& e,
      const std::vector<std::pair<std::string, std::string>>& sources) {
    NoteNondetCall(e);
    if (e.kind == ExprKind::kColumnRef) {
      if (e.table.empty() && vars_.count(e.column)) return;  // variable
      std::string table = ResolveColumnTable(e, sources);
      if (!table.empty()) {
        out_->rc.Add(table + "." + e.column);
      } else {
        // Overestimate: attribute to every source (correctness over
        // precision, §4.2 "Branch Conditions").
        for (const auto& [alias, t] : sources) {
          (void)alias;
          out_->rc.Add(t + "." + e.column);
        }
      }
      return;
    }
    if (e.kind == ExprKind::kSubquery && e.subquery) {
      AnalyzeSelectRead(*e.subquery);
      return;
    }
    for (const auto& child : e.children) CollectColumns(*child, sources);
  }

  /// RI-key extraction from a WHERE clause for table `table` (§4.3).
  /// Returns nullopt for "any rows" (wildcard).
  std::optional<std::set<std::string>> ExtractRiValues(
      const Expr* where, const std::string& table,
      const SchemaRegistry::TableInfo& info) {
    if (!where) return std::nullopt;
    switch (where->kind) {
      case ExprKind::kBinary: {
        if (where->binary_op == sql::BinaryOp::kAnd) {
          auto l = ExtractRiValues(where->children[0].get(), table, info);
          auto r = ExtractRiValues(where->children[1].get(), table, info);
          // AND narrows: prefer the resolved side; both resolved ->
          // intersection.
          if (l && r) {
            std::set<std::string> isect;
            for (const auto& v : *l) {
              if (r->count(v)) isect.insert(v);
            }
            return isect;
          }
          if (l) return l;
          return r;
        }
        if (where->binary_op == sql::BinaryOp::kOr) {
          auto l = ExtractRiValues(where->children[0].get(), table, info);
          auto r = ExtractRiValues(where->children[1].get(), table, info);
          if (l && r) {
            l->insert(r->begin(), r->end());
            return l;
          }
          return std::nullopt;  // an unresolved disjunct can match any row
        }
        if (where->binary_op == sql::BinaryOp::kEq) {
          const Expr* col = where->children[0].get();
          const Expr* val = where->children[1].get();
          if (col->kind != ExprKind::kColumnRef) std::swap(col, val);
          if (col->kind != ExprKind::kColumnRef) return std::nullopt;
          if (!col->table.empty() && !EqualsIgnoreCase(col->table, table)) {
            return std::nullopt;
          }
          auto vs = MultiEval(*val);
          if (!vs) return std::nullopt;
          if (EqualsIgnoreCase(col->column, info.ri_column)) {
            std::set<std::string> out;
            for (const auto& v : *vs) out.insert(v.Encode());
            return out;
          }
          for (const auto& alias : info.ri_aliases) {
            if (!EqualsIgnoreCase(col->column, alias)) continue;
            std::set<std::string> out;
            for (const auto& v : *vs) {
              const auto* ris = AliasToRi(table, alias, v);
              if (!ris) return std::nullopt;  // unseen alias value: any row
              out.insert(ris->begin(), ris->end());
            }
            return out;
          }
        }
        return std::nullopt;
      }
      case ExprKind::kInList: {
        const Expr* col = where->children[0].get();
        if (col->kind != ExprKind::kColumnRef ||
            !EqualsIgnoreCase(col->column, info.ri_column)) {
          return std::nullopt;
        }
        std::set<std::string> vals;
        for (size_t i = 1; i < where->children.size(); ++i) {
          auto v = ConstEval(*where->children[i]);
          if (!v) return std::nullopt;
          vals.insert(v->Encode());
        }
        return vals;
      }
      default:
        return std::nullopt;
    }
  }

  /// Symbolic predicate region of `where` over `table`'s RI column
  /// (DESIGN.md §15), folding through MultiEval and translating alias
  /// values through the learned alias→RI map (unseen values widen).
  ValueRegion ExtractRegion(const Expr* where, const std::string& table,
                            const SchemaRegistry::TableInfo& info) {
    PredicateEvalFn eval = [this](const Expr& e) { return MultiEval(e); };
    PredicateAliasFn alias_lookup =
        [this, &table](const std::string& alias_col,
                       const Value& v) -> std::optional<std::set<std::string>> {
      const auto* ris = AliasToRi(table, alias_col, v);
      if (!ris) return std::nullopt;
      return *ris;
    };
    return ExtractPredicateRegion(where, table, info.ri_column,
                                  info.ri_aliases, eval, alias_lookup);
  }

  void AddRiReads(const std::string& table, const Expr* where) {
    const auto* info = reg_->FindTable(table);
    ReadSchema(table);
    out_->read_tables.insert(table);
    if (!info || info->ri_column.empty()) {
      // No RI column: row-wise analysis degrades to "any row".
      out_->rr.AddWildcard(table + ".__row");
      return;
    }
    std::string key = table + "." + info->ri_column;
    out_->rr.AddConstrained(key, ExtractRiValues(where, table, *info),
                            ExtractRegion(where, table, *info));
  }

  void AddRiWrites(const std::string& table, const Expr* where) {
    const auto* info = reg_->FindTable(table);
    out_->write_tables.insert(table);
    if (!info || info->ri_column.empty()) {
      out_->wr.AddWildcard(table + ".__row");
      return;
    }
    std::string key = table + "." + info->ri_column;
    out_->wr.AddConstrained(key, ExtractRiValues(where, table, *info),
                            ExtractRegion(where, table, *info));
  }

  /// Read-side analysis of a SELECT: columns, schema entries, RI keys, FK
  /// externals, nested subqueries.
  void AnalyzeSelectRead(const SelectStatement& sel) {
    std::vector<std::pair<std::string, std::string>> sources;
    auto add_source = [&](const std::string& name, const std::string& alias) {
      if (const auto* view = reg_->FindView(name)) {
        out_->rc.Add("_S." + name);
        out_->rr.AddWildcard("_S." + name);
        AnalyzeSelectRead(**view);
        return;
      }
      sources.emplace_back(alias.empty() ? name : alias, name);
    };
    if (!sel.from_table.empty()) add_source(sel.from_table, sel.from_alias);
    for (const auto& join : sel.joins) add_source(join.table, join.alias);

    for (const auto& [alias, table] : sources) {
      (void)alias;
      AddRiReads(table, sel.where.get());
      const auto* info = reg_->FindTable(table);
      if (info) {
        // FOREIGN KEY external columns (Appendix A SELECT policy).
        for (const auto& fk : info->foreign_keys) {
          out_->rc.Add(fk.ref_table + "." + fk.ref_column);
          out_->read_tables.insert(fk.ref_table);
          out_->rr.AddWildcard("_S." + fk.ref_table);
        }
      }
    }
    for (const auto& item : sel.items) {
      if (item.expr->kind == ExprKind::kStar) {
        for (const auto& [alias, table] : sources) {
          (void)alias;
          const auto* info = reg_->FindTable(table);
          if (!info) continue;
          for (const auto& c : info->columns) out_->rc.Add(table + "." + c.name);
        }
        continue;
      }
      CollectColumns(*item.expr, sources);
    }
    for (const auto& join : sel.joins) {
      if (join.on) CollectColumns(*join.on, sources);
    }
    if (sel.where) CollectColumns(*sel.where, sources);
    for (const auto& g : sel.group_by) CollectColumns(*g, sources);
    if (sel.having) CollectColumns(*sel.having, sources);
    for (const auto& o : sel.order_by) CollectColumns(*o.expr, sources);
  }

  /// The write target may be an updatable view: resolve to the base table,
  /// reading the view schema (§4.2 "Updatable VIEWs").
  std::string ResolveWriteTarget(const std::string& name) {
    if (const auto* view = reg_->FindView(name)) {
      ReadSchema(name);
      out_->wc.Add("_S." + name);
      if (!(*view)->from_table.empty()) return (*view)->from_table;
    }
    return name;
  }

  void MergeTriggerBodies(const std::string& table, sql::TriggerEvent event,
                          int depth) {
    for (const auto* trig : reg_->TriggersOn(table, event)) {
      ReadSchema(trig->name);
      VarMap saved = vars_;
      const auto* info = reg_->FindTable(table);
      if (info) {
        for (const auto& c : info->columns) {
          vars_["NEW." + c.name] = std::nullopt;
          vars_["OLD." + c.name] = std::nullopt;
        }
      }
      for (const auto& stmt : trig->body) {
        (void)AnalyzeStmt(*stmt, depth + 1);
      }
      vars_ = std::move(saved);
    }
  }

  // --- statement dispatch --------------------------------------------------

  Status AnalyzeStmt(const Statement& stmt, int depth) {
    if (depth > kMaxDepth) return Status::Internal("analysis depth limit");
    if (lint_ && IsDdl(stmt.kind)) {
      // Nested DDL (say, in a procedure body reached through CALL) widens
      // the flags too; the concrete domain marks top-level DDL only.
      lint_->has_ddl = true;
      out_->is_ddl = true;
      out_->overwrites = true;
    }
    switch (stmt.kind) {
      case StatementKind::kCreateTable: {
        const auto& schema = stmt.create_table.schema;
        ReadSchema(schema.name);
        WriteSchema(schema.name);
        for (const auto& fk : schema.foreign_keys) {
          ReadSchema(fk.ref_table);
        }
        reg_->ApplyDdl(stmt);  // registry evolves with the log
        ApplyRiConfig(reg_, *ri_configs_, schema.name);
        return Status::OK();
      }
      case StatementKind::kAlterTable:
        ReadSchema(stmt.alter_table.table);
        WriteSchema(stmt.alter_table.table);
        reg_->ApplyDdl(stmt);
        return Status::OK();
      case StatementKind::kDropTable:
      case StatementKind::kTruncateTable: {
        const std::string& name = stmt.kind == StatementKind::kDropTable
                                      ? stmt.drop_name
                                      : stmt.truncate_table;
        ReadSchema(name);
        WriteSchema(name);
        reg_->ApplyDdl(stmt);
        return Status::OK();
      }
      case StatementKind::kCreateView: {
        ReadSchema(stmt.create_view.name);
        WriteSchema(stmt.create_view.name);
        // _S of every source table/view.
        if (!stmt.create_view.select->from_table.empty()) {
          ReadSchema(stmt.create_view.select->from_table);
        }
        for (const auto& join : stmt.create_view.select->joins) {
          ReadSchema(join.table);
        }
        reg_->ApplyDdl(stmt);
        return Status::OK();
      }
      case StatementKind::kDropView:
      case StatementKind::kDropProcedure:
        ReadSchema(stmt.drop_name);
        WriteSchema(stmt.drop_name);
        reg_->ApplyDdl(stmt);
        return Status::OK();
      case StatementKind::kDropTrigger:
        ReadSchema(stmt.drop_name);
        WriteSchema(stmt.drop_name);
        // Dropping a trigger changes how later DML on its base table
        // behaves — write the table's schema cell so that DML orders
        // after the drop (mirror of the kCreateTrigger case below).
        if (const auto* trg = reg_->FindTrigger(stmt.drop_name)) {
          WriteSchema(trg->table);
        }
        reg_->ApplyDdl(stmt);
        return Status::OK();
      case StatementKind::kCreateIndex:
        ReadSchema(stmt.create_index.table);
        WriteSchema(stmt.create_index.table);
        return Status::OK();
      case StatementKind::kCreateProcedure:
        ReadSchema(stmt.create_procedure.name);
        WriteSchema(stmt.create_procedure.name);
        reg_->ApplyDdl(stmt);
        return Status::OK();
      case StatementKind::kCreateTrigger:
        ReadSchema(stmt.create_trigger.name);
        WriteSchema(stmt.create_trigger.name);
        // WRITE — not just read — the base table's schema cell: every DML
        // on the table fires (or no longer fires) this trigger, so later
        // DML must depend on the CREATE TRIGGER. A read here let the
        // planner prune the trigger when only its base table's DML was
        // dependent, and retroactively removing the CREATE TRIGGER left
        // the trigger's side effects in place (oracle divergence;
        // DESIGN.md §9).
        WriteSchema(stmt.create_trigger.table);
        reg_->ApplyDdl(stmt);
        return Status::OK();

      case StatementKind::kSelect:
        AnalyzeSelectRead(*stmt.select);
        return Status::OK();

      case StatementKind::kInsert: {
        std::string table = ResolveWriteTarget(stmt.insert.table);
        const auto* info = reg_->FindTable(table);
        ReadSchema(table);
        out_->read_tables.insert(table);
        out_->write_tables.insert(table);
        if (stmt.insert.select) AnalyzeSelectRead(*stmt.insert.select);
        if (!info) return Status::OK();

        // Wc: all columns of the target (Appendix A INSERT policy).
        for (const auto& c : info->columns) {
          out_->wc.Add(table + "." + c.name);
          // AUTO_INCREMENT primary key: implicit read of the key column.
          if (c.auto_increment) out_->rc.Add(table + "." + c.name);
        }
        for (const auto& col : stmt.insert.columns) {
          NoteDeadColumnWrite(*info, table, col);
        }
        for (const auto& fk : info->foreign_keys) {
          out_->rc.Add(fk.ref_table + "." + fk.ref_column);
          out_->read_tables.insert(fk.ref_table);
        }

        // Row-wise: the RI value of each inserted row; learn alias maps.
        size_t auto_cursor = 0;
        if (info->ri_column.empty()) {
          out_->wr.AddWildcard(table + ".__row");
          for (const auto& row : stmt.insert.rows) {
            for (const auto& e : row) CollectColumns(*e, {});
          }
        } else {
          std::string key = table + "." + info->ri_column;
          int ri_idx = -1;
          std::vector<std::string> cols = stmt.insert.columns;
          if (cols.empty()) {
            for (const auto& c : info->columns) cols.push_back(c.name);
          }
          for (size_t i = 0; i < cols.size(); ++i) {
            if (EqualsIgnoreCase(cols[i], info->ri_column)) ri_idx = int(i);
          }
          bool ri_auto_inc = false;
          for (const auto& c : info->columns) {
            if (EqualsIgnoreCase(c.name, info->ri_column)) {
              ri_auto_inc = c.auto_increment;
            }
          }
          for (const auto& row : stmt.insert.rows) {
            std::optional<std::vector<Value>> ri_vals;
            if (ri_idx >= 0 && ri_idx < int(row.size())) {
              ri_vals = MultiEval(*row[ri_idx]);
              if (ri_vals && ri_vals->size() == 1 &&
                  (*ri_vals)[0].is_null()) {
                ri_vals = std::nullopt;
              }
            }
            if (!ri_vals && ri_auto_inc && nondet_ &&
                auto_cursor < nondet_->auto_inc_ids.size()) {
              ri_vals = std::vector<Value>{
                  Value::Int(nondet_->auto_inc_ids[auto_cursor++])};
            }
            if (ri_vals && ri_vals->size() == 1) {
              const Value& ri_val = (*ri_vals)[0];
              std::string enc = ri_val.Encode();
              out_->wr.AddValue(key, enc);
              // Alias learning: alias value -> RI value (§4.3). Only the
              // concrete domain keeps the learned map.
              for (const auto& alias : info->ri_aliases) {
                int a_idx = -1;
                for (size_t i = 0; i < cols.size(); ++i) {
                  if (EqualsIgnoreCase(cols[i], alias)) a_idx = int(i);
                }
                if (a_idx < 0 || a_idx >= int(row.size())) continue;
                auto av = ConstEval(*row[a_idx]);
                if (av && owner_) {
                  owner_->alias_to_ri_[table + "." + alias + "|" +
                                       av->Encode()]
                      .insert(enc);
                }
              }
            } else if (ri_vals) {
              // Several captured values (loop): all are possible rows.
              for (const auto& v : *ri_vals) {
                out_->wr.AddValue(key, v.Encode());
              }
            } else {
              out_->wr.AddWildcard(key);
            }
            for (const auto& e : row) CollectColumns(*e, {});
          }
          if (stmt.insert.select) out_->wr.AddWildcard(key);
        }
        MergeTriggerBodies(table, sql::TriggerEvent::kInsert, depth);
        return Status::OK();
      }

      case StatementKind::kUpdate: {
        std::string table = ResolveWriteTarget(stmt.update.table);
        const auto* info = reg_->FindTable(table);
        ReadSchema(table);
        out_->overwrites = true;  // mutates pre-existing rows
        std::vector<std::pair<std::string, std::string>> sources = {
            {table, table}};
        for (const auto& [col, e] : stmt.update.assignments) {
          out_->wc.Add(table + "." + col);
          if (info) NoteDeadColumnWrite(*info, table, col);
          CollectColumns(*e, sources);
          // External FK columns referencing the updated column (Appendix A).
          if (info) {
            for (const auto& ref : reg_->TablesReferencing(table)) {
              const auto* ref_info = reg_->FindTable(ref);
              if (!ref_info) continue;
              for (const auto& fk : ref_info->foreign_keys) {
                if (fk.ref_table == table &&
                    EqualsIgnoreCase(fk.ref_column, col)) {
                  out_->wc.Add(ref + "." + fk.column);
                  out_->write_tables.insert(ref);
                  const auto* ri = reg_->FindTable(ref);
                  if (ri && !ri->ri_column.empty()) {
                    out_->wr.AddWildcard(ref + "." + ri->ri_column);
                  }
                }
              }
            }
          }
        }
        if (stmt.update.where) CollectColumns(*stmt.update.where, sources);
        AddRiReads(table, stmt.update.where.get());
        AddRiWrites(table, stmt.update.where.get());
        out_->read_tables.insert(table);

        // Merged RI values: UPDATE SET ri = v2 WHERE ri = v1 (§4.3). The
        // union-find is concrete-domain state; both domains write v2.
        if (info && !info->ri_column.empty()) {
          std::string key = table + "." + info->ri_column;
          for (const auto& [col, e] : stmt.update.assignments) {
            if (!EqualsIgnoreCase(col, info->ri_column)) continue;
            auto new_v = ConstEval(*e);
            if (new_v) {
              out_->wr.AddValue(key, new_v->Encode());
              auto old_vals =
                  ExtractRiValues(stmt.update.where.get(), table, *info);
              if (owner_ && old_vals) {
                for (const auto& old_enc : *old_vals) {
                  owner_->Union(key + "|" + old_enc,
                                key + "|" + new_v->Encode());
                }
              }
            } else {
              out_->wr.AddWildcard(key);
            }
          }
        }
        MergeTriggerBodies(table, sql::TriggerEvent::kUpdate, depth);
        return Status::OK();
      }

      case StatementKind::kDelete: {
        std::string table = ResolveWriteTarget(stmt.del.table);
        const auto* info = reg_->FindTable(table);
        ReadSchema(table);
        out_->overwrites = true;  // destroys pre-existing rows
        if (info) {
          for (const auto& c : info->columns) {
            out_->wc.Add(table + "." + c.name);
          }
        }
        std::vector<std::pair<std::string, std::string>> sources = {
            {table, table}};
        if (stmt.del.where) CollectColumns(*stmt.del.where, sources);
        AddRiReads(table, stmt.del.where.get());
        AddRiWrites(table, stmt.del.where.get());
        // Rows of tables referencing this table via FK may be affected.
        for (const auto& ref : reg_->TablesReferencing(table)) {
          const auto* ref_info = reg_->FindTable(ref);
          if (!ref_info) continue;
          for (const auto& fk : ref_info->foreign_keys) {
            if (fk.ref_table == table) out_->wc.Add(ref + "." + fk.column);
          }
          out_->wr.AddWildcard(ref_info->ri_column.empty()
                                   ? ref + ".__row"
                                   : ref + "." + ref_info->ri_column);
          out_->write_tables.insert(ref);
        }
        MergeTriggerBodies(table, sql::TriggerEvent::kDelete, depth);
        return Status::OK();
      }

      case StatementKind::kCall: {
        const auto* proc = reg_->FindProcedure(stmt.call.procedure);
        ReadSchema(stmt.call.procedure);
        for (const auto& a : stmt.call.args) NoteNondet(*a);
        if (!proc) return Status::OK();
        // Bind argument values for row-wise concretization (§4.3: "the RI
        // value of each executed query is either a constant or a symbolic
        // expression found during DSE", concretized from the logged args).
        VarMap saved = vars_;
        for (size_t i = 0;
             i < proc->params.size() && i < stmt.call.args.size(); ++i) {
          vars_[proc->params[i].name] = BoundValue(*stmt.call.args[i]);
        }
        Status st = AnalyzeBody(proc->body, depth + 1);
        vars_ = std::move(saved);
        return st;
      }

      case StatementKind::kTransaction:
        return AnalyzeBody(stmt.transaction.statements, depth + 1);

      case StatementKind::kDeclareVar: {
        std::optional<Value> v;
        if (stmt.declare_var.init) {
          NoteNondet(*stmt.declare_var.init);
          v = BoundValue(*stmt.declare_var.init);
        }
        vars_[stmt.declare_var.name] = v;
        return Status::OK();
      }
      case StatementKind::kSetVar:
        NoteNondet(*stmt.set_var.value);
        vars_[stmt.set_var.name] = BoundValue(*stmt.set_var.value);
        return Status::OK();

      case StatementKind::kIf: {
        // Merge both directions of every branch (§4.2 Branch Conditions):
        // overestimation preserves correctness.
        for (const auto& branch : stmt.if_stmt.branches) {
          if (branch.condition) CollectColumns(*branch.condition, {});
          VarMap saved = vars_;
          UV_RETURN_NOT_OK(AnalyzeBody(branch.body, depth + 1));
          vars_ = std::move(saved);
        }
        return Status::OK();
      }
      case StatementKind::kWhile: {
        CollectColumns(*stmt.while_stmt.condition, {});
        // Variables mutated in the loop are unknown across iterations.
        MarkAssignedUnknown(stmt.while_stmt.body);
        return AnalyzeBody(stmt.while_stmt.body, depth + 1);
      }
      case StatementKind::kLeave:
      case StatementKind::kSignal:
        return Status::OK();
    }
    return Status::OK();
  }

  Status AnalyzeBody(const std::vector<sql::StatementPtr>& body, int depth) {
    for (const auto& stmt : body) {
      UV_RETURN_NOT_OK(AnalyzeStmt(*stmt, depth));
      // SELECT ... INTO binds variables whose values are unknown statically.
      if (stmt->kind == StatementKind::kSelect) {
        for (const auto& var : stmt->select->into_vars) {
          vars_[var] = std::nullopt;
        }
      }
    }
    return Status::OK();
  }

  void MarkAssignedUnknown(const std::vector<sql::StatementPtr>& body) {
    for (const auto& stmt : body) {
      switch (stmt->kind) {
        case StatementKind::kSetVar:
          vars_[stmt->set_var.name] = std::nullopt;
          break;
        case StatementKind::kDeclareVar:
          vars_[stmt->declare_var.name] = std::nullopt;
          break;
        case StatementKind::kSelect:
          for (const auto& var : stmt->select->into_vars) {
            vars_[var] = std::nullopt;
          }
          break;
        case StatementKind::kIf:
          for (const auto& branch : stmt->if_stmt.branches) {
            MarkAssignedUnknown(branch.body);
          }
          break;
        case StatementKind::kWhile:
          MarkAssignedUnknown(stmt->while_stmt.body);
          break;
        default:
          break;
      }
    }
  }

  SchemaRegistry* reg_;
  const std::map<std::string, QueryAnalyzer::RiConfig>* ri_configs_;
  QueryRW* out_;
  // Concrete-domain facts; all null in the abstract domain.
  QueryAnalyzer* owner_ = nullptr;
  const sql::NondetRecord* nondet_ = nullptr;
  const std::map<std::string, std::vector<Value>>* captured_ = nullptr;
  LintFacts* lint_ = nullptr;  // abstract domain only
  VarMap vars_;
};

// ---------------------------------------------------------------------------
// QueryAnalyzer
// ---------------------------------------------------------------------------

void QueryAnalyzer::ConfigureRi(const std::string& table,
                                const std::string& ri_column,
                                std::vector<std::string> aliases) {
  ri_overrides_[table] = RiConfig{ri_column, std::move(aliases)};
  ApplyRiConfig(&registry_, ri_overrides_, table);
}

void QueryAnalyzer::CanonicalizeRowSets(QueryRW* rw) {
  if (merge_parent_.empty()) return;
  // A union-find key is "<Table.col>|<value_enc>"; the first '|' splits
  // them (the enc itself ends with the Encode terminator '|').
  auto enc_of = [](const std::string& key) {
    size_t bar = key.find('|');
    return bar == std::string::npos ? key : key.substr(bar + 1);
  };
  auto canon = [&](RowSet* rs) {
    for (auto& [col, region] : rs->cols) {
      if (region.top) continue;
      if (region.IsPointsOnly()) {
        std::set<std::string> fixed;
        for (const auto& v : region.points) {
          fixed.insert(enc_of(Find(col + "|" + v)));
        }
        region.points = std::move(fixed);
        continue;
      }
      // Close a region with intervals under RI merge classes: a merged
      // value refers to the same physical row under every one of its
      // names, so whenever any member of a class falls inside the region,
      // every member (and the class representative the points-only
      // regions above were rewritten to) must be in it too. Closed regions
      // make canonical overlap equivalent to raw overlap, keeping
      // RegionIntersects pruning sound across UPDATE-of-RI renames.
      const auto& columns = MergeClasses().columns;
      auto it = columns.find(col);
      if (it == columns.end()) continue;
      const MergeClassIndex::Column& classes = it->second;
      std::set<size_t> touched;
      for (const auto& p : region.points) {
        auto c = classes.class_of.find(p);
        if (c != classes.class_of.end()) touched.insert(c->second);
      }
      for (const auto& iv : region.intervals) {
        auto m = classes.by_value.begin();
        if (iv.lo) {
          m = std::lower_bound(classes.by_value.begin(),
                               classes.by_value.end(), *iv.lo,
                               [](const auto& e, const sql::Value& lo) {
                                 return e.first.Compare(lo) < 0;
                               });
        }
        for (; m != classes.by_value.end(); ++m) {
          if (iv.hi && m->first.Compare(*iv.hi) > 0) break;
          if (iv.Contains(m->first)) touched.insert(m->second);
        }
      }
      for (const auto& [enc, c] : classes.unordered) {
        if (region.ContainsEncoded(enc)) touched.insert(c);
      }
      for (size_t c : touched) {
        region.points.insert(classes.members[c].begin(),
                             classes.members[c].end());
      }
    }
  };
  canon(&rw->rr);
  canon(&rw->wr);
}

Result<std::vector<QueryRW>> QueryAnalyzer::AnalyzeLog(
    const sql::QueryLog& log) {
  obs::TraceSpan span("analysis.log", {{"entries", log.size()}});
  std::vector<QueryRW> out;
  out.reserve(log.size());
  // Pass 1: extract sets in commit order, evolving the registry and
  // learning alias maps / merged RI values along the way.
  for (const auto& entry : log.entries()) {
    UV_ASSIGN_OR_RETURN(QueryRW rw, AnalyzeEntry(entry));
    out.push_back(std::move(rw));
  }
  // Pass 2: canonicalize RI values under the final union-find so merged
  // values compare equal everywhere (§4.3 "Merging RI values").
  for (auto& rw : out) CanonicalizeRowSets(&rw);
  return out;
}

Result<QueryRW> QueryAnalyzer::AnalyzeEntry(const sql::LogEntry& entry) {
  static obs::Counter* const entries =
      obs::Registry::Global().counter("uv.analysis.entries");
  static obs::Histogram* const latency =
      obs::Registry::Global().histogram("uv.analysis.entry_latency_us");
  entries->Inc();
  obs::ScopedLatency timer(latency);
  QueryRW rw;
  // The observer's Before hook sees the registry exactly as this entry's
  // analysis will (pre-mutation); the After hook gets the raw sets before
  // any canonicalization rewrites RI values under the union-find.
  if (observer_) observer_->BeforeStatement(*entry.stmt);
  RwWalker walker(this, &entry.nondet, &entry.captured_vars, &rw);
  UV_RETURN_NOT_OK(walker.Analyze(*entry.stmt));
  if (observer_) observer_->AfterStatement(*entry.stmt, rw);
  return rw;
}

Result<QueryRW> QueryAnalyzer::AnalyzeStatement(
    const sql::Statement& stmt, const sql::NondetRecord* nondet) {
  QueryRW rw;
  if (observer_) observer_->BeforeStatement(stmt);
  RwWalker walker(this, nondet, /*captured=*/nullptr, &rw);
  UV_RETURN_NOT_OK(walker.Analyze(stmt));
  if (observer_) observer_->AfterStatement(stmt, rw);
  CanonicalizeRowSets(&rw);
  return rw;
}

Status AnalyzeAbstract(
    const sql::Statement& stmt, SchemaRegistry* registry,
    const std::map<std::string, QueryAnalyzer::RiConfig>& ri_configs,
    QueryRW* rw, LintFacts* lint) {
  return RwWalker(registry, &ri_configs, rw, lint).Analyze(stmt);
}

Status AnalyzeAbstractBody(
    const sql::CreateProcedureStatement& proc, SchemaRegistry* registry,
    const std::map<std::string, QueryAnalyzer::RiConfig>& ri_configs,
    QueryRW* rw, LintFacts* lint) {
  return RwWalker(registry, &ri_configs, rw, lint).AnalyzeProcedureBody(proc);
}

}  // namespace ultraverse::core
