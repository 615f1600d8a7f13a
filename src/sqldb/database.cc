#include "sqldb/database.h"

#include <algorithm>
#include <array>
#include <atomic>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sqldb/evaluator.h"
#include "sqldb/parser.h"
#include "sqldb/vm/plan_cache.h"
#include "sqldb/vm/vm.h"
#include "util/string_util.h"

namespace ultraverse::sql {

namespace {
constexpr int kMaxTriggerDepth = 8;

/// Compiled execution is the default; the tree walker stays reachable via
/// SetDefaultExecEngine / --exec=tree and remains the per-statement
/// fallback for anything outside the compilable subset. The differential
/// gate (`fuzz_whatif --exec-diff`, `ctest -L vm`) keeps the two aligned.
std::atomic<int> g_default_engine{int(ExecEngine::kVm)};

/// Process-global schema epoch. Every bump — in any Database — takes a
/// fresh value, so two CoW clones that share one plan cache can never
/// reconverge onto the same (fingerprint, version) key after divergent DDL.
std::atomic<uint64_t> g_schema_epoch{0};

uint64_t NextSchemaEpoch() {
  return g_schema_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
}
}  // namespace

ExecEngine DefaultExecEngine() {
  return ExecEngine(g_default_engine.load(std::memory_order_relaxed));
}

void SetDefaultExecEngine(ExecEngine engine) {
  g_default_engine.store(int(engine), std::memory_order_relaxed);
}

Database::Database()
    : rng_(0xDBDB),
      exec_engine_(DefaultExecEngine()),
      schema_version_(NextSchemaEpoch()),
      plan_cache_(std::make_shared<vm::PlanCache>()) {}

Database::~Database() = default;

namespace {

/// Statement kinds bucketed for execution metrics: per-kind call counts are
/// always live; per-kind latency histograms record only while obs timing is
/// enabled (ScopedLatency's disabled path reads no clock).
enum ExecKindLabel {
  kExecSelect = 0,
  kExecInsert,
  kExecUpdate,
  kExecDelete,
  kExecCall,
  kExecTransaction,
  kExecDdl,
  kExecOther,
  kExecLabelCount,
};

ExecKindLabel ExecLabelFor(StatementKind kind) {
  switch (kind) {
    case StatementKind::kSelect: return kExecSelect;
    case StatementKind::kInsert: return kExecInsert;
    case StatementKind::kUpdate: return kExecUpdate;
    case StatementKind::kDelete: return kExecDelete;
    case StatementKind::kCall: return kExecCall;
    case StatementKind::kTransaction: return kExecTransaction;
    case StatementKind::kCreateTable:
    case StatementKind::kAlterTable:
    case StatementKind::kDropTable:
    case StatementKind::kTruncateTable:
    case StatementKind::kCreateView:
    case StatementKind::kDropView:
    case StatementKind::kCreateIndex:
    case StatementKind::kCreateProcedure:
    case StatementKind::kDropProcedure:
    case StatementKind::kCreateTrigger:
    case StatementKind::kDropTrigger:
      return kExecDdl;
    default:
      return kExecOther;
  }
}

struct ExecMetrics {
  obs::Counter* count;
  obs::Histogram* latency;
};

const ExecMetrics& ExecMetricsFor(StatementKind kind) {
  static const std::array<ExecMetrics, kExecLabelCount> metrics = [] {
    const char* labels[kExecLabelCount] = {
        "select", "insert", "update", "delete",
        "call",   "txn",    "ddl",    "other"};
    std::array<ExecMetrics, kExecLabelCount> m{};
    obs::Registry& reg = obs::Registry::Global();
    for (int i = 0; i < kExecLabelCount; ++i) {
      m[i].count =
          reg.counter(std::string("uv.sqldb.exec.count.") + labels[i]);
      m[i].latency =
          reg.histogram(std::string("uv.sqldb.exec.latency_us.") + labels[i]);
    }
    return m;
  }();
  return metrics[ExecLabelFor(kind)];
}

std::vector<std::string> SchemaColumnNames(const TableSchema& schema) {
  std::vector<std::string> names;
  names.reserve(schema.columns.size());
  for (const auto& c : schema.columns) names.push_back(c.name);
  return names;
}
}  // namespace

void ExecContext::SetVar(const std::string& name, Value v) {
  if (var_capture_ && var_capture_->size() < 256) {
    auto& vals = (*var_capture_)[name];
    if (vals.size() < 16) vals.push_back(v);
  }
  for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
    auto found = it->find(name);
    if (found != it->end()) {
      found->second = std::move(v);
      return;
    }
  }
  scopes_.back()[name] = std::move(v);
}

const Value* ExecContext::FindVar(const std::string& name) const {
  for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
    auto found = it->find(name);
    if (found != it->end()) return &found->second;
  }
  return nullptr;
}

Table* Database::FindTable(const std::string& name) {
  if (read_base_ == nullptr) {
    auto it = tables_.find(name);
    return it == tables_.end() ? nullptr : it->second.get();
  }
  // Selectively staged database: fast shared-lock lookup first, then fault
  // the table in from the live base as a CoW clone on first access.
  {
    std::shared_lock<std::shared_mutex> rl(catalog_mu_);
    auto it = tables_.find(name);
    if (it != tables_.end()) return it->second.get();
  }
  std::unique_lock<std::shared_mutex> wl(catalog_mu_);
  auto it = tables_.find(name);
  if (it != tables_.end()) return it->second.get();
  if (dropped_.count(name)) {
    // A retroactive DROP tombstone keeps the fallback from resurrecting
    // the table (§4.4); count the block so staging behaviour is visible.
    static obs::Counter* const tombstones =
        obs::Registry::Global().counter("uv.staging.tombstone_block");
    tombstones->Inc();
    return nullptr;
  }
  obs::TraceSpan span("staging.fault_in", {{"table", name.c_str()}});
  std::unique_ptr<Table> staged;
  bool base_drifted = false;
  {
    // Hold the live database's mutex *shared* during the clone so a writer
    // cannot be mid-materialization of the pages we are sharing; other
    // staged databases fault in concurrently under the same shared lock.
    std::shared_lock<std::shared_mutex> base_lock;
    if (read_base_mu_) {
      base_lock = std::shared_lock<std::shared_mutex>(*read_base_mu_);
    }
    base_drifted =
        read_base_->schema_version() != fallback_base_version_;
    const Table* src = read_base_->FindTable(name);
    if (!src) return nullptr;
    staged = src->Clone();
  }
  staged->SetHashing(table_hashing_);
  // Lazy CoW fault-in (§4.4): a replayed query strayed outside the staged
  // table set and pulled the table in from the live database.
  static obs::Counter* const fault_ins =
      obs::Registry::Global().counter("uv.staging.fault_in");
  fault_ins->Inc();
  Table* result = staged.get();
  tables_[name] = std::move(staged);
  if (base_drifted) {
    // The base ran DDL since SetReadFallback, so the table we just pulled
    // in may not match the schema our version describes — and compiled
    // plans keyed on the inherited version could read/write it at the
    // wrong layout. Take a fresh epoch. While the base is *undrifted* the
    // inherited version still describes everything faultable, so staying
    // on it keeps the base's warm plans valid here (no spurious misses).
    schema_version_.store(NextSchemaEpoch(), std::memory_order_relaxed);
  }
  return result;
}

const Table* Database::FindTable(const std::string& name) const {
  if (read_base_ == nullptr) {
    auto it = tables_.find(name);
    return it == tables_.end() ? nullptr : it->second.get();
  }
  {
    std::shared_lock<std::shared_mutex> rl(catalog_mu_);
    auto it = tables_.find(name);
    if (it != tables_.end()) return it->second.get();
    if (dropped_.count(name)) return nullptr;
  }
  // Const access cannot fault in: read through to the base directly.
  return read_base_->FindTable(name);
}

const std::shared_ptr<SelectStatement>* Database::FindView(
    const std::string& name) const {
  auto it = views_.find(name);
  return it == views_.end() ? nullptr : &it->second;
}

const CreateProcedureStatement* Database::FindProcedure(
    const std::string& name) const {
  auto it = procedures_.find(name);
  return it == procedures_.end() ? nullptr : &it->second;
}

const CreateTriggerStatement* Database::FindTrigger(
    const std::string& name) const {
  auto it = triggers_.find(name);
  return it == triggers_.end() ? nullptr : &it->second;
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) {
    (void)table;
    names.push_back(name);
  }
  return names;
}

std::vector<std::string> Database::ProcedureNames() const {
  std::vector<std::string> names;
  names.reserve(procedures_.size());
  for (const auto& [name, proc] : procedures_) {
    (void)proc;
    names.push_back(name);
  }
  return names;
}

Result<ExecResult> Database::ExecuteSql(const std::string& sql,
                                        uint64_t commit_index) {
  UV_ASSIGN_OR_RETURN(StatementPtr stmt, Parser::ParseStatement(sql));
  ExecContext ctx;
  return Execute(*stmt, commit_index, &ctx);
}

Result<ExecResult> Database::Execute(const Statement& stmt,
                                     uint64_t commit_index, ExecContext* ctx) {
  const ExecMetrics& em = ExecMetricsFor(stmt.kind);
  em.count->Add();
  obs::ScopedLatency latency(em.latency);
  if (ExecLabelFor(stmt.kind) == kExecDdl) {
    // Any DDL (including DDL nested inside procedures, triggers, and
    // transactions, which re-enter Execute) invalidates compiled plans.
    // Bumping before execution keeps even a failed DDL conservative.
    schema_version_.store(NextSchemaEpoch(), std::memory_order_relaxed);
  }
  if (exec_engine_ == ExecEngine::kVm) {
    switch (stmt.kind) {
      case StatementKind::kInsert:
      case StatementKind::kUpdate:
      case StatementKind::kDelete:
      case StatementKind::kSelect: {
        // Compiled path; nullopt means the statement is outside the VM's
        // subset and falls through to the tree walker below.
        std::optional<Result<ExecResult>> vm_result =
            vm::Executor::TryExecute(this, stmt, commit_index, ctx);
        if (vm_result) return std::move(*vm_result);
        static obs::Counter* const tree_fallback =
            obs::Registry::Global().counter("uv.vm.tree_fallback");
        tree_fallback->Inc();
        break;
      }
      default:
        break;
    }
  }
  switch (stmt.kind) {
    case StatementKind::kCreateTable:
      return ExecCreateTable(stmt.create_table);
    case StatementKind::kAlterTable:
      return ExecAlterTable(stmt.alter_table);
    case StatementKind::kDropTable:
      return ExecDropTable(stmt);
    case StatementKind::kTruncateTable:
      return ExecTruncate(stmt.truncate_table);
    case StatementKind::kCreateView:
      return ExecCreateView(stmt.create_view);
    case StatementKind::kDropView: {
      if (!views_.erase(stmt.drop_name) && !stmt.drop_if_exists) {
        return Status::NotFound("view " + stmt.drop_name);
      }
      return ExecResult{};
    }
    case StatementKind::kCreateIndex:
      return ExecCreateIndex(stmt.create_index);
    case StatementKind::kCreateProcedure: {
      procedures_[stmt.create_procedure.name] = stmt.create_procedure;
      return ExecResult{};
    }
    case StatementKind::kDropProcedure: {
      if (!procedures_.erase(stmt.drop_name) && !stmt.drop_if_exists) {
        return Status::NotFound("procedure " + stmt.drop_name);
      }
      return ExecResult{};
    }
    case StatementKind::kCreateTrigger: {
      if (!FindTable(stmt.create_trigger.table)) {
        return Status::NotFound("trigger table " + stmt.create_trigger.table);
      }
      triggers_[stmt.create_trigger.name] = stmt.create_trigger;
      return ExecResult{};
    }
    case StatementKind::kDropTrigger: {
      if (!triggers_.erase(stmt.drop_name) && !stmt.drop_if_exists) {
        return Status::NotFound("trigger " + stmt.drop_name);
      }
      return ExecResult{};
    }
    case StatementKind::kInsert:
      return ExecInsert(stmt.insert, commit_index, ctx);
    case StatementKind::kUpdate:
      return ExecUpdate(stmt.update, commit_index, ctx);
    case StatementKind::kDelete:
      return ExecDelete(stmt.del, commit_index, ctx);
    case StatementKind::kSelect: {
      Evaluator ev(this, ctx, commit_index);
      return ev.EvalSelect(*stmt.select, nullptr);
    }
    case StatementKind::kCall:
      return ExecCall(stmt.call, commit_index, ctx);
    case StatementKind::kTransaction: {
      // Atomic block: on any failure, undo this commit index entirely.
      for (const auto& inner : stmt.transaction.statements) {
        Result<ExecResult> r = Execute(*inner, commit_index, ctx);
        if (!r.ok()) {
          RollbackToIndex(commit_index - 1);
          return r.status();
        }
      }
      return ExecResult{};
    }
    case StatementKind::kDeclareVar: {
      Value init;
      if (stmt.declare_var.init) {
        Evaluator ev(this, ctx, commit_index);
        UV_ASSIGN_OR_RETURN(init, ev.Eval(*stmt.declare_var.init, nullptr));
      }
      ctx->DeclareVar(stmt.declare_var.name, std::move(init));
      return ExecResult{};
    }
    case StatementKind::kSetVar: {
      Evaluator ev(this, ctx, commit_index);
      UV_ASSIGN_OR_RETURN(Value v, ev.Eval(*stmt.set_var.value, nullptr));
      ctx->SetVar(stmt.set_var.name, std::move(v));
      return ExecResult{};
    }
    case StatementKind::kIf: {
      Evaluator ev(this, ctx, commit_index);
      for (const auto& branch : stmt.if_stmt.branches) {
        bool take = true;
        if (branch.condition) {
          UV_ASSIGN_OR_RETURN(Value c, ev.Eval(*branch.condition, nullptr));
          take = !c.is_null() && c.AsBool();
        }
        if (take) {
          UV_RETURN_NOT_OK(ExecBlock(branch.body, commit_index, ctx));
          break;
        }
      }
      return ExecResult{};
    }
    case StatementKind::kWhile: {
      Evaluator ev(this, ctx, commit_index);
      int64_t guard = 0;
      for (;;) {
        UV_ASSIGN_OR_RETURN(Value c, ev.Eval(*stmt.while_stmt.condition,
                                             nullptr));
        if (c.is_null() || !c.AsBool()) break;
        UV_RETURN_NOT_OK(ExecBlock(stmt.while_stmt.body, commit_index, ctx));
        if (ctx->leave_requested) break;
        if (++guard > 10'000'000) {
          return Status::Internal("WHILE loop exceeded iteration guard");
        }
      }
      return ExecResult{};
    }
    case StatementKind::kLeave:
      ctx->leave_requested = true;
      return ExecResult{};
    case StatementKind::kSignal:
      return Status::Signal(stmt.signal.sqlstate +
                            (stmt.signal.message.empty()
                                 ? ""
                                 : ": " + stmt.signal.message));
  }
  return Status::Internal("unhandled statement kind");
}

Result<ExecResult> Database::ExecCreateTable(const CreateTableStatement& stmt) {
  if (tables_.count(stmt.schema.name)) {
    if (stmt.if_not_exists) return ExecResult{};
    return Status::AlreadyExists("table " + stmt.schema.name);
  }
  UV_ASSIGN_OR_RETURN(tables_[stmt.schema.name], NewTable(stmt.schema));
  auto_increment_[stmt.schema.name] = 1;
  return ExecResult{};
}

Result<ExecResult> Database::ExecAlterTable(const AlterTableStatement& stmt) {
  Table* table = FindTable(stmt.table);
  if (!table) return Status::NotFound("table " + stmt.table);
  if (stmt.action == AlterAction::kAddColumn) {
    // Widen every row with NULL into a fresh table, whose inserts rebuild
    // the indexes (and the digest, when kept) for the restructured rows.
    TableSchema schema = table->schema();
    if (schema.ColumnIndex(stmt.add_column.name) >= 0) {
      return Status::AlreadyExists("column " + stmt.add_column.name);
    }
    schema.columns.push_back(stmt.add_column);
    UV_ASSIGN_OR_RETURN(std::unique_ptr<Table> new_table, NewTable(schema));
    table->Scan([&](RowId, const Row& row) {
      Row wide = row;
      wide.push_back(Value::Null());
      (void)new_table->Insert(std::move(wide), 0);
      return true;
    });
    tables_[stmt.table] = std::move(new_table);
    return ExecResult{};
  }
  // Drop column.
  TableSchema schema = table->schema();
  int drop = schema.ColumnIndex(stmt.drop_column);
  if (drop < 0) return Status::NotFound("column " + stmt.drop_column);
  schema.columns.erase(schema.columns.begin() + drop);
  UV_ASSIGN_OR_RETURN(std::unique_ptr<Table> new_table, NewTable(schema));
  table->Scan([&](RowId, const Row& row) {
    Row narrow = row;
    narrow.erase(narrow.begin() + drop);
    (void)new_table->Insert(std::move(narrow), 0);
    return true;
  });
  tables_[stmt.table] = std::move(new_table);
  return ExecResult{};
}

Result<ExecResult> Database::ExecDropTable(const Statement& stmt) {
  if (read_base_ != nullptr) {
    // Staged database: a local DROP must also mask the live base's copy so
    // the fallback cannot resurrect the table.
    std::unique_lock<std::shared_mutex> wl(catalog_mu_);
    bool existed = tables_.erase(stmt.drop_name) > 0 ||
                   (!dropped_.count(stmt.drop_name) &&
                    read_base_->FindTable(stmt.drop_name) != nullptr);
    dropped_.insert(stmt.drop_name);
    auto_increment_.erase(stmt.drop_name);
    if (!existed && !stmt.drop_if_exists) {
      return Status::NotFound("table " + stmt.drop_name);
    }
    return ExecResult{};
  }
  if (!tables_.erase(stmt.drop_name) && !stmt.drop_if_exists) {
    return Status::NotFound("table " + stmt.drop_name);
  }
  auto_increment_.erase(stmt.drop_name);
  return ExecResult{};
}

Result<ExecResult> Database::ExecTruncate(const std::string& name) {
  Table* table = FindTable(name);
  if (!table) return Status::NotFound("table " + name);
  UV_ASSIGN_OR_RETURN(std::unique_ptr<Table> fresh,
                      NewTable(table->schema()));
  tables_[name] = std::move(fresh);
  return ExecResult{};
}

Result<ExecResult> Database::ExecCreateView(const CreateViewStatement& stmt) {
  if (views_.count(stmt.name) && !stmt.or_replace) {
    return Status::AlreadyExists("view " + stmt.name);
  }
  views_[stmt.name] = stmt.select;
  return ExecResult{};
}

Result<ExecResult> Database::ExecCreateIndex(const CreateIndexStatement& stmt) {
  Table* table = FindTable(stmt.table);
  if (!table) return Status::NotFound("table " + stmt.table);
  for (const auto& col : stmt.columns) {
    int idx = table->schema().ColumnIndex(col);
    if (idx < 0) return Status::NotFound("column " + col);
    UV_RETURN_NOT_OK(table->CreateIndex(idx));
  }
  return ExecResult{};
}

Result<std::string> Database::ResolveWritableTarget(const std::string& name,
                                                    ExprPtr* extra_where) const {
  if (FindTable(name) != nullptr) return name;
  auto it = views_.find(name);
  if (it == views_.end()) return Status::NotFound("table or view " + name);
  const SelectStatement& sel = *it->second;
  // Updatable view: single table, no joins/aggregates/group/limit, and all
  // items plain column refs or star (§4.2 "Updatable VIEWs").
  if (sel.from_table.empty() || !sel.joins.empty() || !sel.group_by.empty() ||
      sel.limit >= 0) {
    return Status::Unsupported("view " + name + " is not updatable");
  }
  for (const auto& item : sel.items) {
    if (item.expr->kind != ExprKind::kColumnRef &&
        item.expr->kind != ExprKind::kStar) {
      return Status::Unsupported("view " + name + " is not updatable");
    }
  }
  if (extra_where) *extra_where = sel.where;
  if (FindTable(sel.from_table) == nullptr) {
    return Status::Unsupported("view-on-view writes are not supported");
  }
  return sel.from_table;
}

Result<ExecResult> Database::ExecInsert(const InsertStatement& stmt,
                                        uint64_t commit_index,
                                        ExecContext* ctx) {
  ExprPtr view_where;
  UV_ASSIGN_OR_RETURN(std::string target,
                      ResolveWritableTarget(stmt.table, &view_where));
  Table* table = FindTable(target);
  const TableSchema& schema = table->schema();
  Evaluator ev(this, ctx, commit_index);

  // Column list: explicit or full schema order.
  std::vector<int> col_indexes;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema.columns.size(); ++i) {
      col_indexes.push_back(int(i));
    }
  } else {
    for (const auto& col : stmt.columns) {
      int idx = schema.ColumnIndex(col);
      if (idx < 0) {
        return Status::NotFound("column " + col + " in " + target);
      }
      col_indexes.push_back(idx);
    }
  }

  std::vector<Row> value_rows;
  if (stmt.select) {
    UV_ASSIGN_OR_RETURN(ExecResult sub, ev.EvalSelect(*stmt.select, nullptr));
    value_rows = std::move(sub.rows);
  } else {
    for (const auto& exprs : stmt.rows) {
      Row r;
      for (const auto& e : exprs) {
        UV_ASSIGN_OR_RETURN(Value v, ev.Eval(*e, nullptr));
        r.push_back(std::move(v));
      }
      value_rows.push_back(std::move(r));
    }
  }

  ExecResult result;
  for (Row& src : value_rows) {
    if (src.size() != col_indexes.size()) {
      return Status::InvalidArgument("INSERT value count mismatch");
    }
    Row row(schema.columns.size(), Value::Null());
    for (size_t i = 0; i < col_indexes.size(); ++i) {
      row[col_indexes[i]] = std::move(src[i]);
    }
    // AUTO_INCREMENT: fill a missing/NULL key; record/replay the id (§4.4).
    for (size_t i = 0; i < schema.columns.size(); ++i) {
      if (schema.columns[i].auto_increment && row[i].is_null()) {
        int64_t id = ctx->NextAutoIncId([&] {
          int64_t& next = auto_increment_[target];
          return next++;
        });
        int64_t& next = auto_increment_[target];
        if (id >= next) next = id + 1;
        row[i] = Value::Int(id);
      }
    }
    for (size_t i = 0; i < schema.columns.size(); ++i) {
      if (schema.columns[i].not_null && row[i].is_null()) {
        return Status::ConstraintViolation("NOT NULL column " +
                                           schema.columns[i].name);
      }
    }
    UV_ASSIGN_OR_RETURN(RowId id, table->Insert(std::move(row), commit_index));
    ++result.affected;
    const Row& stored = table->GetRow(id);
    UV_RETURN_NOT_OK(FireTriggers(target, TriggerEvent::kInsert, nullptr,
                                  &stored, commit_index, ctx));
  }
  return result;
}

Result<ExecResult> Database::ExecUpdate(const UpdateStatement& stmt,
                                        uint64_t commit_index,
                                        ExecContext* ctx) {
  ExprPtr view_where;
  UV_ASSIGN_OR_RETURN(std::string target,
                      ResolveWritableTarget(stmt.table, &view_where));
  Table* table = FindTable(target);
  const TableSchema& schema = table->schema();
  Evaluator ev(this, ctx, commit_index);

  ExprPtr where = stmt.where;
  if (view_where) {
    where = where ? Expr::MakeBinary(BinaryOp::kAnd, view_where, where)
                  : view_where;
  }
  UV_ASSIGN_OR_RETURN(std::vector<RowId> ids,
                      ev.MatchRows(table, where, nullptr));

  std::vector<std::string> columns = SchemaColumnNames(schema);
  ExecResult result;
  for (RowId id : ids) {
    if (!table->IsLive(id)) continue;
    Row old_row = table->GetRow(id);
    RowScope scope;
    scope.bindings.push_back({schema.name, &columns, &old_row});
    Row new_row = old_row;
    for (const auto& [col, expr] : stmt.assignments) {
      int idx = schema.ColumnIndex(col);
      if (idx < 0) return Status::NotFound("column " + col);
      UV_ASSIGN_OR_RETURN(Value v, ev.Eval(*expr, &scope));
      new_row[idx] = std::move(v);
    }
    UV_RETURN_NOT_OK(table->Update(id, new_row, commit_index));
    ++result.affected;
    UV_RETURN_NOT_OK(FireTriggers(target, TriggerEvent::kUpdate, &old_row,
                                  &new_row, commit_index, ctx));
  }
  return result;
}

Result<ExecResult> Database::ExecDelete(const DeleteStatement& stmt,
                                        uint64_t commit_index,
                                        ExecContext* ctx) {
  ExprPtr view_where;
  UV_ASSIGN_OR_RETURN(std::string target,
                      ResolveWritableTarget(stmt.table, &view_where));
  Table* table = FindTable(target);
  Evaluator ev(this, ctx, commit_index);

  ExprPtr where = stmt.where;
  if (view_where) {
    where = where ? Expr::MakeBinary(BinaryOp::kAnd, view_where, where)
                  : view_where;
  }
  UV_ASSIGN_OR_RETURN(std::vector<RowId> ids,
                      ev.MatchRows(table, where, nullptr));

  ExecResult result;
  for (RowId id : ids) {
    if (!table->IsLive(id)) continue;
    Row old_row = table->GetRow(id);
    UV_RETURN_NOT_OK(table->Delete(id, commit_index));
    ++result.affected;
    UV_RETURN_NOT_OK(FireTriggers(target, TriggerEvent::kDelete, &old_row,
                                  nullptr, commit_index, ctx));
  }
  return result;
}

Result<ExecResult> Database::ExecCall(const CallStatement& stmt,
                                      uint64_t commit_index, ExecContext* ctx) {
  const CreateProcedureStatement* proc = FindProcedure(stmt.procedure);
  if (!proc) return Status::NotFound("procedure " + stmt.procedure);
  if (stmt.args.size() != proc->params.size()) {
    return Status::InvalidArgument("CALL " + stmt.procedure +
                                   ": argument count mismatch");
  }
  Evaluator ev(this, ctx, commit_index);
  std::vector<Value> args;
  for (const auto& arg : stmt.args) {
    UV_ASSIGN_OR_RETURN(Value v, ev.Eval(*arg, nullptr));
    args.push_back(std::move(v));
  }
  ctx->PushScope();
  for (size_t i = 0; i < args.size(); ++i) {
    ctx->DeclareVar(proc->params[i].name, std::move(args[i]));
  }
  Status st = ExecBlock(proc->body, commit_index, ctx);
  ctx->leave_requested = false;  // LEAVE unwinds only to the procedure edge.
  ctx->PopScope();
  if (!st.ok()) {
    // Procedures execute atomically: undo this commit's partial effects.
    RollbackToIndex(commit_index - 1);
    return st;
  }
  return ExecResult{};
}

Status Database::ExecBlock(const std::vector<StatementPtr>& body,
                           uint64_t commit_index, ExecContext* ctx) {
  for (const auto& stmt : body) {
    Result<ExecResult> r = Execute(*stmt, commit_index, ctx);
    if (!r.ok()) return r.status();
    if (ctx->leave_requested) return Status::OK();
  }
  return Status::OK();
}

Status Database::FireTriggers(const std::string& table, TriggerEvent event,
                              const Row* old_row, const Row* new_row,
                              uint64_t commit_index, ExecContext* ctx) {
  if (ctx->trigger_depth >= kMaxTriggerDepth) {
    return Status::Internal("trigger recursion limit");
  }
  for (const auto& [name, trig] : triggers_) {
    (void)name;
    if (trig.table != table || trig.event != event) continue;
    Table* t = FindTable(table);
    std::vector<std::string> columns = SchemaColumnNames(t->schema());

    // Bind NEW.col / OLD.col as variables for the trigger body.
    ctx->PushScope();
    if (new_row) {
      for (size_t i = 0; i < columns.size(); ++i) {
        ctx->DeclareVar("NEW." + columns[i], (*new_row)[i]);
      }
    }
    if (old_row) {
      for (size_t i = 0; i < columns.size(); ++i) {
        ctx->DeclareVar("OLD." + columns[i], (*old_row)[i]);
      }
    }
    ++ctx->trigger_depth;
    Status st = ExecBlock(trig.body, commit_index, ctx);
    --ctx->trigger_depth;
    ctx->PopScope();
    UV_RETURN_NOT_OK(st);
  }
  return Status::OK();
}

void Database::RollbackToIndex(uint64_t commit_index) {
  for (auto& [name, table] : tables_) {
    (void)name;
    table->RollbackToIndex(commit_index);
  }
}

void Database::RollbackTablesToIndex(const std::vector<std::string>& tables,
                                     uint64_t commit_index) {
  for (const auto& name : tables) {
    Table* t = FindTable(name);
    if (t) t->RollbackToIndex(commit_index);
  }
}

void Database::RollbackCommitsInTables(const std::set<uint64_t>& commits,
                                       const std::vector<std::string>& tables) {
  static obs::Counter* const undone =
      obs::Registry::Global().counter("uv.staging.rollback.commits");
  undone->Add(commits.size());
  obs::TraceSpan span("staging.rollback",
                      {{"commits", commits.size()}, {"tables", tables.size()}});
  for (const auto& name : tables) {
    Table* t = FindTable(name);
    if (t) t->RollbackCommits(commits);
  }
}

void Database::ResetJournals(const std::vector<std::string>& names,
                             uint64_t commit_index) {
  if (names.empty()) {
    for (auto& [name, table] : tables_) {
      (void)name;
      table->ResetJournal(commit_index);
    }
    return;
  }
  for (const auto& name : names) {
    Table* t = FindTable(name);
    if (t) t->ResetJournal(commit_index);
  }
}

void Database::TrimJournalsBefore(uint64_t commit_index) {
  for (auto& [name, table] : tables_) {
    (void)name;
    table->TrimJournalBefore(commit_index);
  }
}

void Database::SetTableHashing(bool on) {
  table_hashing_ = on;
  for (auto& [name, table] : tables_) {
    (void)name;
    table->SetHashing(on);
  }
}

Result<std::unique_ptr<Table>> Database::NewTable(
    const TableSchema& schema) const {
  auto table = std::make_unique<Table>(schema);
  table->SetHashing(table_hashing_);
  // Primary keys are always hash-indexed for point lookups.
  int pk = schema.PrimaryKeyIndex();
  if (pk >= 0) UV_RETURN_NOT_OK(table->CreateIndex(pk));
  return table;
}

std::unique_ptr<Database> Database::Clone() const {
  auto copy = std::make_unique<Database>();
  for (const auto& [name, table] : tables_) {
    copy->tables_[name] = table->Clone();
  }
  copy->table_hashing_ = table_hashing_;
  copy->views_ = views_;
  copy->procedures_ = procedures_;
  copy->triggers_ = triggers_;
  copy->auto_increment_ = auto_increment_;
  copy->logical_time_ = logical_time_;
  // Same engine, same schema epoch, same (shared) plan cache: replay over
  // the clone re-executes the history's statements with warm plans.
  copy->exec_engine_ = exec_engine_;
  copy->schema_version_.store(schema_version(), std::memory_order_relaxed);
  copy->plan_cache_ = plan_cache_;
  return copy;
}

void Database::RestoreSavepoint(std::unique_ptr<Database> savepoint) {
  tables_ = std::move(savepoint->tables_);
  views_ = std::move(savepoint->views_);
  procedures_ = std::move(savepoint->procedures_);
  triggers_ = std::move(savepoint->triggers_);
  auto_increment_ = std::move(savepoint->auto_increment_);
  // Plans compiled against the undone catalog must become unreachable.
  schema_version_.store(NextSchemaEpoch(), std::memory_order_relaxed);
}

std::unique_ptr<Database> Database::CloneTables(
    const std::vector<std::string>& names) const {
  static obs::Counter* const staged =
      obs::Registry::Global().counter("uv.staging.tables_staged");
  staged->Add(names.size());
  obs::TraceSpan span("staging.clone_tables", {{"tables", names.size()}});
  auto copy = std::make_unique<Database>();
  for (const auto& name : names) {
    if (copy->tables_.count(name)) continue;
    const Table* table = FindTable(name);
    if (table) copy->tables_[name] = table->Clone();
  }
  copy->table_hashing_ = table_hashing_;
  // The catalog rides along in full: it is tiny next to table data, and
  // replayed procedures/triggers/views must resolve without fault-ins.
  copy->views_ = views_;
  copy->procedures_ = procedures_;
  copy->triggers_ = triggers_;
  copy->auto_increment_ = auto_increment_;
  copy->logical_time_ = logical_time_;
  copy->exec_engine_ = exec_engine_;
  copy->schema_version_.store(schema_version(), std::memory_order_relaxed);
  copy->plan_cache_ = plan_cache_;
  return copy;
}

void Database::SetReadFallback(const Database* base, std::shared_mutex* mu) {
  read_base_ = base;
  read_base_mu_ = mu;
  fallback_base_version_ = base ? base->schema_version() : 0;
}

Status Database::AdoptTables(const Database& src,
                             const std::vector<std::string>& names) {
  for (const auto& name : names) {
    const Table* t = src.FindTable(name);
    if (!t) {
      // The table was retroactively dropped in the alternate universe.
      tables_.erase(name);
      auto_increment_.erase(name);
      continue;
    }
    std::unique_ptr<Table> adopted = t->Clone();
    adopted->SetHashing(table_hashing_);
    tables_[name] = std::move(adopted);
    auto it = src.auto_increment_.find(name);
    if (it != src.auto_increment_.end()) auto_increment_[name] = it->second;
  }
  // Adopted tables may carry retroactively ALTERed schemas or index sets.
  schema_version_.store(NextSchemaEpoch(), std::memory_order_relaxed);
  return Status::OK();
}

void Database::AdoptCatalog(const Database& src) {
  views_ = src.views_;
  procedures_ = src.procedures_;
  triggers_ = src.triggers_;
  schema_version_.store(NextSchemaEpoch(), std::memory_order_relaxed);
}

std::vector<std::string> Database::ViewNames() const {
  std::vector<std::string> names;
  names.reserve(views_.size());
  for (const auto& [name, sel] : views_) {
    (void)sel;
    names.push_back(name);
  }
  return names;
}

std::vector<std::string> Database::TriggerNames() const {
  std::vector<std::string> names;
  names.reserve(triggers_.size());
  for (const auto& [name, trig] : triggers_) {
    (void)trig;
    names.push_back(name);
  }
  return names;
}

void Database::SeedAutoIncrementFloor(
    const std::map<std::string, int64_t>& floors) {
  for (const auto& [table, next] : floors) {
    int64_t& mine = auto_increment_[table];
    if (next > mine) mine = next;
  }
}

size_t Database::ApproxMemoryBytes() const {
  size_t bytes = sizeof(Database);
  for (const auto& [name, table] : tables_) {
    bytes += name.size() + table->ApproxMemoryBytes();
  }
  return bytes;
}

size_t Database::ApproxOwnedBytes() const {
  size_t bytes = sizeof(Database);
  for (const auto& [name, table] : tables_) {
    bytes += name.size() + table->ApproxOwnedBytes();
  }
  return bytes;
}

}  // namespace ultraverse::sql
