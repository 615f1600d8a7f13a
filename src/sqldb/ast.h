#ifndef ULTRAVERSE_SQLDB_AST_H_
#define ULTRAVERSE_SQLDB_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sqldb/schema.h"
#include "sqldb/value.h"

namespace ultraverse::sql {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  kLiteral,    // value
  kColumnRef,  // table (optional) + column
  kVarRef,     // procedure variable / parameter (also NEW.col / OLD.col)
  kUnary,      // op + child[0]
  kBinary,     // op + child[0], child[1]
  kFuncCall,   // func name + children (COUNT(*) has star=true)
  kSubquery,   // scalar subquery (select)
  kInList,     // child[0] IN (child[1..])
  kStar,       // bare * inside COUNT(*)
};

enum class BinaryOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};

enum class UnaryOp { kNot, kNeg };

struct SelectStatement;  // forward

struct Expr;
using ExprPtr = std::shared_ptr<Expr>;

/// Expression AST node (tagged union style; one struct keeps the parser,
/// printer and evaluator compact).
struct Expr {
  ExprKind kind;

  // kLiteral
  Value literal;
  // kColumnRef
  std::string table;   // may be empty
  std::string column;
  // kVarRef
  std::string var_name;
  // kUnary / kBinary
  UnaryOp unary_op = UnaryOp::kNot;
  BinaryOp binary_op = BinaryOp::kEq;
  // kFuncCall
  std::string func_name;  // upper-cased
  bool star_arg = false;  // COUNT(*)
  // kSubquery
  std::shared_ptr<SelectStatement> subquery;

  std::vector<ExprPtr> children;

  static ExprPtr MakeLiteral(Value v) {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kLiteral;
    e->literal = std::move(v);
    return e;
  }
  static ExprPtr MakeColumn(std::string table, std::string column) {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kColumnRef;
    e->table = std::move(table);
    e->column = std::move(column);
    return e;
  }
  static ExprPtr MakeVar(std::string name) {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kVarRef;
    e->var_name = std::move(name);
    return e;
  }
  static ExprPtr MakeUnary(UnaryOp op, ExprPtr child) {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kUnary;
    e->unary_op = op;
    e->children.push_back(std::move(child));
    return e;
  }
  static ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kBinary;
    e->binary_op = op;
    e->children.push_back(std::move(lhs));
    e->children.push_back(std::move(rhs));
    return e;
  }
  static ExprPtr MakeFunc(std::string name, std::vector<ExprPtr> args,
                          bool star = false) {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kFuncCall;
    e->func_name = std::move(name);
    e->children = std::move(args);
    e->star_arg = star;
    return e;
  }
  static ExprPtr MakeSubquery(std::shared_ptr<SelectStatement> sel) {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kSubquery;
    e->subquery = std::move(sel);
    return e;
  }
  static ExprPtr MakeInList(ExprPtr needle, std::vector<ExprPtr> haystack) {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kInList;
    e->children.push_back(std::move(needle));
    for (auto& h : haystack) e->children.push_back(std::move(h));
    return e;
  }
  static ExprPtr MakeStar() {
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kStar;
    return e;
  }
};

/// True for COUNT/SUM/MIN/MAX/AVG.
bool IsAggregateFunction(const std::string& upper_name);

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StatementKind {
  kCreateTable, kAlterTable, kDropTable, kTruncateTable,
  kCreateView, kDropView,
  kCreateIndex,
  kCreateProcedure, kDropProcedure,
  kCreateTrigger, kDropTrigger,
  kInsert, kUpdate, kDelete, kSelect,
  kCall,
  kTransaction,  // BEGIN ... COMMIT block of statements
  // Procedure-body-only statements:
  kDeclareVar, kSetVar, kIf, kWhile, kLeave, kSignal,
};

/// Statements that change the schema or catalog (tables, views, indexes,
/// procedures, triggers) or, for TRUNCATE, a table wholesale.
inline bool IsDdl(StatementKind kind) {
  switch (kind) {
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
      return true;
    default:
      return false;
  }
}

struct Statement;
using StatementPtr = std::shared_ptr<Statement>;

struct SelectItem {
  ExprPtr expr;
  std::string alias;  // empty = derive from expr
};

struct OrderByItem {
  ExprPtr expr;
  bool descending = false;
};

struct JoinClause {
  std::string table;   // joined table (or view) name
  std::string alias;   // optional alias
  ExprPtr on;          // join condition
};

struct SelectStatement {
  bool distinct = false;
  std::vector<SelectItem> items;
  std::string from_table;  // empty = table-less SELECT (e.g. SELECT 1+1)
  std::string from_alias;
  std::vector<JoinClause> joins;
  ExprPtr where;  // nullable
  std::vector<ExprPtr> group_by;
  ExprPtr having;  // nullable; may contain aggregates
  std::vector<OrderByItem> order_by;
  int64_t limit = -1;  // -1 = no limit
  /// SELECT ... INTO var1[, var2...] (procedure bodies only).
  std::vector<std::string> into_vars;
};

struct InsertStatement {
  std::string table;
  std::vector<std::string> columns;  // empty = all columns in schema order
  std::vector<std::vector<ExprPtr>> rows;  // VALUES (...), (...)
  std::shared_ptr<SelectStatement> select;  // INSERT ... SELECT alternative
};

struct UpdateStatement {
  std::string table;
  std::vector<std::pair<std::string, ExprPtr>> assignments;
  ExprPtr where;  // nullable
};

struct DeleteStatement {
  std::string table;
  ExprPtr where;  // nullable
};

struct CreateTableStatement {
  TableSchema schema;
  bool if_not_exists = false;
};

enum class AlterAction { kAddColumn, kDropColumn };
struct AlterTableStatement {
  std::string table;
  AlterAction action = AlterAction::kAddColumn;
  ColumnDef add_column;      // for kAddColumn
  std::string drop_column;   // for kDropColumn
};

struct CreateViewStatement {
  std::string name;
  std::shared_ptr<SelectStatement> select;
  bool or_replace = false;
};

struct CreateIndexStatement {
  std::string name;
  std::string table;
  std::vector<std::string> columns;
};

struct ProcedureParam {
  std::string name;
  DataType type = DataType::kString;
  bool is_out = false;
};

struct CreateProcedureStatement {
  std::string name;
  std::vector<ProcedureParam> params;
  std::vector<StatementPtr> body;
};

enum class TriggerEvent { kInsert, kUpdate, kDelete };

struct CreateTriggerStatement {
  std::string name;
  bool after = true;  // AFTER vs BEFORE (we execute both after the write)
  TriggerEvent event = TriggerEvent::kInsert;
  std::string table;
  std::vector<StatementPtr> body;  // may reference NEW.col / OLD.col vars
};

struct CallStatement {
  std::string procedure;
  std::vector<ExprPtr> args;
};

struct DeclareVarStatement {
  std::string name;
  DataType type = DataType::kString;
  ExprPtr init;  // nullable
};

struct SetVarStatement {
  std::string name;
  ExprPtr value;
};

struct IfBranch {
  ExprPtr condition;  // null for the final ELSE
  std::vector<StatementPtr> body;
};

struct IfStatement {
  std::vector<IfBranch> branches;  // IF / ELSEIF... / ELSE(cond==null)
};

struct WhileStatement {
  ExprPtr condition;
  std::vector<StatementPtr> body;
};

struct SignalStatement {
  std::string sqlstate;  // e.g. "45001" — unreached-DSE-path trap (§3.3)
  std::string message;
};

struct TransactionStatement {
  std::vector<StatementPtr> statements;
};

/// A single SQL statement (tagged union).
struct Statement {
  StatementKind kind;

  // Exactly one of these is populated, matching `kind`.
  CreateTableStatement create_table;
  AlterTableStatement alter_table;
  std::string drop_name;  // kDropTable/kDropView/kDropProcedure/kDropTrigger
  bool drop_if_exists = false;
  std::string truncate_table;
  CreateViewStatement create_view;
  CreateIndexStatement create_index;
  CreateProcedureStatement create_procedure;
  CreateTriggerStatement create_trigger;
  InsertStatement insert;
  UpdateStatement update;
  DeleteStatement del;
  std::shared_ptr<SelectStatement> select;
  CallStatement call;
  TransactionStatement transaction;
  DeclareVarStatement declare_var;
  SetVarStatement set_var;
  IfStatement if_stmt;
  WhileStatement while_stmt;
  std::string leave_label;
  SignalStatement signal;

  static StatementPtr Make(StatementKind k) {
    auto s = std::make_shared<Statement>();
    s->kind = k;
    return s;
  }
};

/// Renders a statement back to SQL text (used for logs and round-trip
/// tests). Implemented in printer.cc.
std::string ToSql(const Statement& stmt);
std::string ToSql(const SelectStatement& sel);
std::string ToSql(const Expr& expr);

}  // namespace ultraverse::sql

#endif  // ULTRAVERSE_SQLDB_AST_H_
