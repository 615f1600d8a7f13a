#ifndef ULTRAVERSE_CORE_PREDICATE_H_
#define ULTRAVERSE_CORE_PREDICATE_H_

#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sqldb/ast.h"
#include "sqldb/value.h"

namespace ultraverse::core {

/// One typed, possibly half-open interval over sql::Value's total order
/// (NULL < bool < numeric < string; numerics compare by value). A nullopt
/// bound is unbounded. The emptiness test treats the domain as dense —
/// (3, 4) over INT keys counts as non-empty — which only ever
/// over-approximates, never prunes a real overlap.
struct ValueInterval {
  std::optional<sql::Value> lo, hi;
  bool lo_incl = false;
  bool hi_incl = false;

  bool Contains(const sql::Value& v) const;
  /// Equals Meet(other).has_value(), without building the meet.
  bool Intersects(const ValueInterval& other) const;
  /// Exact intersection (bound clipping); nullopt when provably empty.
  std::optional<ValueInterval> Meet(const ValueInterval& other) const;
  /// True when `other` ⊆ this (bound-wise cover).
  bool Covers(const ValueInterval& other) const;
  std::string ToString() const;
};

/// Sound abstract domain for "which RI keys can this predicate select"
/// (DESIGN.md §15): either ⊤ (any row) or a finite union of equality
/// points (canonical sql::Value encodings) and typed intervals. Join
/// (MergeWith) and exact meet (MeetWith) are monotone; Intersects and
/// ContainedIn are decidable and err on the conservative side (a point
/// whose encoding fails to decode is treated as a member of every
/// non-empty interval set).
struct ValueRegion {
  /// Defaults to ⊤, so a default-constructed region over-approximates
  /// everything.
  bool top = true;
  std::set<std::string> points;        // encoded sql::Value (Value::Encode)
  std::vector<ValueInterval> intervals;

  static ValueRegion Top() { return ValueRegion{}; }
  static ValueRegion EmptySet() {
    ValueRegion r;
    r.top = false;
    return r;
  }
  static ValueRegion OfPoints(std::set<std::string> encs) {
    ValueRegion r;
    r.top = false;
    r.points = std::move(encs);
    return r;
  }
  static ValueRegion OfInterval(ValueInterval iv) {
    ValueRegion r;
    r.top = false;
    r.intervals.push_back(std::move(iv));
    return r;
  }

  bool IsTop() const { return top; }
  /// Syntactically empty: provably matches no row.
  bool IsEmptySet() const {
    return !top && points.empty() && intervals.empty();
  }
  /// A finite set of encoded values (possibly empty): holds only `points`.
  bool IsPointsOnly() const { return !top && intervals.empty(); }

  /// Adds one encoded point; no-op on ⊤ (which already contains it).
  void AddPoint(const std::string& enc) {
    if (!top) points.insert(enc);
  }
  void WidenToTop() {
    top = true;
    points.clear();
    intervals.clear();
  }
  /// Join: this ← this ∪ other (⊤-absorbing).
  void MergeWith(const ValueRegion& other);
  /// Exact meet: {x : x ∈ this ∧ x ∈ other} up to decode-conservatism.
  ValueRegion MeetWith(const ValueRegion& other) const;
  /// Equals !MeetWith(other).IsEmptySet(), without building the meet.
  bool Intersects(const ValueRegion& other) const;
  bool Contains(const sql::Value& v) const;
  bool ContainsEncoded(const std::string& enc) const;
  /// Conservative containment: true ⇒ this ⊆ other. Interval cover is
  /// tested against single intervals of `other` (no multi-interval
  /// stitching); both analyzers extract intervals from the same literal
  /// folds, so a dynamic interval either meets its identical static twin
  /// or a static ⊤ — the conservatism never fires in aligned pairs.
  bool ContainedIn(const ValueRegion& other) const;
  std::string ToString() const;

 private:
  /// Membership of an encoded value in `intervals` alone (an undecodable
  /// encoding is a member of any non-empty interval set).
  bool IntervalsContainEncoded(const std::string& enc) const;
};

/// Hook resolving an expression to its candidate constant values: the
/// R/W walker plugs its MultiEval — literal folds, plus procedure variable
/// bindings and captured parameter values in the concrete (dynamic)
/// domain; literal folds only in the abstract (static) domain. nullopt =
/// unresolvable (widen to ⊤). Whenever the static hook resolves, the
/// dynamic hook resolves the same single value — it is the same fold code
/// — which makes the extracted dynamic region a subset of the static one
/// at every AST node.
using PredicateEvalFn =
    std::function<std::optional<std::vector<sql::Value>>(const sql::Expr&)>;

/// Hook translating one alias-RI column value to the set of RI-key
/// encodings it denotes. nullopt = unknown (widen to ⊤). The abstract
/// (static) domain always returns nullopt (it has no learned alias maps).
using PredicateAliasFn = std::function<std::optional<std::set<std::string>>(
    const std::string& alias_column, const sql::Value& value)>;

/// Extracts the symbolic predicate region of `where` restricted to
/// `table`'s RI column: equality points and IN lists (via `eval`),
/// typed half-open ranges from </<=/>/>= (BETWEEN parses to AND of
/// those), AND as meet, OR as join. Everything else — joins, aliases
/// under ranges, nondeterministic builtins, subqueries — widens to ⊤.
/// Shared by the dynamic and static analyzers so their regions stay
/// pointwise comparable (dynamic ⊆ static).
ValueRegion ExtractPredicateRegion(const sql::Expr* where,
                                   const std::string& table,
                                   const std::string& ri_column,
                                   const std::vector<std::string>& ri_aliases,
                                   const PredicateEvalFn& eval,
                                   const PredicateAliasFn& alias_lookup);

}  // namespace ultraverse::core

#endif  // ULTRAVERSE_CORE_PREDICATE_H_
