#include "core/predicate.h"

#include <sstream>

#include "util/string_util.h"

namespace ultraverse::core {

namespace {
using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;
using sql::Value;
}  // namespace

// ---------------------------------------------------------------------------
// ValueInterval
// ---------------------------------------------------------------------------

bool ValueInterval::Contains(const Value& v) const {
  if (lo) {
    int c = v.Compare(*lo);
    if (c < 0 || (c == 0 && !lo_incl)) return false;
  }
  if (hi) {
    int c = v.Compare(*hi);
    if (c > 0 || (c == 0 && !hi_incl)) return false;
  }
  return true;
}

std::optional<ValueInterval> ValueInterval::Meet(
    const ValueInterval& other) const {
  ValueInterval r;
  // Lower bound: the greater of the two (ties intersect inclusivity).
  if (!lo) {
    r.lo = other.lo;
    r.lo_incl = other.lo_incl;
  } else if (!other.lo) {
    r.lo = lo;
    r.lo_incl = lo_incl;
  } else {
    int c = lo->Compare(*other.lo);
    if (c > 0) {
      r.lo = lo;
      r.lo_incl = lo_incl;
    } else if (c < 0) {
      r.lo = other.lo;
      r.lo_incl = other.lo_incl;
    } else {
      r.lo = lo;
      r.lo_incl = lo_incl && other.lo_incl;
    }
  }
  // Upper bound: the lesser of the two.
  if (!hi) {
    r.hi = other.hi;
    r.hi_incl = other.hi_incl;
  } else if (!other.hi) {
    r.hi = hi;
    r.hi_incl = hi_incl;
  } else {
    int c = hi->Compare(*other.hi);
    if (c < 0) {
      r.hi = hi;
      r.hi_incl = hi_incl;
    } else if (c > 0) {
      r.hi = other.hi;
      r.hi_incl = other.hi_incl;
    } else {
      r.hi = hi;
      r.hi_incl = hi_incl && other.hi_incl;
    }
  }
  if (r.lo && r.hi) {
    int c = r.lo->Compare(*r.hi);
    if (c > 0) return std::nullopt;
    if (c == 0 && !(r.lo_incl && r.hi_incl)) return std::nullopt;
  }
  return r;
}

bool ValueInterval::Intersects(const ValueInterval& other) const {
  // The meet runs from the greatest lower bound to the least upper bound,
  // so it is empty exactly when some lower bound of the two intervals lies
  // past some upper bound, or meets it where either end is open.
  auto past = [](const ValueInterval& l, const ValueInterval& u) {
    if (!l.lo || !u.hi) return false;
    int c = l.lo->Compare(*u.hi);
    return c > 0 || (c == 0 && !(l.lo_incl && u.hi_incl));
  };
  return !past(*this, *this) && !past(*this, other) && !past(other, *this) &&
         !past(other, other);
}

bool ValueInterval::Covers(const ValueInterval& other) const {
  if (lo) {
    if (!other.lo) return false;
    int c = lo->Compare(*other.lo);
    if (c > 0) return false;
    if (c == 0 && !lo_incl && other.lo_incl) return false;
  }
  if (hi) {
    if (!other.hi) return false;
    int c = hi->Compare(*other.hi);
    if (c < 0) return false;
    if (c == 0 && !hi_incl && other.hi_incl) return false;
  }
  return true;
}

std::string ValueInterval::ToString() const {
  std::ostringstream os;
  os << (lo_incl ? '[' : '(');
  os << (lo ? lo->ToDisplayString() : std::string("-inf"));
  os << ", ";
  os << (hi ? hi->ToDisplayString() : std::string("+inf"));
  os << (hi_incl ? ']' : ')');
  return os.str();
}

// ---------------------------------------------------------------------------
// ValueRegion
// ---------------------------------------------------------------------------

void ValueRegion::MergeWith(const ValueRegion& other) {
  if (top) return;
  if (other.top) {
    WidenToTop();
    return;
  }
  points.insert(other.points.begin(), other.points.end());
  intervals.insert(intervals.end(), other.intervals.begin(),
                   other.intervals.end());
}

ValueRegion ValueRegion::MeetWith(const ValueRegion& other) const {
  if (top) return other;
  if (other.top) return *this;
  ValueRegion r = EmptySet();
  for (const auto& p : points) {
    if (other.ContainsEncoded(p)) r.points.insert(p);
  }
  for (const auto& p : other.points) {
    if (ContainsEncoded(p)) r.points.insert(p);
  }
  for (const auto& a : intervals) {
    for (const auto& b : other.intervals) {
      if (auto m = a.Meet(b)) r.intervals.push_back(*m);
    }
  }
  return r;
}

bool ValueRegion::Intersects(const ValueRegion& other) const {
  // ⊤ ∩ ∅ is empty: an empty region matches no row, whatever faces it.
  if (IsEmptySet() || other.IsEmptySet()) return false;
  if (top || other.top) return true;
  for (const auto& p : points) {
    if (other.ContainsEncoded(p)) return true;
  }
  if (!intervals.empty()) {
    // Shared points were found above: only this side's intervals remain.
    for (const auto& p : other.points) {
      if (IntervalsContainEncoded(p)) return true;
    }
  }
  for (const auto& a : intervals) {
    for (const auto& b : other.intervals) {
      if (a.Intersects(b)) return true;
    }
  }
  return false;
}

bool ValueRegion::Contains(const Value& v) const {
  if (top) return true;
  if (points.count(v.Encode())) return true;
  for (const auto& iv : intervals) {
    if (iv.Contains(v)) return true;
  }
  return false;
}

bool ValueRegion::ContainsEncoded(const std::string& enc) const {
  return top || points.count(enc) > 0 || IntervalsContainEncoded(enc);
}

bool ValueRegion::IntervalsContainEncoded(const std::string& enc) const {
  if (intervals.empty()) return false;
  Value v;
  if (!Value::Decode(enc, &v)) return true;  // conservative: assume member
  for (const auto& iv : intervals) {
    if (iv.Contains(v)) return true;
  }
  return false;
}

bool ValueRegion::ContainedIn(const ValueRegion& other) const {
  if (other.top) return true;
  if (top) return false;
  for (const auto& p : points) {
    if (!other.ContainsEncoded(p)) return false;
  }
  for (const auto& iv : intervals) {
    bool covered = false;
    for (const auto& ov : other.intervals) {
      if (ov.Covers(iv)) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }
  return true;
}

std::string ValueRegion::ToString() const {
  if (top) return "*";
  if (IsEmptySet()) return "{}";
  std::ostringstream os;
  bool first = true;
  if (!points.empty()) {
    os << '{';
    for (const auto& p : points) {
      if (!first) os << ", ";
      first = false;
      Value v;
      os << (Value::Decode(p, &v) ? v.ToDisplayString() : std::string("?"));
    }
    os << '}';
  }
  for (const auto& iv : intervals) {
    if (!first || !points.empty()) os << " u ";
    first = false;
    os << iv.ToString();
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Extraction
// ---------------------------------------------------------------------------

namespace {

/// `v <op> col` reads as `col <flipped-op> v`.
BinaryOp FlipComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;
  }
}

ValueRegion IntervalsFor(BinaryOp op, const std::vector<Value>& candidates) {
  ValueRegion r = ValueRegion::EmptySet();
  for (const auto& v : candidates) {
    ValueInterval iv;
    switch (op) {
      case BinaryOp::kLt:
        iv.hi = v;
        break;
      case BinaryOp::kLe:
        iv.hi = v;
        iv.hi_incl = true;
        break;
      case BinaryOp::kGt:
        iv.lo = v;
        break;
      case BinaryOp::kGe:
        iv.lo = v;
        iv.lo_incl = true;
        break;
      default:
        return ValueRegion::Top();
    }
    r.intervals.push_back(std::move(iv));
  }
  return r;
}

}  // namespace

ValueRegion ExtractPredicateRegion(const Expr* where, const std::string& table,
                                   const std::string& ri_column,
                                   const std::vector<std::string>& ri_aliases,
                                   const PredicateEvalFn& eval,
                                   const PredicateAliasFn& alias_lookup) {
  if (!where) return ValueRegion::Top();
  switch (where->kind) {
    case ExprKind::kBinary: {
      const BinaryOp op = where->binary_op;
      if (op == BinaryOp::kAnd) {
        ValueRegion l =
            ExtractPredicateRegion(where->children[0].get(), table, ri_column,
                                   ri_aliases, eval, alias_lookup);
        ValueRegion r =
            ExtractPredicateRegion(where->children[1].get(), table, ri_column,
                                   ri_aliases, eval, alias_lookup);
        return l.MeetWith(r);
      }
      if (op == BinaryOp::kOr) {
        ValueRegion l =
            ExtractPredicateRegion(where->children[0].get(), table, ri_column,
                                   ri_aliases, eval, alias_lookup);
        ValueRegion r =
            ExtractPredicateRegion(where->children[1].get(), table, ri_column,
                                   ri_aliases, eval, alias_lookup);
        l.MergeWith(r);
        return l;
      }
      if (op == BinaryOp::kEq || op == BinaryOp::kLt || op == BinaryOp::kLe ||
          op == BinaryOp::kGt || op == BinaryOp::kGe) {
        const Expr* col = where->children[0].get();
        const Expr* val = where->children[1].get();
        BinaryOp eff = op;
        if (col->kind != ExprKind::kColumnRef) {
          std::swap(col, val);
          eff = FlipComparison(op);
        }
        if (col->kind != ExprKind::kColumnRef) return ValueRegion::Top();
        if (!col->table.empty() && !EqualsIgnoreCase(col->table, table)) {
          return ValueRegion::Top();
        }
        auto candidates = eval(*val);
        if (!candidates) return ValueRegion::Top();
        if (EqualsIgnoreCase(col->column, ri_column)) {
          if (eff != BinaryOp::kEq) return IntervalsFor(eff, *candidates);
          ValueRegion r = ValueRegion::EmptySet();
          for (const auto& v : *candidates) r.points.insert(v.Encode());
          return r;
        }
        for (const auto& alias : ri_aliases) {
          if (!EqualsIgnoreCase(col->column, alias)) continue;
          // Ranges over alias values don't translate through the
          // point-wise alias→RI map: widen.
          if (eff != BinaryOp::kEq) return ValueRegion::Top();
          ValueRegion r = ValueRegion::EmptySet();
          for (const auto& v : *candidates) {
            auto ri = alias_lookup(alias, v);
            if (!ri) return ValueRegion::Top();
            r.points.insert(ri->begin(), ri->end());
          }
          return r;
        }
        // A non-RI column constrains nothing at row granularity.
        return ValueRegion::Top();
      }
      return ValueRegion::Top();
    }
    case ExprKind::kInList: {
      const Expr* col = where->children[0].get();
      if (col->kind != ExprKind::kColumnRef ||
          !EqualsIgnoreCase(col->column, ri_column)) {
        return ValueRegion::Top();
      }
      ValueRegion r = ValueRegion::EmptySet();
      for (size_t i = 1; i < where->children.size(); ++i) {
        auto candidates = eval(*where->children[i]);
        if (!candidates) return ValueRegion::Top();
        for (const auto& v : *candidates) r.points.insert(v.Encode());
      }
      return r;
    }
    default:
      return ValueRegion::Top();
  }
}

}  // namespace ultraverse::core
