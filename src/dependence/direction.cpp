#include "dependence/direction.hpp"

#include <sstream>

#include "support/check.hpp"

namespace inlt {

std::string dep_kind_name(DepKind k) {
  switch (k) {
    case DepKind::kFlow:
      return "flow";
    case DepKind::kAnti:
      return "anti";
    case DepKind::kOutput:
      return "output";
  }
  return "?";
}

DepEntry DepEntry::range(i64 lo, i64 hi) {
  INLT_CHECK_MSG(lo <= hi, "empty dependence interval");
  return DepEntry(lo, hi, false, false);
}

DepEntry DepEntry::operator+(const DepEntry& o) const {
  bool lo_inf = lo_inf_ || o.lo_inf_;
  bool hi_inf = hi_inf_ || o.hi_inf_;
  i64 lo = lo_inf ? 0 : checked_add(lo_, o.lo_);
  i64 hi = hi_inf ? 0 : checked_add(hi_, o.hi_);
  return DepEntry(lo, hi, lo_inf, hi_inf);
}

DepEntry DepEntry::operator*(i64 s) const {
  if (s == 0) return exact(0);
  if (s > 0) {
    return DepEntry(lo_inf_ ? 0 : checked_mul(lo_, s),
                    hi_inf_ ? 0 : checked_mul(hi_, s), lo_inf_, hi_inf_);
  }
  // Negative scale swaps the ends.
  return DepEntry(hi_inf_ ? 0 : checked_mul(hi_, s),
                  lo_inf_ ? 0 : checked_mul(lo_, s), hi_inf_, lo_inf_);
}

std::string DepEntry::to_string() const {
  if (is_exact()) return std::to_string(lo_);
  if (lo_inf_ && hi_inf_) return "*";
  if (!lo_inf_ && hi_inf_) {
    if (lo_ == 1) return "+";
    if (lo_ == 0) return "0+";
    return "[" + std::to_string(lo_) + ",inf)";
  }
  if (lo_inf_ && !hi_inf_) {
    if (hi_ == -1) return "-";
    if (hi_ == 0) return "0-";
    return "(-inf," + std::to_string(hi_) + "]";
  }
  return "[" + std::to_string(lo_) + "," + std::to_string(hi_) + "]";
}

LexStatus lex_status_at(const DepVector& v, int* decided_at) {
  // Walk leading entries. A non-negative entry splits into two cases
  // (zero: the rest decides; positive: done), so the vector is
  // lexicographically positive when the rest is — a sound refinement
  // that matters for dependences whose carrying level is an inner one.
  if (decided_at) *decided_at = -1;
  bool saw_non_neg = false;
  for (size_t i = 0; i < v.size(); ++i) {
    const DepEntry& e = v[i];
    if (e.is_zero()) continue;
    if (decided_at) *decided_at = static_cast<int>(i);
    if (e.definitely_positive()) return LexStatus::kPositive;
    if (e.definitely_negative())
      return saw_non_neg ? LexStatus::kUnknown : LexStatus::kNegative;
    if (e.definitely_non_negative()) {
      saw_non_neg = true;
      continue;
    }
    return LexStatus::kUnknown;
  }
  // Ran off the end without a verdict entry: the status is a property
  // of the whole (zero / possibly-zero) vector, not one position.
  if (decided_at) *decided_at = -1;
  return saw_non_neg ? LexStatus::kNonNegative : LexStatus::kZero;
}

LexStatus lex_status(const DepVector& v) { return lex_status_at(v, nullptr); }

const char* lex_status_name(LexStatus s) {
  switch (s) {
    case LexStatus::kZero: return "zero";
    case LexStatus::kPositive: return "positive";
    case LexStatus::kNonNegative: return "non-negative";
    case LexStatus::kNegative: return "negative";
    case LexStatus::kUnknown: return "unknown";
  }
  return "unknown";
}

DepVector transform_dep(const IntMat& m, const DepVector& d) {
  INLT_CHECK(m.cols() == static_cast<int>(d.size()));
  DepVector out;
  out.reserve(m.rows());
  for (int i = 0; i < m.rows(); ++i) {
    // A zero coefficient adds exact(0), which leaves any entry as is.
    DepEntry acc = DepEntry::exact(0);
    for (int j = 0; j < m.cols(); ++j)
      if (const i64 c = m(i, j); c != 0) acc = acc + d[j] * c;
    out.push_back(acc);
  }
  return out;
}

DepVector project_dep(const DepVector& d, const std::vector<int>& positions) {
  DepVector out;
  out.reserve(positions.size());
  for (int p : positions) {
    INLT_CHECK(p >= 0 && p < static_cast<int>(d.size()));
    out.push_back(d[p]);
  }
  return out;
}

DepVector dep_from_ints(const IntVec& v) {
  DepVector out;
  out.reserve(v.size());
  for (i64 x : v) out.push_back(DepEntry::exact(x));
  return out;
}

std::string dep_to_string(const DepVector& v) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) os << ", ";
    os << v[i].to_string();
  }
  os << "]";
  return os.str();
}

}  // namespace inlt
