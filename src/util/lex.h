// Lexicographic-order helpers for tuples over [0, n).
//
// The paper's algorithms all work with the lexicographic order on k-tuples
// of vertices (Section 2). These helpers implement successor/predecessor and
// comparisons used by the Storing Theorem structure and the enumeration
// engine.

#ifndef NWD_UTIL_LEX_H_
#define NWD_UTIL_LEX_H_

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace nwd {

// A tuple of vertex ids. Vertex ids are dense integers in [0, n).
using Tuple = std::vector<int64_t>;

// Returns -1/0/+1 as `a` is lexicographically before/equal/after `b`.
// Requires a.size() == b.size().
inline int LexCompare(const Tuple& a, const Tuple& b) {
  NWD_CHECK_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] < b[i]) return -1;
    if (a[i] > b[i]) return 1;
  }
  return 0;
}

// Advances `t` to its lexicographic successor over [0, n)^k.
// Returns false (leaving `t` unspecified) if `t` was the maximum tuple.
inline bool LexIncrement(Tuple* t, int64_t n) {
  for (size_t i = t->size(); i-- > 0;) {
    if ((*t)[i] + 1 < n) {
      ++(*t)[i];
      for (size_t j = i + 1; j < t->size(); ++j) (*t)[j] = 0;
      return true;
    }
  }
  return false;
}

// Aborts unless `t` has `arity` components, each in [0, n): the contract
// of every engine's Test and Next.
inline void CheckProbe(const Tuple& t, int arity, int64_t n) {
  NWD_CHECK_EQ(static_cast<int>(t.size()), arity);
  for (const int64_t v : t) {
    NWD_CHECK(v >= 0 && v < n) << "probe component " << v << " out of range";
  }
}

// The minimum tuple (0,...,0) of arity k.
inline Tuple LexMin(int arity) { return Tuple(static_cast<size_t>(arity), 0); }

// The maximum tuple (n-1,...,n-1) of arity k over [0, n).
inline Tuple LexMax(int arity, int64_t n) {
  return Tuple(static_cast<size_t>(arity), n - 1);
}

}  // namespace nwd

#endif  // NWD_UTIL_LEX_H_
