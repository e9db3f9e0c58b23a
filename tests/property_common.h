// Shared randomized-sweep helpers for the end-to-end property tests:
// random quantifier-free FO+ queries and random graphs from every
// generator class. Used by property_test.cc (engine vs naive semantics)
// and parallel_engine_test.cc (parallel vs serial preprocessing).

#ifndef NWD_TESTS_PROPERTY_COMMON_H_
#define NWD_TESTS_PROPERTY_COMMON_H_

#include <algorithm>

#include "fo/ast.h"
#include "fo/builders.h"
#include "gen/generators.h"
#include "util/rng.h"

namespace nwd {
namespace testing_common {

// A random quantifier-free FO+ formula over `arity` free variables.
inline fo::FormulaPtr RandomFormula(int arity, int num_colors, int depth,
                                    Rng* rng) {
  if (depth == 0 || rng->NextBool(0.35)) {
    // Random atom.
    const int kind = static_cast<int>(rng->NextBounded(4));
    const fo::Var x = static_cast<fo::Var>(rng->NextBounded(arity));
    fo::Var y = static_cast<fo::Var>(rng->NextBounded(arity));
    switch (kind) {
      case 0:
        return fo::Color(static_cast<int>(rng->NextBounded(num_colors)), x);
      case 1:
        return x == y ? fo::Color(0, x) : fo::Edge(x, y);
      case 2:
        return fo::Equals(x, y);
      default:
        return fo::DistLeq(x, y,
                           1 + static_cast<int64_t>(rng->NextBounded(3)));
    }
  }
  const int op = static_cast<int>(rng->NextBounded(3));
  if (op == 0) return fo::Not(RandomFormula(arity, num_colors, depth - 1, rng));
  fo::FormulaPtr a = RandomFormula(arity, num_colors, depth - 1, rng);
  fo::FormulaPtr b = RandomFormula(arity, num_colors, depth - 1, rng);
  return op == 1 ? fo::And(a, b) : fo::Or(a, b);
}

inline fo::Query RandomQuery(int arity, int num_colors, Rng* rng) {
  fo::Query q;
  q.formula = RandomFormula(arity, num_colors, 3, rng);
  for (int i = 0; i < arity; ++i) q.free_vars.push_back(i);
  q.var_names = {"x", "y", "z", "w"};
  q.var_names.resize(static_cast<size_t>(arity));
  return q;
}

// The generator class RandomGraph(kind, ...) draws from, for test names.
inline const char* GraphKindName(int kind) {
  static const char* const kNames[] = {"tree", "bdeg", "grid", "forest",
                                       "subdiv"};
  return kNames[kind % 5];
}

inline ColoredGraph RandomGraph(int kind, int64_t n, Rng* rng) {
  switch (kind % 5) {
    case 0:
      return gen::RandomTree(n, 0, {2, 0.35}, rng);
    case 1:
      return gen::BoundedDegreeGraph(n, 4, 2.2, {2, 0.35}, rng);
    case 2:
      return gen::Grid(std::max<int64_t>(2, n / 8), 8, {2, 0.35}, rng);
    case 3:
      return gen::RandomForest(n, 4, {2, 0.35}, rng);
    default:
      return gen::SubdividedClique(6, std::max<int64_t>(1, n / 15),
                                   {2, 0.35}, rng);
  }
}

}  // namespace testing_common
}  // namespace nwd

#endif  // NWD_TESTS_PROPERTY_COMMON_H_
