// Baseline evaluation strategies the paper's engine is compared against
// (experiments E1, E2, E10), and BaselineAnswers, the engines' one
// correctness fallback.
//
// BacktrackingEnumerator assigns the free variables left to right and
// prunes a partial assignment as soon as the formula is falsified under
// three-valued (Kleene) evaluation — already much better than testing all
// n^k tuples, and the honest "what you would do without the paper".

#ifndef NWD_BASELINE_NAIVE_ENUM_H_
#define NWD_BASELINE_NAIVE_ENUM_H_

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "fo/ast.h"
#include "fo/naive_eval.h"
#include "graph/bfs.h"
#include "graph/colored_graph.h"
#include "util/lex.h"

namespace nwd {

class BacktrackingEnumerator {
 public:
  BacktrackingEnumerator(const ColoredGraph& g, const fo::Query& query);

  // Borrows `g` instead, keeping the query and the BFS scratch (grown if
  // `g` is larger): DynamicEngine's lag lane reuses one search across the
  // graph versions it pins.
  void Rebind(const ColoredGraph& g);

  // All solutions in lexicographic order.
  std::vector<Tuple> AllSolutions();

  // Streams solutions in lexicographic order; return false from the
  // callback to stop early (for time-to-first-m measurements).
  void Enumerate(const std::function<bool(const Tuple&)>& callback);

  // Smallest solution >= from (the baseline's answer to Theorem 2.3's
  // functionality, in O(n^k) worst-case time).
  std::optional<Tuple> Next(const Tuple& from);

  // Whether `tuple` (aligned with the query's free variables) is a
  // solution, through the naive evaluator.
  bool Test(const Tuple& tuple) { return eval_.TestTuple(query_, tuple); }

 private:
  // Kleene evaluation: -1 false, 0 unknown, +1 true, given that variables
  // with env[v] != kUnbound are assigned.
  int Partial(const fo::FormulaPtr& f, std::vector<Vertex>* env);

  // DFS over positions for Enumerate; sets *stopped when the callback
  // requests termination.
  void EnumerateImpl(size_t pos, std::vector<Vertex>* env,
                     const std::function<bool(const Tuple&)>& callback,
                     bool* stopped);

  // DFS for Next: smallest completion of positions [pos, k) subject to the
  // lex lower bound; returns true and fills *out on success.
  bool NextImpl(size_t pos, const Tuple& from, bool tight,
                std::vector<Vertex>* env, Tuple* out);

  const ColoredGraph* graph_;
  fo::Query query_;  // owned copy: callers may pass temporaries
  fo::NaiveEvaluator eval_;
  BfsScratch scratch_;
};

// Answers Test/Next whenever Theorem 2.3's structures are absent, from
// either
//   * the sorted solution set (preprocessing Step 1 on small graphs, and
//     sentences, unary and unsupported queries), or
//   * one lazy BacktrackingEnumerator over a borrowed graph (budget-tripped
//     engines and budgeted graphs too big to materialize).
// Thread-safe: the set is read-only, and the search keeps BFS scratch, so
// a budget-tripped engine's lazy answers serialize behind one mutex. The
// borrowed graph never changes while this object lives. (DynamicEngine's
// lag lane keeps its own searches, one per concurrent caller.)
class BaselineAnswers {
 public:
  explicit BaselineAnswers(std::vector<Tuple> sorted_solutions);
  // Borrows `g`; it must outlive this object.
  BaselineAnswers(const ColoredGraph& g, const fo::Query& query);

  bool Test(const Tuple& tuple) const;
  std::optional<Tuple> Next(const Tuple& from) const;

 private:
  const std::vector<Tuple> solutions_;  // empty when lazy
  mutable std::mutex mu_;
  const std::unique_ptr<BacktrackingEnumerator> search_;  // guarded by mu_
};

}  // namespace nwd

#endif  // NWD_BASELINE_NAIVE_ENUM_H_
