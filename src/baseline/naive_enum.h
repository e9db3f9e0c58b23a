// Baseline evaluation strategies the paper's engine is compared against
// (experiments E1, E2, E10), and BaselineAnswers, the engines' one
// correctness fallback.
//
// BacktrackingEnumerator assigns the free variables left to right and
// prunes a partial assignment as soon as the formula is falsified under
// three-valued (Kleene) evaluation — already much better than testing all
// n^k tuples, and the honest "what you would do without the paper". A
// dist atom is decided from one BFS ball per anchor: the search keeps the
// last BFS it ran for the rest of the public call, so every candidate
// checked against the same anchor reads its distance off that ball.

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
  // Borrows `g`; it must outlive the search and must not change during a
  // call (the remembered ball lives for one call of AllSolutions,
  // Enumerate or Next; edits between calls are fine).
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

  // BFS runs the pruning has made since construction (the final check of
  // each answer runs in the naive evaluator and is not counted).
  int64_t bfs_runs() const { return bfs_runs_; }

 private:
  // Kleene evaluation: -1 false, 0 unknown, +1 true, given that variables
  // with env[v] != kUnbound are assigned.
  int Partial(const fo::FormulaPtr& f, std::vector<Vertex>* env);

  // Distance between u = env[atom.var1] and v = env[atom.var2], or -1 when
  // it exceeds the atom's bound, read off the remembered ball when that
  // ball's source is u or v and its radius covers the bound. Otherwise
  // runs one BFS from the endpoint bound at the earlier free position, at
  // the atom's bound, and remembers it.
  int64_t Distance(const fo::Formula& atom, Vertex u, Vertex v);

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
  size_t env_size_;  // covers every variable id of the query
  // Per variable id: its position among the free variables (SIZE_MAX for
  // none).
  std::vector<size_t> position_;
  fo::NaiveEvaluator eval_;
  // The remembered ball: scratch_ holds the BFS from ball_source_ at
  // ball_radius_ while ball_source_ != kUnbound. Cleared at the start of
  // every call, so a graph edited or rebound between calls never serves
  // it.
  BfsScratch scratch_;
  Vertex ball_source_ = fo::kUnbound;
  int ball_radius_ = 0;
  int64_t bfs_runs_ = 0;
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
