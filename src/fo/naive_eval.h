// Direct (model-theoretic) evaluation of FO+ formulas on colored graphs.
//
// This is the semantic ground truth every other evaluator in the library is
// tested against, and the baseline the benchmarks compare with. Quantifiers
// loop over the whole domain, so evaluation costs O(n^{qr(phi)} * |phi|)
// — exactly the cost the paper's machinery avoids.

#ifndef NWD_FO_NAIVE_EVAL_H_
#define NWD_FO_NAIVE_EVAL_H_

#include <vector>

#include "fo/ast.h"
#include "graph/bfs.h"
#include "graph/colored_graph.h"
#include "util/lex.h"

namespace nwd {
namespace fo {

// Variable environment: env[v] is the vertex assigned to variable id v, or
// kUnbound. Sized to cover the largest variable id in the formula.
inline constexpr Vertex kUnbound = -1;

class NaiveEvaluator {
 public:
  // The evaluator borrows `graph`; it must outlive the evaluator.
  explicit NaiveEvaluator(const ColoredGraph& graph);

  // Borrows `graph` instead, keeping the BFS scratch (grown if `graph` is
  // larger), so one evaluator can serve successive graph versions.
  void Rebind(const ColoredGraph& graph);

  // Evaluates f under `env` (modified in place during quantification but
  // restored before returning).
  bool Evaluate(const FormulaPtr& f, std::vector<Vertex>* env);

  // Tests whether `tuple` (aligned with query.free_vars) is a solution.
  bool TestTuple(const Query& query, const Tuple& tuple);

  // All solutions of `query`, in lexicographic order. O(n^k) tests.
  std::vector<Tuple> AllSolutions(const Query& query);

  const ColoredGraph& graph() const { return *graph_; }

 private:
  bool EvalDist(Vertex u, Vertex v, int64_t bound);

  const ColoredGraph* graph_;
  BfsScratch scratch_;
};

}  // namespace fo
}  // namespace nwd

#endif  // NWD_FO_NAIVE_EVAL_H_
