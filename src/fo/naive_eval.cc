#include "fo/naive_eval.h"

#include <algorithm>

#include "fo/analysis.h"
#include "util/check.h"

namespace nwd {
namespace fo {

NaiveEvaluator::NaiveEvaluator(const ColoredGraph& graph)
    : graph_(&graph), scratch_(graph.NumVertices()) {}

void NaiveEvaluator::Rebind(const ColoredGraph& graph) {
  graph_ = &graph;
  scratch_.EnsureCapacity(graph.NumVertices());
}

bool NaiveEvaluator::EvalDist(Vertex u, Vertex v, int64_t bound) {
  if (u == v) return true;
  // Bounded BFS from u; BfsScratch keeps this O(|N_bound(u)|).
  scratch_.Neighborhood(*graph_, u, static_cast<int>(bound));
  return scratch_.DistanceTo(v) >= 0;
}

bool NaiveEvaluator::Evaluate(const FormulaPtr& f, std::vector<Vertex>* env) {
  switch (f->kind) {
    case NodeKind::kTrue:
      return true;
    case NodeKind::kFalse:
      return false;
    case NodeKind::kEdge: {
      const Vertex u = (*env)[f->var1];
      const Vertex v = (*env)[f->var2];
      NWD_DCHECK(u != kUnbound && v != kUnbound);
      return graph_->HasEdge(u, v);
    }
    case NodeKind::kColor: {
      const Vertex u = (*env)[f->var1];
      NWD_DCHECK(u != kUnbound);
      return graph_->HasColor(u, f->color);
    }
    case NodeKind::kEquals: {
      const Vertex u = (*env)[f->var1];
      const Vertex v = (*env)[f->var2];
      NWD_DCHECK(u != kUnbound && v != kUnbound);
      return u == v;
    }
    case NodeKind::kDistLeq: {
      const Vertex u = (*env)[f->var1];
      const Vertex v = (*env)[f->var2];
      NWD_DCHECK(u != kUnbound && v != kUnbound);
      return EvalDist(u, v, f->dist_bound);
    }
    case NodeKind::kNot:
      return !Evaluate(f->child1, env);
    case NodeKind::kAnd:
      return Evaluate(f->child1, env) && Evaluate(f->child2, env);
    case NodeKind::kOr:
      return Evaluate(f->child1, env) || Evaluate(f->child2, env);
    case NodeKind::kExists:
    case NodeKind::kForall: {
      const Var qv = f->quantified_var;
      if (static_cast<size_t>(qv) >= env->size()) {
        env->resize(static_cast<size_t>(qv) + 1, kUnbound);
      }
      const Vertex saved = (*env)[qv];
      const bool is_exists = f->kind == NodeKind::kExists;
      bool result = !is_exists;

      // Guard peephole: for "exists v (C(v) & ...)" it suffices to range
      // over C's members. This is what makes the Lemma 2.2 rewrites
      // (exists t (P_R(t) & ...)) affordable to evaluate directly.
      const std::vector<Vertex>* candidates = nullptr;
      if (is_exists) {
        // Collect color guards anywhere in the conjunction tree.
        std::vector<const Formula*> stack{f->child1.get()};
        while (!stack.empty()) {
          const Formula* node = stack.back();
          stack.pop_back();
          if (node->kind == NodeKind::kAnd) {
            stack.push_back(node->child1.get());
            stack.push_back(node->child2.get());
          } else if (node->kind == NodeKind::kColor && node->var1 == qv) {
            const std::vector<Vertex>& members =
                graph_->ColorMembers(node->color);
            if (candidates == nullptr || members.size() < candidates->size()) {
              candidates = &members;
            }
          }
        }
      }

      if (candidates != nullptr) {
        for (Vertex w : *candidates) {
          (*env)[qv] = w;
          if (Evaluate(f->child1, env)) {
            result = true;
            break;
          }
        }
      } else {
        for (Vertex w = 0; w < graph_->NumVertices(); ++w) {
          (*env)[qv] = w;
          const bool sub = Evaluate(f->child1, env);
          if (is_exists && sub) {
            result = true;
            break;
          }
          if (!is_exists && !sub) {
            result = false;
            break;
          }
        }
      }
      (*env)[qv] = saved;
      return result;
    }
  }
  return false;
}

bool NaiveEvaluator::TestTuple(const Query& query, const Tuple& tuple) {
  NWD_CHECK_EQ(tuple.size(), query.free_vars.size());
  // A free variable need not occur in the formula; size for both.
  Var max_var = std::max(MaxVarId(query.formula), 0);
  for (Var v : query.free_vars) max_var = std::max(max_var, v);
  std::vector<Vertex> env(static_cast<size_t>(max_var) + 1, kUnbound);
  for (size_t i = 0; i < tuple.size(); ++i) {
    NWD_CHECK(tuple[i] >= 0 && tuple[i] < graph_->NumVertices())
        << "tuple component " << tuple[i] << " out of range";
    env[query.free_vars[i]] = tuple[i];
  }
  return Evaluate(query.formula, &env);
}

std::vector<Tuple> NaiveEvaluator::AllSolutions(const Query& query) {
  std::vector<Tuple> solutions;
  const int64_t n = graph_->NumVertices();
  if (query.free_vars.empty()) {
    // Sentence: one empty solution if true.
    std::vector<Vertex> env(
        static_cast<size_t>(std::max(MaxVarId(query.formula), 0)) + 1,
        kUnbound);
    if (Evaluate(query.formula, &env)) solutions.push_back({});
    return solutions;
  }
  if (n == 0) return solutions;
  Tuple t = LexMin(query.arity());
  do {
    if (TestTuple(query, t)) solutions.push_back(t);
  } while (LexIncrement(&t, n));
  return solutions;
}

}  // namespace fo
}  // namespace nwd
