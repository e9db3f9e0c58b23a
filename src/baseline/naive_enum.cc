#include "baseline/naive_enum.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "fo/analysis.h"
#include "util/check.h"

namespace nwd {
namespace {

size_t EnvSize(const fo::Query& query) {
  fo::Var top = std::max(fo::MaxVarId(query.formula), 0);
  for (fo::Var v : query.free_vars) top = std::max(top, v);
  return static_cast<size_t>(top) + 1;
}

}  // namespace

BacktrackingEnumerator::BacktrackingEnumerator(const ColoredGraph& g,
                                               const fo::Query& query)
    : graph_(&g),
      query_(query),
      env_size_(EnvSize(query_)),
      position_(env_size_, SIZE_MAX),
      eval_(g),
      scratch_(g.NumVertices()) {
  for (size_t i = 0; i < query_.free_vars.size(); ++i) {
    position_[query_.free_vars[i]] = i;
  }
}

void BacktrackingEnumerator::Rebind(const ColoredGraph& g) {
  graph_ = &g;
  eval_.Rebind(g);
  scratch_.EnsureCapacity(g.NumVertices());
}

int64_t BacktrackingEnumerator::Distance(const fo::Formula& atom, Vertex u,
                                         Vertex v) {
  if (ball_radius_ < atom.dist_bound ||
      (ball_source_ != u && ball_source_ != v)) {
    // Distance is symmetric: anchor at the earlier position, whose value
    // stays fixed while the later one runs through its candidates.
    const bool u_first = position_[atom.var1] <= position_[atom.var2];
    ball_source_ = u_first ? u : v;
    ball_radius_ = static_cast<int>(atom.dist_bound);
    scratch_.Explore(*graph_, ball_source_, ball_radius_);
    ++bfs_runs_;
  }
  const int64_t d = scratch_.DistanceTo(ball_source_ == u ? v : u);
  return d <= atom.dist_bound ? d : -1;
}

int BacktrackingEnumerator::Partial(const fo::FormulaPtr& f,
                                    std::vector<Vertex>* env) {
  using fo::NodeKind;
  switch (f->kind) {
    case NodeKind::kTrue:
      return 1;
    case NodeKind::kFalse:
      return -1;
    case NodeKind::kEdge: {
      const Vertex u = (*env)[f->var1];
      const Vertex v = (*env)[f->var2];
      if (u == fo::kUnbound || v == fo::kUnbound) return 0;
      return graph_->HasEdge(u, v) ? 1 : -1;
    }
    case NodeKind::kColor: {
      const Vertex u = (*env)[f->var1];
      if (u == fo::kUnbound) return 0;
      return graph_->HasColor(u, f->color) ? 1 : -1;
    }
    case NodeKind::kEquals: {
      const Vertex u = (*env)[f->var1];
      const Vertex v = (*env)[f->var2];
      if (u == fo::kUnbound || v == fo::kUnbound) return 0;
      return u == v ? 1 : -1;
    }
    case NodeKind::kDistLeq: {
      const Vertex u = (*env)[f->var1];
      const Vertex v = (*env)[f->var2];
      if (u == fo::kUnbound || v == fo::kUnbound) return 0;
      if (u == v) return 1;
      return Distance(*f, u, v) >= 0 ? 1 : -1;
    }
    case NodeKind::kNot:
      return -Partial(f->child1, env);
    case NodeKind::kAnd: {
      const int a = Partial(f->child1, env);
      if (a == -1) return -1;
      const int b = Partial(f->child2, env);
      if (b == -1) return -1;
      return (a == 1 && b == 1) ? 1 : 0;
    }
    case NodeKind::kOr: {
      const int a = Partial(f->child1, env);
      if (a == 1) return 1;
      const int b = Partial(f->child2, env);
      if (b == 1) return 1;
      return (a == -1 && b == -1) ? -1 : 0;
    }
    case NodeKind::kExists:
    case NodeKind::kForall:
      // Quantified subformulas are only decided once all free variables are
      // bound (then the exact evaluator takes over).
      return 0;
  }
  return 0;
}

void BacktrackingEnumerator::EnumerateImpl(
    size_t pos, std::vector<Vertex>* env,
    const std::function<bool(const Tuple&)>& callback, bool* stopped) {
  if (*stopped) return;
  const std::vector<fo::Var>& free_vars = query_.free_vars;
  if (pos == free_vars.size()) {
    if (eval_.Evaluate(query_.formula, env)) {
      Tuple t(free_vars.size());
      for (size_t i = 0; i < free_vars.size(); ++i) t[i] = (*env)[free_vars[i]];
      if (!callback(t)) *stopped = true;
    }
    return;
  }
  for (Vertex v = 0; v < graph_->NumVertices() && !*stopped; ++v) {
    (*env)[free_vars[pos]] = v;
    if (Partial(query_.formula, env) != -1) {
      EnumerateImpl(pos + 1, env, callback, stopped);
    }
  }
  (*env)[free_vars[pos]] = fo::kUnbound;
}

void BacktrackingEnumerator::Enumerate(
    const std::function<bool(const Tuple&)>& callback) {
  ball_source_ = fo::kUnbound;
  std::vector<Vertex> env(env_size_, fo::kUnbound);
  bool stopped = false;
  if (query_.free_vars.empty()) {
    if (eval_.Evaluate(query_.formula, &env)) callback({});
    return;
  }
  EnumerateImpl(0, &env, callback, &stopped);
}

std::vector<Tuple> BacktrackingEnumerator::AllSolutions() {
  std::vector<Tuple> out;
  Enumerate([&out](const Tuple& t) {
    out.push_back(t);
    return true;
  });
  return out;
}

bool BacktrackingEnumerator::NextImpl(size_t pos, const Tuple& from,
                                      bool tight, std::vector<Vertex>* env,
                                      Tuple* out) {
  const std::vector<fo::Var>& free_vars = query_.free_vars;
  if (pos == free_vars.size()) {
    if (!eval_.Evaluate(query_.formula, env)) return false;
    out->resize(free_vars.size());
    for (size_t i = 0; i < free_vars.size(); ++i) {
      (*out)[i] = (*env)[free_vars[i]];
    }
    return true;
  }
  const Vertex start = tight ? from[pos] : 0;
  for (Vertex v = start; v < graph_->NumVertices(); ++v) {
    (*env)[free_vars[pos]] = v;
    if (Partial(query_.formula, env) != -1) {
      if (NextImpl(pos + 1, from, tight && v == from[pos], env, out)) {
        return true;
      }
    }
  }
  (*env)[free_vars[pos]] = fo::kUnbound;
  return false;
}

std::optional<Tuple> BacktrackingEnumerator::Next(const Tuple& from) {
  NWD_CHECK_EQ(from.size(), query_.free_vars.size());
  ball_source_ = fo::kUnbound;
  std::vector<Vertex> env(env_size_, fo::kUnbound);
  Tuple out;
  if (NextImpl(0, from, /*tight=*/true, &env, &out)) return out;
  return std::nullopt;
}

BaselineAnswers::BaselineAnswers(std::vector<Tuple> sorted_solutions)
    : solutions_(std::move(sorted_solutions)) {}

BaselineAnswers::BaselineAnswers(const ColoredGraph& g, const fo::Query& query)
    : search_(std::make_unique<BacktrackingEnumerator>(g, query)) {}

bool BaselineAnswers::Test(const Tuple& tuple) const {
  // std::vector's operator< is the lexicographic order of equal arities.
  if (search_ == nullptr) {
    return std::binary_search(solutions_.begin(), solutions_.end(), tuple);
  }
  std::lock_guard<std::mutex> lock(mu_);
  return search_->Test(tuple);
}

std::optional<Tuple> BaselineAnswers::Next(const Tuple& from) const {
  if (search_ == nullptr) {
    const auto it =
        std::lower_bound(solutions_.begin(), solutions_.end(), from);
    if (it == solutions_.end()) return std::nullopt;
    return *it;
  }
  std::lock_guard<std::mutex> lock(mu_);
  return search_->Next(from);
}

}  // namespace nwd
