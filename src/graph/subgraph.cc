#include "graph/subgraph.h"

#include <algorithm>

#include "graph/bfs.h"
#include "graph/builder.h"
#include "util/budget.h"
#include "util/check.h"

namespace nwd {

Vertex SubgraphView::ToLocal(Vertex global) const {
  const auto it =
      std::lower_bound(to_global.begin(), to_global.end(), global);
  if (it == to_global.end() || *it != global) return -1;
  return static_cast<Vertex>(it - to_global.begin());
}

namespace {

// G[vertices]; std::nullopt once a non-null `budget` trips (see
// InduceSubgraphExcluding).
std::optional<SubgraphView> Induce(const ColoredGraph& g,
                                   std::span<const Vertex> vertices,
                                   const ResourceBudget* budget) {
  NWD_DCHECK(std::is_sorted(vertices.begin(), vertices.end()));
  SubgraphView view;
  view.to_global.assign(vertices.begin(), vertices.end());

  GraphBuilder builder(static_cast<int64_t>(vertices.size()), g.NumColors());
  int64_t pending = 0;  // scanned arcs not yet charged
  for (size_t local = 0; local < vertices.size(); ++local) {
    const Vertex global = vertices[local];
    for (Vertex u : g.Neighbors(global)) {
      if (budget != nullptr && ++pending == BfsScratch::kChargeChunk) {
        pending = 0;
        if (!budget->ChargeWork(BfsScratch::kChargeChunk)) return std::nullopt;
      }
      if (u <= global) continue;  // each edge once
      const Vertex u_local = view.ToLocal(u);
      if (u_local >= 0) builder.AddEdge(static_cast<Vertex>(local), u_local);
    }
    for (int c = 0; c < g.NumColors(); ++c) {
      if (g.HasColor(global, c)) builder.SetColor(static_cast<Vertex>(local), c);
    }
  }
  if (budget != nullptr && pending > 0 && !budget->ChargeWork(pending)) {
    return std::nullopt;
  }
  view.graph = std::move(builder).Build();
  return view;
}

}  // namespace

SubgraphView InduceSubgraph(const ColoredGraph& g,
                            std::span<const Vertex> vertices) {
  return *Induce(g, vertices, /*budget=*/nullptr);
}

std::optional<SubgraphView> InduceSubgraphExcluding(
    const ColoredGraph& g, std::span<const Vertex> vertices, Vertex excluded,
    const ResourceBudget* budget) {
  std::vector<Vertex> remaining;
  remaining.reserve(vertices.size());
  for (Vertex v : vertices) {
    if (v != excluded) remaining.push_back(v);
  }
  return Induce(g, std::span<const Vertex>(remaining), budget);
}

}  // namespace nwd
