// Induced subgraphs with id maps.
//
// The enumeration algorithm constantly dives into induced subgraphs G[X]
// (bags of a neighborhood cover) and G[X \ {s_X}] (after a Splitter move).
// A SubgraphView packages the induced ColoredGraph together with the
// local-id <-> global-id maps. Local ids are assigned in ascending global
// order, so the local linear order agrees with the restriction of the global
// one — which is what keeps lexicographic "smallest solution" computations
// meaningful across recursion levels.

#ifndef NWD_GRAPH_SUBGRAPH_H_
#define NWD_GRAPH_SUBGRAPH_H_

#include <initializer_list>
#include <optional>
#include <span>
#include <vector>

#include "graph/colored_graph.h"

namespace nwd {

class ResourceBudget;

// An induced subgraph with order-preserving id translation.
struct SubgraphView {
  ColoredGraph graph;
  // to_global[local] = global vertex id; strictly increasing.
  std::vector<Vertex> to_global;

  // Global -> local translation by binary search; -1 if absent.
  Vertex ToLocal(Vertex global) const;

  Vertex ToGlobal(Vertex local) const { return to_global[local]; }
};

// The substructure of `g` induced by `vertices` (must be sorted, unique,
// in range). Colors are restricted accordingly.
SubgraphView InduceSubgraph(const ColoredGraph& g,
                            std::span<const Vertex> vertices);

// Induces on `vertices` minus one excluded vertex (used for bags after a
// Splitter move: G[X \ {s_X}]). With a non-null `budget`, every scanned
// arc is one work unit, charged in BfsScratch::kChargeChunk batches; once
// the budget trips this returns std::nullopt without building the
// subgraph.
std::optional<SubgraphView> InduceSubgraphExcluding(
    const ColoredGraph& g, std::span<const Vertex> vertices, Vertex excluded,
    const ResourceBudget* budget);

// Braced-list conveniences (a span cannot bind to {a, b, c} directly).
inline SubgraphView InduceSubgraph(const ColoredGraph& g,
                                   std::initializer_list<Vertex> vertices) {
  return InduceSubgraph(
      g, std::span<const Vertex>(vertices.begin(), vertices.size()));
}

inline SubgraphView InduceSubgraphExcluding(
    const ColoredGraph& g, std::initializer_list<Vertex> vertices,
    Vertex excluded) {
  return *InduceSubgraphExcluding(
      g, std::span<const Vertex>(vertices.begin(), vertices.size()),
      excluded, /*budget=*/nullptr);
}

}  // namespace nwd

#endif  // NWD_GRAPH_SUBGRAPH_H_
