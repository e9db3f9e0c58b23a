#include "local/distance_oracle.h"

#include <algorithm>
#include <span>

#include "graph/bfs.h"
#include "util/budget.h"
#include "util/check.h"

namespace nwd {
namespace {

// BFS inside the induced subgraph G[members] from `source`, bounded by
// `radius`. Returns distances aligned with `members` (kFar if further).
// `members` must be sorted.
std::vector<int16_t> RestrictedBfs(const ColoredGraph& g,
                                   std::span<const Vertex> members,
                                   Vertex source, int radius, int16_t far) {
  std::vector<int16_t> dist(members.size(), far);
  const auto index_of = [&members](Vertex v) -> int64_t {
    const auto it = std::lower_bound(members.begin(), members.end(), v);
    if (it == members.end() || *it != v) return -1;
    return it - members.begin();
  };
  const int64_t source_index = index_of(source);
  NWD_CHECK_GE(source_index, 0);
  dist[source_index] = 0;
  std::vector<Vertex> queue{source};
  for (size_t head = 0; head < queue.size(); ++head) {
    const Vertex v = queue[head];
    const int16_t dv = dist[index_of(v)];
    if (dv >= radius) continue;
    for (Vertex u : g.Neighbors(v)) {
      const int64_t ui = index_of(u);
      if (ui < 0 || dist[ui] != far) continue;
      dist[ui] = static_cast<int16_t>(dv + 1);
      queue.push_back(u);
    }
  }
  return dist;
}

}  // namespace

DistanceOracle::DistanceOracle(const ColoredGraph& g, int radius,
                               const SplitterStrategy& strategy,
                               Options options)
    : radius_(radius), options_(options), strategy_(&strategy) {
  NWD_CHECK_GE(radius, 1);
  work_budget_ =
      options_.work_budget_multiplier * g.NumVertices() + 4096;
  std::vector<Vertex> identity(static_cast<size_t>(g.NumVertices()));
  for (Vertex v = 0; v < g.NumVertices(); ++v) identity[v] = v;
  root_ = BuildLevel(g, std::move(identity), /*depth=*/0);
}

std::unique_ptr<DistanceOracle::Level> DistanceOracle::BuildLevel(
    ColoredGraph graph, std::vector<Vertex> to_root, int depth) {
  auto level = std::make_unique<Level>();
  level->graph = std::move(graph);
  level->to_root = std::move(to_root);
  ++stats_.levels;
  stats_.max_depth = std::max(stats_.max_depth, depth);
  stats_.vertices_built += level->graph.NumVertices();

  if (stats_.vertices_built > work_budget_) stats_.budget_exhausted = true;
  // The external engine budget cuts construction short the same way the
  // internal work guard does (leaves are still correct BFS answerers),
  // but its trip additionally tells the engine to discard the oracle.
  if (options_.budget != nullptr &&
      !options_.budget->ChargeWork(level->graph.NumVertices())) {
    stats_.budget_exhausted = true;
  }
  if (level->graph.NumVertices() <= options_.small_cutoff ||
      depth >= options_.max_lambda || stats_.budget_exhausted) {
    level->leaf = true;
    return level;
  }

  level->cover =
      NeighborhoodCover::Build(level->graph, radius_, options_.budget);
  if (!level->cover.complete()) {
    // Budget tripped mid-build; do not hang bag structures off the
    // incomplete cover.
    NWD_CHECK(options_.budget != nullptr && options_.budget->Exceeded());
    level->leaf = true;
    return level;
  }
  stats_.total_bags += level->cover.NumBags();
  stats_.cover_degree = std::max(stats_.cover_degree, level->cover.Degree());
  level->bags.resize(static_cast<size_t>(level->cover.NumBags()));

  for (int64_t b = 0; b < level->cover.NumBags(); ++b) {
    if (options_.budget != nullptr && options_.budget->Exceeded()) {
      // Tripped mid-level: answer this level by BFS as a leaf instead of
      // finishing the rest of its bags.
      stats_.budget_exhausted = true;
      level->bags.clear();
      level->leaf = true;
      return level;
    }
    const std::span<const Vertex> members = level->cover.Bag(b);
    Bag& bag = level->bags[static_cast<size_t>(b)];

    // Splitter's reply, chosen among the bag members (global ids so the
    // strategy can use original-graph structure like forest depths).
    std::vector<Vertex> members_root;
    members_root.reserve(members.size());
    for (Vertex v : members) members_root.push_back(level->to_root[v]);
    const Vertex split_root = strategy_->ChooseSplit(
        members_root, level->to_root[level->cover.Center(b)]);
    const auto split_it = std::lower_bound(members_root.begin(),
                                           members_root.end(), split_root);
    NWD_CHECK(split_it != members_root.end() && *split_it == split_root)
        << "strategy returned a vertex outside the ball";
    bag.splitter = members[split_it - members_root.begin()];

    // Distances to s_X within G[X] (the R_i colors of preprocessing
    // Step 4, kept as exact values).
    bag.dist_to_splitter =
        RestrictedBfs(level->graph, members, bag.splitter, radius_, kFar);

    // Recursive structure on X' = X \ {s_X}.
    SubgraphView view =
        InduceSubgraphExcluding(level->graph, members, bag.splitter);
    bag.child_local.resize(members.size());
    int64_t next_local = 0;
    for (size_t i = 0; i < members.size(); ++i) {
      bag.child_local[i] = members[i] == bag.splitter ? -1 : next_local++;
    }
    std::vector<Vertex> child_to_root;
    child_to_root.reserve(view.to_global.size());
    for (Vertex parent_local : view.to_global) {
      child_to_root.push_back(level->to_root[parent_local]);
    }
    bag.child =
        BuildLevel(std::move(view.graph), std::move(child_to_root), depth + 1);
  }
  return level;
}

void DistanceOracle::AttachLiveGraph(const ColoredGraph* live) {
  NWD_CHECK(live != nullptr);
  live_graph_ = live;
  dirty_.assign(static_cast<size_t>(live->NumVertices()), 0);
  num_dirty_ = 0;
}

void DistanceOracle::MarkDirty(std::span<const Vertex> vertices) {
  NWD_CHECK(!dirty_.empty() || vertices.empty())
      << "MarkDirty before AttachLiveGraph";
  for (const Vertex v : vertices) {
    uint8_t& flag = dirty_[static_cast<size_t>(v)];
    num_dirty_ += flag == 0;
    flag = 1;
  }
}

bool DistanceOracle::WithinDistance(Vertex a, Vertex b, int r_query) const {
  NWD_CHECK(r_query >= 0 && r_query <= radius_)
      << "query radius " << r_query << " exceeds preprocessing radius "
      << radius_;
  if (num_dirty_ > 0 && dirty_[static_cast<size_t>(a)] &&
      dirty_[static_cast<size_t>(b)]) {
    // Both endpoints near an edit: the stale structure can be wrong in
    // either direction, so answer by bounded BFS on the live graph. Same
    // thread-local scratch discipline as the leaf path below.
    if (a == b) return true;
    if (r_query <= 0) return false;
    static thread_local BfsScratch scratch(0);
    scratch.EnsureCapacity(live_graph_->NumVertices());
    scratch.Explore(*live_graph_, a, r_query);
    return scratch.DistanceTo(b) >= 0;
  }
  return TestAtLevel(*root_, a, b, r_query);
}

bool DistanceOracle::TestAtLevel(const Level& level, Vertex a, Vertex b,
                                 int r_query) const {
  if (a == b) return true;
  if (r_query <= 0) return false;

  if (level.leaf) {
    // Constant work when the leaf is below small_cutoff; a correct (if
    // slower) fallback when the depth cap was hit. The scratch is
    // thread-local and capacity-growing so steady-state probes never touch
    // the heap (probe_pool_test asserts exactly that).
    static thread_local BfsScratch scratch(0);
    scratch.EnsureCapacity(level.graph.NumVertices());
    scratch.Explore(level.graph, a, r_query);
    return scratch.DistanceTo(b) >= 0;
  }

  const int64_t bag_id = level.cover.AssignedBag(a);
  const std::span<const Vertex> members = level.cover.Bag(bag_id);
  const auto find_index = [&members](Vertex v) -> int64_t {
    const auto it = std::lower_bound(members.begin(), members.end(), v);
    if (it == members.end() || *it != v) return -1;
    return it - members.begin();
  };
  const int64_t ib = find_index(b);
  if (ib < 0) return false;  // N_r(a) is inside the bag, so b is too far
  const int64_t ia = find_index(a);
  NWD_DCHECK(ia >= 0);

  const Bag& bag = level.bags[static_cast<size_t>(bag_id)];
  const int16_t da = bag.dist_to_splitter[static_cast<size_t>(ia)];
  const int16_t db = bag.dist_to_splitter[static_cast<size_t>(ib)];
  if (a == bag.splitter) return db <= r_query;
  if (b == bag.splitter) return da <= r_query;
  // Path through the deleted splitter vertex.
  if (da != kFar && db != kFar && da + db <= r_query) return true;
  // Otherwise the witnessing path (if any) survives in X' = X \ {s_X}.
  return TestAtLevel(*bag.child, bag.child_local[static_cast<size_t>(ia)],
                     bag.child_local[static_cast<size_t>(ib)], r_query);
}

}  // namespace nwd
