#include "cover/neighborhood_cover.h"

#include <algorithm>

#include "graph/bfs.h"
#include "graph/stats.h"
#include "util/budget.h"
#include "util/check.h"

namespace nwd {

NeighborhoodCover NeighborhoodCover::Build(const ColoredGraph& g, int radius,
                                           const ResourceBudget* budget) {
  NWD_CHECK_GE(radius, 1);
  const int64_t n = g.NumVertices();
  NeighborhoodCover cover;
  cover.assigned_bag_.assign(static_cast<size_t>(n), -1);
  if (n == 0) {
    cover.assigned_offsets_.assign(1, 0);
    cover.containing_offsets_.assign(1, 0);
    cover.complete_ = true;
    return cover;
  }

  // Reverse degeneracy order: high-core vertices open bags first, so hub
  // balls cover many leaves before the leaves are considered.
  const DegeneracyResult degeneracy = DegeneracyOrder(g);
  std::vector<Vertex> order(degeneracy.order.rbegin(),
                            degeneracy.order.rend());

  // Per-bag assigned counts, kept for the counting-sort pass below.
  std::vector<int64_t> assigned_counts;

  BfsScratch scratch(n);
  cover.bag_values_.reserve(static_cast<size_t>(n));
  for (Vertex center : order) {
    if (cover.assigned_bag_[center] != -1) continue;
    const int64_t bag_id = static_cast<int64_t>(cover.centers_.size());
    // Single BFS to distance 2r, appended straight into the bag arena;
    // members with distance <= r become the vertices this bag is
    // canonical for. The BFS charges each dequeued vertex and scanned
    // edge, so on dense inputs the budget trips inside the ball instead
    // of after it — a tripped build returns immediately with
    // complete() == false and its partial ball rolled back.
    const int64_t added = scratch.AppendNeighborhood(
        g, center, 2 * radius, &cover.bag_values_, budget);
    if (added < 0) return cover;
    const std::span<const Vertex> members(
        cover.bag_values_.data() + cover.bag_offsets_.back(),
        static_cast<size_t>(added));
    int64_t assigned = 0;
    for (Vertex u : members) {
      if (scratch.DistanceTo(u) <= radius && cover.assigned_bag_[u] == -1) {
        cover.assigned_bag_[u] = bag_id;
        ++assigned;
      }
    }
    NWD_CHECK_GT(assigned, 0);  // at least `center` itself
    assigned_counts.push_back(assigned);
    cover.total_bag_size_ += added;
    cover.bag_offsets_.push_back(cover.bag_offsets_.back() + added);
    cover.centers_.push_back(center);
  }

  cover.RebuildDerivedPlanes();
  cover.complete_ = true;
  return cover;
}

void NeighborhoodCover::RebuildDerivedPlanes() {
  const int64_t n = static_cast<int64_t>(assigned_bag_.size());
  const int64_t num_bags = NumBags();
  total_bag_size_ = static_cast<int64_t>(bag_values_.size());

  // assigned_vertices_ rows by counting sort: offsets from the per-bag
  // counts, then fill in ascending vertex order so each row comes out
  // sorted.
  assigned_offsets_.assign(static_cast<size_t>(num_bags) + 1, 0);
  for (Vertex v = 0; v < n; ++v) {
    const int64_t bag = assigned_bag_[static_cast<size_t>(v)];
    NWD_CHECK_NE(bag, -1);
    ++assigned_offsets_[static_cast<size_t>(bag) + 1];
  }
  for (int64_t b = 0; b < num_bags; ++b) {
    assigned_offsets_[static_cast<size_t>(b) + 1] +=
        assigned_offsets_[static_cast<size_t>(b)];
  }
  NWD_CHECK_EQ(assigned_offsets_[static_cast<size_t>(num_bags)], n);
  assigned_values_.resize(static_cast<size_t>(n));
  std::vector<int64_t> cursor(assigned_offsets_.begin(),
                              assigned_offsets_.end() - 1);
  for (Vertex v = 0; v < n; ++v) {
    const int64_t bag = assigned_bag_[static_cast<size_t>(v)];
    assigned_values_[static_cast<size_t>(
        cursor[static_cast<size_t>(bag)]++)] = v;
  }

  // bags_containing_ rows by the same two passes over the bag arena:
  // count memberships per vertex, prefix-sum, then fill bag ids in
  // ascending bag order so each row comes out sorted.
  degree_ = 0;
  containing_offsets_.assign(static_cast<size_t>(n) + 1, 0);
  for (const Vertex v : bag_values_) {
    ++containing_offsets_[static_cast<size_t>(v) + 1];
  }
  for (Vertex v = 0; v < n; ++v) {
    degree_ = std::max(degree_,
                       containing_offsets_[static_cast<size_t>(v) + 1]);
    containing_offsets_[static_cast<size_t>(v) + 1] +=
        containing_offsets_[static_cast<size_t>(v)];
  }
  containing_values_.resize(
      static_cast<size_t>(containing_offsets_[static_cast<size_t>(n)]));
  cursor.assign(containing_offsets_.begin(), containing_offsets_.end() - 1);
  for (int64_t b = 0; b < num_bags; ++b) {
    for (const Vertex v : Bag(b)) {
      containing_values_[static_cast<size_t>(
          cursor[static_cast<size_t>(v)]++)] = b;
    }
  }
}

void NeighborhoodCover::ApplyPatch(
    const std::vector<BagPatch>& patches,
    const std::vector<std::pair<Vertex, int64_t>>& reassign) {
  NWD_CHECK(complete_) << "patching a budget-tripped cover";
  const int64_t old_bags = NumBags();

  // Splice the bag arena: replaced rows take their patch contents, the
  // rest are copied through, appended bags (bag == -1) go at the end in
  // patch order.
  std::vector<const BagPatch*> replacement(static_cast<size_t>(old_bags),
                                           nullptr);
  std::vector<const BagPatch*> appends;
  for (const BagPatch& patch : patches) {
    if (patch.bag < 0) {
      NWD_CHECK_GE(patch.center, 0);
      appends.push_back(&patch);
      continue;
    }
    NWD_CHECK_LT(patch.bag, old_bags);
    replacement[static_cast<size_t>(patch.bag)] = &patch;
  }
  std::vector<int64_t> new_offsets;
  new_offsets.reserve(static_cast<size_t>(old_bags) + appends.size() + 1);
  new_offsets.push_back(0);
  std::vector<Vertex> new_values;
  new_values.reserve(bag_values_.size());
  for (int64_t b = 0; b < old_bags; ++b) {
    if (replacement[static_cast<size_t>(b)] != nullptr) {
      const std::vector<Vertex>& members =
          replacement[static_cast<size_t>(b)]->members;
      NWD_DCHECK(std::is_sorted(members.begin(), members.end()));
      new_values.insert(new_values.end(), members.begin(), members.end());
    } else {
      const std::span<const Vertex> members = Bag(b);
      new_values.insert(new_values.end(), members.begin(), members.end());
    }
    new_offsets.push_back(static_cast<int64_t>(new_values.size()));
  }
  for (const BagPatch* patch : appends) {
    NWD_DCHECK(std::is_sorted(patch->members.begin(), patch->members.end()));
    new_values.insert(new_values.end(), patch->members.begin(),
                      patch->members.end());
    new_offsets.push_back(static_cast<int64_t>(new_values.size()));
    centers_.push_back(patch->center);
  }
  bag_offsets_ = std::move(new_offsets);
  bag_values_ = std::move(new_values);

  for (const auto& [v, bag] : reassign) {
    NWD_CHECK(bag >= 0 && bag < NumBags());
    assigned_bag_[static_cast<size_t>(v)] = bag;
  }

  RebuildDerivedPlanes();
  ++version_;
}

bool NeighborhoodCover::InBag(int64_t bag, Vertex v) const {
  const std::span<const Vertex> members = Bag(bag);
  return std::binary_search(members.begin(), members.end(), v);
}

Vertex NeighborhoodCover::NextInBag(int64_t bag, Vertex v) const {
  const std::span<const Vertex> members = Bag(bag);
  const auto it = std::lower_bound(members.begin(), members.end(), v);
  return it == members.end() ? -1 : *it;
}

}  // namespace nwd
