// (r, 2r)-neighborhood covers (Definition 4.3, Theorem 4.4).
//
// An r-neighborhood cover is a family X of vertex sets ("bags") such that
// every vertex's r-ball is contained in some bag; it is an (r, 2r)-cover if
// additionally every bag fits inside some 2r-ball. The paper invokes
// [GKS'17, Thm 6.2] to get covers of degree <= n^eps on nowhere dense
// classes in pseudo-linear time.
//
// Substitution (see DESIGN.md): we build covers with the classic greedy
// sweep — scan vertices in reverse degeneracy order; whenever a vertex v is
// not yet r-covered, open the bag N_2r(v) with center v and declare every
// u in N_r(v) covered by it (N_r(u) is then inside N_2r(v)). This yields a
// valid (r, 2r)-cover on *any* graph; on the sparse classes this library
// targets its degree is empirically small (measured by experiment E6 and
// reported by Degree()).
//
// Storage is flat CSR throughout: bags, the per-bag assigned lists, and
// the per-vertex bags-containing lists each live in one offsets/values
// arena pair (bags are appended by the BFS directly, the other two are
// built by a two-pass counting sort). No per-bag or per-vertex heap
// vectors — the pointer-chasing they cost at n = 2^16 is what pushed the
// measured preprocessing exponent above the Theorem 2.3 band (see
// EXPERIMENTS.md E15).

#ifndef NWD_COVER_NEIGHBORHOOD_COVER_H_
#define NWD_COVER_NEIGHBORHOOD_COVER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/colored_graph.h"

namespace nwd {

class ResourceBudget;

class NeighborhoodCover {
 public:
  // Builds an (radius, 2*radius)-cover of g. radius >= 1.
  //
  // When `budget` is non-null, every vertex dequeued and edge scanned by
  // the ball BFS charges edge work (in BfsScratch::kChargeChunk batches,
  // bounding the overshoot past the cap) and construction stops as soon as
  // the budget trips; the returned cover then has complete() == false and
  // must be discarded — consumers NWD_CHECK the flag.
  static NeighborhoodCover Build(const ColoredGraph& g, int radius,
                                 const ResourceBudget* budget = nullptr);

  // True iff the build ran to completion (every vertex assigned, degree
  // computed). A budget-tripped build leaves this false; such a cover
  // carries only the bags opened before the trip and must not be consumed.
  bool complete() const { return complete_; }

  int64_t NumBags() const { return static_cast<int64_t>(centers_.size()); }

  // Members of bag X, sorted ascending (a CSR row of the bag arena).
  std::span<const Vertex> Bag(int64_t bag) const {
    return Row(bag_offsets_, bag_values_, bag);
  }

  // The center c_X with Bag(X) contained in N_2r(c_X).
  Vertex Center(int64_t bag) const { return centers_[bag]; }

  // X(v): the canonical bag with N_r(v) inside it (Definition 4.3 text).
  int64_t AssignedBag(Vertex v) const { return assigned_bag_[v]; }

  // {v : X(v) = bag}, sorted — the per-bag lists of [GKS'17, Lemma 6.10]
  // that Step 3 of the preprocessing phase needs.
  std::span<const Vertex> AssignedVertices(int64_t bag) const {
    return Row(assigned_offsets_, assigned_values_, bag);
  }

  // Bags containing v, ascending. |BagsContaining(v)| <= Degree().
  std::span<const int64_t> BagsContaining(Vertex v) const {
    return Row(containing_offsets_, containing_values_,
               static_cast<int64_t>(v));
  }

  // Membership test by binary search: O(log |X|).
  bool InBag(int64_t bag, Vertex v) const;

  // Smallest bag member >= v, or -1 (the Storing-Theorem-style probe the
  // answering phase uses to find b_X in Case I/II of Section 5.2.2).
  Vertex NextInBag(int64_t bag, Vertex v) const;

  // delta(X): the maximum number of bags meeting at one vertex.
  int64_t Degree() const { return degree_; }

  // sum over bags of |X| (the pseudo-linearity certificate, see Eq. (1)).
  int64_t TotalBagSize() const { return total_bag_size_; }

  // --- Dynamic-update plane: versioned row patching ---------------------

  // One bag-row replacement: the bag's new 2r-ball after a graph edit.
  // bag == -1 appends a fresh bag (center required); appended bags are
  // addressed as NumBags() + (index among the appends, in patch order).
  struct BagPatch {
    int64_t bag = -1;
    Vertex center = -1;            // used when bag == -1
    std::vector<Vertex> members;   // sorted ascending
  };

  // Replaces the named bag rows, applies the assignment changes
  // (vertex -> bag id, new-bag addressing as above), then rebuilds every
  // derived plane — assigned rows, bags-containing rows, degree, total
  // size — with the same two counting-sort passes Build() uses, but no
  // BFS. Requires complete(); bumps version(). Unlike the freshly built
  // cover, a patched cover may carry bags with no assigned vertices (all
  // their members were re-assigned elsewhere); every consumer handles the
  // empty row.
  void ApplyPatch(const std::vector<BagPatch>& patches,
                  const std::vector<std::pair<Vertex, int64_t>>& reassign);

  // Starts at 0; ApplyPatch increments it. Consumers caching per-bag
  // derivations key them on (bag id, version).
  int64_t version() const { return version_; }

 private:
  template <typename T>
  static std::span<const T> Row(const std::vector<int64_t>& offsets,
                                const std::vector<T>& values, int64_t row) {
    const int64_t begin = offsets[static_cast<size_t>(row)];
    const int64_t end = offsets[static_cast<size_t>(row) + 1];
    return std::span<const T>(values.data() + begin,
                              static_cast<size_t>(end - begin));
  }

  bool complete_ = false;
  std::vector<Vertex> centers_;
  std::vector<int64_t> assigned_bag_;
  // CSR arenas. bag_offsets_/assigned_offsets_ have NumBags() + 1 entries,
  // containing_offsets_ has NumVertices() + 1.
  std::vector<int64_t> bag_offsets_{0};
  std::vector<Vertex> bag_values_;
  std::vector<int64_t> assigned_offsets_;
  std::vector<Vertex> assigned_values_;
  std::vector<int64_t> containing_offsets_;
  std::vector<int64_t> containing_values_;
  int64_t degree_ = 0;
  int64_t total_bag_size_ = 0;
  int64_t version_ = 0;

  // Rebuilds assigned_* and containing_* (plus degree_/total_bag_size_)
  // from assigned_bag_ and the bag arena. Shared by ApplyPatch.
  void RebuildDerivedPlanes();
};

}  // namespace nwd

#endif  // NWD_COVER_NEIGHBORHOOD_COVER_H_
