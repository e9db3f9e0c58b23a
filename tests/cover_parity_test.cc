// Bit-identity of the flat CSR cover/kernel plane against a retained
// reference implementation (the pre-CSR heap-vector structures and
// stamp-probing kernel computer). The reference mirrors the production
// charging semantics exactly — per-vertex/per-edge work accumulated in
// BfsScratch::kChargeChunk batches — so budget-tripped builds must agree
// too: same bags opened before the trip, same partial assignment, and the
// canonical all-empty kernel shape under both the serial and parallel
// ComputeAllKernels paths at every thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cover/kernel.h"
#include "cover/neighborhood_cover.h"
#include "graph/bfs.h"
#include "graph/stats.h"
#include "tests/property_common.h"
#include "util/budget.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace nwd {
namespace {

// Reference cover: the seed's vector-of-vectors structures, built with the
// same greedy reverse-degeneracy sweep and the same incremental charging
// discipline as NeighborhoodCover::Build.
struct ReferenceCover {
  bool complete = false;
  std::vector<std::vector<Vertex>> bags;
  std::vector<Vertex> centers;
  std::vector<int64_t> assigned_bag;
  std::vector<std::vector<Vertex>> assigned_vertices;
  std::vector<std::vector<int64_t>> bags_containing;
  int64_t degree = 0;
  int64_t total_bag_size = 0;
};

// BFS to `radius` with the same visit order as BfsScratch (FIFO, sorted
// adjacency) and the same chunked charging; returns false on a trip.
bool ReferenceBall(const ColoredGraph& g, Vertex source, int radius,
                   const ResourceBudget* budget, std::vector<Vertex>* ball,
                   std::vector<int64_t>* dist) {
  dist->assign(static_cast<size_t>(g.NumVertices()), -1);
  std::vector<Vertex> queue{source};
  (*dist)[source] = 0;
  int64_t pending = 0;
  for (size_t head = 0; head < queue.size(); ++head) {
    const Vertex v = queue[head];
    const int64_t d = (*dist)[v];
    if (d >= radius) continue;
    if (budget != nullptr && pending >= BfsScratch::kChargeChunk) {
      if (!budget->ChargeWork(pending)) return false;
      pending = 0;
    }
    ++pending;
    for (Vertex u : g.Neighbors(v)) {
      if (budget != nullptr && pending >= BfsScratch::kChargeChunk) {
        if (!budget->ChargeWork(pending)) return false;
        pending = 0;
      }
      ++pending;
      if ((*dist)[u] == -1) {
        (*dist)[u] = d + 1;
        queue.push_back(u);
      }
    }
  }
  if (budget != nullptr && pending > 0 && !budget->ChargeWork(pending)) {
    return false;
  }
  *ball = queue;
  std::sort(ball->begin(), ball->end());
  return true;
}

ReferenceCover BuildReferenceCover(const ColoredGraph& g, int radius,
                                   const ResourceBudget* budget) {
  ReferenceCover cover;
  const int64_t n = g.NumVertices();
  cover.assigned_bag.assign(static_cast<size_t>(n), -1);
  cover.bags_containing.assign(static_cast<size_t>(n), {});
  if (n == 0) {
    cover.complete = true;
    return cover;
  }
  const DegeneracyResult degeneracy = DegeneracyOrder(g);
  std::vector<Vertex> order(degeneracy.order.rbegin(),
                            degeneracy.order.rend());
  std::vector<Vertex> ball;
  std::vector<int64_t> dist;
  for (Vertex center : order) {
    if (cover.assigned_bag[center] != -1) continue;
    const int64_t bag_id = static_cast<int64_t>(cover.bags.size());
    if (!ReferenceBall(g, center, 2 * radius, budget, &ball, &dist)) {
      return cover;  // tripped: bag not opened, complete stays false
    }
    std::vector<Vertex> assigned;
    for (Vertex u : ball) {
      if (dist[u] <= radius && cover.assigned_bag[u] == -1) {
        cover.assigned_bag[u] = bag_id;
        assigned.push_back(u);
      }
    }
    for (Vertex u : ball) cover.bags_containing[u].push_back(bag_id);
    cover.total_bag_size += static_cast<int64_t>(ball.size());
    cover.bags.push_back(ball);
    cover.centers.push_back(center);
    cover.assigned_vertices.push_back(std::move(assigned));
  }
  for (Vertex v = 0; v < n; ++v) {
    cover.degree = std::max(
        cover.degree,
        static_cast<int64_t>(cover.bags_containing[v].size()));
  }
  cover.complete = true;
  return cover;
}

// Reference kernel: the seed's stamp-probing boundary scan + multi-source
// BFS, one bag at a time.
std::vector<Vertex> ReferenceKernel(const ColoredGraph& g,
                                    const std::vector<Vertex>& bag, int p) {
  const int64_t n = g.NumVertices();
  std::vector<char> member(static_cast<size_t>(n), 0);
  std::vector<int64_t> dist(static_cast<size_t>(n), -1);
  for (Vertex v : bag) member[v] = 1;
  std::vector<Vertex> queue;
  for (Vertex v : bag) {
    for (Vertex u : g.Neighbors(v)) {
      if (!member[u]) {
        dist[v] = 0;
        queue.push_back(v);
        break;
      }
    }
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    const Vertex v = queue[head];
    const int64_t d = dist[v];
    if (d + 1 >= p) continue;
    for (Vertex u : g.Neighbors(v)) {
      if (member[u] && dist[u] == -1) {
        dist[u] = d + 1;
        queue.push_back(u);
      }
    }
  }
  std::vector<Vertex> kernel;
  for (Vertex v : bag) {
    const bool reached = dist[v] != -1 && dist[v] + 1 <= p;
    if (!reached) kernel.push_back(v);
  }
  return kernel;
}

void ExpectCoversEqual(const NeighborhoodCover& cover,
                       const ReferenceCover& ref, int64_t n) {
  ASSERT_EQ(cover.complete(), ref.complete);
  ASSERT_EQ(cover.NumBags(), static_cast<int64_t>(ref.bags.size()));
  for (int64_t b = 0; b < cover.NumBags(); ++b) {
    EXPECT_EQ(cover.Center(b), ref.centers[static_cast<size_t>(b)]);
    const auto bag = cover.Bag(b);
    ASSERT_EQ(std::vector<Vertex>(bag.begin(), bag.end()),
              ref.bags[static_cast<size_t>(b)])
        << "bag " << b;
  }
  for (Vertex v = 0; v < n; ++v) {
    EXPECT_EQ(cover.AssignedBag(v), ref.assigned_bag[v]) << "vertex " << v;
  }
  if (!ref.complete) return;  // per-bag CSR indexes exist only when complete
  EXPECT_EQ(cover.Degree(), ref.degree);
  EXPECT_EQ(cover.TotalBagSize(), ref.total_bag_size);
  for (int64_t b = 0; b < cover.NumBags(); ++b) {
    const auto assigned = cover.AssignedVertices(b);
    ASSERT_EQ(std::vector<Vertex>(assigned.begin(), assigned.end()),
              ref.assigned_vertices[static_cast<size_t>(b)])
        << "assigned list of bag " << b;
  }
  for (Vertex v = 0; v < n; ++v) {
    const auto containing = cover.BagsContaining(v);
    ASSERT_EQ(std::vector<int64_t>(containing.begin(), containing.end()),
              ref.bags_containing[v])
        << "bags containing " << v;
  }
}

struct ParityParams {
  int graph_kind;  // property_common classes: 0 tree, 1 bdeg, 2 grid
  int64_t n;
  int radius;
  uint64_t seed;
};

class CoverParityTest : public ::testing::TestWithParam<ParityParams> {};

TEST_P(CoverParityTest, CsrMatchesReferenceAtEveryThreadCount) {
  const ParityParams params = GetParam();
  Rng rng(params.seed);
  const ColoredGraph g =
      testing_common::RandomGraph(params.graph_kind, params.n, &rng);
  const int64_t n = g.NumVertices();

  const NeighborhoodCover cover = NeighborhoodCover::Build(g, params.radius);
  const ReferenceCover ref = BuildReferenceCover(g, params.radius, nullptr);
  ExpectCoversEqual(cover, ref, n);

  std::vector<std::vector<Vertex>> ref_kernels;
  ref_kernels.reserve(ref.bags.size());
  for (const std::vector<Vertex>& bag : ref.bags) {
    ref_kernels.push_back(ReferenceKernel(g, bag, params.radius));
  }
  ASSERT_EQ(ComputeAllKernels(g, cover, params.radius), ref_kernels);
  for (int threads = 1; threads <= 8; ++threads) {
    ThreadPool pool(threads);
    ASSERT_EQ(ComputeAllKernels(g, cover, params.radius, &pool), ref_kernels)
        << "threads=" << threads;
  }
}

TEST_P(CoverParityTest, BudgetTrippedBuildsAgree) {
  const ParityParams params = GetParam();
  Rng rng(params.seed + 1000);
  const ColoredGraph g =
      testing_common::RandomGraph(params.graph_kind, params.n, &rng);
  const int64_t n = g.NumVertices();

  // Probe the full build cost, then cap at half of it so the trip lands
  // mid-sweep (work-cap trips are deterministic: total charged work does
  // not depend on timing).
  ResourceBudget probe;
  const NeighborhoodCover full = NeighborhoodCover::Build(g, params.radius,
                                                          &probe);
  ASSERT_TRUE(full.complete());
  ResourceBudgetOptions capped;
  capped.max_edge_work = std::max<int64_t>(1, probe.work_charged() / 2);

  const ResourceBudget budget_csr(capped);
  const NeighborhoodCover tripped =
      NeighborhoodCover::Build(g, params.radius, &budget_csr);
  ASSERT_TRUE(budget_csr.Exceeded());
  ASSERT_FALSE(tripped.complete());

  const ResourceBudget budget_ref(capped);
  const ReferenceCover ref =
      BuildReferenceCover(g, params.radius, &budget_ref);
  ASSERT_FALSE(ref.complete);
  EXPECT_EQ(budget_csr.work_charged(), budget_ref.work_charged());
  ExpectCoversEqual(tripped, ref, n);

  // Tripped kernels collapse to the same all-empty shape on the serial
  // path and on every pool width.
  const std::vector<std::vector<Vertex>> empty_rows(
      static_cast<size_t>(full.NumBags()));
  ResourceBudgetOptions kernel_cap;
  kernel_cap.max_edge_work = std::max<int64_t>(1, full.TotalBagSize() / 2);
  {
    const ResourceBudget budget(kernel_cap);
    ASSERT_EQ(ComputeAllKernels(g, full, params.radius, &budget), empty_rows);
    ASSERT_TRUE(budget.Exceeded());
  }
  for (int threads = 1; threads <= 8; ++threads) {
    ThreadPool pool(threads);
    const ResourceBudget budget(kernel_cap);
    ASSERT_EQ(ComputeAllKernels(g, full, params.radius, &pool, &budget),
              empty_rows)
        << "threads=" << threads;
    ASSERT_TRUE(budget.Exceeded());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CoverParityTest,
    ::testing::Values(ParityParams{0, 300, 2, 1}, ParityParams{0, 500, 1, 2},
                      ParityParams{1, 300, 2, 3}, ParityParams{1, 450, 3, 4},
                      ParityParams{2, 320, 2, 5}, ParityParams{2, 480, 1, 6},
                      ParityParams{3, 400, 2, 7},
                      ParityParams{4, 300, 2, 8}),
    [](const ::testing::TestParamInfo<ParityParams>& info) {
      const ParityParams& p = info.param;
      return std::string(testing_common::GraphKindName(p.graph_kind)) + "_n" +
             std::to_string(p.n) + "_r" + std::to_string(p.radius) + "_seed" +
             std::to_string(p.seed);
    });

}  // namespace
}  // namespace nwd
