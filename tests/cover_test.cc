#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "cover/kernel.h"
#include "cover/neighborhood_cover.h"
#include "gen/generators.h"
#include "graph/bfs.h"
#include "graph/builder.h"
#include "util/rng.h"

namespace nwd {
namespace {

struct CoverParams {
  int graph_kind;  // 0 tree, 1 bounded degree, 2 grid, 3 ER
  int radius;
  uint64_t seed;
};

// Readable, build-stable test names: graph class, radius and seed.
std::string CoverParamsName(const ::testing::TestParamInfo<CoverParams>& info) {
  static const char* const kKinds[] = {"tree", "bdeg", "grid", "er"};
  return std::string(kKinds[info.param.graph_kind]) + "_r" +
         std::to_string(info.param.radius) + "_seed" +
         std::to_string(info.param.seed);
}

ColoredGraph MakeGraph(int kind, Rng* rng) {
  switch (kind) {
    case 0:
      return gen::RandomTree(300, 0, {1, 0.3}, rng);
    case 1:
      return gen::BoundedDegreeGraph(300, 4, 2.5, {1, 0.3}, rng);
    case 2:
      return gen::Grid(15, 20, {1, 0.3}, rng);
    default:
      return gen::ErdosRenyi(200, 3.0, {1, 0.3}, rng);
  }
}

class CoverPropertyTest : public ::testing::TestWithParam<CoverParams> {};

TEST_P(CoverPropertyTest, IsValidRTwoRCover) {
  const CoverParams params = GetParam();
  Rng rng(params.seed);
  const ColoredGraph g = MakeGraph(params.graph_kind, &rng);
  const NeighborhoodCover cover = NeighborhoodCover::Build(g, params.radius);
  BfsScratch scratch(g.NumVertices());

  // Definition 4.3: X(a) contains N_r(a), every bag is inside some 2r-ball.
  for (Vertex a = 0; a < g.NumVertices(); ++a) {
    const int64_t bag = cover.AssignedBag(a);
    ASSERT_GE(bag, 0);
    const auto ball = scratch.Neighborhood(g, a, params.radius);
    for (Vertex b : ball) {
      EXPECT_TRUE(cover.InBag(bag, b))
          << "N_r(" << a << ") not inside bag " << bag;
    }
  }
  for (int64_t bag = 0; bag < cover.NumBags(); ++bag) {
    const auto big_ball =
        scratch.Neighborhood(g, cover.Center(bag), 2 * params.radius);
    const auto& members = cover.Bag(bag);
    EXPECT_TRUE(std::includes(big_ball.begin(), big_ball.end(),
                              members.begin(), members.end()))
        << "bag " << bag << " escapes N_2r of its center";
  }
}

TEST_P(CoverPropertyTest, BookkeepingIsConsistent) {
  const CoverParams params = GetParam();
  Rng rng(params.seed);
  const ColoredGraph g = MakeGraph(params.graph_kind, &rng);
  const NeighborhoodCover cover = NeighborhoodCover::Build(g, params.radius);

  // AssignedVertices partitions V.
  int64_t assigned_total = 0;
  for (int64_t bag = 0; bag < cover.NumBags(); ++bag) {
    for (Vertex v : cover.AssignedVertices(bag)) {
      EXPECT_EQ(cover.AssignedBag(v), bag);
    }
    assigned_total += static_cast<int64_t>(cover.AssignedVertices(bag).size());
  }
  EXPECT_EQ(assigned_total, g.NumVertices());

  // BagsContaining matches membership, and Degree is the max.
  int64_t max_deg = 0;
  int64_t total = 0;
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    for (int64_t bag : cover.BagsContaining(v)) {
      EXPECT_TRUE(cover.InBag(bag, v));
    }
    max_deg = std::max(
        max_deg, static_cast<int64_t>(cover.BagsContaining(v).size()));
    total += static_cast<int64_t>(cover.BagsContaining(v).size());
  }
  EXPECT_EQ(cover.Degree(), max_deg);
  EXPECT_EQ(cover.TotalBagSize(), total);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CoverPropertyTest,
    ::testing::Values(CoverParams{0, 1, 1}, CoverParams{0, 2, 2},
                      CoverParams{0, 4, 3}, CoverParams{1, 2, 4},
                      CoverParams{2, 2, 5}, CoverParams{2, 3, 6},
                      CoverParams{3, 2, 7}),
    CoverParamsName);

TEST(Cover, NextInBag) {
  GraphBuilder builder(10, 0);
  for (Vertex v = 0; v + 1 < 10; ++v) builder.AddEdge(v, v + 1);
  const ColoredGraph g = std::move(builder).Build();
  const NeighborhoodCover cover = NeighborhoodCover::Build(g, 2);
  const int64_t bag = cover.AssignedBag(5);
  const auto& members = cover.Bag(bag);
  EXPECT_EQ(cover.NextInBag(bag, members.front()), members.front());
  EXPECT_EQ(cover.NextInBag(bag, members.back() + 1), -1);
}

TEST(Cover, SingleVertexGraph) {
  GraphBuilder builder(1, 0);
  const ColoredGraph g = std::move(builder).Build();
  const NeighborhoodCover cover = NeighborhoodCover::Build(g, 3);
  EXPECT_EQ(cover.NumBags(), 1);
  EXPECT_EQ(cover.AssignedBag(0), 0);
}

TEST(Kernel, DefinitionHoldsOnPath) {
  GraphBuilder builder(12, 0);
  for (Vertex v = 0; v + 1 < 12; ++v) builder.AddEdge(v, v + 1);
  const ColoredGraph g = std::move(builder).Build();
  const NeighborhoodCover cover = NeighborhoodCover::Build(g, 2);
  BfsScratch scratch(g.NumVertices());
  for (int64_t bag = 0; bag < cover.NumBags(); ++bag) {
    for (int p = 0; p <= 3; ++p) {
      const std::vector<Vertex> kernel = ComputeKernel(g, cover, bag, p);
      for (Vertex a = 0; a < g.NumVertices(); ++a) {
        const auto ball = scratch.Neighborhood(g, a, p);
        bool inside = cover.InBag(bag, a);
        for (Vertex b : ball) inside = inside && cover.InBag(bag, b);
        EXPECT_EQ(std::binary_search(kernel.begin(), kernel.end(), a), inside)
            << "bag=" << bag << " p=" << p << " a=" << a;
      }
    }
  }
}

class KernelPropertyTest : public ::testing::TestWithParam<CoverParams> {};

TEST_P(KernelPropertyTest, MatchesBruteForce) {
  const CoverParams params = GetParam();
  Rng rng(params.seed + 100);
  const ColoredGraph g = MakeGraph(params.graph_kind, &rng);
  const NeighborhoodCover cover = NeighborhoodCover::Build(g, params.radius);
  const int p = params.radius;
  const auto kernels = ComputeAllKernels(g, cover, p);
  BfsScratch scratch(g.NumVertices());
  // Spot-check a sample of bags exhaustively.
  const int64_t step = std::max<int64_t>(1, cover.NumBags() / 10);
  for (int64_t bag = 0; bag < cover.NumBags(); bag += step) {
    for (Vertex a : cover.Bag(bag)) {
      const auto ball = scratch.Neighborhood(g, a, p);
      bool inside = true;
      for (Vertex b : ball) inside = inside && cover.InBag(bag, b);
      EXPECT_EQ(std::binary_search(kernels[bag].begin(), kernels[bag].end(),
                                   a),
                inside)
          << "bag=" << bag << " a=" << a;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, KernelPropertyTest,
    ::testing::Values(CoverParams{0, 2, 11}, CoverParams{1, 2, 12},
                      CoverParams{2, 2, 13}, CoverParams{3, 1, 14}),
    CoverParamsName);

TEST(Kernel, ZeroRadiusKernelIsBag) {
  Rng rng(4);
  const ColoredGraph g = gen::RandomTree(50, 0, {0, 0.0}, &rng);
  const NeighborhoodCover cover = NeighborhoodCover::Build(g, 2);
  for (int64_t bag = 0; bag < cover.NumBags(); ++bag) {
    const auto members = cover.Bag(bag);
    EXPECT_EQ(ComputeKernel(g, cover, bag, 0),
              std::vector<Vertex>(members.begin(), members.end()));
  }
}

}  // namespace
}  // namespace nwd
