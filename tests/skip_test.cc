#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "cover/kernel.h"
#include "cover/neighborhood_cover.h"
#include "gen/generators.h"
#include "skip/skip_pointers.h"
#include "util/rng.h"

namespace nwd {
namespace {

// Brute-force reference for SKIP(b, S).
Vertex BruteSkip(const std::vector<Vertex>& list,
                 const std::vector<std::vector<Vertex>>& kernels, Vertex b,
                 const std::vector<int64_t>& bags) {
  for (Vertex v : list) {
    if (v < b) continue;
    bool blocked = false;
    for (int64_t x : bags) {
      if (std::binary_search(kernels[x].begin(), kernels[x].end(), v)) {
        blocked = true;
        break;
      }
    }
    if (!blocked) return v;
  }
  return -1;
}

TEST(SkipPointers, HandComputedExample) {
  // n = 10; kernels: X0 = {1,2,3}, X1 = {4,5}; L = {1, 3, 5, 7}.
  const std::vector<std::vector<Vertex>> kernels = {{1, 2, 3}, {4, 5}};
  SkipPointers skip(10, kernels, {1, 3, 5, 7}, 2);
  EXPECT_EQ(skip.Skip(0, {}), 1);
  EXPECT_EQ(skip.Skip(0, {0}), 5);
  EXPECT_EQ(skip.Skip(0, {0, 1}), 7);
  EXPECT_EQ(skip.Skip(6, {0, 1}), 7);
  EXPECT_EQ(skip.Skip(8, {}), -1);
  EXPECT_EQ(skip.Skip(5, {1}), 7);
  EXPECT_EQ(skip.Skip(5, {0}), 5);
}

TEST(SkipPointers, EmptyList) {
  SkipPointers skip(5, {{0, 1}}, {}, 1);
  EXPECT_EQ(skip.Skip(0, {0}), -1);
  EXPECT_EQ(skip.Skip(0, {}), -1);
}

TEST(SkipPointers, InclusiveSemantics) {
  SkipPointers skip(5, {{2}}, {2, 3}, 1);
  EXPECT_EQ(skip.Skip(2, {}), 2);   // b itself qualifies
  EXPECT_EQ(skip.Skip(2, {0}), 3);  // b blocked by the kernel
}

struct SkipFuzzParams {
  int64_t n;
  int num_kernels;
  int max_set_size;
  uint64_t seed;
};

// Readable, build-stable test names: universe, kernels, set size, seed.
std::string SkipFuzzParamsName(
    const ::testing::TestParamInfo<SkipFuzzParams>& info) {
  const SkipFuzzParams& p = info.param;
  return "n" + std::to_string(p.n) + "_kernels" +
         std::to_string(p.num_kernels) + "_set" +
         std::to_string(p.max_set_size) + "_seed" + std::to_string(p.seed);
}

class SkipFuzzTest : public ::testing::TestWithParam<SkipFuzzParams> {};

TEST_P(SkipFuzzTest, MatchesBruteForce) {
  const SkipFuzzParams params = GetParam();
  Rng rng(params.seed);

  // Random kernels (sorted subsets) and a random target list.
  std::vector<std::vector<Vertex>> kernels(
      static_cast<size_t>(params.num_kernels));
  for (auto& kernel : kernels) {
    for (Vertex v = 0; v < params.n; ++v) {
      if (rng.NextBool(0.25)) kernel.push_back(v);
    }
  }
  std::vector<Vertex> list;
  for (Vertex v = 0; v < params.n; ++v) {
    if (rng.NextBool(0.4)) list.push_back(v);
  }

  SkipPointers skip(params.n, kernels, list, params.max_set_size);

  // All probes with sampled bag sets.
  for (int trial = 0; trial < 300; ++trial) {
    const Vertex b = static_cast<Vertex>(
        rng.NextBounded(static_cast<uint64_t>(params.n)));
    const int set_size = static_cast<int>(
        rng.NextBounded(static_cast<uint64_t>(params.max_set_size) + 1));
    std::vector<int64_t> bags;
    while (static_cast<int>(bags.size()) < set_size) {
      const int64_t x = static_cast<int64_t>(
          rng.NextBounded(static_cast<uint64_t>(params.num_kernels)));
      if (std::find(bags.begin(), bags.end(), x) == bags.end()) {
        bags.push_back(x);
      }
    }
    std::sort(bags.begin(), bags.end());
    EXPECT_EQ(skip.Skip(b, bags), BruteSkip(list, kernels, b, bags))
        << "b=" << b << " |S|=" << bags.size();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SkipFuzzTest,
    ::testing::Values(SkipFuzzParams{30, 3, 2, 1},
                      SkipFuzzParams{50, 5, 3, 2},
                      SkipFuzzParams{100, 8, 2, 3},
                      SkipFuzzParams{40, 4, 4, 4},
                      SkipFuzzParams{64, 6, 3, 5}),
    SkipFuzzParamsName);

// RepairKernels must be indistinguishable from construction over the new
// kernels: mutate kernel rows (rewrites, a cleared row, appended fresh
// bags), repair one structure in place, build another from scratch, and
// compare every probe plus the entry count (which pins the materialized
// SC families, not just the answers).
TEST(SkipPointers, RepairKernelsMatchesFreshBuild) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const int64_t n = 80;
    const int num_kernels = 6;
    const int max_set_size = 3;
    std::vector<std::vector<Vertex>> kernels(num_kernels);
    for (auto& kernel : kernels) {
      for (Vertex v = 0; v < n; ++v) {
        if (rng.NextBool(0.2)) kernel.push_back(v);
      }
    }
    std::vector<Vertex> list;
    for (Vertex v = 0; v < n; ++v) {
      if (rng.NextBool(0.4)) list.push_back(v);
    }

    SkipPointers repaired(n, kernels, list, max_set_size);

    std::vector<int64_t> damaged;
    for (int64_t x = 0; x < num_kernels; ++x) {
      if (!rng.NextBool(0.5)) continue;
      damaged.push_back(x);
      kernels[static_cast<size_t>(x)].clear();
      if (x == damaged.front() && rng.NextBool(0.5)) continue;  // row wiped
      for (Vertex v = 0; v < n; ++v) {
        if (rng.NextBool(0.2)) kernels[static_cast<size_t>(x)].push_back(v);
      }
    }
    kernels.emplace_back();  // an appended bag, as cover repair produces
    for (Vertex v = 0; v < n; ++v) {
      if (rng.NextBool(0.15)) kernels.back().push_back(v);
    }
    damaged.push_back(num_kernels);

    const auto new_index = std::make_shared<const FlatRows<int64_t>>(
        SkipPointers::IndexKernels(n, FlatRows<Vertex>(kernels)));
    const int64_t rows = repaired.RepairKernels(new_index, damaged);
    EXPECT_GT(rows, 0) << "seed=" << seed;
    SkipPointers fresh(n, new_index, list, max_set_size);

    EXPECT_EQ(repaired.TotalEntries(), fresh.TotalEntries())
        << "seed=" << seed;
    for (int trial = 0; trial < 400; ++trial) {
      const Vertex b =
          static_cast<Vertex>(rng.NextBounded(static_cast<uint64_t>(n)));
      const int set_size = static_cast<int>(
          rng.NextBounded(static_cast<uint64_t>(max_set_size) + 1));
      std::vector<int64_t> bags;
      while (static_cast<int>(bags.size()) < set_size) {
        const int64_t x = static_cast<int64_t>(
            rng.NextBounded(static_cast<uint64_t>(kernels.size())));
        if (std::find(bags.begin(), bags.end(), x) == bags.end()) {
          bags.push_back(x);
        }
      }
      std::sort(bags.begin(), bags.end());
      EXPECT_EQ(repaired.Skip(b, bags), fresh.Skip(b, bags))
          << "seed=" << seed << " b=" << b;
      EXPECT_EQ(fresh.Skip(b, bags), BruteSkip(list, kernels, b, bags))
          << "seed=" << seed << " b=" << b;
    }

    // A no-damage repair is a no-op beyond adopting the index.
    EXPECT_EQ(repaired.RepairKernels(new_index, {}), 0);
    EXPECT_EQ(repaired.TotalEntries(), fresh.TotalEntries());
  }
}

// Integration with real covers/kernels: SKIP over a graph's kernels.
TEST(SkipPointers, WithRealCoverKernels) {
  Rng rng(9);
  const ColoredGraph g = gen::RandomTree(300, 0, {1, 0.3}, &rng);
  const NeighborhoodCover cover = NeighborhoodCover::Build(g, 4);
  const auto kernels = ComputeAllKernels(g, cover, 2);
  // L = the C0-colored vertices.
  const std::vector<Vertex> list = g.ColorMembers(0);
  SkipPointers skip(g.NumVertices(), kernels, list, 2);
  EXPECT_GT(skip.TotalEntries(), 0);

  for (int trial = 0; trial < 100; ++trial) {
    const Vertex b = static_cast<Vertex>(rng.NextBounded(300));
    const Vertex a1 = static_cast<Vertex>(rng.NextBounded(300));
    const Vertex a2 = static_cast<Vertex>(rng.NextBounded(300));
    std::vector<int64_t> bags{cover.AssignedBag(a1), cover.AssignedBag(a2)};
    std::sort(bags.begin(), bags.end());
    bags.erase(std::unique(bags.begin(), bags.end()), bags.end());
    EXPECT_EQ(skip.Skip(b, bags), BruteSkip(list, kernels, b, bags));
  }
}

}  // namespace
}  // namespace nwd
