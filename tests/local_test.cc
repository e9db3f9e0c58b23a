#include <gtest/gtest.h>

#include <string>

#include "cover/neighborhood_cover.h"
#include "fo/ast.h"
#include "fo/builders.h"
#include "fo/naive_eval.h"
#include "gen/generators.h"
#include "graph/bfs.h"
#include "local/distance_oracle.h"
#include "local/local_evaluator.h"
#include "splitter/strategy.h"
#include "util/budget.h"
#include "util/rng.h"

namespace nwd {
namespace {

// ---- DistanceOracle: Proposition 4.2 ----

struct OracleParams {
  int graph_kind;  // 0 tree, 1 bounded-degree, 2 grid, 3 star forest
  int radius;
  uint64_t seed;
};

// Readable, build-stable test names: graph class, radius and seed.
std::string OracleParamsName(
    const ::testing::TestParamInfo<OracleParams>& info) {
  static const char* const kKinds[] = {"tree", "bdeg", "grid", "stars"};
  return std::string(kKinds[info.param.graph_kind]) + "_r" +
         std::to_string(info.param.radius) + "_seed" +
         std::to_string(info.param.seed);
}

ColoredGraph MakeGraph(int kind, Rng* rng) {
  switch (kind) {
    case 0:
      return gen::RandomTree(250, 0, {1, 0.3}, rng);
    case 1:
      return gen::BoundedDegreeGraph(250, 4, 2.0, {1, 0.3}, rng);
    case 2:
      return gen::Grid(14, 18, {1, 0.3}, rng);
    default:
      return gen::StarForest(25, 9, {1, 0.3}, rng);
  }
}

class OracleTest : public ::testing::TestWithParam<OracleParams> {};

TEST_P(OracleTest, MatchesBfsForAllQueryRadii) {
  const OracleParams params = GetParam();
  Rng rng(params.seed);
  const ColoredGraph g = MakeGraph(params.graph_kind, &rng);
  const auto strategy = MakeAutoStrategy(g);
  // Force the recursion to actually exercise the cover/splitter machinery
  // by keeping the small-case cutoff tiny.
  DistanceOracle::Options options;
  options.small_cutoff = 8;
  const DistanceOracle oracle(g, params.radius, *strategy, options);

  BfsScratch scratch(g.NumVertices());
  for (int trial = 0; trial < 150; ++trial) {
    const Vertex a =
        static_cast<Vertex>(rng.NextBounded(
            static_cast<uint64_t>(g.NumVertices())));
    const Vertex b =
        static_cast<Vertex>(rng.NextBounded(
            static_cast<uint64_t>(g.NumVertices())));
    scratch.Neighborhood(g, a, params.radius);
    const int64_t dist = scratch.DistanceTo(b);
    for (int r = 0; r <= params.radius; ++r) {
      EXPECT_EQ(oracle.WithinDistance(a, b, r), dist >= 0 && dist <= r)
          << "a=" << a << " b=" << b << " r=" << r;
    }
  }
}

TEST_P(OracleTest, NearPairsAreExhaustivelyCorrect) {
  const OracleParams params = GetParam();
  Rng rng(params.seed + 1000);
  const ColoredGraph g = MakeGraph(params.graph_kind, &rng);
  const auto strategy = MakeAutoStrategy(g);
  DistanceOracle::Options options;
  options.small_cutoff = 8;
  const DistanceOracle oracle(g, params.radius, *strategy, options);

  // Dense check: for sampled a, compare against the whole ball (near
  // pairs are the hard, recursive case).
  BfsScratch scratch(g.NumVertices());
  for (int trial = 0; trial < 25; ++trial) {
    const Vertex a = static_cast<Vertex>(
        rng.NextBounded(static_cast<uint64_t>(g.NumVertices())));
    const auto ball = scratch.Neighborhood(g, a, params.radius);
    for (Vertex b : ball) {
      const int64_t dist = scratch.DistanceTo(b);
      EXPECT_TRUE(oracle.WithinDistance(a, b, static_cast<int>(dist)));
      if (dist > 0) {
        EXPECT_FALSE(
            oracle.WithinDistance(a, b, static_cast<int>(dist) - 1))
            << "a=" << a << " b=" << b << " dist=" << dist;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OracleTest,
    ::testing::Values(OracleParams{0, 2, 1}, OracleParams{0, 4, 2},
                      OracleParams{1, 2, 3}, OracleParams{1, 3, 4},
                      OracleParams{2, 3, 5}, OracleParams{3, 2, 6}),
    OracleParamsName);

TEST(Oracle, RecursionActuallyDeepens) {
  Rng rng(77);
  const ColoredGraph g = gen::Grid(20, 20, {0, 0.0}, &rng);
  const auto strategy = MakeAutoStrategy(g);
  DistanceOracle::Options options;
  options.small_cutoff = 4;
  const DistanceOracle oracle(g, 2, *strategy, options);
  EXPECT_GT(oracle.stats().max_depth, 0);
  EXPECT_GT(oracle.stats().total_bags, 0);
}

// An engine budget that trips while a level's bags are being built stops
// that level at its next bag and answers it by BFS, as a leaf. The
// truncated oracle must stay exact. The cap sweep reaches trips inside
// the root cover (a root leaf) and trips after it, in the bag loop.
TEST(Oracle, BudgetTripMidLevelStaysExact) {
  Rng rng(79);
  const ColoredGraph g = gen::RandomTree(250, 0, {0, 0.0}, &rng);
  const auto strategy = MakeAutoStrategy(g);
  BfsScratch scratch(g.NumVertices());
  bool tripped_in_bag_loop = false;
  for (int64_t cap = 256; cap <= (int64_t{1} << 16); cap *= 2) {
    ResourceBudgetOptions limits;
    limits.max_edge_work = cap;
    const ResourceBudget budget(limits);
    DistanceOracle::Options options;
    options.small_cutoff = 8;
    options.budget = &budget;
    const DistanceOracle oracle(g, 2, *strategy, options);
    if (!budget.Exceeded()) break;
    EXPECT_TRUE(oracle.stats().budget_exhausted) << "cap=" << cap;
    // A complete root cover counts its bags, so the trip came after it.
    if (oracle.stats().total_bags > 0) tripped_in_bag_loop = true;
    for (Vertex a = 0; a < g.NumVertices(); ++a) {
      scratch.Neighborhood(g, a, 2);
      for (Vertex b = 0; b < g.NumVertices(); ++b) {
        const int64_t dist = scratch.DistanceTo(b);
        for (int r = 0; r <= 2; ++r) {
          ASSERT_EQ(oracle.WithinDistance(a, b, r), dist >= 0 && dist <= r)
              << "cap=" << cap << " a=" << a << " b=" << b << " r=" << r;
        }
      }
    }
  }
  EXPECT_TRUE(tripped_in_bag_loop)
      << "no cap tripped after the root cover completed";
}

// A trip inside one bag's splitter BFS or induced subgraph is seen within
// one BfsScratch::kChargeChunk batch, and the level becomes a BFS leaf
// before the bag's child level is built. On a clique the root cover has
// one bag holding every vertex: its BFS charges n^2 units (n dequeues plus
// n(n - 1) arcs), then the induction (n - 1)^2 arcs. The two caps land
// the trip in each of them.
TEST(Oracle, BudgetTripInsideOneBagStopsWithinAChunk) {
  constexpr int64_t n = 512;
  Rng rng(80);
  const ColoredGraph g = gen::Clique(n, {0, 0.0}, &rng);
  const auto strategy = MakeAutoStrategy(g);
  // Work charged before the bag loop: the root level's vertices, then its
  // cover.
  const ResourceBudget unlimited;
  ASSERT_TRUE(NeighborhoodCover::Build(g, 2, &unlimited).complete());
  ASSERT_EQ(1, NeighborhoodCover::Build(g, 2).NumBags());
  const int64_t before_bags = n + unlimited.work_charged();
  for (const int64_t into_bag : {int64_t{64}, n * n + 1000}) {
    ResourceBudgetOptions limits;
    limits.max_edge_work = before_bags + into_bag;
    const ResourceBudget budget(limits);
    DistanceOracle::Options options;
    options.budget = &budget;
    const DistanceOracle oracle(g, 2, *strategy, options);
    ASSERT_TRUE(budget.Exceeded()) << "into_bag=" << into_bag;
    EXPECT_TRUE(oracle.stats().budget_exhausted) << "into_bag=" << into_bag;
    EXPECT_EQ(1, oracle.stats().total_bags) << "into_bag=" << into_bag;
    EXPECT_EQ(1, oracle.stats().levels)
        << "the bag's child level was built after the trip (into_bag="
        << into_bag << ")";
    EXPECT_LE(budget.work_charged(),
              limits.max_edge_work + BfsScratch::kChargeChunk)
        << "into_bag=" << into_bag;
    for (int trial = 0; trial < 64; ++trial) {
      const Vertex a = static_cast<Vertex>(rng.NextBounded(n));
      const Vertex b = static_cast<Vertex>(rng.NextBounded(n));
      EXPECT_TRUE(oracle.WithinDistance(a, b, 1));
      EXPECT_EQ(a == b, oracle.WithinDistance(a, b, 0));
    }
  }
}

TEST(Oracle, SymmetricAnswers) {
  Rng rng(78);
  const ColoredGraph g = gen::RandomTree(200, 0, {0, 0.0}, &rng);
  const auto strategy = MakeAutoStrategy(g);
  const DistanceOracle oracle(g, 3, *strategy);
  for (int trial = 0; trial < 200; ++trial) {
    const Vertex a = static_cast<Vertex>(rng.NextBounded(200));
    const Vertex b = static_cast<Vertex>(rng.NextBounded(200));
    for (int r = 0; r <= 3; ++r) {
      EXPECT_EQ(oracle.WithinDistance(a, b, r),
                oracle.WithinDistance(b, a, r));
    }
  }
}

// ---- LocalEvaluator ----

TEST(LocalEvaluator, BagRestrictedEvaluation) {
  Rng rng(21);
  const ColoredGraph g = gen::RandomTree(100, 0, {2, 0.4}, &rng);
  const NeighborhoodCover cover = NeighborhoodCover::Build(g, 2);
  LocalEvaluator local(g, cover);

  // Unary, 1-local query: "x has a C0 neighbor".
  const fo::Query q = fo::HasNeighborOfColorQuery(1, 0);
  fo::Query relaxed = q;  // same query without the C1(x) guard
  relaxed.formula = fo::Exists(1, fo::And(fo::Edge(0, 1), fo::Color(0, 1)));

  const std::vector<bool> materialized = local.MaterializeUnary(relaxed);
  fo::NaiveEvaluator naive(g);
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(materialized[v], naive.TestTuple(relaxed, {v})) << "v=" << v;
  }
}

TEST(LocalEvaluator, TestInBagMatchesInducedEvaluation) {
  Rng rng(22);
  const ColoredGraph g = gen::Grid(8, 8, {1, 0.5}, &rng);
  const NeighborhoodCover cover = NeighborhoodCover::Build(g, 2);
  LocalEvaluator local(g, cover);
  const fo::FormulaPtr phi =
      fo::Exists(1, fo::And(fo::Edge(0, 1), fo::Color(0, 1)));
  for (Vertex v = 0; v < g.NumVertices(); v += 5) {
    const int64_t bag = cover.AssignedBag(v);
    const SubgraphView induced = InduceSubgraph(g, cover.Bag(bag));
    fo::NaiveEvaluator naive(induced.graph);
    std::vector<Vertex> env(2, fo::kUnbound);
    env[0] = induced.ToLocal(v);
    EXPECT_EQ(local.TestInBag(bag, phi, {0}, {v}),
              naive.Evaluate(phi, &env));
  }
}

}  // namespace
}  // namespace nwd
