#include <gtest/gtest.h>

#include <string>

#include "enumerate/counting.h"
#include "fo/builders.h"
#include "fo/naive_eval.h"
#include "fo/parser.h"
#include "gen/generators.h"
#include "util/rng.h"

namespace nwd {
namespace {

struct CountParams {
  int graph_kind;
  uint64_t seed;
};

ColoredGraph MakeGraph(int kind, Rng* rng) {
  switch (kind) {
    case 0:
      return gen::RandomTree(70, 0, {2, 0.3}, rng);
    case 1:
      return gen::BoundedDegreeGraph(70, 4, 2.2, {2, 0.3}, rng);
    case 2:
      return gen::Grid(8, 9, {2, 0.3}, rng);
    default:
      return gen::StarForest(10, 6, {2, 0.3}, rng);
  }
}

class CountingTest : public ::testing::TestWithParam<CountParams> {};

TEST_P(CountingTest, FastPathMatchesNaiveCount) {
  const CountParams params = GetParam();
  Rng rng(params.seed);
  const ColoredGraph g = MakeGraph(params.graph_kind, &rng);
  fo::NaiveEvaluator naive(g);

  std::vector<fo::Query> queries = {
      fo::DistanceQuery(2),
      fo::FarColorQuery(2, 0),
      fo::ColoredPairQuery(0, 1, 3),
  };
  const char* texts[] = {
      "E(x, y) & !C0(x)",
      "x = y | E(x, y)",
      "dist(x, y) <= 1 | (C0(x) & dist(x, y) <= 3)",
      "!(dist(x, y) <= 2) & !(x = y)",
  };
  for (const char* text : texts) {
    const fo::ParseResult r = fo::ParseFormula(text);
    ASSERT_TRUE(r.ok) << r.error;
    queries.push_back(r.query);
  }

  for (const fo::Query& q : queries) {
    const CountResult result = CountSolutions(g, q);
    EXPECT_TRUE(result.fast_path);
    EXPECT_EQ(result.count,
              static_cast<int64_t>(naive.AllSolutions(q).size()));
  }
}

// Readable, build-stable test names: graph class and seed.
std::string CountParamsName(const ::testing::TestParamInfo<CountParams>& info) {
  static const char* const kKinds[] = {"tree", "bdeg", "grid", "stars"};
  return std::string(kKinds[info.param.graph_kind]) + "_seed" +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(Graphs, CountingTest,
                         ::testing::Values(CountParams{0, 1},
                                           CountParams{1, 2},
                                           CountParams{2, 3},
                                           CountParams{3, 4}),
                         CountParamsName);

TEST(Counting, TernaryFallsBackToEnumeration) {
  Rng rng(5);
  const ColoredGraph g = gen::RandomTree(25, 0, {2, 0.4}, &rng);
  const fo::Query q = fo::TwoFarOneColorQuery(2, 0);
  const CountResult result = CountSolutions(g, q);
  EXPECT_FALSE(result.fast_path);
  fo::NaiveEvaluator naive(g);
  EXPECT_EQ(result.count,
            static_cast<int64_t>(naive.AllSolutions(q).size()));
}

TEST(Counting, QuantifiedQueryStillCounts) {
  Rng rng(6);
  const ColoredGraph g = gen::RandomTree(25, 0, {2, 0.4}, &rng);
  const fo::ParseResult r =
      fo::ParseFormula("exists z. E(x, z) & E(z, y)");
  ASSERT_TRUE(r.ok);
  const CountResult result = CountSolutions(g, r.query);
  EXPECT_FALSE(result.fast_path);
  fo::NaiveEvaluator naive(g);
  EXPECT_EQ(result.count,
            static_cast<int64_t>(naive.AllSolutions(r.query).size()));
}

TEST(Counting, EmptyAndFullExtremes) {
  Rng rng(7);
  const ColoredGraph g = gen::RandomTree(60, 0, {1, 0.0}, &rng);  // no colors
  // No vertex is C0-colored.
  const CountResult none = CountSolutions(g, fo::FarColorQuery(2, 0));
  EXPECT_EQ(none.count, 0);
  // Everything (tautology).
  const fo::ParseResult all = fo::ParseFormula("x = y | !(x = y)");
  ASSERT_TRUE(all.ok);
  const CountResult full = CountSolutions(g, all.query);
  EXPECT_EQ(full.count, 60 * 60);
}

TEST(Counting, CountsScaleOnLargerInputs) {
  // The fast path must handle sizes where naive counting (n^2 tests) is
  // already painful; sanity-check internal consistency instead of ground
  // truth: |far pairs| + |near pairs| == |A| * |B|.
  Rng rng(8);
  const ColoredGraph g = gen::RandomTree(20000, 0, {1, 0.3}, &rng);
  const int64_t blues = static_cast<int64_t>(g.ColorMembers(0).size());
  const fo::ParseResult far = fo::ParseFormula("!(dist(x,y) <= 2) & C0(y)");
  const fo::ParseResult near = fo::ParseFormula("dist(x,y) <= 2 & C0(y)");
  ASSERT_TRUE(far.ok);
  ASSERT_TRUE(near.ok);
  const CountResult far_count = CountSolutions(g, far.query);
  const CountResult near_count = CountSolutions(g, near.query);
  EXPECT_TRUE(far_count.fast_path);
  EXPECT_EQ(far_count.count + near_count.count,
            g.NumVertices() * blues);
}

}  // namespace
}  // namespace nwd
