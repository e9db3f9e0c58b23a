#include <gtest/gtest.h>

#include <set>
#include <string>

#include "enumerate/engine.h"
#include "enumerate/enumerator.h"
#include "baseline/naive_enum.h"
#include "fo/builders.h"
#include "fo/naive_eval.h"
#include "fo/parser.h"
#include "fo/printer.h"
#include "gen/generators.h"
#include "graph/builder.h"
#include "util/rng.h"

namespace nwd {
namespace {

EngineOptions SmallCutoffOptions() {
  EngineOptions options;
  options.naive_cutoff = 10;  // force the LNF machinery in tests
  options.oracle.small_cutoff = 8;
  return options;
}

ColoredGraph MakeGraph(int kind, int64_t n, Rng* rng) {
  switch (kind) {
    case 0:
      return gen::RandomTree(n, 0, {2, 0.35}, rng);
    case 1:
      return gen::BoundedDegreeGraph(n, 4, 2.0, {2, 0.35}, rng);
    case 2:
      return gen::Grid(n / 8, 8, {2, 0.35}, rng);
    case 3:
      return gen::Caterpillar(n / 3, 2, {2, 0.35}, rng);
    default:
      return gen::StarForest(n / 6, 5, {2, 0.35}, rng);
  }
}

std::vector<fo::Query> BinaryQueries() {
  std::vector<fo::Query> queries;
  queries.push_back(fo::DistanceQuery(2));        // Example 1-A
  queries.push_back(fo::FarColorQuery(2, 0));     // Example 2
  queries.push_back(fo::ColoredPairQuery(0, 1, 3));
  const char* texts[] = {
      "E(x, y) & C0(x) & !C1(y)",
      "x = y & C0(x)",
      "dist(x, y) <= 1 | (C0(x) & dist(x, y) <= 3)",
      "!(dist(x, y) <= 2) & !(C0(y))",
      "E(x, y) | x = y",
  };
  for (const char* text : texts) {
    const fo::ParseResult r = fo::ParseFormula(text);
    EXPECT_TRUE(r.ok) << text << ": " << r.error;
    queries.push_back(r.query);
  }
  return queries;
}

void ExpectSameSolutions(const ColoredGraph& g, const fo::Query& q,
                         const EnumerationEngine& engine,
                         const std::string& label) {
  fo::NaiveEvaluator naive(g);
  const std::vector<Tuple> expected = naive.AllSolutions(q);

  // Corollary 2.5: full enumeration, in order, without repetition.
  ConstantDelayEnumerator enumerator(engine);
  std::vector<Tuple> produced;
  for (auto t = enumerator.NextSolution(); t.has_value();
       t = enumerator.NextSolution()) {
    produced.push_back(*t);
  }
  ASSERT_EQ(produced.size(), expected.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(produced[i], expected[i]) << label << " at index " << i;
  }
}

struct EngineParams {
  int graph_kind;
  uint64_t seed;
};

// Readable, build-stable test names: graph class and seed.
std::string EngineParamsName(
    const ::testing::TestParamInfo<EngineParams>& info) {
  static const char* const kKinds[] = {"tree", "bdeg", "grid", "caterpillar",
                                       "stars"};
  return std::string(kKinds[info.param.graph_kind]) + "_seed" +
         std::to_string(info.param.seed);
}

class EngineBinaryTest : public ::testing::TestWithParam<EngineParams> {};

TEST_P(EngineBinaryTest, MatchesNaiveOnAllBinaryQueries) {
  const EngineParams params = GetParam();
  Rng rng(params.seed);
  const ColoredGraph g = MakeGraph(params.graph_kind, 60, &rng);
  for (const fo::Query& q : BinaryQueries()) {
    const EnumerationEngine engine(g, q, SmallCutoffOptions());
    EXPECT_FALSE(engine.used_fallback())
        << fo::ToString(q) << ": " << engine.stats().fallback_reason;
    ExpectSameSolutions(g, q, engine, fo::ToString(q));
  }
}

TEST_P(EngineBinaryTest, TestMatchesNaiveOnRandomProbes) {
  const EngineParams params = GetParam();
  Rng rng(params.seed + 500);
  const ColoredGraph g = MakeGraph(params.graph_kind, 60, &rng);
  fo::NaiveEvaluator naive(g);
  for (const fo::Query& q : BinaryQueries()) {
    const EnumerationEngine engine(g, q, SmallCutoffOptions());
    for (int trial = 0; trial < 120; ++trial) {
      Tuple t{static_cast<Vertex>(
                  rng.NextBounded(static_cast<uint64_t>(g.NumVertices()))),
              static_cast<Vertex>(rng.NextBounded(
                  static_cast<uint64_t>(g.NumVertices())))};
      EXPECT_EQ(engine.Test(t), naive.TestTuple(q, t))
          << fo::ToString(q) << " tuple (" << t[0] << "," << t[1] << ")";
    }
  }
}

TEST_P(EngineBinaryTest, NextMatchesNaiveOnRandomProbes) {
  const EngineParams params = GetParam();
  Rng rng(params.seed + 900);
  const ColoredGraph g = MakeGraph(params.graph_kind, 60, &rng);
  for (const fo::Query& q : BinaryQueries()) {
    const EnumerationEngine engine(g, q, SmallCutoffOptions());
    fo::NaiveEvaluator naive(g);
    const std::vector<Tuple> all = naive.AllSolutions(q);
    for (int trial = 0; trial < 60; ++trial) {
      Tuple from{static_cast<Vertex>(rng.NextBounded(
                     static_cast<uint64_t>(g.NumVertices()))),
                 static_cast<Vertex>(rng.NextBounded(
                     static_cast<uint64_t>(g.NumVertices())))};
      const auto got = engine.Next(from);
      // Reference: first solution >= from.
      const auto it = std::lower_bound(
          all.begin(), all.end(), from,
          [](const Tuple& a, const Tuple& b) { return LexCompare(a, b) < 0; });
      if (it == all.end()) {
        EXPECT_FALSE(got.has_value()) << fo::ToString(q);
      } else {
        ASSERT_TRUE(got.has_value()) << fo::ToString(q);
        EXPECT_EQ(*got, *it) << fo::ToString(q);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, EngineBinaryTest,
                         ::testing::Values(EngineParams{0, 1},
                                           EngineParams{0, 2},
                                           EngineParams{1, 3},
                                           EngineParams{2, 4},
                                           EngineParams{3, 5},
                                           EngineParams{4, 6}),
                         EngineParamsName);

class EngineTernaryTest : public ::testing::TestWithParam<EngineParams> {};

TEST_P(EngineTernaryTest, MatchesNaiveOnTernaryQueries) {
  const EngineParams params = GetParam();
  Rng rng(params.seed);
  const ColoredGraph g = MakeGraph(params.graph_kind, 30, &rng);
  std::vector<fo::Query> queries;
  queries.push_back(fo::TwoFarOneColorQuery(2, 0));  // Example 2'
  const char* texts[] = {
      "E(x, y) & E(y, z) & C0(z)",                  // path pattern
      "dist(x, y) <= 2 & !(dist(x, z) <= 2) & C1(z)",
      "C0(x) & C0(y) & C0(z) & !(x = y) & !(y = z) & !(x = z)",
  };
  for (const char* text : texts) {
    const fo::ParseResult r = fo::ParseFormula(text);
    ASSERT_TRUE(r.ok) << r.error;
    queries.push_back(r.query);
  }
  for (const fo::Query& q : queries) {
    const EnumerationEngine engine(g, q, SmallCutoffOptions());
    EXPECT_FALSE(engine.used_fallback()) << fo::ToString(q);
    ExpectSameSolutions(g, q, engine, fo::ToString(q));
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, EngineTernaryTest,
                         ::testing::Values(EngineParams{0, 11},
                                           EngineParams{1, 12},
                                           EngineParams{2, 13},
                                           EngineParams{4, 14}),
                         EngineParamsName);

TEST(Engine, UnaryQueryMaterializes) {
  Rng rng(31);
  const ColoredGraph g = gen::RandomTree(100, 0, {1, 0.3}, &rng);
  const fo::ParseResult r = fo::ParseFormula("C0(x)");
  ASSERT_TRUE(r.ok);
  const EnumerationEngine engine(g, r.query);
  EXPECT_TRUE(engine.used_fallback());
  ConstantDelayEnumerator enumerator(engine);
  int64_t count = 0;
  for (auto t = enumerator.NextSolution(); t.has_value();
       t = enumerator.NextSolution()) {
    EXPECT_TRUE(g.HasColor((*t)[0], 0));
    ++count;
  }
  EXPECT_EQ(count, static_cast<int64_t>(g.ColorMembers(0).size()));
}

TEST(Engine, QuantifiedQueryFallsBackButIsCorrect) {
  Rng rng(32);
  const ColoredGraph g = gen::RandomTree(40, 0, {2, 0.4}, &rng);
  const fo::ParseResult r =
      fo::ParseFormula("C0(x) & (exists z. E(x, z) & E(z, y))");
  ASSERT_TRUE(r.ok);
  const EnumerationEngine engine(g, r.query, SmallCutoffOptions());
  EXPECT_TRUE(engine.used_fallback());
  fo::NaiveEvaluator naive(g);
  const auto expected = naive.AllSolutions(r.query);
  ConstantDelayEnumerator enumerator(engine);
  std::vector<Tuple> produced;
  for (auto t = enumerator.NextSolution(); t.has_value();
       t = enumerator.NextSolution()) {
    produced.push_back(*t);
  }
  EXPECT_EQ(produced, expected);
}

TEST(Engine, SentenceIsDecided) {
  Rng rng(33);
  const ColoredGraph g = gen::RandomTree(30, 0, {1, 0.5}, &rng);
  const fo::ParseResult yes = fo::ParseSentence("exists x. C0(x)");
  const fo::ParseResult no = fo::ParseSentence("exists x, y. E(x, y) & x = y");
  ASSERT_TRUE(yes.ok);
  ASSERT_TRUE(no.ok);
  EXPECT_TRUE(EnumerationEngine(g, yes.query).First().has_value());
  EXPECT_FALSE(EnumerationEngine(g, no.query).First().has_value());
}

TEST(Engine, EmptySolutionSet) {
  // No vertex has color 1 => far-color query has no solutions.
  GraphBuilder builder(60, 2);
  for (Vertex v = 0; v + 1 < 60; ++v) builder.AddEdge(v, v + 1);
  const ColoredGraph g = std::move(builder).Build();
  const EnumerationEngine engine(g, fo::FarColorQuery(2, 1),
                                 SmallCutoffOptions());
  EXPECT_FALSE(engine.used_fallback());
  EXPECT_FALSE(engine.First().has_value());
  EXPECT_FALSE(engine.Test({0, 59}));
}

TEST(Engine, FullRelationQuery) {
  // q(x,y) := x = y | !(x = y) is everything: n^2 solutions in order.
  const fo::ParseResult r = fo::ParseFormula("x = y | !(x = y)");
  ASSERT_TRUE(r.ok);
  Rng rng(35);
  const ColoredGraph g = gen::RandomTree(15, 0, {0, 0.0}, &rng);
  const EnumerationEngine engine(g, r.query, SmallCutoffOptions());
  ConstantDelayEnumerator enumerator(engine);
  int64_t count = 0;
  Tuple prev;
  for (auto t = enumerator.NextSolution(); t.has_value();
       t = enumerator.NextSolution()) {
    if (count > 0) {
      EXPECT_LT(LexCompare(prev, *t), 0);
    }
    prev = *t;
    ++count;
  }
  EXPECT_EQ(count, 15 * 15);
}

TEST(Engine, SmallGraphUsesNaiveStep1) {
  Rng rng(36);
  const ColoredGraph g = gen::RandomTree(8, 0, {1, 0.5}, &rng);
  const EnumerationEngine engine(g, fo::DistanceQuery(2));  // default cutoff
  EXPECT_TRUE(engine.used_fallback());
  fo::NaiveEvaluator naive(g);
  const auto expected = naive.AllSolutions(fo::DistanceQuery(2));
  ConstantDelayEnumerator enumerator(engine);
  std::vector<Tuple> produced;
  for (auto t = enumerator.NextSolution(); t.has_value();
       t = enumerator.NextSolution()) {
    produced.push_back(*t);
  }
  EXPECT_EQ(produced, expected);
}

TEST(Engine, EnumeratorResetAndForEach) {
  Rng rng(37);
  const ColoredGraph g = gen::RandomTree(60, 0, {2, 0.4}, &rng);
  const EnumerationEngine engine(g, fo::FarColorQuery(2, 0),
                                 SmallCutoffOptions());
  ConstantDelayEnumerator enumerator(engine);
  int64_t first_run = 0;
  enumerator.ForEach([&first_run](const Tuple&) {
    ++first_run;
    return true;
  });
  int64_t limited = 0;
  enumerator.ForEach([&limited](const Tuple&) {
    ++limited;
    return limited < 5;
  });
  EXPECT_EQ(limited, std::min<int64_t>(first_run, 5));
  EXPECT_EQ(enumerator.produced(), limited);
}

}  // namespace
}  // namespace nwd
