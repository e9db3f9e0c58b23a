#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "baseline/naive_enum.h"
#include "fo/builders.h"
#include "fo/naive_eval.h"
#include "fo/parser.h"
#include "gen/generators.h"
#include "graph/bfs.h"
#include "property_common.h"
#include "util/rng.h"

namespace nwd {
namespace {

fo::Query MustParse(const std::string& text) {
  const fo::ParseResult parsed = fo::ParseQuery(text);
  EXPECT_TRUE(parsed.ok) << text << ": " << parsed.error;
  return parsed.query;
}

// The smallest solution >= from, off a sorted solution set.
std::optional<Tuple> LowerBound(const std::vector<Tuple>& sorted,
                                const Tuple& from) {
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), from);
  if (it == sorted.end()) return std::nullopt;
  return *it;
}

// Checks `search` (bound to `g`) against the naive evaluator on `g`:
// AllSolutions, then Next and Test from `probes` random tuples.
void ExpectMatchesNaive(BacktrackingEnumerator* search, const ColoredGraph& g,
                        const fo::Query& q, int probes, Rng* rng,
                        const std::string& context) {
  fo::NaiveEvaluator naive(g);
  const std::vector<Tuple> truth = naive.AllSolutions(q);
  ASSERT_EQ(search->AllSolutions(), truth) << context;
  const int64_t n = g.NumVertices();
  for (int i = 0; i < probes; ++i) {
    Tuple from(static_cast<size_t>(q.arity()));
    for (Vertex& v : from) v = static_cast<Vertex>(rng->NextBounded(n));
    ASSERT_EQ(search->Next(from), LowerBound(truth, from))
        << context << " Next from probe " << i;
    ASSERT_EQ(search->Test(from), naive.TestTuple(q, from))
        << context << " Test of probe " << i;
  }
}

class BaselineTest : public ::testing::TestWithParam<int> {};

TEST_P(BaselineTest, AllSolutionsMatchesExhaustiveEvaluation) {
  Rng rng(GetParam());
  const ColoredGraph g = gen::BoundedDegreeGraph(25, 4, 2.0, {2, 0.4}, &rng);
  fo::NaiveEvaluator naive(g);
  std::vector<fo::Query> queries = {
      fo::DistanceQuery(2),
      fo::FarColorQuery(1, 0),
      fo::HasNeighborOfColorQuery(0, 1),
  };
  const fo::ParseResult quantified =
      fo::ParseFormula("exists z. E(x, z) & E(z, y) & C0(z)");
  ASSERT_TRUE(quantified.ok);
  queries.push_back(quantified.query);

  for (const fo::Query& q : queries) {
    BacktrackingEnumerator backtracking(g, q);
    EXPECT_EQ(backtracking.AllSolutions(), naive.AllSolutions(q));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineTest, ::testing::Range(0, 5));

TEST(Baseline, EnumerateEarlyStop) {
  Rng rng(50);
  const ColoredGraph g = gen::RandomTree(40, 0, {1, 0.5}, &rng);
  BacktrackingEnumerator enumerator(g, fo::DistanceQuery(2));
  int64_t count = 0;
  enumerator.Enumerate([&count](const Tuple&) {
    ++count;
    return count < 7;
  });
  EXPECT_EQ(count, 7);
}

TEST(Baseline, NextMatchesLowerBound) {
  Rng rng(51);
  const ColoredGraph g = gen::RandomTree(30, 0, {1, 0.4}, &rng);
  const fo::Query q = fo::FarColorQuery(2, 0);
  BacktrackingEnumerator enumerator(g, q);
  const std::vector<Tuple> all = enumerator.AllSolutions();
  for (int trial = 0; trial < 50; ++trial) {
    Tuple from{static_cast<Vertex>(rng.NextBounded(30)),
               static_cast<Vertex>(rng.NextBounded(30))};
    const auto got = enumerator.Next(from);
    const auto it = std::lower_bound(
        all.begin(), all.end(), from,
        [](const Tuple& a, const Tuple& b) { return LexCompare(a, b) < 0; });
    if (it == all.end()) {
      EXPECT_FALSE(got.has_value());
    } else {
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, *it);
    }
  }
}

TEST(Baseline, SentenceEnumeration) {
  Rng rng(52);
  const ColoredGraph g = gen::RandomTree(10, 0, {1, 0.9}, &rng);
  const fo::ParseResult r = fo::ParseSentence("exists x. C0(x)");
  ASSERT_TRUE(r.ok);
  BacktrackingEnumerator enumerator(g, r.query);
  EXPECT_EQ(enumerator.AllSolutions().size(), 1u);
}

TEST(Baseline, PruningStillComplete) {
  // A query whose prefix constraints prune aggressively: C0(x) first.
  Rng rng(53);
  const ColoredGraph g = gen::RandomTree(35, 0, {1, 0.15}, &rng);
  const fo::ParseResult r = fo::ParseFormula("C0(x) & dist(x, y) <= 2");
  ASSERT_TRUE(r.ok);
  BacktrackingEnumerator backtracking(g, r.query);
  fo::NaiveEvaluator naive(g);
  EXPECT_EQ(backtracking.AllSolutions(), naive.AllSolutions(r.query));
}

// The pruning decides a dist atom from one BFS per anchor: the ball from
// x serves every candidate y. With C0 on one vertex c of a 64x64 grid,
// Next({x, 0}) tries every y for each x it visits, so it runs one BFS
// per visited x, whichever endpoint the atom names first (the ball is
// anchored at x, the earlier free position). A second, larger radius on
// x reruns the ball at most once per x, after which it serves both. One
// BFS per candidate y would run thousands.
TEST(Baseline, NextRunsOneBfsPerBoundSource) {
  Rng rng(60);
  ColoredGraph grid = gen::Grid(64, 64, {1, 0.0}, &rng);
  const int64_t n = grid.NumVertices();
  const Vertex c = 32 * 64 + 32;
  ASSERT_TRUE(grid.ApplyInPlace(GraphEdit::SetColor(c, 0, true)));
  // The first x' >= x within distance r of c answers Next({x, 0}).
  const auto first_answer = [&](Vertex x, int r) -> std::optional<Vertex> {
    for (Vertex a = x; a < n; ++a) {
      if (BoundedDistance(grid, a, c, r) >= 0) return a;
    }
    return std::nullopt;
  };
  // The query, the distance r from c that answers, and the most BFS runs
  // per visited x.
  const std::tuple<const char*, int, int> queries[] = {
      {"(x, y) := dist(x, y) <= 2 & C0(y)", 2, 1},
      {"(x, y) := dist(y, x) <= 2 & C0(y)", 2, 1},
      {"(x, y) := dist(x, y) <= 1 & dist(y, x) <= 2 & C0(y)", 1, 2},
  };
  for (const auto& [text, r, per_x] : queries) {
    BacktrackingEnumerator search(grid, MustParse(text));
    // Answered at x (c itself, r rows above c), moving past x (r + 1
    // rows above c), and past the last answer.
    for (const Vertex x : {c, c - r * 64, c - (r + 1) * 64, c + r * 64 + 1}) {
      const int64_t before = search.bfs_runs();
      const std::optional<Tuple> got = search.Next({x, 0});
      const int64_t runs = search.bfs_runs() - before;
      const std::optional<Vertex> answer = first_answer(x, r);
      const int64_t visited = answer.has_value() ? *answer - x + 1 : n - x;
      if (answer.has_value()) {
        EXPECT_EQ(got, (Tuple{*answer, c})) << text << " from x=" << x;
      } else {
        EXPECT_FALSE(got.has_value()) << text << " from x=" << x;
      }
      EXPECT_GE(runs, visited) << text << " from x=" << x;
      EXPECT_LE(runs, per_x * visited) << text << " from x=" << x;
    }
  }
}

// The versions below differ inside the ball of x = 0: `with` adds the
// edge {0, 62}, which brings the C0 corner 63 within distance 2 of 0, and
// drops C0 from vertex 2. So Next({0, 0}) is (0, 2) on `without` and
// (0, 63) on `with`; a ball from 0 left over from `without` would prune
// y = 63 and miss the latter.
struct TwoVersions {
  ColoredGraph without;
  ColoredGraph with;
};

TwoVersions MakeTwoVersions(Rng* rng) {
  TwoVersions v{gen::Grid(8, 8, {1, 0.0}, rng), {}};
  EXPECT_TRUE(v.without.ApplyInPlace(GraphEdit::SetColor(2, 0, true)));
  EXPECT_TRUE(v.without.ApplyInPlace(GraphEdit::SetColor(63, 0, true)));
  v.with = v.without;
  EXPECT_TRUE(v.with.ApplyInPlace(GraphEdit::AddEdge(0, 62)));
  EXPECT_TRUE(v.with.ApplyInPlace(GraphEdit::SetColor(2, 0, false)));
  return v;
}

// DynamicEngine's lag lane reuses one search across the graph versions
// it pins: a search Rebind-ed back and forth between two versions that
// differ inside the anchor's ball answers each like the naive evaluator.
TEST(Baseline, RebindAcrossVersionsForgetsTheBall) {
  Rng rng(61);
  const TwoVersions v = MakeTwoVersions(&rng);
  const ColoredGraph* graphs[] = {&v.without, &v.with};
  const Tuple answers[] = {{0, 2}, {0, 63}};
  for (const char* text : {"(x, y) := dist(x, y) <= 2 & C0(y)",
                           "(x, y) := dist(y, x) <= 2 & C0(y)"}) {
    const fo::Query q = MustParse(text);
    BacktrackingEnumerator search(v.without, q);
    for (int round = 0; round < 4; ++round) {
      const int from = round % 2;
      const int to = 1 - from;
      search.Rebind(*graphs[from]);
      // Answered at x = 0, so the search last ran its BFS from 0.
      ASSERT_EQ(search.Next({0, 0}), answers[from]) << text;
      search.Rebind(*graphs[to]);
      // Rounds 0-1 call Next first after the Rebind, rounds 2-3
      // AllSolutions (inside ExpectMatchesNaive), so both entries must
      // forget the ball.
      if (round < 2) EXPECT_EQ(search.Next({0, 0}), answers[to]) << text;
      ExpectMatchesNaive(&search, *graphs[to], q, 40, &rng,
                         std::string(text) + " round " +
                             std::to_string(round));
    }
  }
}

// The borrowed graph edited in place between two calls on one search:
// the second call must not read the first call's ball.
TEST(Baseline, GraphEditedBetweenCallsForgetsTheBall) {
  Rng rng(62);
  TwoVersions v = MakeTwoVersions(&rng);
  ColoredGraph& g = v.without;
  for (const char* text : {"(x, y) := dist(x, y) <= 2 & C0(y)",
                           "(x, y) := dist(y, x) <= 2 & C0(y)"}) {
    const fo::Query q = MustParse(text);
    BacktrackingEnumerator search(g, q);
    ASSERT_EQ(search.Next({0, 0}), (Tuple{0, 2})) << text;
    ASSERT_TRUE(g.ApplyInPlace(GraphEdit::AddEdge(0, 62)));
    ASSERT_TRUE(g.ApplyInPlace(GraphEdit::SetColor(2, 0, false)));
    EXPECT_EQ(search.Next({0, 0}), (Tuple{0, 63})) << text;
    ExpectMatchesNaive(&search, g, q, 40, &rng, text);
    // And back: the ball from 0 now reaches 63 over an edge that goes.
    ASSERT_TRUE(g.ApplyInPlace(GraphEdit::RemoveEdge(0, 62)));
    ASSERT_TRUE(g.ApplyInPlace(GraphEdit::SetColor(2, 0, true)));
    EXPECT_EQ(search.Next({0, 0}), (Tuple{0, 2})) << text;
    ExpectMatchesNaive(&search, g, q, 40, &rng, text);
  }
}

// Shapes that stress the remembered ball: two radii on one anchor (a
// ball run at the larger serves the smaller, which must still reject what
// lies between them, negated or not), an atom naming the later variable
// first, an edge atom beside a dist atom, two anchors in one ternary
// search, a negated atom, and a quantifier that Partial leaves to the
// final check.
TEST(Baseline, RememberedBallMatchesNaiveAcrossShapes) {
  const std::vector<std::string> queries = {
      "(x, y) := dist(x, y) <= 1 & dist(x, y) <= 3 & !C0(x)",
      "(x, y) := dist(x, y) <= 3 & dist(x, y) > 1 & C0(y)",
      "(x, y) := dist(y, x) <= 2 & C0(y)",
      "(x, y) := E(y, x) | dist(x, y) <= 1",
      "(x, y, z) := dist(x, y) <= 2 & dist(y, z) <= 1 & C0(z)",
      "(x, y, z) := dist(x, z) <= 2 & dist(x, y) > 2 & C1(y)",
      "(x, y) := dist(x, y) <= 2 & exists z. (E(y, z) & C0(z))",
  };
  for (int kind = 0; kind < 3; ++kind) {
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      Rng rng(70 + 10 * static_cast<uint64_t>(kind) + seed);
      const ColoredGraph g = testing_common::RandomGraph(kind, 60, &rng);
      for (const std::string& text : queries) {
        const fo::Query q = MustParse(text);
        BacktrackingEnumerator search(g, q);
        ExpectMatchesNaive(
            &search, g, q, 60, &rng,
            std::string(testing_common::GraphKindName(kind)) + " seed " +
                std::to_string(seed) + ": " + text);
      }
    }
  }
}

}  // namespace
}  // namespace nwd
