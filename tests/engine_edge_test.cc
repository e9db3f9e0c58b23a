// Edge cases and cross-module integrations for the enumeration engine:
// degenerate graphs, higher arities, and queries over relational
// adjacency graphs (the full Lemma 2.2 -> engine pipeline).

#include <gtest/gtest.h>

#include <span>

#include "dynamic/dynamic_engine.h"
#include "enumerate/engine.h"
#include "enumerate/enumerator.h"
#include "fo/builders.h"
#include "fo/naive_eval.h"
#include "fo/parser.h"
#include "gen/generators.h"
#include "graph/builder.h"
#include "relational/adjacency_graph.h"
#include "relational/database.h"
#include "util/rng.h"

namespace nwd {
namespace {

TEST(EngineEdge, EmptyGraph) {
  GraphBuilder builder(0, 1);
  const ColoredGraph g = std::move(builder).Build();
  const EnumerationEngine engine(g, fo::DistanceQuery(2));
  EXPECT_FALSE(engine.First().has_value());
  ConstantDelayEnumerator enumerator(engine);
  EXPECT_FALSE(enumerator.NextSolution().has_value());
}

TEST(EngineEdge, SingleVertex) {
  GraphBuilder builder(1, 1);
  builder.SetColor(0, 0);
  const ColoredGraph g = std::move(builder).Build();
  const EnumerationEngine engine(g, fo::DistanceQuery(2));
  // Only (0, 0), at distance 0.
  const auto first = engine.First();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, (Tuple{0, 0}));
  EXPECT_TRUE(engine.Test({0, 0}));
}

TEST(EngineEdge, NextAtLexicographicMaximum) {
  Rng rng(1);
  const ColoredGraph g = gen::RandomTree(60, 0, {1, 0.5}, &rng);
  EngineOptions options;
  options.naive_cutoff = 10;
  const EnumerationEngine engine(g, fo::DistanceQuery(1), options);
  const Tuple max = LexMax(2, g.NumVertices());
  const auto at_max = engine.Next(max);
  // (n-1, n-1) is always a solution of dist <= 1 (distance 0).
  ASSERT_TRUE(at_max.has_value());
  EXPECT_EQ(*at_max, max);
}

TEST(EngineEdge, ArityFourQueryMatchesNaive) {
  Rng rng(2);
  const ColoredGraph g = gen::RandomTree(12, 0, {2, 0.4}, &rng);
  const fo::ParseResult r = fo::ParseFormula(
      "C0(x) & E(x, y) & !(dist(y, z) <= 1) & C1(w) & !(w = x)");
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.query.arity(), 4);
  EngineOptions options;
  options.naive_cutoff = 4;
  options.oracle.small_cutoff = 6;
  const EnumerationEngine engine(g, r.query, options);
  EXPECT_FALSE(engine.used_fallback()) << engine.stats().fallback_reason;
  fo::NaiveEvaluator naive(g);
  const std::vector<Tuple> expected = naive.AllSolutions(r.query);
  ConstantDelayEnumerator enumerator(engine);
  std::vector<Tuple> produced;
  for (auto t = enumerator.NextSolution(); t.has_value();
       t = enumerator.NextSolution()) {
    produced.push_back(*t);
  }
  EXPECT_EQ(produced, expected);
}

TEST(EngineEdge, DisconnectedGraphFarQueries) {
  // Components make "far" trivial across components; the skip machinery
  // must handle bags that never interact.
  Rng rng(3);
  const ColoredGraph g = gen::StarForest(12, 5, {2, 0.4}, &rng);
  EngineOptions options;
  options.naive_cutoff = 10;
  const EnumerationEngine engine(g, fo::FarColorQuery(2, 0), options);
  fo::NaiveEvaluator naive(g);
  const std::vector<Tuple> expected =
      naive.AllSolutions(fo::FarColorQuery(2, 0));
  ConstantDelayEnumerator enumerator(engine);
  std::vector<Tuple> produced;
  for (auto t = enumerator.NextSolution(); t.has_value();
       t = enumerator.NextSolution()) {
    produced.push_back(*t);
  }
  EXPECT_EQ(produced, expected);
}

// The full pipeline: relational database -> A'(D) -> quantifier-free
// colored-graph query -> LNF engine. In A'(D), two elements co-occur in a
// fact iff their distance is exactly 4 (element-position-fact-position-
// element), so "co-author" queries are distance queries.
TEST(EngineEdge, CoOccurrenceOverAdjacencyGraph) {
  relational::Schema schema;
  schema.AddRelation("Wrote", 2);
  relational::Database db(schema, 12);
  Rng rng(4);
  for (int f = 0; f < 14; ++f) {
    db.AddFact("Wrote", {rng.NextInt(0, 5), rng.NextInt(6, 11)});
  }
  const relational::AdjacencyGraph a = relational::BuildAdjacencyGraph(db);

  // q(x, y): elements linked through one fact (distance exactly 4 in the
  // 1-subdivided incidence graph), excluding x = y.
  std::ostringstream text;
  text << "C" << a.element_color << "(x) & C" << a.element_color
       << "(y) & dist(x, y) <= 4 & !(dist(x, y) <= 3) & !(x = y)";
  const fo::ParseResult r = fo::ParseFormula(text.str());
  ASSERT_TRUE(r.ok) << r.error;

  EngineOptions options;
  options.naive_cutoff = 10;
  const EnumerationEngine engine(a.graph, r.query, options);
  EXPECT_FALSE(engine.used_fallback()) << engine.stats().fallback_reason;

  fo::NaiveEvaluator naive(a.graph);
  const std::vector<Tuple> expected = naive.AllSolutions(r.query);
  ConstantDelayEnumerator enumerator(engine);
  std::vector<Tuple> produced;
  for (auto t = enumerator.NextSolution(); t.has_value();
       t = enumerator.NextSolution()) {
    produced.push_back(*t);
  }
  ASSERT_EQ(produced, expected);

  // Sanity: every produced pair shares a fact in the database.
  for (const Tuple& t : produced) {
    bool shares = false;
    for (const Tuple& fact : db.Facts(0)) {
      const bool has_x = fact[0] == t[0] || fact[1] == t[0];
      const bool has_y = fact[0] == t[1] || fact[1] == t[1];
      if (has_x && has_y) shares = true;
    }
    EXPECT_TRUE(shares) << "(" << t[0] << "," << t[1] << ")";
  }
}

// Guarded-local unary patterns over A'(D): "x occurs in some Wrote fact",
// written guard-first so the extraction applies.
TEST(EngineEdge, GuardedRelationalPatternOverAdjacencyGraph) {
  relational::Schema schema;
  schema.AddRelation("Wrote", 2);
  relational::Database db(schema, 14);
  Rng rng(5);
  for (int f = 0; f < 10; ++f) {
    db.AddFact("Wrote", {rng.NextInt(0, 6), rng.NextInt(7, 13)});
  }
  const relational::AdjacencyGraph a = relational::BuildAdjacencyGraph(db);

  // active(v) := exists z (E(v,z) & C_pos1(z) & exists t (E(z,t) &
  //              P_Wrote(t))) — every quantifier guarded by an edge.
  std::ostringstream text;
  text << "C" << a.element_color << "(x) & C" << a.element_color << "(y) & "
       << "!(dist(x, y) <= 4) & "
       << "(exists z. E(x, z) & C" << a.position_color_base << "(z) & "
       << "(exists t. E(z, t) & C" << a.relation_color_base << "(t)))";
  const fo::ParseResult r = fo::ParseFormula(text.str());
  ASSERT_TRUE(r.ok) << r.error;

  EngineOptions options;
  options.naive_cutoff = 10;
  const EnumerationEngine engine(a.graph, r.query, options);
  EXPECT_FALSE(engine.used_fallback()) << engine.stats().fallback_reason;
  EXPECT_GT(engine.stats().local_unaries, 0);

  fo::NaiveEvaluator naive(a.graph);
  const std::vector<Tuple> expected = naive.AllSolutions(r.query);
  ConstantDelayEnumerator enumerator(engine);
  std::vector<Tuple> produced;
  for (auto t = enumerator.NextSolution(); t.has_value();
       t = enumerator.NextSolution()) {
    produced.push_back(*t);
  }
  EXPECT_EQ(produced, expected);
}

TEST(EngineEdge, ProbeOutOfRangeIsRejected) {
  Rng rng(6);
  const ColoredGraph g = gen::RandomTree(20, 0, {1, 0.5}, &rng);
  const EnumerationEngine engine(g, fo::DistanceQuery(2));
  EXPECT_DEATH(engine.Next({0, 25}), "out of range");
  EXPECT_DEATH(engine.Test({0, 25}), "out of range");

  // The LNF engine (n > naive_cutoff) checks every component before its
  // programs index the graph with it.
  const ColoredGraph tree = gen::RandomTree(4096, 0, {1, 0.5}, &rng);
  const int64_t n = tree.NumVertices();
  const fo::Query far = fo::FarColorQuery(2, 0);
  const EnumerationEngine lnf(tree, far);
  ASSERT_FALSE(lnf.used_fallback());
  EXPECT_DEATH(lnf.Test({0, n + 100000}), "out of range");
  EXPECT_DEATH(lnf.Test({-1, 0}), "out of range");
  EXPECT_DEATH(lnf.Next({0, n}), "out of range");

  // So does the dynamic engine, in sync and on the lag lane (the probe
  // right after Apply() lands while the repair lane is still busy). The
  // engines are built inside the death statements so no repair thread
  // is alive when the test forks.
  EXPECT_DEATH(
      {
        DynamicEngine dynamic(tree, far);
        dynamic.Test({0, n + 100000});
      },
      "out of range");
  EXPECT_DEATH(
      {
        DynamicEngine dynamic(tree, far);
        dynamic.Next({n, 0});
      },
      "out of range");
  const GraphEdit flip = GraphEdit::SetColor(5, 0, !tree.HasColor(5, 0));
  EXPECT_DEATH(
      {
        DynamicEngine dynamic(tree, far);
        dynamic.Apply(std::span<const GraphEdit>(&flip, 1));
        dynamic.Test({0, n});
      },
      "out of range");
  EXPECT_DEATH(
      {
        DynamicEngine dynamic(tree, far);
        dynamic.Apply(std::span<const GraphEdit>(&flip, 1));
        dynamic.Next({0, n});
      },
      "out of range");
}

}  // namespace
}  // namespace nwd
