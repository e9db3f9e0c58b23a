#include <gtest/gtest.h>

#include <string>

#include "enumerate/engine.h"
#include "enumerate/enumerator.h"
#include "enumerate/local_unary.h"
#include "fo/analysis.h"
#include "fo/naive_eval.h"
#include "fo/parser.h"
#include "fo/printer.h"
#include "gen/generators.h"
#include "util/rng.h"

namespace nwd {
namespace {

// Parses a formula with exactly one free variable and returns its
// guarded-locality radius.
int64_t RadiusOf(const char* text) {
  const fo::ParseResult r = fo::ParseFormula(text);
  EXPECT_TRUE(r.ok) << text << ": " << r.error;
  EXPECT_EQ(r.query.free_vars.size(), 1u) << text;
  return GuardedLocalityRadius(r.query.formula, r.query.free_vars[0]);
}

TEST(GuardedLocality, RadiiOfTypicalPatterns) {
  // exists z (E(y,z) & Red(z)): guard E anchors z at 1.
  EXPECT_EQ(RadiusOf("exists z. E(y, z) & C0(z)"), 1);
  // Nested: z anchored at 1, w at 1+2 = 3; the dist guard atom's own reach
  // is counted conservatively (anchor + bound), giving 5 (tight would be
  // 3 — looseness only costs preprocessing, never correctness).
  EXPECT_EQ(
      RadiusOf("exists z. E(y, z) & (exists w. dist(z, w) <= 2 & C1(w))"),
      5);
  // Distance guard, conservative: anchor 4 + atom bound 4.
  EXPECT_EQ(RadiusOf("exists z. dist(y, z) <= 4 & C0(z)"), 8);
  // Negation around the pattern keeps locality.
  EXPECT_EQ(RadiusOf("!(exists z. E(y, z) & C0(z))"), 1);
  // Color-only formulas are 0-local.
  EXPECT_EQ(RadiusOf("C0(y) & !C1(y)"), 0);
}

TEST(GuardedLocality, RejectsUnguardedQuantifiers) {
  // No guard at all: "some red vertex anywhere".
  EXPECT_EQ(RadiusOf("C0(y) & (exists z. C0(z))"), -1);
  // Guard hidden under a disjunction does not bound the witness.
  EXPECT_EQ(RadiusOf("exists z. E(y, z) | C0(z)"), -1);
  // forall is outside the guarded fragment (write !exists instead).
  EXPECT_EQ(RadiusOf("forall z. E(y, z) | C0(z)"), -1);
}

TEST(ExtractLocalUnaries, RewritesToVirtualColors) {
  const fo::ParseResult r = fo::ParseFormula(
      "!(dist(x, y) <= 2) & (exists z. E(y, z) & C0(z))");
  ASSERT_TRUE(r.ok);
  const LocalUnaryExtraction extraction = ExtractLocalUnaries(r.query, 2);
  EXPECT_TRUE(extraction.complete);
  ASSERT_EQ(extraction.unaries.size(), 1u);
  EXPECT_EQ(extraction.unaries[0].virtual_color, 2);
  EXPECT_EQ(extraction.unaries[0].radius, 1);
  EXPECT_TRUE(fo::IsQuantifierFree(extraction.rewritten.formula));
}

TEST(ExtractLocalUnaries, DeduplicatesAcrossVariables) {
  // The same pattern on x and on y must share one virtual color.
  const fo::ParseResult r = fo::ParseFormula(
      "(exists z. E(x, z) & C0(z)) & (exists z. E(y, z) & C0(z))");
  ASSERT_TRUE(r.ok);
  const LocalUnaryExtraction extraction = ExtractLocalUnaries(r.query, 1);
  EXPECT_TRUE(extraction.complete);
  EXPECT_EQ(extraction.unaries.size(), 1u);
}

TEST(ExtractLocalUnaries, IncompleteWhenBinaryQuantifierRemains) {
  const fo::ParseResult r =
      fo::ParseFormula("exists z. E(x, z) & E(z, y)");
  ASSERT_TRUE(r.ok);
  const LocalUnaryExtraction extraction = ExtractLocalUnaries(r.query, 0);
  EXPECT_FALSE(extraction.complete);
}

TEST(Materialize, VirtualColorsMatchDirectEvaluation) {
  Rng rng(3);
  const ColoredGraph g = gen::BoundedDegreeGraph(80, 4, 2.5, {2, 0.3}, &rng);
  const fo::ParseResult r =
      fo::ParseFormula("exists z. E(y, z) & C0(z)");
  ASSERT_TRUE(r.ok);
  LocalUnary unary;
  unary.formula = r.query.formula;
  unary.var = r.query.free_vars[0];
  unary.radius = 1;
  unary.virtual_color = g.NumColors();
  const ColoredGraph expanded = MaterializeLocalUnaries(g, {unary});
  ASSERT_EQ(expanded.NumColors(), g.NumColors() + 1);
  fo::NaiveEvaluator naive(g);
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(expanded.HasColor(v, unary.virtual_color),
              naive.TestTuple(r.query, {v}))
        << "v=" << v;
  }
}

// End-to-end: the engine handles guarded-quantified queries without
// falling back, and matches the naive semantics.
struct PatternParams {
  const char* text;
  uint64_t seed;
};

class PatternEngineTest : public ::testing::TestWithParam<PatternParams> {};

TEST_P(PatternEngineTest, EngineMatchesNaive) {
  const PatternParams params = GetParam();
  Rng rng(params.seed);
  const ColoredGraph g =
      gen::BoundedDegreeGraph(60, 4, 2.2, {2, 0.35}, &rng);
  const fo::ParseResult r = fo::ParseFormula(params.text);
  ASSERT_TRUE(r.ok) << r.error;

  EngineOptions options;
  options.naive_cutoff = 10;
  options.oracle.small_cutoff = 8;
  const EnumerationEngine engine(g, r.query, options);
  EXPECT_FALSE(engine.used_fallback())
      << params.text << ": " << engine.stats().fallback_reason;
  EXPECT_GT(engine.stats().local_unaries, 0) << params.text;

  fo::NaiveEvaluator naive(g);
  const std::vector<Tuple> expected = naive.AllSolutions(r.query);
  ConstantDelayEnumerator enumerator(engine);
  std::vector<Tuple> produced;
  for (auto t = enumerator.NextSolution(); t.has_value();
       t = enumerator.NextSolution()) {
    produced.push_back(*t);
  }
  EXPECT_EQ(produced, expected) << params.text;

  for (int trial = 0; trial < 40; ++trial) {
    Tuple t;
    for (int i = 0; i < r.query.arity(); ++i) {
      t.push_back(static_cast<Vertex>(
          rng.NextBounded(static_cast<uint64_t>(g.NumVertices()))));
    }
    EXPECT_EQ(engine.Test(t), naive.TestTuple(r.query, t)) << params.text;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, PatternEngineTest,
    ::testing::Values(
        PatternParams{"!(dist(x,y) <= 2) & (exists z. E(y,z) & C0(z))", 1},
        PatternParams{"(exists z. E(x,z) & C1(z)) & dist(x,y) <= 2", 2},
        PatternParams{
            "(exists z. E(x,z) & C0(z)) & (exists z. E(y,z) & C0(z)) "
            "& !(x = y)",
            3},
        PatternParams{
            "!(exists z. dist(x,z) <= 2 & C1(z)) & E(x, y)", 4},
        PatternParams{
            "(exists z. E(y,z) & (exists w. E(z,w) & C0(w))) "
            "& !(dist(x,y) <= 1)",
            5}),
    [](const ::testing::TestParamInfo<PatternParams>& info) {
      return "pattern" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace nwd
