// Parallel preprocessing (EngineOptions::num_threads) must be invisible:
// the engine built with 2 or 4 workers answers Next/Test/Enumerate
// bit-identically to the serial engine across the same randomized
// (graph, query) sweeps property_test.cc uses, and internal certificates
// (skip entries, cover shape) match too. Also pins the Case II ball cache
// against the naive evaluator. The TSan twin of this binary (label: tsan)
// runs the same tests under ThreadSanitizer to catch data races in the
// parallel phases.

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "enumerate/engine.h"
#include "enumerate/enumerator.h"
#include "fo/ast.h"
#include "fo/builders.h"
#include "fo/naive_eval.h"
#include "fo/parser.h"
#include "fo/printer.h"
#include "gen/generators.h"
#include "tests/property_common.h"
#include "util/rng.h"

namespace nwd {
namespace {

using testing_common::RandomGraph;
using testing_common::RandomQuery;

std::vector<Tuple> EnumerateAll(const EnumerationEngine& engine) {
  ConstantDelayEnumerator enumerator(engine);
  std::vector<Tuple> out;
  for (auto t = enumerator.NextSolution(); t.has_value();
       t = enumerator.NextSolution()) {
    out.push_back(*t);
  }
  return out;
}

class ParallelEquivalenceFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParallelEquivalenceFuzz, BinaryQueriesMatchSerial) {
  Rng rng(1000 + GetParam());  // same sweep as property_test's binary fuzz
  EngineOptions serial_options;
  serial_options.naive_cutoff = 10;
  serial_options.oracle.small_cutoff = 8;
  serial_options.num_threads = 1;
  for (int round = 0; round < 3; ++round) {
    const ColoredGraph g = RandomGraph(round + GetParam(), 45, &rng);
    const fo::Query q = RandomQuery(2, 2, &rng);
    const EnumerationEngine serial(g, q, serial_options);
    const std::vector<Tuple> expected = EnumerateAll(serial);
    for (const int threads : {2, 4}) {
      EngineOptions options = serial_options;
      options.num_threads = threads;
      const EnumerationEngine parallel(g, q, options);
      ASSERT_EQ(parallel.used_fallback(), serial.used_fallback());
      ASSERT_EQ(parallel.stats().cover_bags, serial.stats().cover_bags);
      ASSERT_EQ(parallel.stats().skip_entries, serial.stats().skip_entries);
      ASSERT_EQ(EnumerateAll(parallel), expected)
          << "threads=" << threads << " query: " << fo::ToString(q) << " on "
          << g.DebugString();

      // Random Next/Test probes agree pointwise.
      Rng probe_rng(42 + round);
      for (int trial = 0; trial < 25; ++trial) {
        const Tuple probe{
            static_cast<Vertex>(probe_rng.NextBounded(
                static_cast<uint64_t>(g.NumVertices()))),
            static_cast<Vertex>(probe_rng.NextBounded(
                static_cast<uint64_t>(g.NumVertices())))};
        ASSERT_EQ(parallel.Next(probe), serial.Next(probe))
            << "threads=" << threads << " query: " << fo::ToString(q);
        ASSERT_EQ(parallel.Test(probe), serial.Test(probe))
            << "threads=" << threads << " query: " << fo::ToString(q);
      }
    }
  }
}

TEST_P(ParallelEquivalenceFuzz, TernaryQueriesMatchSerial) {
  Rng rng(5000 + GetParam());  // same sweep as property_test's ternary fuzz
  EngineOptions serial_options;
  serial_options.naive_cutoff = 8;
  serial_options.oracle.small_cutoff = 8;
  serial_options.num_threads = 1;
  for (int round = 0; round < 2; ++round) {
    const ColoredGraph g = RandomGraph(round + GetParam(), 20, &rng);
    const fo::Query q = RandomQuery(3, 2, &rng);
    const EnumerationEngine serial(g, q, serial_options);
    const std::vector<Tuple> expected = EnumerateAll(serial);
    for (const int threads : {2, 4}) {
      EngineOptions options = serial_options;
      options.num_threads = threads;
      const EnumerationEngine parallel(g, q, options);
      ASSERT_EQ(EnumerateAll(parallel), expected)
          << "threads=" << threads << " query: " << fo::ToString(q);
    }
  }
}

TEST_P(ParallelEquivalenceFuzz, HardwareConcurrencyAlsoMatches) {
  // num_threads = 0 resolves to hardware_concurrency; answers must still
  // be identical on whatever machine runs this.
  Rng rng(7000 + GetParam());
  EngineOptions options;
  options.naive_cutoff = 10;
  options.oracle.small_cutoff = 8;
  const ColoredGraph g = RandomGraph(GetParam(), 40, &rng);
  const fo::Query q = RandomQuery(2, 2, &rng);
  const EnumerationEngine serial(g, q, options);
  options.num_threads = 0;
  const EnumerationEngine automatic(g, q, options);
  EXPECT_EQ(EnumerateAll(automatic), EnumerateAll(serial))
      << "query: " << fo::ToString(q);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelEquivalenceFuzz,
                         ::testing::Range(0, 6));

// Regression for the Case II hot-path fix: within one Next() (and within
// one preprocessing descent) the anchor ball is BFS'd once and served
// from the cache afterwards, without changing any answer.
TEST(BallCacheTest, CaseTwoAnsweringMatchesNaiveAndHitsCache) {
  Rng rng(123);
  // A path-like tree keeps distance queries non-trivial; a ternary
  // one-component query forces Case II at positions 1 and 2 with the same
  // anchor, so every descent past position 1 exercises the cache.
  const ColoredGraph g = gen::RandomTree(120, 0, {2, 0.3}, &rng);
  fo::Query q;
  q.formula = fo::And(fo::DistLeq(0, 1, 2), fo::DistLeq(1, 2, 2));
  q.free_vars = {0, 1, 2};
  q.var_names = {"x", "y", "z"};

  EngineOptions options;
  options.naive_cutoff = 10;
  options.oracle.small_cutoff = 8;
  const EnumerationEngine engine(g, q, options);
  ASSERT_FALSE(engine.used_fallback());
  // The extendable0 descents alone must have reused anchor balls.
  EXPECT_GT(engine.stats().ball_cache_hits, 0);

  fo::NaiveEvaluator naive(g);
  const std::vector<Tuple> expected = naive.AllSolutions(q);
  EXPECT_EQ(EnumerateAll(engine), expected);

  // Answer-time counters are per-context; the enumeration pass pays the
  // cold misses (first BFS per anchor ball) and reuses within and across
  // descents. Flush them so the probe loop below is measured on its own.
  const AnswerCounters enum_counters = engine.DrainAnswerStats();
  EXPECT_GT(enum_counters.ball_cache_hits, 0);
  EXPECT_GT(enum_counters.ball_cache_misses, 0);
  for (int trial = 0; trial < 30; ++trial) {
    const Tuple probe{
        static_cast<Vertex>(rng.NextBounded(
            static_cast<uint64_t>(g.NumVertices()))),
        static_cast<Vertex>(rng.NextBounded(
            static_cast<uint64_t>(g.NumVertices()))),
        static_cast<Vertex>(rng.NextBounded(
            static_cast<uint64_t>(g.NumVertices())))};
    const auto got = engine.Next(probe);
    const auto it = std::lower_bound(
        expected.begin(), expected.end(), probe,
        [](const Tuple& a, const Tuple& b) { return LexCompare(a, b) < 0; });
    if (it == expected.end()) {
      ASSERT_FALSE(got.has_value());
    } else {
      ASSERT_TRUE(got.has_value());
      ASSERT_EQ(*got, *it);
    }
    ASSERT_EQ(engine.Test(probe), naive.TestTuple(q, probe));
  }
  // Answer-time descents hit the cache too (same anchor across positions
  // 1/2 and across backtracks within a single Next call) — and since the
  // ball cache is generation-stamped rather than per-call, anchors warmed
  // by the enumeration above may never miss again here, so only hits are
  // asserted. The preprocessing counter in stats() is untouched by
  // answering.
  const AnswerCounters counters = engine.DrainAnswerStats();
  EXPECT_GT(counters.ball_cache_hits, 0);
  EXPECT_EQ(counters.probes_served, 60);  // 30 Next + 30 Test
  EXPECT_GT(engine.stats().ball_cache_hits, 0);
}

// Repair's extendable descents are not probes: they run on a private
// context and the non-counting executor. An edge edit that makes Repair
// descend, with no probe sent, must leave every answer counter at zero —
// no ball-cache traffic, no compiled probe — and answers stay exact.
TEST(BallCacheTest, RepairDescentsStayOutOfAnswerCounters) {
  Rng rng(77);
  // Sparse C0 leaves most vertices without a C0 within distance 2, so the
  // negatives around the edit re-descend.
  ColoredGraph g = gen::Grid(40, 40, {1, 0.02}, &rng);
  const fo::ParseResult parsed = fo::ParseFormula("dist(x, y) <= 2 & C0(y)");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EnumerationEngine engine(g, parsed.query);
  ASSERT_FALSE(engine.used_fallback());
  ASSERT_NE(engine.compiled_query(), nullptr);

  // A chord between (20, 20) and (22, 22), grid distance 4.
  const GraphEdit edit = GraphEdit::AddEdge(20 * 40 + 20, 22 * 40 + 22);
  ASSERT_TRUE(g.ApplyInPlace(edit));
  EnumerationEngine::RepairStats repair;
  ASSERT_TRUE(engine.Repair(std::span<const GraphEdit>(&edit, 1), &repair));
  ASSERT_GT(repair.descents_run, 0);

  const AnswerCounters counters = engine.DrainAnswerStats();
  EXPECT_EQ(counters.probes_served, 0);
  EXPECT_EQ(counters.ball_cache_hits, 0);
  EXPECT_EQ(counters.ball_cache_misses, 0);
  EXPECT_EQ(counters.compiled_probes, 0);
  EXPECT_EQ(counters.compiled_insns, 0);

  fo::NaiveEvaluator naive(g);
  EXPECT_EQ(EnumerateAll(engine), naive.AllSolutions(parsed.query));
}

TEST(BallCacheTest, ParallelPreprocessingCountsHitsIdentically) {
  Rng rng(321);
  const ColoredGraph g = gen::RandomForest(150, 5, {2, 0.3}, &rng);
  fo::Query q;
  q.formula = fo::And(fo::DistLeq(0, 1, 1), fo::DistLeq(1, 2, 1));
  q.free_vars = {0, 1, 2};
  q.var_names = {"x", "y", "z"};
  EngineOptions options;
  options.naive_cutoff = 10;
  options.oracle.small_cutoff = 8;
  const EnumerationEngine serial(g, q, options);
  options.num_threads = 4;
  const EnumerationEngine parallel(g, q, options);
  ASSERT_FALSE(serial.used_fallback());
  // Hit counting is sharding-invariant: the cache is scoped to a single
  // descent, which always runs on one worker.
  EXPECT_EQ(parallel.stats().ball_cache_hits, serial.stats().ball_cache_hits);
  EXPECT_EQ(EnumerateAll(parallel), EnumerateAll(serial));
}

}  // namespace
}  // namespace nwd
