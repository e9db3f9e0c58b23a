// Graceful-degradation harness: for every fault-injection point, for
// budget trips (wall clock / edge work), and for the density guard, the
// engine must finish preprocessing degraded — no crash, no hang — and its
// Test / Next / Enumerate answers must equal the naive evaluator's.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "cover/neighborhood_cover.h"
#include "enumerate/engine.h"
#include "enumerate/enumerator.h"
#include "fo/builders.h"
#include "fo/naive_eval.h"
#include "fo/parser.h"
#include "gen/generators.h"
#include "graph/bfs.h"
#include "graph/builder.h"
#include "graph/stats.h"
#include "util/budget.h"
#include "tests/property_common.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/timer.h"

namespace nwd {
namespace {

EngineOptions LnfForcingOptions() {
  EngineOptions options;
  options.naive_cutoff = 10;  // force the LNF machinery on test graphs
  options.oracle.small_cutoff = 8;
  return options;
}

fo::Query SupportedBinaryQuery() {
  const fo::ParseResult r =
      fo::ParseFormula("dist(x, y) <= 1 | (C0(x) & dist(x, y) <= 3)");
  EXPECT_TRUE(r.ok) << r.error;
  return r.query;
}

// Full-agreement check of a (degraded) engine against the naive
// evaluator: Test on every pair, Next-chain == sorted solution set, and
// the enumerator streams exactly that set.
void ExpectAgreesWithNaive(const EnumerationEngine& engine,
                           const ColoredGraph& g, const fo::Query& query) {
  fo::NaiveEvaluator naive(g);
  const std::vector<Tuple> expected = naive.AllSolutions(query);

  const int64_t n = g.NumVertices();
  for (Vertex a = 0; a < n; ++a) {
    for (Vertex b = 0; b < n; ++b) {
      const Tuple t{a, b};
      const bool expect =
          std::binary_search(expected.begin(), expected.end(), t,
                             [](const Tuple& x, const Tuple& y) {
                               return LexCompare(x, y) < 0;
                             });
      ASSERT_EQ(engine.Test(t), expect)
          << "Test disagrees at (" << a << ", " << b << ")";
    }
  }

  const auto lex_successor = [n](Tuple t) -> std::optional<Tuple> {
    for (size_t i = t.size(); i-- > 0;) {
      if (t[i] + 1 < n) {
        ++t[i];
        for (size_t j = i + 1; j < t.size(); ++j) t[j] = 0;
        return t;
      }
    }
    return std::nullopt;
  };
  std::vector<Tuple> from_next;
  std::optional<Tuple> t = engine.First();
  while (t.has_value()) {
    from_next.push_back(*t);
    const std::optional<Tuple> succ = lex_successor(*t);
    if (!succ.has_value()) break;
    t = engine.Next(*succ);
  }
  ASSERT_EQ(from_next, expected) << "Next chain disagrees";

  ConstantDelayEnumerator enumerator(engine);
  std::vector<Tuple> from_enum;
  for (auto s = enumerator.NextSolution(); s.has_value();
       s = enumerator.NextSolution()) {
    from_enum.push_back(*s);
  }
  ASSERT_EQ(from_enum, expected) << "Enumerate disagrees";
}

// Every preprocessing stage has a fault point; tripping any of them must
// leave a working degraded engine whose answers match the naive
// evaluator, with Stats naming the tripped stage.
TEST(Degradation, EveryFaultPointDegradesCorrectly) {
  const char* points[] = {
      "engine/density", "engine/cover",  "engine/kernels", "engine/oracle",
      "engine/lists",   "engine/skips",  "engine/extendable",
  };
  const fo::Query query = SupportedBinaryQuery();
  for (const char* point : points) {
    for (int kind = 0; kind < 3; ++kind) {
      Rng rng(1000 + kind);
      const ColoredGraph g = testing_common::RandomGraph(kind, 70, &rng);
      fault_injection::ScopedFault fault(point);
      const EnumerationEngine engine(g, query, LnfForcingOptions());
      ASSERT_TRUE(engine.stats().degraded) << point;
      ASSERT_TRUE(engine.used_fallback()) << point;
      ASSERT_EQ(engine.stats().tripped_stage, point);
      ASSERT_NE(engine.stats().fallback_reason.find("degraded"),
                std::string::npos);
      ExpectAgreesWithNaive(engine, g, query);
    }
  }
  // The fault points are consumed during construction (kOnce).
  EXPECT_FALSE(NWD_FAULT_POINT("engine/cover"));
}

// Without a budget and without faults nothing degrades: the same graphs
// build the full LNF engine.
TEST(Degradation, NoBudgetNoDegradation) {
  Rng rng(7);
  const ColoredGraph g = testing_common::RandomGraph(0, 70, &rng);
  const EnumerationEngine engine(g, SupportedBinaryQuery(),
                                 LnfForcingOptions());
  EXPECT_FALSE(engine.stats().degraded);
  EXPECT_FALSE(engine.used_fallback());
}

// An edge-work cap of one trips at the very first charging stage; the
// degraded engine still answers correctly.
TEST(Degradation, EdgeWorkCapDegradesCorrectly) {
  Rng rng(21);
  const ColoredGraph g = testing_common::RandomGraph(1, 80, &rng);
  EngineOptions options = LnfForcingOptions();
  options.budget.max_edge_work = 1;
  const fo::Query query = SupportedBinaryQuery();
  const EnumerationEngine engine(g, query, options);
  ASSERT_TRUE(engine.stats().degraded);
  EXPECT_TRUE(engine.stats().lazy_fallback);
  EXPECT_FALSE(engine.stats().tripped_stage.empty());
  EXPECT_GE(engine.stats().budget_edge_work, 1);
  ExpectAgreesWithNaive(engine, g, query);
}

// A wall-clock deadline that has already passed when preprocessing starts
// trips at the first stage boundary.
TEST(Degradation, ExpiredDeadlineDegradesCorrectly) {
  Rng rng(22);
  const ColoredGraph g = testing_common::RandomGraph(2, 80, &rng);
  EngineOptions options = LnfForcingOptions();
  options.budget.deadline_ms = 1;
  const fo::Query query = SupportedBinaryQuery();
  Timer wait;
  while (wait.ElapsedSeconds() < 0.005) {
  }
  const EnumerationEngine engine(g, query, options);
  ASSERT_TRUE(engine.stats().degraded);
  EXPECT_NE(engine.stats().fallback_reason.find("deadline"),
            std::string::npos);
  ExpectAgreesWithNaive(engine, g, query);
}

// The density guard rejects a clique outright — before any expensive
// stage — and records the density stage.
TEST(Degradation, DensityGuardRejectsDenseGraphs) {
  Rng rng(23);
  const ColoredGraph clique = gen::Clique(60, {2, 0.35}, &rng);
  EngineOptions options = LnfForcingOptions();
  options.budget.max_avg_degree = 8.0;
  const fo::Query query = SupportedBinaryQuery();
  const EnumerationEngine engine(clique, query, options);
  ASSERT_TRUE(engine.stats().degraded);
  EXPECT_EQ(engine.stats().tripped_stage, "engine/density");
  EXPECT_NE(engine.stats().fallback_reason.find("density guard"),
            std::string::npos);
  ExpectAgreesWithNaive(engine, clique, query);

  // A sparse forest passes the same guard.
  const ColoredGraph forest = gen::RandomForest(100, 5, {2, 0.35}, &rng);
  const EnumerationEngine ok_engine(forest, query, options);
  EXPECT_FALSE(ok_engine.stats().degraded);
}

// Randomized sweep: for every graph class and a batch of random queries,
// a budget-tripped engine agrees with the naive evaluator.
TEST(Degradation, PropertySweepUnderFaults) {
  const char* points[] = {"engine/cover", "engine/skips",
                          "engine/extendable"};
  for (int seed = 0; seed < 6; ++seed) {
    Rng rng(5000 + seed);
    const ColoredGraph g =
        testing_common::RandomGraph(seed % 5, 60, &rng);
    const fo::Query query = testing_common::RandomQuery(2, 2, &rng);
    fault_injection::ScopedFault fault(points[seed % 3]);
    const EnumerationEngine engine(g, query, LnfForcingOptions());
    // Unsupported random queries fall back before reaching the fault
    // point; only assert degradation when the LNF path was attempted.
    ExpectAgreesWithNaive(engine, g, query);
  }
}

// Acceptance: a dense 10^4-vertex graph under a 100 ms budget finishes
// preprocessing in bounded time via the degraded path and answers
// correctly (spot-checked against the naive evaluator — the full n^2
// sweep is too big here).
TEST(Degradation, DenseTenThousandVerticesUnderBudget) {
  Rng rng(99);
  const ColoredGraph g = gen::ErdosRenyi(10'000, 40.0, {2, 0.35}, &rng);
  EngineOptions options;
  options.budget.deadline_ms = 100;
  // Edge + color atoms keep the naive cross-check cheap (HasEdge is
  // O(log deg)); the LNF preprocessing still blows up on this density.
  const fo::ParseResult parsed = fo::ParseFormula("E(x, y) & C0(x)");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const fo::Query query = parsed.query;
  Timer build;
  const EnumerationEngine engine(g, query, options);
  const double build_seconds = build.ElapsedSeconds();
  ASSERT_TRUE(engine.used_fallback());
  EXPECT_TRUE(engine.stats().lazy_fallback);
  // Bounded: generously allow 30x the budget for scheduling noise; the
  // point is that preprocessing does not run to LNF completion (which
  // takes orders of magnitude longer on this input).
  EXPECT_LT(build_seconds, 3.0);

  fo::NaiveEvaluator naive(g);
  for (int i = 0; i < 200; ++i) {
    const Tuple t{static_cast<Vertex>(rng.NextBounded(10'000)),
                  static_cast<Vertex>(rng.NextBounded(10'000))};
    ASSERT_EQ(engine.Test(t), naive.TestTuple(query, t));
  }
  // The first solutions stream correctly and promptly.
  ConstantDelayEnumerator enumerator(engine);
  int produced = 0;
  for (auto s = enumerator.NextSolution(); s.has_value() && produced < 50;
       s = enumerator.NextSolution()) {
    ASSERT_TRUE(naive.TestTuple(query, *s));
    ++produced;
  }
  EXPECT_EQ(produced, 50);
}

// Degraded probes serialize behind the lazy evaluators' mutex but still
// draw a pooled ProbeContext; the drained counters must match serial
// expectations exactly: one probe per Test/Next call, one descent (lazy
// backtracking search) per Next call, none for Test.
TEST(Degradation, DrainedCountersMatchSerialExpectations) {
  Rng rng(41);
  const ColoredGraph g = testing_common::RandomGraph(1, 80, &rng);
  EngineOptions options = LnfForcingOptions();
  options.budget.max_edge_work = 1;
  const fo::Query query = SupportedBinaryQuery();
  const EnumerationEngine engine(g, query, options);
  ASSERT_TRUE(engine.stats().degraded);
  ASSERT_TRUE(engine.stats().lazy_fallback);
  // Construction issues no answer-phase probes; the pool starts clean.
  const AnswerCounters at_build = engine.DrainAnswerStats();
  EXPECT_EQ(at_build.probes_served, 0);
  EXPECT_EQ(at_build.descents, 0);

  const int64_t n = g.NumVertices();
  constexpr int kTests = 17;
  constexpr int kNexts = 5;
  for (int i = 0; i < kTests; ++i) {
    (void)engine.Test({static_cast<Vertex>(i % n),
                       static_cast<Vertex>((i * 7) % n)});
  }
  for (int i = 0; i < kNexts; ++i) {
    (void)engine.Next({static_cast<Vertex>((i * 13) % n), 0});
  }
  const AnswerCounters drained = engine.DrainAnswerStats();
  EXPECT_EQ(drained.probes_served, kTests + kNexts);
  EXPECT_EQ(drained.descents, kNexts);
  EXPECT_GE(drained.contexts, 1);

  // A second drain reports only traffic since the first.
  (void)engine.Test({0, 0});
  const AnswerCounters again = engine.DrainAnswerStats();
  EXPECT_EQ(again.probes_served, 1);
  EXPECT_EQ(again.descents, 0);
}

// The cover BFS charges work incrementally inside each ball (in
// BfsScratch::kChargeChunk batches), so even a single dense hub ball can
// overshoot the edge-work cap by at most one chunk — not by Theta(n), as
// a charge-after-the-ball scheme would on a star.
TEST(Degradation, CoverChargeOvershootIsBounded) {
  constexpr int64_t kLeaves = 2000;
  GraphBuilder builder(kLeaves + 1, 0);
  for (Vertex leaf = 1; leaf <= kLeaves; ++leaf) builder.AddEdge(0, leaf);
  const ColoredGraph star = std::move(builder).Build();

  ResourceBudgetOptions options;
  options.max_edge_work = 100;  // far below the hub ball's ~2n units
  const ResourceBudget budget(options);
  const NeighborhoodCover cover = NeighborhoodCover::Build(star, 1, &budget);
  ASSERT_TRUE(budget.Exceeded());
  EXPECT_FALSE(cover.complete());
  EXPECT_LE(budget.work_charged(),
            options.max_edge_work + BfsScratch::kChargeChunk);
}

// The kernel stage has its own fault points on both execution paths; a
// trip inside ComputeAllKernels must surface that point as the tripped
// stage (the engine's coarser "engine/kernels" attribution never
// overwrites it) and leave a correct degraded engine. Kernels are built
// only for a query with a Case I position (here the far case's y).
TEST(Degradation, KernelStageFaultPointsDegradeOnBothPaths) {
  struct PathCase {
    const char* point;
    int num_threads;
  };
  const PathCase cases[] = {{"engine/kernels/serial", 1},
                            {"engine/kernels/parallel", 4}};
  const fo::ParseResult parsed =
      fo::ParseFormula("dist(x, y) <= 1 | (C0(y) & dist(x, y) > 3)");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const fo::Query& query = parsed.query;
  for (const PathCase& c : cases) {
    Rng rng(1300);
    const ColoredGraph g = testing_common::RandomGraph(1, 70, &rng);
    EngineOptions options = LnfForcingOptions();
    options.num_threads = c.num_threads;
    fault_injection::ScopedFault fault(c.point);
    const EnumerationEngine engine(g, query, options);
    ASSERT_TRUE(engine.stats().degraded) << c.point;
    ASSERT_EQ(engine.stats().tripped_stage, c.point);
    ExpectAgreesWithNaive(engine, g, query);
  }
}

// Stats bookkeeping: a degraded engine reports its budget counters.
TEST(Degradation, StatsRecordBudgetCounters) {
  Rng rng(31);
  const ColoredGraph g = testing_common::RandomGraph(3, 80, &rng);
  EngineOptions options = LnfForcingOptions();
  options.budget.max_edge_work = 50;
  const EnumerationEngine engine(g, SupportedBinaryQuery(), options);
  ASSERT_TRUE(engine.stats().degraded);
  EXPECT_GE(engine.stats().budget_edge_work, 50);
  EXPECT_GE(engine.stats().budget_elapsed_ms, 0.0);
}

}  // namespace
}  // namespace nwd
