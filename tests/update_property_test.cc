// Property tests for the dynamic-update plane: a stream of random edits
// (edge insertions, edge deletions, color flips) with mid-stream probes
// must be bit-identical to a from-scratch engine rebuild after every
// edit, and both to the naive evaluator over the edited graph. Covers
// tree / bounded-degree / grid inputs, thread counts 1-8,
// budget-tripped (degraded) engines where Repair must decline, and the
// repair lane's lag, where probes issued while the engine catches up are
// answered through the lazy baseline. Two concurrent tests race readers
// against a writer: every answer must hold for a graph version live
// during the probe, and saturating readers must not stall the repair
// lane. TSan / ASan twins run the same streams under the sanitizers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "dynamic/dynamic_engine.h"
#include "enumerate/engine.h"
#include "fo/naive_eval.h"
#include "fo/parser.h"
#include "graph/colored_graph.h"
#include "property_common.h"
#include "util/lex.h"
#include "util/rng.h"

namespace nwd {
namespace {

using testing_common::RandomGraph;
using testing_common::RandomQuery;

// Full enumeration by repeated Next() from the lexicographic minimum.
// Works for both EnumerationEngine and DynamicEngine.
template <typename Engine>
std::vector<Tuple> AllAnswers(const Engine& engine, int64_t n) {
  std::vector<Tuple> out;
  if (n == 0) return out;
  Tuple cursor = LexMin(engine.arity());
  while (true) {
    const std::optional<Tuple> next = engine.Next(cursor);
    if (!next.has_value()) break;
    out.push_back(*next);
    cursor = *next;
    if (!LexIncrement(&cursor, n)) break;
  }
  return out;
}

Tuple RandomTuple(int arity, int64_t n, Rng* rng) {
  Tuple t(arity);
  for (int i = 0; i < arity; ++i) {
    t[i] = static_cast<int64_t>(rng->NextBounded(static_cast<uint64_t>(n)));
  }
  return t;
}

// One random edit against the current graph: a color flip, an edge toggle
// on a random pair, or the deletion of an existing edge (so deletions hit
// real edges often instead of almost always being no-ops).
GraphEdit RandomEdit(const ColoredGraph& g, Rng* rng) {
  const int64_t n = g.NumVertices();
  const int roll = static_cast<int>(rng->NextBounded(4));
  if (roll == 0 || n < 2) {
    const Vertex v = static_cast<Vertex>(rng->NextBounded(n));
    const int c = static_cast<int>(rng->NextBounded(g.NumColors()));
    return GraphEdit::SetColor(v, c, !g.HasColor(v, c));
  }
  if (roll == 1) {
    // Delete an existing edge if the sampled vertex has one.
    const Vertex u = static_cast<Vertex>(rng->NextBounded(n));
    if (g.Degree(u) > 0) {
      const auto nbrs = g.Neighbors(u);
      const Vertex v = nbrs[rng->NextBounded(nbrs.size())];
      return GraphEdit::RemoveEdge(u, v);
    }
  }
  // Toggle a random pair: add if absent, remove if present.
  Vertex u = static_cast<Vertex>(rng->NextBounded(n));
  Vertex v = static_cast<Vertex>(rng->NextBounded(n));
  if (u == v) v = (v + 1) % n;
  return g.HasEdge(u, v) ? GraphEdit::RemoveEdge(u, v)
                         : GraphEdit::AddEdge(u, v);
}

// Drives one edit stream: a DynamicEngine consumes random edits one at a
// time, each waited into sync; after every edit its full enumeration and
// a batch of random membership probes must be bit-identical to an engine
// built from scratch over an identically mutated reference graph, and
// both to the naive evaluator there. The reference engine always runs with
// default (unlimited) options, so this also checks degraded dynamic
// configurations against ground truth.
void RunEditStream(int kind, int arity, uint64_t seed,
                   const EngineOptions& engine_options, int num_edits,
                   int graph_size) {
  Rng rng(seed);
  ColoredGraph reference = RandomGraph(kind, graph_size, &rng);
  const fo::Query query = RandomQuery(arity, reference.NumColors(), &rng);
  const int64_t n = reference.NumVertices();

  DynamicEngine dynamic(reference, query, engine_options);

  for (int step = 0; step < num_edits; ++step) {
    const GraphEdit edit = RandomEdit(reference, &rng);
    const bool changed = reference.ApplyInPlace(edit);
    const int64_t applied = dynamic.Apply(std::span<const GraphEdit>(&edit, 1));
    ASSERT_EQ(changed ? 1 : 0, applied)
        << "kind=" << kind << " seed=" << seed << " step=" << step;
    dynamic.WaitForSync();

    EnumerationEngine fresh(reference, query);
    if (!fresh.used_fallback()) {
      ASSERT_NE(fresh.compiled_query(), nullptr);
    }
    fo::NaiveEvaluator naive(reference);
    const std::vector<Tuple> expected = naive.AllSolutions(query);
    ASSERT_EQ(expected, AllAnswers(fresh, n))
        << "rebuilt engine diverged from the naive evaluator: kind=" << kind
        << " arity=" << arity << " seed=" << seed << " step=" << step;
    const std::vector<Tuple> actual = AllAnswers(dynamic, n);
    ASSERT_EQ(expected, actual)
        << "enumeration diverged from from-scratch rebuild: kind=" << kind
        << " arity=" << arity << " seed=" << seed << " step=" << step;
    for (int probe = 0; probe < 24; ++probe) {
      const Tuple t = RandomTuple(arity, n, &rng);
      const bool truth = naive.TestTuple(query, t);
      ASSERT_EQ(truth, fresh.Test(t))
          << "rebuilt Test diverged: kind=" << kind << " seed=" << seed
          << " step=" << step;
      ASSERT_EQ(truth, dynamic.Test(t))
          << "Test diverged: kind=" << kind << " seed=" << seed
          << " step=" << step;
    }
  }

  const DynamicEngine::UpdateStats stats = dynamic.stats();
  EXPECT_TRUE(stats.in_sync);
  EXPECT_GT(stats.batches, 0);
  EXPECT_EQ(stats.batches, stats.repairs + stats.full_rebuilds);
}

TEST(UpdatePropertyTest, TreeEditStreamMatchesRebuild) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    RunEditStream(/*kind=*/0, /*arity=*/2, seed, EngineOptions(),
                  /*num_edits=*/10, /*graph_size=*/70);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(UpdatePropertyTest, BoundedDegreeEditStreamMatchesRebuild) {
  for (uint64_t seed = 11; seed <= 13; ++seed) {
    RunEditStream(/*kind=*/1, /*arity=*/2, seed, EngineOptions(),
                  /*num_edits=*/10, /*graph_size=*/70);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(UpdatePropertyTest, GridEditStreamMatchesRebuild) {
  for (uint64_t seed = 21; seed <= 23; ++seed) {
    RunEditStream(/*kind=*/2, /*arity=*/2, seed, EngineOptions(),
                  /*num_edits=*/10, /*graph_size=*/64);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(UpdatePropertyTest, UnaryQueriesAcrossKinds) {
  for (int kind = 0; kind < 3; ++kind) {
    RunEditStream(kind, /*arity=*/1, /*seed=*/31 + kind, EngineOptions(),
                  /*num_edits=*/10, /*graph_size=*/80);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(UpdatePropertyTest, ThreadCountsAreBitIdentical) {
  for (const int threads : {2, 8}) {
    EngineOptions options;
    options.num_threads = threads;
    RunEditStream(/*kind=*/0, /*arity=*/2, /*seed=*/41, options,
                  /*num_edits=*/8, /*graph_size=*/70);
    if (::testing::Test::HasFatalFailure()) return;
    RunEditStream(/*kind=*/1, /*arity=*/2, /*seed=*/43, options,
                  /*num_edits=*/8, /*graph_size=*/70);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// A budget-tripped engine degrades to the lazy baseline; Repair must
// decline on it and the full-rebuild path must carry every edit. The
// reference engine runs unlimited, so degraded answers are checked
// against ground truth, not against another degraded engine.
TEST(UpdatePropertyTest, BudgetTrippedEngineStaysCorrect) {
  EngineOptions tripped;
  tripped.budget.max_edge_work = 1;
  RunEditStream(/*kind=*/0, /*arity=*/2, /*seed=*/51, tripped,
                /*num_edits=*/8, /*graph_size=*/60);
  if (::testing::Test::HasFatalFailure()) return;
  RunEditStream(/*kind=*/2, /*arity=*/1, /*seed=*/53, tripped,
                /*num_edits=*/8, /*graph_size=*/60);
}

// No-op edits (re-adding a present edge, re-asserting a color) must not
// reach the repair lane or flip the engine out of sync.
TEST(UpdatePropertyTest, NoopEditsAreDropped) {
  Rng rng(71);
  ColoredGraph graph = RandomGraph(/*kind=*/0, 50, &rng);
  const fo::Query query = RandomQuery(2, graph.NumColors(), &rng);
  ASSERT_GT(graph.NumEdges(), 0);
  const Vertex u = 0;
  ASSERT_GT(graph.Degree(u), 0);
  const Vertex v = graph.Neighbors(u)[0];

  DynamicEngine dynamic(graph, query);
  const std::vector<GraphEdit> noops = {
      GraphEdit::AddEdge(u, v),  // already present
      GraphEdit::SetColor(3, 0, graph.HasColor(3, 0)),  // already set so
      GraphEdit::RemoveEdge(1, 1),  // self-loop, never present
  };
  EXPECT_EQ(0, dynamic.Apply(noops));
  const DynamicEngine::UpdateStats stats = dynamic.stats();
  EXPECT_TRUE(stats.in_sync);
  EXPECT_EQ(0, stats.batches);
  EXPECT_EQ(3, stats.edits_noop);
}

// The localized repair path must actually engage, not decline into a
// full rebuild. Random small graphs always decline (the 2R damage region
// swallows more than a quarter of the universe), so this pins a setting
// where repair provably stays local: a radius-1 query over a
// long-diameter grid, with every edit confined to one corner so the
// successive damage regions overlap and the oracle dirty set stays under
// the decline threshold. Answers must still be bit-identical to a
// from-scratch engine after every edit.
TEST(UpdatePropertyTest, EdgeRepairEngagesOnLargeGrid) {
  fo::ParseResult parsed = fo::ParseFormula("E(x, y) & C0(x)");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  Rng rng(91);
  // kind 2 with n=640 builds an 80x8 grid: diameter ~86.
  ColoredGraph reference = RandomGraph(/*kind=*/2, 640, &rng);
  const int64_t n = reference.NumVertices();
  ASSERT_GE(n, 500);

  DynamicEngine dynamic(reference, parsed.query);

  for (int step = 0; step < 8; ++step) {
    Vertex u = static_cast<Vertex>(rng.NextBounded(40));
    Vertex v = static_cast<Vertex>(rng.NextBounded(40));
    if (u == v) v = (v + 1) % 40;
    const GraphEdit edit = reference.HasEdge(u, v)
                               ? GraphEdit::RemoveEdge(u, v)
                               : GraphEdit::AddEdge(u, v);
    reference.ApplyInPlace(edit);
    dynamic.Apply(std::span<const GraphEdit>(&edit, 1));
    dynamic.WaitForSync();

    EnumerationEngine fresh(reference, parsed.query);
    ASSERT_EQ(AllAnswers(fresh, n), AllAnswers(dynamic, n))
        << "repair diverged from rebuild at step " << step;
    for (int probe = 0; probe < 16; ++probe) {
      const Tuple t = RandomTuple(2, n, &rng);
      ASSERT_EQ(fresh.Test(t), dynamic.Test(t)) << "step=" << step;
    }
  }

  const DynamicEngine::UpdateStats stats = dynamic.stats();
  EXPECT_GT(stats.repairs, 0)
      << "every edge batch declined into a full rebuild; the localized "
         "repair path was never exercised";
}

// Color-only batches never touch the cover or the oracle, so repair must
// always succeed in place — a full rebuild on a color flip would defeat
// the point of the update plane.
TEST(UpdatePropertyTest, ColorOnlyStreamAlwaysRepairsInPlace) {
  fo::ParseResult parsed = fo::ParseFormula("E(x, y) & C1(y) & !C0(x)");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  for (int kind = 0; kind < 3; ++kind) {
    Rng rng(static_cast<uint64_t>(95 + kind));
    ColoredGraph reference = RandomGraph(kind, 70, &rng);
    const int64_t n = reference.NumVertices();

    DynamicEngine dynamic(reference, parsed.query);

    for (int step = 0; step < 10; ++step) {
      const Vertex v = static_cast<Vertex>(rng.NextBounded(n));
      const int c = static_cast<int>(rng.NextBounded(reference.NumColors()));
      const GraphEdit edit =
          GraphEdit::SetColor(v, c, !reference.HasColor(v, c));
      reference.ApplyInPlace(edit);
      dynamic.Apply(std::span<const GraphEdit>(&edit, 1));
      dynamic.WaitForSync();

      EnumerationEngine fresh(reference, parsed.query);
      ASSERT_EQ(AllAnswers(fresh, n), AllAnswers(dynamic, n))
          << "kind=" << kind << " step=" << step;
    }

    const DynamicEngine::UpdateStats stats = dynamic.stats();
    EXPECT_EQ(stats.batches, stats.repairs) << "kind=" << kind;
    EXPECT_EQ(0, stats.full_rebuilds)
        << "a color flip forced a full rebuild (kind=" << kind << ")";
  }
}

// The Case I twin of EdgeRepairEngagesOnLargeGrid. A far query reads skip
// pointers at position 1, so prepare builds the cover, the kernels and the
// skips, and every in-place edge repair must patch all three: the bag
// patch and kernel recompute, then SkipPointers::RepairKernels. Corner
// edits keep the dirty overlay under its decline threshold, so every
// batch repairs in place. Two colors keep the answer set (and the naive
// evaluator's pass over all n^2 pairs) small enough for the sanitizer
// twins.
TEST(UpdatePropertyTest, CaseOneEdgeRepairEngagesOnLargeGrid) {
  fo::ParseResult parsed =
      fo::ParseFormula("C0(x) & C1(y) & dist(x, y) > 1");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  Rng rng(91);
  ColoredGraph reference = RandomGraph(/*kind=*/2, 640, &rng);
  const int64_t n = reference.NumVertices();
  ASSERT_GE(n, 500);

  DynamicEngine dynamic(reference, parsed.query);
  ASSERT_GT(dynamic.engine_stats().cover_bags, 0);
  ASSERT_GT(dynamic.engine_stats().skip_entries, 0);

  for (int step = 0; step < 8; ++step) {
    Vertex u = static_cast<Vertex>(rng.NextBounded(40));
    Vertex v = static_cast<Vertex>(rng.NextBounded(40));
    if (u == v) v = (v + 1) % 40;
    const GraphEdit edit = reference.HasEdge(u, v)
                               ? GraphEdit::RemoveEdge(u, v)
                               : GraphEdit::AddEdge(u, v);
    reference.ApplyInPlace(edit);
    dynamic.Apply(std::span<const GraphEdit>(&edit, 1));
    dynamic.WaitForSync();

    const DynamicEngine::UpdateStats stats = dynamic.stats();
    ASSERT_EQ(step + 1, stats.repairs)
        << "the edge batch declined into a full rebuild at step " << step;
    EXPECT_GT(stats.last_repair.kernels_recomputed, 0) << "step=" << step;
    EXPECT_GT(stats.last_repair.skip_rows_recomputed, 0) << "step=" << step;

    EnumerationEngine fresh(reference, parsed.query);
    const std::vector<Tuple> answers = AllAnswers(dynamic, n);
    ASSERT_EQ(AllAnswers(fresh, n), answers)
        << "repair diverged from rebuild at step " << step;
    fo::NaiveEvaluator naive(reference);
    ASSERT_EQ(naive.AllSolutions(parsed.query), answers)
        << "repair diverged from the naive evaluator at step " << step;
  }
}

// The Case I twin of ColorOnlyStreamAlwaysRepairsInPlace: every flip
// changes the C0 list that position 1 reads through its skip pointers, so
// each repair rebuilds that list's skips in place.
TEST(UpdatePropertyTest, CaseOneColorOnlyStreamRebuildsSkipsInPlace) {
  fo::ParseResult parsed = fo::ParseFormula("dist(x, y) > 1 & C0(y)");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  for (int kind = 0; kind < 3; ++kind) {
    Rng rng(static_cast<uint64_t>(195 + kind));
    ColoredGraph reference = RandomGraph(kind, 70, &rng);
    const int64_t n = reference.NumVertices();

    DynamicEngine dynamic(reference, parsed.query);
    ASSERT_GT(dynamic.engine_stats().skip_entries, 0) << "kind=" << kind;

    for (int step = 0; step < 10; ++step) {
      const Vertex v = static_cast<Vertex>(rng.NextBounded(n));
      const GraphEdit edit =
          GraphEdit::SetColor(v, 0, !reference.HasColor(v, 0));
      reference.ApplyInPlace(edit);
      dynamic.Apply(std::span<const GraphEdit>(&edit, 1));
      dynamic.WaitForSync();

      const DynamicEngine::UpdateStats stats = dynamic.stats();
      ASSERT_EQ(step + 1, stats.repairs)
          << "a color flip forced a full rebuild (kind=" << kind
          << " step=" << step << ")";
      EXPECT_GT(stats.last_repair.skips_rebuilt, 0)
          << "kind=" << kind << " step=" << step;

      EnumerationEngine fresh(reference, parsed.query);
      const std::vector<Tuple> answers = AllAnswers(dynamic, n);
      ASSERT_EQ(AllAnswers(fresh, n), answers)
          << "kind=" << kind << " step=" << step;
      fo::NaiveEvaluator naive(reference);
      ASSERT_EQ(naive.AllSolutions(parsed.query), answers)
          << "kind=" << kind << " step=" << step;
    }
  }
}

// A near query has no Case I position: prepare builds no cover, kernel or
// skip, and an in-place edge repair has none to patch, yet answers stay
// exact.
TEST(UpdatePropertyTest, NearQueryBuildsAndRepairsNoCaseOneStructures) {
  fo::ParseResult parsed = fo::ParseFormula("dist(x, y) <= 2 & C0(y)");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  Rng rng(93);
  ColoredGraph g = RandomGraph(/*kind=*/2, 640, &rng);
  EnumerationEngine engine(g, parsed.query);
  ASSERT_FALSE(engine.used_fallback());
  EXPECT_EQ(0, engine.stats().cover_bags);
  EXPECT_EQ(0, engine.stats().skip_entries);

  const GraphEdit edit = GraphEdit::AddEdge(0, 18);  // a corner chord
  ASSERT_TRUE(g.ApplyInPlace(edit));
  EnumerationEngine::RepairStats repair;
  ASSERT_TRUE(engine.Repair(std::span<const GraphEdit>(&edit, 1), &repair));
  EXPECT_GT(repair.region_size, 0);
  EXPECT_EQ(0, repair.damaged_bags);
  EXPECT_EQ(0, repair.kernels_recomputed);
  EXPECT_EQ(0, repair.skips_repaired);
  EXPECT_EQ(0, repair.skip_rows_recomputed);
  EXPECT_EQ(0, engine.stats().skip_entries);

  fo::NaiveEvaluator naive(g);
  EXPECT_EQ(naive.AllSolutions(parsed.query),
            AllAnswers(engine, g.NumVertices()));
}

// Apply a batch, then probe without waiting: probes that land while the
// repair lane is busy go through the lag lane's lazy baseline
// and must still agree with a from-scratch engine over the final graph
// (the serving graph is already final when Apply returns). After
// WaitForSync the full enumeration must match too.
TEST(UpdatePropertyTest, AsyncProbesDuringRepairAreCorrect) {
  for (uint64_t seed = 81; seed <= 83; ++seed) {
    Rng rng(seed);
    ColoredGraph reference = RandomGraph(/*kind=*/static_cast<int>(seed % 3),
                                         80, &rng);
    const fo::Query query = RandomQuery(2, reference.NumColors(), &rng);
    const int64_t n = reference.NumVertices();

    DynamicEngine dynamic(reference, query);
    std::vector<GraphEdit> batch;
    for (int i = 0; i < 12; ++i) {
      const GraphEdit edit = RandomEdit(reference, &rng);
      reference.ApplyInPlace(edit);
      batch.push_back(edit);
      // Re-derive edits against the mutated reference so the batch stays
      // coherent (e.g. no double-remove of the same edge).
    }
    dynamic.Apply(batch);

    EnumerationEngine fresh(reference, query);
    // Probe right away: some of these race the repair lane and are
    // answered lazily; all must agree with ground truth.
    for (int probe = 0; probe < 40; ++probe) {
      const Tuple t = RandomTuple(2, n, &rng);
      ASSERT_EQ(fresh.Test(t), dynamic.Test(t)) << "seed=" << seed;
      const std::optional<Tuple> expected = fresh.Next(t);
      ASSERT_EQ(expected, dynamic.Next(t)) << "seed=" << seed;
    }
    dynamic.WaitForSync();
    EXPECT_TRUE(dynamic.in_sync());
    EXPECT_EQ(AllAnswers(fresh, n), AllAnswers(dynamic, n))
        << "seed=" << seed;

    const DynamicEngine::UpdateStats stats = dynamic.stats();
    EXPECT_GT(stats.edits_applied, 0);
    EXPECT_GT(stats.batches, 0);
  }
}

// The version contract under concurrency: reader threads race a
// writer's Apply stream, and each answer must be the naive evaluator's
// answer on a graph version that was the newest applied at some point
// during the probe. The writer keeps every version and bumps `applied`
// after each Apply returns, so a probe that read `before` at its start and
// `after` at its end may answer for any version in [before, after + 1].
// Every other edit is waited into sync, so both the in-sync engine and
// the unlocked lag lane answer.
TEST(UpdatePropertyTest, ConcurrentProbesAnswerForALiveVersion) {
  constexpr int kReaders = 3;
  constexpr int kEdits = 24;
  constexpr size_t kMaxRecords = 1500;  // per reader
  struct Record {
    bool is_test;
    Tuple probe;
    bool bit;
    std::optional<Tuple> next;
    int before;
    int after;
  };
  for (int kind = 0; kind < 3; ++kind) {
    Rng rng(static_cast<uint64_t>(301 + kind));
    std::vector<ColoredGraph> versions = {RandomGraph(kind, 100, &rng)};
    const fo::Query query = RandomQuery(2, versions[0].NumColors(), &rng);
    const int64_t n = versions[0].NumVertices();
    DynamicEngine dynamic(versions[0], query);

    std::atomic<int> applied{0};
    std::atomic<int> started{0};
    std::atomic<bool> done{false};
    std::vector<std::vector<Record>> records(kReaders);
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        Rng reader_rng(static_cast<uint64_t>(1000 * kind + r));
        std::vector<Record>& out = records[static_cast<size_t>(r)];
        started.fetch_add(1);
        do {
          Record rec;
          rec.is_test = reader_rng.NextBool(0.5);
          rec.probe = RandomTuple(2, n, &reader_rng);
          rec.before = applied.load();
          if (rec.is_test) {
            rec.bit = dynamic.Test(rec.probe);
          } else {
            rec.next = dynamic.Next(rec.probe);
          }
          rec.after = applied.load();
          out.push_back(std::move(rec));
        } while (!done.load() && out.size() < kMaxRecords);
      });
    }
    while (started.load() < kReaders) std::this_thread::yield();
    for (int i = 1; i <= kEdits; ++i) {
      ColoredGraph next = versions.back();
      GraphEdit edit = RandomEdit(next, &rng);
      while (!next.ApplyInPlace(edit)) edit = RandomEdit(next, &rng);
      versions.push_back(std::move(next));
      EXPECT_EQ(1, dynamic.Apply(std::span<const GraphEdit>(&edit, 1)));
      applied.store(i);
      if (i % 2 == 0) dynamic.WaitForSync();
    }
    done.store(true);
    for (std::thread& t : readers) t.join();

    std::vector<std::vector<Tuple>> solutions;
    for (const ColoredGraph& g : versions) {
      fo::NaiveEvaluator naive(g);
      solutions.push_back(naive.AllSolutions(query));
    }
    const int newest = static_cast<int>(versions.size()) - 1;
    for (const std::vector<Record>& reader_records : records) {
      for (const Record& rec : reader_records) {
        bool matched = false;
        for (int v = rec.before; v <= std::min(rec.after + 1, newest) &&
                                 !matched;
             ++v) {
          const std::vector<Tuple>& sols = solutions[static_cast<size_t>(v)];
          if (rec.is_test) {
            matched = rec.bit ==
                      std::binary_search(sols.begin(), sols.end(), rec.probe);
          } else {
            const auto it =
                std::lower_bound(sols.begin(), sols.end(), rec.probe);
            const std::optional<Tuple> truth =
                it == sols.end() ? std::nullopt : std::make_optional(*it);
            matched = rec.next == truth;
          }
        }
        ASSERT_TRUE(matched)
            << "kind=" << kind << (rec.is_test ? " Test" : " Next")
            << " answered for no version in [" << rec.before << ", "
            << rec.after + 1 << "]";
      }
    }
    dynamic.WaitForSync();
    EXPECT_EQ(solutions.back(), AllAnswers(dynamic, n)) << "kind=" << kind;
  }
}

// Liveness of the repair lane (Theorem 2.3's constant-time probes hold
// only in sync): three readers call Test / Next back to back while the
// main thread toggles single edges, each Apply followed by WaitForSync.
// The median sync under readers must stay within kMaxSlowdown of the
// median with no readers, plus kWakeupSlackMs: an idle sync takes ~0.1 ms
// in an optimized build, and when parallel test jobs oversubscribe the
// cores, waking the repair lane and the waiter alone can take ms. A
// lag-lane probe that held the state lock for its whole search would keep
// the end-of-sync flip from ever getting the lock exclusively; the
// readers stop on their own at the deadline, so a starved lane fails the
// test instead of hanging it.
TEST(UpdatePropertyTest, RepairLaneKeepsPaceWithSaturatingReaders) {
  constexpr int kSyncs = 40;
  constexpr double kMaxSlowdown = 8.0;
  constexpr double kWakeupSlackMs = 25.0;
  constexpr auto kReaderDeadline = std::chrono::seconds(30);
  fo::ParseResult parsed = fo::ParseFormula("dist(x, y) <= 2 & C0(y)");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  Rng rng(401);
  const ColoredGraph grid = gen::Grid(64, 64, {2, 0.35}, &rng);
  const int64_t n = grid.NumVertices();
  DynamicEngine dynamic(grid, parsed.query);

  // Diagonal chords of one grid square; each round toggles every site
  // once, and the next round toggles them back.
  std::vector<GraphEdit> chords;
  for (int i = 0; i < kSyncs; ++i) {
    const Vertex row = static_cast<Vertex>(rng.NextBounded(63));
    const Vertex col = static_cast<Vertex>(rng.NextBounded(63));
    chords.push_back(
        GraphEdit::AddEdge(row * 64 + col, (row + 1) * 64 + col + 1));
  }
  ColoredGraph mirror = grid;
  const auto median_sync_ms = [&](const std::atomic<bool>* readers_live,
                                  int* completed) {
    std::vector<double> ms;
    for (const GraphEdit& chord : chords) {
      if (readers_live != nullptr && !readers_live->load()) break;
      const GraphEdit edit = mirror.HasEdge(chord.u, chord.v)
                                 ? GraphEdit::RemoveEdge(chord.u, chord.v)
                                 : chord;
      mirror.ApplyInPlace(edit);
      const auto start = std::chrono::steady_clock::now();
      dynamic.Apply(std::span<const GraphEdit>(&edit, 1));
      dynamic.WaitForSync();
      ms.push_back(std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count());
    }
    *completed = static_cast<int>(ms.size());
    if (ms.empty()) return 0.0;
    std::nth_element(ms.begin(), ms.begin() + ms.size() / 2, ms.end());
    return ms[ms.size() / 2];
  };

  int idle_syncs = 0;
  const double idle_ms = median_sync_ms(nullptr, &idle_syncs);
  ASSERT_EQ(kSyncs, idle_syncs);

  std::atomic<bool> readers_live{true};
  const auto deadline = std::chrono::steady_clock::now() + kReaderDeadline;
  std::atomic<int64_t> probes{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng reader_rng(static_cast<uint64_t>(500 + r));
      int64_t local = 0;
      while (readers_live.load()) {
        const Tuple t = RandomTuple(2, n, &reader_rng);
        if (local % 2 == 0) {
          (void)dynamic.Test(t);
        } else {
          (void)dynamic.Next(t);
        }
        if (++local % 64 == 0 && std::chrono::steady_clock::now() > deadline) {
          readers_live.store(false);
        }
      }
      probes.fetch_add(local);
    });
  }
  int loaded_syncs = 0;
  const double loaded_ms = median_sync_ms(&readers_live, &loaded_syncs);
  const bool readers_timed_out = !readers_live.exchange(false);
  for (std::thread& t : readers) t.join();

  ASSERT_FALSE(readers_timed_out)
      << "the repair lane finished " << loaded_syncs << " of " << kSyncs
      << " syncs under readers before the deadline";
  ASSERT_EQ(kSyncs, loaded_syncs);
  EXPECT_GT(probes.load(), 0);
  EXPECT_LE(loaded_ms, kMaxSlowdown * idle_ms + kWakeupSlackMs)
      << "median sync " << loaded_ms << " ms under readers vs " << idle_ms
      << " ms idle";
  const DynamicEngine::UpdateStats stats = dynamic.stats();
  EXPECT_EQ(2 * kSyncs, stats.batches);
  EXPECT_TRUE(stats.in_sync);
}

}  // namespace
}  // namespace nwd
