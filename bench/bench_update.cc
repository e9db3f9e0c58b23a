// Experiment E18 — dynamic update cost vs full rebuild. One benchmark
// iteration is one localized edge edit applied through the DynamicEngine
// and waited into sync (serving-graph mutation + in-place engine repair
// on the repair lane); the from-scratch engine build on the same graph is
// timed once per run and emitted alongside, so the artifact carries the
// update-vs-rebuild ratio the dynamic plane exists to win. Edits are
// confined to one corner of a grid: the damage region stays far below the
// repair-decline threshold, so every batch must take the localized-repair
// path — a single full rebuild, or a final answer set that diverges from
// a fresh engine, fails the binary (exit 1), not just the numbers.
//
// Two queries: `E(x, y) & C0(x)` (BM_UpdateRepair) has no Case I position,
// so the engine builds no cover, kernels or skip pointers and a repair
// patches none; the far query `dist(x, y) > 1 & C0(y)`
// (BM_UpdateRepairCaseOne) reads skip pointers at position 1, so every
// repair also patches the bags, recomputes kernels and re-grows skip rows
// (its `skip_rows_recomputed` counter witnesses that).
//
// The iteration count is pinned (->Iterations), so the edit stream and
// the final graph are deterministic and `solutions` is an exact-match
// counter for the baseline guard (attest_update_baseline_guard).
//
// Custom main: `--quick` shrinks nothing here (iterations are pinned)
// but skips the update-vs-rebuild ratio gate, which only means something
// on an unloaded machine at full size; correctness checks always run.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "dynamic/dynamic_engine.h"
#include "enumerate/engine.h"
#include "fo/parser.h"
#include "graph/colored_graph.h"
#include "util/lex.h"
#include "util/rng.h"
#include "util/timer.h"

namespace nwd {
namespace {

bool g_quick = false;
bool g_gate_violation = false;  // checked in main; exit 1 if set

// Pinned so the edit stream (and the exact-match `solutions` counter) is
// deterministic across runs and machines.
constexpr int kEditsPerRun = 64;
// The dynamic plane must beat a full rebuild by at least this factor on
// a localized edit; measured ratios are orders of magnitude higher.
constexpr double kMinSpeedup = 3.0;

constexpr const char* kEdgeQuery = "E(x, y) & C0(x)";
constexpr const char* kCaseOneQuery = "dist(x, y) > 1 & C0(y)";

fo::Query UpdateQuery(const char* text) {
  fo::ParseResult parsed = fo::ParseFormula(text);
  if (!parsed.ok) {
    std::fprintf(stderr, "query parse failed: %s\n", parsed.error.c_str());
    std::abort();
  }
  return parsed.query;
}

// A deterministic cycle of edge toggles confined to the low-id corner of
// the graph (the first rows of the grid), evolved against a scratch copy
// so every edit in the stream actually changes the graph.
std::vector<GraphEdit> EditCycle(const ColoredGraph& start, int count) {
  ColoredGraph scratch = start;
  std::vector<GraphEdit> edits;
  Rng rng(99);
  const uint64_t window =
      static_cast<uint64_t>(std::min<int64_t>(40, start.NumVertices()));
  while (static_cast<int>(edits.size()) < count) {
    const Vertex u = static_cast<Vertex>(rng.NextBounded(window));
    const Vertex v = static_cast<Vertex>(rng.NextBounded(window));
    if (u == v) continue;
    const GraphEdit edit = scratch.HasEdge(u, v)
                               ? GraphEdit::RemoveEdge(u, v)
                               : GraphEdit::AddEdge(u, v);
    scratch.ApplyInPlace(edit);
    edits.push_back(edit);
  }
  return edits;
}

template <typename Engine>
int64_t CountSolutions(const Engine& engine, int64_t n) {
  int64_t count = 0;
  Tuple cursor = LexMin(engine.arity());
  while (true) {
    const std::optional<Tuple> next = engine.Next(cursor);
    if (!next.has_value()) break;
    ++count;
    cursor = *next;
    if (!LexIncrement(&cursor, n)) break;
  }
  return count;
}

void RunUpdateRepair(benchmark::State& state, const char* query_text) {
  const int64_t n = state.range(0);
  const ColoredGraph base = bench::MakeGraph(bench::kGrid, n);
  const fo::Query query = UpdateQuery(query_text);

  // Full-rebuild baseline on the pristine graph: the cost one edit would
  // pay without the dynamic plane.
  Timer rebuild_timer;
  EnumerationEngine rebuilt(base, query);
  const double rebuild_ms = rebuild_timer.ElapsedSeconds() * 1e3;

  const std::vector<GraphEdit> edits = EditCycle(base, kEditsPerRun);
  DynamicEngine dynamic(base, query);

  size_t at = 0;
  int64_t skip_rows = 0;
  for (auto _ : state) {
    dynamic.Apply(
        std::span<const GraphEdit>(&edits[at % edits.size()], 1));
    dynamic.WaitForSync();
    skip_rows += dynamic.stats().last_repair.skip_rows_recomputed;
    ++at;
  }

  const DynamicEngine::UpdateStats stats = dynamic.stats();
  if (stats.full_rebuilds > 0) {
    std::fprintf(stderr,
                 "%s/%lld: %lld of %lld batches declined into a full "
                 "rebuild; the localized repair path was not measured\n",
                 query_text, static_cast<long long>(n),
                 static_cast<long long>(stats.full_rebuilds),
                 static_cast<long long>(stats.batches));
    g_gate_violation = true;
  }

  // Correctness anchor: the repaired engine's answers on the final graph
  // must match a from-scratch engine, and the count is deterministic, so
  // the baseline guard exact-matches it.
  ColoredGraph final_graph = base;
  for (size_t i = 0; i < at && i < edits.size(); ++i) {
    final_graph.ApplyInPlace(edits[i]);
  }
  EnumerationEngine fresh(final_graph, query);
  const int64_t solutions = CountSolutions(dynamic, n);
  if (solutions != CountSolutions(fresh, n)) {
    std::fprintf(stderr,
                 "%s/%lld: repaired engine answers diverged from a "
                 "from-scratch rebuild\n",
                 query_text, static_cast<long long>(n));
    g_gate_violation = true;
  }

  const double repair_ms =
      stats.batches > 0 ? stats.total_sync_ms / static_cast<double>(stats.batches)
                        : 0.0;
  if (!g_quick && repair_ms > 0.0 &&
      rebuild_ms < kMinSpeedup * repair_ms) {
    std::fprintf(stderr,
                 "%s/%lld: update is not asymptotically below rebuild "
                 "(repair %.3f ms vs rebuild %.3f ms, need %.1fx)\n",
                 query_text, static_cast<long long>(n), repair_ms, rebuild_ms,
                 kMinSpeedup);
    g_gate_violation = true;
  }

  state.SetLabel("grid");
  state.counters["n"] = static_cast<double>(n);
  state.counters["solutions"] = static_cast<double>(solutions);
  state.counters["repair_ms"] = repair_ms;
  state.counters["rebuild_ms"] = rebuild_ms;
  state.counters["speedup"] =
      repair_ms > 0.0 ? rebuild_ms / repair_ms : 0.0;
  state.counters["repairs"] = static_cast<double>(stats.repairs);
  state.counters["skip_rows_per_edit"] =
      at > 0 ? static_cast<double>(skip_rows) / static_cast<double>(at) : 0.0;
}

// The contrast point the artifact pairs with each repair run: a full
// engine build per iteration on the same graph.
void RunFullRebuild(benchmark::State& state, const char* query_text) {
  const int64_t n = state.range(0);
  const ColoredGraph base = bench::MakeGraph(bench::kGrid, n);
  const fo::Query query = UpdateQuery(query_text);
  for (auto _ : state) {
    EnumerationEngine engine(base, query);
    benchmark::DoNotOptimize(engine.stats());
  }
  state.SetLabel("grid");
  state.counters["n"] = static_cast<double>(n);
}

void BM_UpdateRepair(benchmark::State& state) {
  RunUpdateRepair(state, kEdgeQuery);
}
void BM_UpdateRepairCaseOne(benchmark::State& state) {
  RunUpdateRepair(state, kCaseOneQuery);
}
void BM_FullRebuild(benchmark::State& state) {
  RunFullRebuild(state, kEdgeQuery);
}
void BM_FullRebuildCaseOne(benchmark::State& state) {
  RunFullRebuild(state, kCaseOneQuery);
}

BENCHMARK(BM_UpdateRepair)->Arg(1024)->Arg(4096)
    ->Iterations(kEditsPerRun)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_UpdateRepairCaseOne)->Arg(1024)->Arg(4096)
    ->Iterations(kEditsPerRun)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FullRebuild)->Arg(1024)->Arg(4096)
    ->Iterations(3)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FullRebuildCaseOne)->Arg(1024)->Arg(4096)
    ->Iterations(3)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace nwd

int main(int argc, char** argv) {
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      nwd::g_quick = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  int pruned_argc = static_cast<int>(args.size());
  const int rc =
      nwd::bench::BenchMain(pruned_argc, args.data(), "bench_update");
  if (nwd::g_gate_violation) return 1;
  return rc;
}
