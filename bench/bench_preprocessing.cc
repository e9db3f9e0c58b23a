// Experiment E1 — Theorem 2.3 / 5.1: the preprocessing phase is
// pseudo-linear. Sweep n per graph class and query; the reported time
// should grow ~linearly in ||G|| on the nowhere dense classes (fit the
// exponent offline from the n-sweep; EXPERIMENTS.md records it).
//
// BM_EnginePreprocessThreads additionally sweeps
// EngineOptions::num_threads on the n=2^16 forest workload and reports
// the per-phase wall times (cover/kernels/oracle/skips/extendable),
// giving the preprocessing speedup curve of the parallel engine.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "enumerate/engine.h"
#include "fo/builders.h"

namespace nwd {
namespace {

void BM_EnginePreprocess(benchmark::State& state) {
  const int kind = static_cast<int>(state.range(0));
  const int64_t n = state.range(1);
  const int query_id = static_cast<int>(state.range(2));
  const ColoredGraph g = bench::MakeGraph(kind, n);
  fo::Query query;
  switch (query_id) {
    case 0:
      query = fo::DistanceQuery(2);
      break;
    case 1:
      query = fo::FarColorQuery(2, 0);
      break;
    default:
      query = fo::ColoredPairQuery(0, 1, 3);
      break;
  }
  int64_t bags = 0;
  int64_t degree = 0;
  for (auto _ : state) {
    const EnumerationEngine engine(g, query);
    benchmark::DoNotOptimize(&engine);
    bags = engine.stats().cover_bags;
    degree = engine.stats().cover_degree;
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["size_norm"] = static_cast<double>(g.SizeNorm());
  state.counters["cover_bags"] = static_cast<double>(bags);
  state.counters["cover_degree"] = static_cast<double>(degree);
  state.SetLabel(bench::GraphKindName(kind));
}

void PreprocessArgs(benchmark::internal::Benchmark* b) {
  for (int kind : {bench::kTree, bench::kBoundedDegree, bench::kGrid}) {
    for (int64_t n : {1 << 12, 1 << 13, 1 << 14, 1 << 15}) {
      for (int query = 0; query < 3; ++query) b->Args({kind, n, query});
    }
  }
}

BENCHMARK(BM_EnginePreprocess)
    ->Apply(PreprocessArgs)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->Iterations(1);

// The speedup curve: identical work at every thread count (results are
// bit-identical by the parallel_engine_test property), so wall time is
// the only thing that moves. Real time, not CPU time — the whole point
// is spending more cores per wall second.
void BM_EnginePreprocessThreads(benchmark::State& state) {
  const int num_threads = static_cast<int>(state.range(0));
  const int query_id = static_cast<int>(state.range(1));
  const int64_t n = int64_t{1} << 16;
  const ColoredGraph g = bench::MakeGraph(bench::kForest, n);
  // Query 0 is a near query: it has no Case I position, so it builds no
  // cover, kernels or skip pointers and its curve is the oracle, the list
  // scan and the extendable descents. Query 1's far position reads skip
  // pointers, so the cover, kernel and skip phases run too.
  const fo::Query query =
      query_id == 0 ? fo::DistanceQuery(2) : fo::FarColorQuery(3, 0);
  EngineOptions options;
  options.num_threads = num_threads;
  EnumerationEngine::Stats stats;
  for (auto _ : state) {
    const EnumerationEngine engine(g, query, options);
    benchmark::DoNotOptimize(&engine);
    stats = engine.stats();
  }
  state.counters["threads"] = static_cast<double>(num_threads);
  state.counters["cover_ms"] = stats.cover_ms;
  state.counters["kernels_ms"] = stats.kernels_ms;
  state.counters["oracle_ms"] = stats.oracle_ms;
  state.counters["skips_ms"] = stats.skips_ms;
  state.counters["extendable_ms"] = stats.extendable_ms;
  state.SetLabel(bench::GraphKindName(bench::kForest));
}

void PreprocessThreadArgs(benchmark::internal::Benchmark* b) {
  for (int query = 0; query < 2; ++query) {
    for (int threads : {1, 2, 4, 8}) b->Args({threads, query});
  }
}

BENCHMARK(BM_EnginePreprocessThreads)
    ->Apply(PreprocessThreadArgs)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

}  // namespace
}  // namespace nwd

int main(int argc, char** argv) {
  return nwd::bench::BenchMain(argc, argv, "bench_preprocessing");
}
