// Experiment E10 — the paper's motivating scenario (Section 1): when only
// the first m solutions are consumed, constant-delay enumeration with
// pseudo-linear preprocessing beats materializing q(G). Measures
// time-to-first-m for the engine (including preprocessing) vs the
// backtracking baseline, sweeping m; the crossover point is where the
// engine's preprocessing amortizes. Two queries on trees: far-color
// dist(x, y) > 2 & C0(y), a dense answer set (|q(G)| ≈ 0.8 n²), and the
// sparse near query dist(x, y) <= 2 & C0(y) (|q(G)| ≈ 1.4 n), where the
// baseline scans many candidates per answer (the *Near benchmarks).

#include <benchmark/benchmark.h>

#include "baseline/naive_enum.h"
#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "enumerate/engine.h"
#include "enumerate/enumerator.h"
#include "fo/builders.h"
#include "fo/parser.h"
#include "util/check.h"

namespace nwd {
namespace {

fo::Query NearQuery() {
  const fo::ParseResult parsed =
      fo::ParseQuery("(x, y) := dist(x, y) <= 2 & C0(y)");
  NWD_CHECK(parsed.ok) << parsed.error;
  return parsed.query;
}

void EngineTimeToFirstM(benchmark::State& state, const fo::Query& q) {
  const int64_t n = state.range(0);
  const int64_t m = state.range(1);
  const ColoredGraph g = bench::MakeGraph(bench::kTree, n);
  int64_t produced = 0;
  for (auto _ : state) {
    const EnumerationEngine engine(g, q);  // preprocessing included
    ConstantDelayEnumerator enumerator(engine);
    produced = 0;
    while (produced < m && enumerator.NextSolution().has_value()) {
      ++produced;
    }
    benchmark::DoNotOptimize(produced);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["m"] = static_cast<double>(m);
  state.counters["produced"] = static_cast<double>(produced);
}

void BaselineTimeToFirstM(benchmark::State& state, const fo::Query& q) {
  const int64_t n = state.range(0);
  const int64_t m = state.range(1);
  const ColoredGraph g = bench::MakeGraph(bench::kTree, n);
  int64_t produced = 0;
  for (auto _ : state) {
    BacktrackingEnumerator baseline(g, q);
    produced = 0;
    baseline.Enumerate([&produced, m](const Tuple&) {
      ++produced;
      return produced < m;
    });
    benchmark::DoNotOptimize(produced);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["m"] = static_cast<double>(m);
  state.counters["produced"] = static_cast<double>(produced);
}

void BM_EngineTimeToFirstM(benchmark::State& state) {
  EngineTimeToFirstM(state, fo::FarColorQuery(2, 0));
}
void BM_BaselineTimeToFirstM(benchmark::State& state) {
  BaselineTimeToFirstM(state, fo::FarColorQuery(2, 0));
}
void BM_EngineTimeToFirstMNear(benchmark::State& state) {
  EngineTimeToFirstM(state, NearQuery());
}
void BM_BaselineTimeToFirstMNear(benchmark::State& state) {
  BaselineTimeToFirstM(state, NearQuery());
}

void CrossoverArgs(benchmark::internal::Benchmark* b) {
  for (int64_t n : {1 << 11, 1 << 13}) {
    for (int64_t m : {1, 100, 1000, 10000, 1000000}) b->Args({n, m});
  }
}

BENCHMARK(BM_EngineTimeToFirstM)
    ->Apply(CrossoverArgs)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_BaselineTimeToFirstM)
    ->Apply(CrossoverArgs)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_EngineTimeToFirstMNear)
    ->Apply(CrossoverArgs)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_BaselineTimeToFirstMNear)
    ->Apply(CrossoverArgs)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace nwd

int main(int argc, char** argv) {
  return nwd::bench::BenchMain(argc, argv, "bench_crossover");
}
