// Experiment E16 — serving-layer throughput and swap latency. The daemon
// of src/serve is measured end to end over socketpair connections: probe
// round-trip throughput at 1/2/4/8 client connections (requests/sec plus
// client-measured p50/p99 latency), a full enumerate stream (answers/sec
// with the deterministic solution count as an exact-match correctness
// counter), and live epoch swaps under probe load (reload round-trip per
// iteration, with the registry's serve.swap_drain_ns histogram — how long
// a retired epoch lingers until its last pin drops — surfaced as
// counters).
//
// Custom main: `--quick` (stripped before benchmark::Initialize) shrinks
// the per-iteration request batches so the binary doubles as a ctest
// smoke test (label bench_smoke) — it certifies the harness runs, not the
// numbers.

#include <benchmark/benchmark.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "fo/parser.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/wire.h"
#include "util/rng.h"

namespace nwd {
namespace {

bool g_quick = false;

// Trimmed-mean request latency of each BM_ServeFlightOverhead arm
// ([0]=recorder off, [1]=on), consumed by the post-run overhead gate in
// main(). Trimmed (top 10% dropped): a single preemption on a loaded CI
// core adds a >100µs outlier that would dominate a plain mean, while
// medians of two separate short harness runs jitter with scheduling.
double g_flight_mean_ns[2] = {0.0, 0.0};

int RequestsPerThread() { return g_quick ? 32 : 256; }

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One daemon plus N client connections over socketpairs. The daemon owns
// its side of each pair; the harness owns (and closes) the client side.
struct ServeHarness {
  explicit ServeHarness(int64_t n, int connections,
                        serve::DaemonOptions options = {}) {
    fo::ParseResult parsed = fo::ParseFormula("E(x, y)");
    daemon = std::make_unique<serve::Daemon>(parsed.query, options);
    std::string error;
    const std::string source = "gen:tree:" + std::to_string(n) + ":5";
    if (!daemon->LoadInitialSnapshot(source, &error)) {
      std::fprintf(stderr, "LoadInitialSnapshot(%s): %s\n", source.c_str(),
                   error.c_str());
      std::abort();
    }
    for (int i = 0; i < connections; ++i) client_fds.push_back(Connect());
  }

  ~ServeHarness() {
    for (int fd : client_fds) close(fd);
    daemon->Stop();
  }

  int Connect() {
    int sv[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) std::abort();
    daemon->ServeFd(sv[1], sv[1]);
    return sv[0];
  }

  std::unique_ptr<serve::Daemon> daemon;
  std::vector<int> client_fds;
};

void RecordLatencyPercentiles(benchmark::State& state,
                              std::vector<int64_t>* latencies_ns) {
  if (latencies_ns->empty()) return;
  std::sort(latencies_ns->begin(), latencies_ns->end());
  const auto at = [&](double q) {
    const size_t i = static_cast<size_t>(
        q * static_cast<double>(latencies_ns->size() - 1));
    return static_cast<double>((*latencies_ns)[i]);
  };
  state.counters["p50_ns"] = at(0.50);
  state.counters["p99_ns"] = at(0.99);
}

// Probe round trips through the full serving stack: frame parse,
// admission, snapshot pin, engine Test, response frame. One connection
// per client thread (the daemon's concurrency unit).
void BM_ServeTestThroughput(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const int64_t n = 2048;
  serve::DaemonOptions options;
  options.max_inflight = threads + 2;
  ServeHarness harness(n, threads, options);
  const int batch = RequestsPerThread();

  std::vector<int64_t> latencies_ns;
  for (auto _ : state) {
    std::vector<std::vector<int64_t>> per_thread(
        static_cast<size_t>(threads));
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        serve::Client client(harness.client_fds[static_cast<size_t>(t)],
                             harness.client_fds[static_cast<size_t>(t)],
                             /*seed=*/static_cast<uint64_t>(t) + 1);
        Rng rng(static_cast<uint64_t>(t) + 101);
        auto& lat = per_thread[static_cast<size_t>(t)];
        lat.reserve(static_cast<size_t>(batch));
        for (int i = 0; i < batch; ++i) {
          const std::string request =
              "test " +
              std::to_string(rng.NextBounded(static_cast<uint64_t>(n))) +
              "," +
              std::to_string(rng.NextBounded(static_cast<uint64_t>(n)));
          serve::Response response;
          const int64_t start = NowNs();
          if (!client.CallWithRetry(request, serve::BackoffPolicy{},
                                    &response) ||
              !response.ok) {
            std::abort();  // a bench probe must never fail
          }
          lat.push_back(NowNs() - start);
        }
      });
    }
    for (std::thread& w : workers) w.join();
    latencies_ns.clear();
    for (const auto& lat : per_thread) {
      latencies_ns.insert(latencies_ns.end(), lat.begin(), lat.end());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(threads) * batch);
  state.counters["threads"] = threads;
  state.counters["n"] = static_cast<double>(n);
  RecordLatencyPercentiles(state, &latencies_ns);
}

// One full enumerate stream per iteration. The solution count is exact
// and deterministic (ordered edges of gen:tree:<n>:5, i.e. 2(n-1)), so
// `solutions` doubles as a correctness counter the baseline guard
// exact-matches.
void BM_ServeEnumerateStream(benchmark::State& state) {
  const int64_t n = state.range(1);
  ServeHarness harness(n, /*connections=*/1);
  serve::Client client(harness.client_fds[0], harness.client_fds[0],
                       /*seed=*/1);
  int64_t solutions = 0;
  for (auto _ : state) {
    serve::Response response;
    if (!client.Call("enumerate", &response) || !response.ok) std::abort();
    solutions = response.count;
    benchmark::DoNotOptimize(response.answers);
  }
  state.SetItemsProcessed(state.iterations() * solutions);
  state.SetLabel("tree");
  state.counters["n"] = static_cast<double>(n);
  state.counters["solutions"] = static_cast<double>(solutions);
}

// Experiment E19 — flight-recorder overhead. The same single-connection
// probe round-trip loop as BM_ServeTestThroughput/1, with the always-on
// recorder disabled (arg 0) vs enabled (arg 1). The recorder's per-event
// cost is two relaxed atomic bumps plus a seqlock-protected slot write,
// so the two arms should be indistinguishable (<2% on mean latency is
// the acceptance bound; the post-run gate in main() allows 1.5x for CI
// noise).
void BM_ServeFlightOverhead(benchmark::State& state) {
  const bool flight_on = state.range(0) != 0;
  const int64_t n = 2048;
  serve::DaemonOptions options;
  options.max_inflight = 3;
  ServeHarness harness(n, /*connections=*/1, options);
  const int batch = RequestsPerThread();
  const bool flight_before = obs::FlightEnabled();
  obs::SetFlightEnabled(flight_on);

  std::vector<int64_t> latencies_ns;
  for (auto _ : state) {
    serve::Client client(harness.client_fds[0], harness.client_fds[0],
                         /*seed=*/1);
    Rng rng(101);
    latencies_ns.clear();
    latencies_ns.reserve(static_cast<size_t>(batch));
    for (int i = 0; i < batch; ++i) {
      const std::string request =
          "test " +
          std::to_string(rng.NextBounded(static_cast<uint64_t>(n))) + "," +
          std::to_string(rng.NextBounded(static_cast<uint64_t>(n)));
      serve::Response response;
      const int64_t start = NowNs();
      if (!client.CallWithRetry(request, serve::BackoffPolicy{},
                                &response) ||
          !response.ok) {
        std::abort();
      }
      latencies_ns.push_back(NowNs() - start);
    }
  }
  obs::SetFlightEnabled(flight_before);
  state.SetItemsProcessed(state.iterations() * batch);
  state.counters["flight"] = flight_on ? 1 : 0;
  state.counters["n"] = static_cast<double>(n);
  RecordLatencyPercentiles(state, &latencies_ns);  // sorts
  if (!latencies_ns.empty()) {
    const size_t kept =
        latencies_ns.size() - latencies_ns.size() / 10;  // drop top 10%
    int64_t sum = 0;
    for (size_t i = 0; i < kept; ++i) sum += latencies_ns[i];
    g_flight_mean_ns[flight_on ? 1 : 0] =
        static_cast<double>(sum) / static_cast<double>(kept);
  }
}

// Live epoch swaps under probe load: each iteration is one reload round
// trip (rebuild on the reload's handler thread + atomic publish) while
// prober threads keep pinning snapshots. Swap drain — how long the
// retired epoch survives past its replacement's publish — comes from the
// registry's always-on serve.swap_drain_ns histogram.
void BM_ServeEpochSwap(benchmark::State& state) {
  const int64_t n = state.range(0);
  serve::DaemonOptions options;
  options.max_inflight = 8;
  ServeHarness harness(n, /*connections=*/3, options);
  serve::Client reloader(harness.client_fds[0], harness.client_fds[0],
                         /*seed=*/1);

  std::atomic<bool> stop{false};
  std::vector<std::thread> probers;
  for (int t = 1; t <= 2; ++t) {
    probers.emplace_back([&, t] {
      serve::Client client(harness.client_fds[static_cast<size_t>(t)],
                           harness.client_fds[static_cast<size_t>(t)],
                           /*seed=*/static_cast<uint64_t>(t) + 7);
      Rng rng(static_cast<uint64_t>(t) + 31);
      while (!stop.load(std::memory_order_acquire)) {
        const std::string request =
            "test " +
            std::to_string(rng.NextBounded(static_cast<uint64_t>(n))) + "," +
            std::to_string(rng.NextBounded(static_cast<uint64_t>(n)));
        serve::Response response;
        if (!client.CallWithRetry(request, serve::BackoffPolicy{},
                                  &response)) {
          return;  // daemon stopping
        }
      }
    });
  }

  obs::Histogram* drain =
      obs::MetricsRegistry::Global().GetHistogram("serve.swap_drain_ns");
  const obs::Histogram::Snapshot before = drain->Read();
  uint64_t seed = 100;
  for (auto _ : state) {
    const std::string request =
        "reload gen:tree:" + std::to_string(n) + ":" + std::to_string(++seed);
    serve::Response response;
    if (!reloader.CallWithRetry(request, serve::BackoffPolicy{},
                                &response) ||
        !response.ok) {
      std::abort();
    }
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& p : probers) p.join();

  // Retirement runs on whichever thread drops the last pin; give the
  // final iteration's drain a moment to land before reading the delta.
  obs::Histogram::Snapshot after = drain->Read();
  for (int i = 0; i < 100 && after.count - before.count < state.iterations();
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    after = drain->Read();
  }
  const int64_t drained = after.count - before.count;
  state.counters["n"] = static_cast<double>(n);
  state.counters["swaps"] = static_cast<double>(drained);
  if (drained > 0) {
    state.counters["swap_drain_ns"] =
        static_cast<double>(after.sum - before.sum) /
        static_cast<double>(drained);
    state.counters["max_swap_drain_ns"] = static_cast<double>(after.max);
  }
}

void ThreadArgs(benchmark::internal::Benchmark* b) {
  for (int threads : {1, 2, 4, 8}) b->Arg(threads);
}

// UseRealTime: the served work runs on daemon handler threads, so the
// main thread's CPU clock would undercount wildly (and rates would lie).
BENCHMARK(BM_ServeTestThroughput)->Apply(ThreadArgs)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_ServeEnumerateStream)->Args({0, 1024})->Args({0, 4096})
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_ServeFlightOverhead)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_ServeEpochSwap)->Arg(1024)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

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
      nwd::bench::BenchMain(pruned_argc, args.data(), "bench_serving");
  if (rc != 0) return rc;
  // E19 gate: when both BM_ServeFlightOverhead arms ran (and this is a
  // real measurement, not --quick), the recorder-on mean latency must
  // stay within 1.5x of recorder-off. The acceptance bound is <2% on a
  // quiet machine (EXPERIMENTS.md E19); 1.5x is the CI noise band that
  // still catches a recorder that became a real per-request tax.
  if (!nwd::g_quick && nwd::g_flight_mean_ns[0] > 0.0 &&
      nwd::g_flight_mean_ns[1] > 0.0) {
    const double ratio =
        nwd::g_flight_mean_ns[1] / nwd::g_flight_mean_ns[0];
    std::fprintf(stderr,
                 "[flight overhead] trimmed mean off=%.0fns on=%.0fns "
                 "ratio=%.3f\n",
                 nwd::g_flight_mean_ns[0], nwd::g_flight_mean_ns[1], ratio);
    if (ratio > 1.5) {
      std::fprintf(stderr,
                   "[flight overhead] FAIL: recorder-on trimmed mean "
                   "latency exceeds 1.5x recorder-off\n");
      return 1;
    }
  }
  return 0;
}
