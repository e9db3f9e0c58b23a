#include "layers.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <span>
#include <string>

#include "graph/bfs.h"
#include "local/distance_oracle.h"
#include "serve/wire.h"
#include "splitter/strategy.h"

namespace nwd {
namespace bench {

std::vector<Site> MakeSites(const ColoredGraph& g, size_t count, Rng* rng) {
  const int64_t n = g.NumVertices();
  BfsScratch scratch(n);
  std::vector<Site> sites;
  std::vector<Vertex> at_two;
  for (size_t attempt = 0; sites.size() < count && attempt < count * 64;
       ++attempt) {
    const Vertex u = static_cast<Vertex>(rng->NextBounded(n));
    at_two.clear();
    for (const Vertex w : scratch.Neighborhood(g, u, 2)) {
      if (scratch.DistanceTo(w) == 2) at_two.push_back(w);
    }
    if (at_two.empty()) continue;
    const Vertex v = at_two[rng->NextBounded(at_two.size())];
    sites.push_back(Site{std::min(u, v), std::max(u, v)});
  }
  return sites;
}

GraphEdit ToggleEdit(const ColoredGraph& mirror, const Site& site) {
  return mirror.HasEdge(site.u, site.v) ? GraphEdit::RemoveEdge(site.u, site.v)
                                        : GraphEdit::AddEdge(site.u, site.v);
}

Tuple RandomPair(int64_t n, Rng* rng) {
  const uint64_t bound = static_cast<uint64_t>(n);
  return Tuple{static_cast<int64_t>(rng->NextBounded(bound)),
               static_cast<int64_t>(rng->NextBounded(bound))};
}

void ProbeEngine(const EnumerationEngine& engine, uint64_t seed, SpanLog* log,
                 Report* report) {
  constexpr int kTests = 20000;
  constexpr int kNexts = 5000;
  constexpr int kBatches = 8;
  constexpr int kBatchSize = 4096;
  const int64_t n = engine.universe();
  Rng rng(seed);
  int64_t sink = 0;
  engine.DrainAnswerStats();
  for (int i = 0; i < kTests; ++i) {
    const Tuple t = RandomPair(n, &rng);
    Stage s(log, "enumerate.test");
    sink += engine.Test(t) ? 1 : 0;
  }
  for (int i = 0; i < kNexts; ++i) {
    const Tuple t = RandomPair(n, &rng);
    Stage s(log, "enumerate.next");
    sink += engine.Next(t).has_value() ? 1 : 0;
  }
  const AnswerCounters c = engine.DrainAnswerStats();
  const double probes = static_cast<double>(std::max<int64_t>(1, c.probes_served));
  const int64_t lookups = c.ball_cache_hits + c.ball_cache_misses;
  report->Add("enumerate.descents_per_probe",
              static_cast<double>(c.descents) / probes, "count",
              c.probes_served, true);
  report->Add("enumerate.ball_cache_hit_ratio",
              lookups > 0 ? static_cast<double>(c.ball_cache_hits) /
                                static_cast<double>(lookups)
                          : 0.0,
              "ratio", lookups, true);
  report->Add("compile.insns_per_probe",
              static_cast<double>(c.compiled_insns) / probes, "count",
              c.probes_served, true);
  report->Add("compile.compiled_share",
              static_cast<double>(c.compiled_probes) / probes, "ratio",
              c.probes_served, true);

  std::vector<std::vector<Tuple>> batches(kBatches);
  for (auto& batch : batches) {
    for (int i = 0; i < kBatchSize; ++i) batch.push_back(RandomPair(n, &rng));
  }
  for (const auto& batch : batches) {
    Stage s(log, "enumerate.test_batch.1t");
    sink += engine.TestBatch(batch, 1)[0];
  }
  for (const auto& batch : batches) {
    Stage s(log, "enumerate.test_batch.4t");
    sink += engine.TestBatch(batch, 4)[0];
  }
  if (sink < 0) std::abort();  // keeps the probe results live
}

void ProbeLocalAndGraph(const ColoredGraph& g, int radius, uint64_t seed,
                        SpanLog* log) {
  constexpr int kOracleBuilds = 3;
  constexpr int kPairBatches = 64;
  constexpr int kPairsPerBatch = 256;
  constexpr int kBalls = 8192;
  const int64_t n = g.NumVertices();
  Rng rng(seed);
  std::unique_ptr<SplitterStrategy> strategy = MakeAutoStrategy(g);
  std::unique_ptr<DistanceOracle> oracle;
  for (int i = 0; i < kOracleBuilds; ++i) {
    oracle.reset();
    Stage s(log, "local.oracle_build");
    oracle = std::make_unique<DistanceOracle>(g, radius, *strategy);
  }
  // Half the pairs are within the radius (drawn from the first vertex's
  // ball), half uniform, so both the near and the far answers are timed.
  BfsScratch scratch(n);
  std::vector<std::pair<Vertex, Vertex>> pairs;
  for (int i = 0; i < kPairBatches * kPairsPerBatch; ++i) {
    const Vertex a = static_cast<Vertex>(rng.NextBounded(n));
    Vertex b = static_cast<Vertex>(rng.NextBounded(n));
    if (i % 2 == 0) {
      const std::vector<Vertex> ball = scratch.Neighborhood(g, a, radius);
      b = ball[rng.NextBounded(ball.size())];
    }
    pairs.emplace_back(a, b);
  }
  int64_t sink = 0;
  for (int batch = 0; batch < kPairBatches; ++batch) {
    Stage s(log, "local.within_distance.x256");
    for (int i = 0; i < kPairsPerBatch; ++i) {
      const auto& [a, b] = pairs[static_cast<size_t>(batch * kPairsPerBatch + i)];
      sink += oracle->WithinDistance(a, b, radius) ? 1 : 0;
    }
  }
  for (int i = 0; i < kBalls; ++i) {
    const Vertex v = static_cast<Vertex>(rng.NextBounded(n));
    Stage s(log, "graph.ball_bfs");
    sink += static_cast<int64_t>(scratch.Neighborhood(g, v, radius).size());
  }
  if (sink < 0) std::abort();
}

void ShadowReader(serve::SnapshotRegistry* registry,
                  serve::AdmissionGate* gate, uint64_t seed,
                  uint64_t rid_base, int64_t deadline_ns, SpanLog* log,
                  ShadowTally* tally) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    ++tally->failed;
    return;
  }
  serve::FdStream client(sv[0], sv[0]);
  serve::FdStream server(sv[1], sv[1]);
  const int64_t n = registry->Acquire()->dynamic->NumVertices();
  Rng rng(seed);
  std::string request;
  std::string payload;
  std::string reply;
  std::string reply_in;
  uint64_t seq = 0;
  while (NowNs() < deadline_ns) {
    const bool is_test = rng.NextDouble() < kTestShare;
    const Tuple t = RandomPair(n, &rng);
    const uint64_t rid = rid_base + ++seq;
    request = is_test ? "test " : "next ";
    request += serve::FormatTuple(t) + " rid=" + std::to_string(rid);
    ++tally->requests;

    Stage root(log, "serve.request", rid);
    bool ok = false;
    {
      Stage s(log, "serve.wire.write_frame");
      ok = serve::WriteFrame(&client, request);
    }
    {
      Stage s(log, "serve.wire.read_frame");
      ok = ok && serve::ReadFrame(&server, kMaxFrame, &payload) ==
                     serve::FrameStatus::kOk;
    }
    serve::Request parsed;
    std::string error;
    {
      Stage s(log, "serve.wire.parse_request");
      ok = ok && serve::ParseRequest(payload, &parsed, &error);
    }
    int64_t hint = 0;
    bool admitted = false;
    {
      Stage s(log, "serve.admission.admit");
      admitted = ok && gate->TryAdmit(&hint);
    }
    if (!admitted) {
      ++tally->failed;
      continue;
    }
    {
      std::shared_ptr<const serve::EngineSnapshot> snapshot;
      {
        Stage s(log, "serve.snapshot.acquire");
        snapshot = registry->Acquire();
      }
      const DynamicEngine& engine = *snapshot->dynamic;
      bool degraded = false;
      {
        Stage s(log, "dynamic.engine_stats");
        degraded = engine.engine_stats().degraded;
      }
      if (degraded) ++tally->failed;
      if (parsed.op == serve::RequestOp::kTest) {
        bool bit = false;
        {
          Stage s(log, "dynamic.test");
          bit = engine.Test(parsed.tuple);
        }
        Stage s(log, "serve.wire.format_reply");
        reply = std::string("ok test ") + (bit ? "1" : "0");
        reply += " epoch=" + std::to_string(snapshot->epoch) +
                 " rid=" + std::to_string(parsed.rid);
      } else {
        std::optional<Tuple> next;
        {
          Stage s(log, "dynamic.next");
          next = engine.Next(parsed.tuple);
        }
        Stage s(log, "serve.wire.format_reply");
        reply = "ok next ";
        reply += next.has_value() ? serve::FormatTuple(*next) : "none";
        reply += " epoch=" + std::to_string(snapshot->epoch) +
                 " rid=" + std::to_string(parsed.rid);
      }
      Stage s(log, "serve.wire.write_frame");
      ok = serve::WriteFrame(&server, reply);
    }
    {
      Stage s(log, "serve.admission.admit");
      gate->Release();
    }
    {
      Stage s(log, "serve.wire.read_frame");
      ok = ok && serve::ReadFrame(&client, kMaxFrame, &reply_in) ==
                     serve::FrameStatus::kOk;
    }
    if (!ok) ++tally->failed;
  }
  ::close(sv[0]);
  ::close(sv[1]);
}

void ShadowWriter(serve::SnapshotRegistry* registry,
                  const std::vector<Site>& sites, ColoredGraph* mirror,
                  bool with_colors, uint64_t seed, uint64_t rid_base,
                  int64_t deadline_ns, int64_t max_updates, SpanLog* log,
                  ShadowTally* tally) {
  const std::shared_ptr<const serve::EngineSnapshot> snapshot =
      registry->Acquire();
  DynamicEngine& engine = *snapshot->dynamic;
  Rng rng(seed);
  int64_t repairs = engine.stats().repairs;
  for (int64_t i = 0;
       (max_updates < 0 || i < max_updates) && NowNs() < deadline_ns; ++i) {
    const Site& site = sites[rng.NextBounded(sites.size())];
    const GraphEdit edit =
        with_colors && i % 2 == 0
            ? GraphEdit::SetColor(site.u, 0, !mirror->HasColor(site.u, 0))
            : ToggleEdit(*mirror, site);
    int64_t applied = 0;
    {
      Stage s(log, "dynamic.sync", rid_base + static_cast<uint64_t>(i) + 1);
      applied = engine.Apply(std::span<const GraphEdit>(&edit, 1));
      engine.WaitForSync();
    }
    ++tally->requests;
    if (applied != 1) {
      ++tally->mismatches;
      ++tally->failed;
    }
    mirror->ApplyInPlace(edit);
    const DynamicEngine::UpdateStats stats = engine.stats();
    if (stats.repairs > repairs) {
      repairs = stats.repairs;
      tally->repair_cover_ms.push_back(stats.last_repair.cover_ms);
      tally->repair_skips_ms.push_back(stats.last_repair.skips_ms);
      tally->repair_extendable_ms.push_back(stats.last_repair.extendable_ms);
      tally->repair_compile_ms.push_back(stats.last_repair.compile_ms);
    }
  }
}

void AddLayerMetrics(const TraceSet& traces, const LayerInputs& in,
                     Report* report) {
  const std::map<std::string, std::vector<double>> self = traces.SelfTimes();
  const auto samples = [&](const std::string& name) -> std::vector<double> {
    const auto it = self.find(name);
    return it == self.end() ? std::vector<double>() : it->second;
  };
  const auto count = [](const std::vector<double>& v) {
    return static_cast<int64_t>(v.size());
  };
  const auto add = [&](const std::string& name, double value,
                       const std::string& unit, int64_t n) {
    report->Add(name, value, unit, n, true);
  };

  // Serve ledger: per-request stage sums (a request reads and writes two
  // frames and passes the gate twice), then their medians.
  const std::map<std::string, std::vector<double>> per_request =
      traces.PerRootSums("serve.request");
  const auto stage = [&](const std::string& name) -> std::vector<double> {
    const auto it = per_request.find(name);
    return it == per_request.end() ? std::vector<double>() : it->second;
  };
  std::vector<double> engine_call = samples("dynamic.test");
  for (const double ns : samples("dynamic.next")) engine_call.push_back(ns);
  const std::vector<std::pair<std::string, std::vector<double>>> ledger = {
      {"serve.wire.read_frame_ns", stage("serve.wire.read_frame")},
      {"serve.wire.write_frame_ns", stage("serve.wire.write_frame")},
      {"serve.wire.parse_request_ns", stage("serve.wire.parse_request")},
      {"serve.admission.admit_ns", stage("serve.admission.admit")},
      {"serve.snapshot.acquire_ns", stage("serve.snapshot.acquire")},
      {"serve.wire.format_reply_ns", stage("serve.wire.format_reply")},
      {"dynamic.engine_stats_ns", samples("dynamic.engine_stats")},
      {"dynamic.probe_ns", engine_call},
  };
  const double total_us =
      in.round_trip_p50_us > 0.0
          ? in.round_trip_p50_us
          : Median(traces.Durations("serve.request")) / 1e3;
  double staged_ns = 0.0;
  std::printf("ledger serve round trip p50 %.3f us =\n", total_us);
  for (const auto& [name, values] : ledger) {
    const double median = Median(values);
    staged_ns += median;
    add(name, median, "ns", count(values));
    std::printf("ledger   %-30s %10.1f ns\n", name.c_str(), median);
  }
  const double unattributed_us = total_us - staged_ns / 1e3;
  std::printf("ledger   %-30s %10.1f ns\n", "serve.unattributed",
              unattributed_us * 1e3);
  add("serve.unattributed_us", unattributed_us, "us", count(ledger[0].second));
  add("serve.client.retries", static_cast<double>(in.client_retries), "count",
      1);

  const std::vector<double> stats_ns = samples("dynamic.engine_stats");
  add("dynamic.test_ns", Median(samples("dynamic.test")), "ns",
      count(samples("dynamic.test")));
  add("dynamic.next_ns", Median(samples("dynamic.next")), "ns",
      count(samples("dynamic.next")));
  add("dynamic.engine_stats_ns_p99", Quantile(stats_ns, 0.99), "ns",
      count(stats_ns));
  add("dynamic.lazy_probe_share", in.lazy_probe_share, "ratio", 1);
  const std::vector<double> sync_ns = samples("dynamic.sync");
  add("dynamic.sync_ms", Median(sync_ns) / 1e6, "ms", count(sync_ns));
  const ShadowTally& sh = in.shadow;
  add("dynamic.repair.cover_ms", Median(sh.repair_cover_ms), "ms",
      count(sh.repair_cover_ms));
  add("dynamic.repair.skips_ms", Median(sh.repair_skips_ms), "ms",
      count(sh.repair_skips_ms));
  add("dynamic.repair.extendable_ms", Median(sh.repair_extendable_ms), "ms",
      count(sh.repair_extendable_ms));
  add("dynamic.repair.compile_ms", Median(sh.repair_compile_ms), "ms",
      count(sh.repair_compile_ms));
  add("dynamic.full_rebuild_share", in.full_rebuild_share, "ratio", 1);

  // Prepare ledger: the constructor's median wall time split into the
  // engine's own stage timings plus the remainder (LNF, oracle, lists).
  std::vector<double> total, cover, kernels, skips, extendable, compile;
  for (const PrepareSample& p : in.prepare) {
    total.push_back(p.total_ms);
    cover.push_back(p.stats.cover_ms);
    kernels.push_back(p.stats.kernels_ms);
    skips.push_back(p.stats.skips_ms);
    extendable.push_back(p.stats.extendable_ms);
    compile.push_back(p.stats.compile_ms);
  }
  const int64_t builds = count(total);
  const std::vector<std::pair<std::string, double>> prepare = {
      {"enumerate.prepare.cover_ms", Median(cover)},
      {"enumerate.prepare.kernels_ms", Median(kernels)},
      {"enumerate.prepare.skips_ms", Median(skips)},
      {"enumerate.prepare.extendable_ms", Median(extendable)},
      {"enumerate.prepare.compile_ms", Median(compile)},
  };
  const double prepare_ms = Median(total);
  double staged_ms = 0.0;
  add("enumerate.prepare_ms", prepare_ms, "ms", builds);
  std::printf("ledger prepare %.3f ms =\n", prepare_ms);
  for (const auto& [name, ms] : prepare) {
    staged_ms += ms;
    add(name, ms, "ms", builds);
    std::printf("ledger   %-30s %10.3f ms\n", name.c_str(), ms);
  }
  add("enumerate.prepare.other_ms", prepare_ms - staged_ms, "ms", builds);
  std::printf("ledger   %-30s %10.3f ms\n", "enumerate.prepare.other",
              prepare_ms - staged_ms);

  add("enumerate.test_ns", Median(samples("enumerate.test")), "ns",
      count(samples("enumerate.test")));
  add("enumerate.next_ns", Median(samples("enumerate.next")), "ns",
      count(samples("enumerate.next")));
  add("enumerate.probe_contexts", static_cast<double>(in.probe_contexts),
      "count", 1);
  const std::vector<double> batch1 = samples("enumerate.test_batch.1t");
  const std::vector<double> batch4 = samples("enumerate.test_batch.4t");
  add("enumerate.batch_scaling_4t",
      Median(batch4) > 0.0 ? Median(batch1) / Median(batch4) : 0.0, "ratio",
      count(batch4));

  const std::vector<double> oracle = samples("local.oracle_build");
  add("local.oracle_build_ms", Median(oracle) / 1e6, "ms", count(oracle));
  const std::vector<double> within = samples("local.within_distance.x256");
  add("local.within_distance_ns", Median(within) / 256.0, "ns",
      count(within) * 256);
  add("graph.ball_bfs_ns", Median(samples("graph.ball_bfs")), "ns",
      count(samples("graph.ball_bfs")));
  const std::vector<double> load = samples("graph.load");
  add("graph.load_ms", Median(load) / 1e6, "ms", count(load));

  const EnumerationEngine::Stats last =
      in.prepare.empty() ? EnumerationEngine::Stats() : in.prepare.back().stats;
  add("cover.degree", static_cast<double>(last.cover_degree), "count", 1);
  add("cover.bags", static_cast<double>(last.cover_bags), "count", 1);
  add("skip.entries", static_cast<double>(last.skip_entries), "count", 1);
  add("obs.trace_overhead_pct", in.trace_overhead_pct, "%", 1);
}

}  // namespace bench
}  // namespace nwd
