// The repository benchmark: one process runs one workload from a seed,
// measures it for --seconds, checks sampled answers against
// fo::NaiveEvaluator, and prints its metrics with a final JSON line.
//
// Workloads (all closed loop, at most 4 connections or threads):
//   serve-probe   tree n=4096, far query dist(x,y) > 2 & C0(y); 4 client
//                 connections drive serve::Daemon over socketpairs with a
//                 70/30 test/next mix on seeded uniform tuples. The serve
//                 plane is nearly all of a round trip here.
//   enum-near     bounded-degree graph (max degree 6) n=16384, near query
//                 dist(x,y) <= 2 & C0(y), EnumerationEngine in process with
//                 num_threads=4: enumeration windows (a Next seek from a
//                 seeded tuple, then 255 successive answers), then
//                 repeated 4096-probe TestBatch calls at 4 threads. The
//                 engine does all the work; hubs make Case II balls large.
//   update-serve  grid n=16384, near query; 1 writer connection toggles
//                 single edges with `update ... wait=1` (add when absent,
//                 del when present, 2 ms pause after each) from a fixed
//                 site pool large enough to cross the dirty-overlay
//                 rebuild threshold, while 3 reader connections probe as
//                 in serve-probe.
//
// End-to-end metrics (untraced run) are reported by every workload:
//   setup_s                median of repeated set-ups (file to ready)
//   probe_p50_us/p99_us    served probe round trip (serve-probe, readers
//                          of update-serve); Next seek (enum-near)
//   probe_rps              served probes/s; TestBatch probes/s (enum-near)
//   aux_p50_us/p99_us      served `next` probes (serve-probe); `update`
//                          round trips (update-serve); enumeration delay
//                          between successive answers (enum-near)
//   aux_per_s              the same operations per second
// The traced run (--trace 1) replays the workload with spans and probes
// every layer through its public functions; see layers.h.

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "enumerate/engine.h"
#include "fo/parser.h"
#include "gen/generators.h"
#include "graph/io.h"
#include "layers.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/wire.h"
#include "util/rng.h"

namespace nwd {
namespace bench {
namespace {

constexpr char kFarQuery[] = "(x, y) := dist(x, y) > 2 & C0(y)";
constexpr char kNearQuery[] = "(x, y) := dist(x, y) <= 2 & C0(y)";
constexpr int kQueryRadius = 2;
constexpr uint64_t kGraphSeed = 20180611;
// Set-ups per run: at least kMinSetups, more while they stay under
// kSetupSeconds in total; setup_s is their median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 15;
constexpr double kSetupSeconds = 1.5;
constexpr int kWindowAnswers = 256;
constexpr int kBatchSize = 4096;
constexpr int kBatchThreads = 4;
constexpr size_t kSampleCap = 20000;
// Site toggles after the shadow readers, on workloads without a writer;
// capped in time because a toggle may trigger a full rebuild.
constexpr int64_t kSweepUpdates = 16;
constexpr double kSweepSeconds = 2.0;
// The update writer pauses this long after each acknowledged update. Back
// to back, the repair lane stalls readers so often that the median reader
// probe sits on the edge between the fast path (~40 us) and a ~10 ms stall
// and moved by +-40% between runs; with the pause it stays on the fast
// path while the stalls still set the reader p99.
constexpr auto kWriterPause = std::chrono::milliseconds(2);
// Wall-clock budget for the naive re-evaluation of sampled answers.
constexpr int64_t kCheckBudgetNs = 3'000'000'000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = "repobench/out";
};

// Independent deterministic stream per (run seed, purpose).
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + stream);
  return rng.NextU64();
}

bool MoreSetups(const std::vector<double>& setup_s) {
  double total = 0.0;
  for (const double s : setup_s) total += s;
  const int done = static_cast<int>(setup_s.size());
  return done < kMinSetups || (done < kMaxSetups && total < kSetupSeconds);
}

int64_t Deadline(double seconds) {
  return NowNs() + static_cast<int64_t>(seconds * 1e9);
}

// The graph of each workload is fixed, and so is its update-site pool;
// --seed draws the probes, the windows and the order of site toggles.
// Random graphs of one class differ enough in hub and ball sizes to move
// every latency by 20-30% between seeds, which would drown the run-to-run
// spread the bounds are set against.
ColoredGraph MakeGraph(const std::string& workload) {
  Rng rng(kGraphSeed);
  const gen::ColorOptions colors{2, 0.2};
  if (workload == "serve-probe") return gen::RandomTree(4096, 0, colors, &rng);
  if (workload == "enum-near") {
    return gen::BoundedDegreeGraph(16384, 6, 3.0, colors, &rng);
  }
  return gen::Grid(128, 128, colors, &rng);
}

// Operations attempted and failed, plus answer mismatches (a subset of
// the failures).
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mismatches = 0;
  std::string first_error;

  void Fail(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }
  void Mismatch(const std::string& what) {
    ++mismatches;
    Fail("answer mismatch: " + what);
  }
  void Merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    mismatches += o.mismatches;
    if (first_error.empty()) first_error = o.first_error;
  }
};

struct ProbeSample {
  bool is_test = true;
  Tuple tuple;
  bool bit = false;
  std::optional<Tuple> next;
};

// Checks probe samples: every test bit, then next answers until the
// budget runs out (at least one).
void VerifyProbes(const std::vector<ProbeSample>& samples, Checker* checker,
                  int64_t deadline_ns, Tally* tally) {
  int64_t tests = 0;
  int64_t nexts = 0;
  for (const ProbeSample& s : samples) {
    if (s.is_test) {
      ++tests;
      if (checker->Test(s.tuple) != s.bit) {
        tally->Mismatch("test " + serve::FormatTuple(s.tuple));
      }
    }
  }
  for (const ProbeSample& s : samples) {
    if (s.is_test) continue;
    if (nexts > 0 && NowNs() > deadline_ns) break;
    ++nexts;
    if (checker->Next(s.tuple) != s.next) {
      tally->Mismatch("next " + serve::FormatTuple(s.tuple));
    }
  }
  std::printf("check probes: %lld test bits, %lld next answers verified\n",
              static_cast<long long>(tests), static_cast<long long>(nexts));
}

// The common end of a run: memory and error rate, the per-layer metrics
// and Chrome trace of a traced run, the metric lines and the JSON line.
// Exits nonzero on any answer mismatch.
int Finish(const Args& args, const Tally& tally, const TraceSet& traces,
           int64_t origin, const LayerInputs& layers, Report* report) {
  report->Add("mem.rss_peak_mb", PeakRssMb(), "MB", 1, args.trace);
  report->Add("error_rate",
              tally.attempted > 0 ? static_cast<double>(tally.failed) /
                                        static_cast<double>(tally.attempted)
                                  : 0.0,
              "ratio", tally.attempted, false);
  if (args.trace) {
    AddLayerMetrics(traces, layers, report);
    const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    if (traces.WriteChromeJson(path, origin, args.workload, args.seed)) {
      std::printf("trace written to %s\n", path.c_str());
    }
  }
  report->PrintLines();
  if (!tally.first_error.empty()) {
    std::printf("first failure: %s\n", tally.first_error.c_str());
  }
  report->PrintJson(tally.mismatches == 0, tally.attempted, tally.failed);
  return tally.mismatches == 0 ? 0 : 1;
}

// --- Served workloads ---------------------------------------------------

struct ServedLoop {
  Tally tally;
  std::vector<double> probe_ns;
  std::vector<double> next_ns;
  std::vector<double> update_ns;
  std::vector<ProbeSample> samples;
  int64_t retries = 0;
  double elapsed_s = 0.0;

  void Merge(const ServedLoop& o) {
    tally.Merge(o.tally);
    probe_ns.insert(probe_ns.end(), o.probe_ns.begin(), o.probe_ns.end());
    next_ns.insert(next_ns.end(), o.next_ns.begin(), o.next_ns.end());
    update_ns.insert(update_ns.end(), o.update_ns.begin(), o.update_ns.end());
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    retries += o.retries;
  }
};

bool ParseProbeReply(const std::string& head, ProbeSample* sample) {
  // "ok test <0|1> ..." / "ok next <v,v|none> ..."
  const size_t a = head.find(' ');
  const size_t b = a == std::string::npos ? a : head.find(' ', a + 1);
  if (b == std::string::npos) return false;
  size_t c = head.find(' ', b + 1);
  if (c == std::string::npos) c = head.size();
  const std::string answer = head.substr(b + 1, c - b - 1);
  if (sample->is_test) {
    if (answer != "0" && answer != "1") return false;
    sample->bit = answer == "1";
    return true;
  }
  if (answer == "none") {
    sample->next.reset();
    return true;
  }
  Tuple t;
  if (!serve::ParseTupleText(answer, &t)) return false;
  sample->next = t;
  return true;
}

void ReaderLoop(int fd, uint64_t seed, int64_t n, uint64_t rid_base,
                int64_t deadline_ns, size_t sample_every, SpanLog* log,
                ServedLoop* out) {
  serve::Client client(fd, fd, seed);
  Rng rng(seed);
  serve::Response response;
  uint64_t seq = 0;
  while (NowNs() < deadline_ns) {
    ProbeSample sample;
    sample.is_test = rng.NextDouble() < kTestShare;
    sample.tuple = RandomPair(n, &rng);
    const uint64_t rid = rid_base + ++seq;
    const std::string request = (sample.is_test ? "test " : "next ") +
                                serve::FormatTuple(sample.tuple) +
                                " rid=" + std::to_string(rid);
    ++out->tally.attempted;
    const int64_t start = NowNs();
    bool alive = false;
    {
      Stage span(log, "client.call", rid);
      alive = client.CallWithRetry(request, serve::BackoffPolicy{}, &response);
    }
    const double ns = static_cast<double>(NowNs() - start);
    if (!alive) {
      out->tally.Fail("transport error");
      break;
    }
    if (!response.ok) {
      out->tally.Fail(std::string("err ") + serve::ErrorCodeName(response.code));
      continue;
    }
    if (!ParseProbeReply(response.head, &sample)) {
      out->tally.Fail("unparseable reply: " + response.head);
      continue;
    }
    out->probe_ns.push_back(ns);
    if (!sample.is_test) out->next_ns.push_back(ns);
    if (sample_every > 0 && seq % sample_every == 0 &&
        out->samples.size() < kSampleCap) {
      out->samples.push_back(std::move(sample));
    }
  }
  out->retries += client.retries();
}

void WriterLoop(int fd, uint64_t seed, const std::vector<Site>& sites,
                ColoredGraph* mirror, uint64_t rid_base, int64_t deadline_ns,
                SpanLog* log, ServedLoop* out) {
  serve::Client client(fd, fd, seed);
  Rng rng(seed);
  serve::Response response;
  uint64_t seq = 0;
  while (NowNs() < deadline_ns) {
    const GraphEdit edit =
        ToggleEdit(*mirror, sites[rng.NextBounded(sites.size())]);
    const uint64_t rid = rid_base + ++seq;
    const std::string request =
        std::string("update ") +
        (edit.kind == GraphEdit::Kind::kAddEdge ? "add:" : "del:") +
        std::to_string(edit.u) + "," + std::to_string(edit.v) +
        " wait=1 rid=" + std::to_string(rid);
    ++out->tally.attempted;
    const int64_t start = NowNs();
    bool alive = false;
    {
      Stage span(log, "client.call", rid);
      alive = client.CallWithRetry(request, serve::BackoffPolicy{}, &response);
    }
    const double ns = static_cast<double>(NowNs() - start);
    if (!alive) {
      out->tally.Fail("transport error");
      break;
    }
    if (!response.ok) {
      out->tally.Fail(std::string("err ") + serve::ErrorCodeName(response.code));
      continue;
    }
    mirror->ApplyInPlace(edit);
    if (serve::FindToken(response.head, "applied") != "1" ||
        serve::FindToken(response.head, "insync") != "1") {
      out->tally.Mismatch(response.head);
    }
    out->update_ns.push_back(ns);
    std::this_thread::sleep_for(kWriterPause);
  }
  out->retries += client.retries();
}

// Runs the reader connections (and the writer, when `sites` is non-null)
// for `seconds`. Traced phases give each thread its own span log.
ServedLoop RunServedPhase(const std::vector<int>& reader_fds, int writer_fd,
                          const std::vector<Site>* sites,
                          ColoredGraph* mirror, int64_t n, double seconds,
                          uint64_t seed, uint64_t phase, size_t sample_every,
                          TraceSet* traces) {
  const int64_t deadline = Deadline(seconds);
  const size_t threads = reader_fds.size() + (sites != nullptr ? 1 : 0);
  std::vector<ServedLoop> results(threads);
  std::vector<SpanLog*> logs(threads, nullptr);
  if (traces != nullptr) {
    for (SpanLog*& log : logs) log = traces->NewLog(kSpanCapacity);
  }
  const int64_t start = NowNs();
  std::vector<std::thread> workers;
  for (size_t i = 0; i < reader_fds.size(); ++i) {
    workers.emplace_back([&, i] {
      ReaderLoop(reader_fds[i], StreamSeed(seed, phase * 100 + i), n,
                 (phase << 48) | (uint64_t{i + 1} << 40), deadline,
                 sample_every, logs[i], &results[i]);
    });
  }
  if (sites != nullptr) {
    const size_t i = reader_fds.size();
    workers.emplace_back([&, i] {
      WriterLoop(writer_fd, StreamSeed(seed, phase * 100 + i), *sites, mirror,
                 (phase << 48) | (uint64_t{i + 1} << 40), deadline, logs[i],
                 &results[i]);
    });
  }
  for (std::thread& w : workers) w.join();
  ServedLoop merged;
  for (const ServedLoop& r : results) merged.Merge(r);
  merged.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  return merged;
}

// A daemon plus its client connections; closes the clients' ends first so
// every handler sees EOF, then stops and joins the daemon.
struct ServedRig {
  std::unique_ptr<serve::Daemon> daemon;
  std::vector<int> fds;

  ~ServedRig() {
    for (const int fd : fds) ::close(fd);
    if (daemon != nullptr) daemon->Stop();
  }
  int Connect() {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return -1;
    daemon->ServeFd(sv[1], sv[1]);
    fds.push_back(sv[0]);
    return sv[0];
  }
};

double Rate(size_t count, double seconds) {
  return seconds > 0.0 ? static_cast<double>(count) / seconds : 0.0;
}

int RunServed(const Args& args, const fo::Query& query,
              const std::string& graph_path, const ColoredGraph& base) {
  const bool update_mix = args.workload == "update-serve";
  const int readers = update_mix ? 3 : 4;
  const int64_t n = base.NumVertices();
  const double t = args.seconds;
  Report report;
  TraceSet traces;
  const int64_t origin = NowNs();
  SpanLog* main_log = args.trace ? traces.NewLog(kSpanCapacity) : nullptr;
  LayerInputs layers;

  ServedRig rig;
  serve::DaemonOptions options;
  rig.daemon = std::make_unique<serve::Daemon>(query, options);
  std::vector<double> setup_s;
  while (MoreSetups(setup_s)) {
    std::string error;
    const int64_t start = NowNs();
    bool ok = false;
    {
      Stage span(main_log, "serve.load_initial_snapshot");
      ok = rig.daemon->LoadInitialSnapshot("file:" + graph_path, &error);
    }
    if (!ok) {
      std::fprintf(stderr, "LoadInitialSnapshot: %s\n", error.c_str());
      return 2;
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  std::vector<int> reader_fds;
  for (int i = 0; i < readers; ++i) reader_fds.push_back(rig.Connect());
  const int writer_fd = update_mix ? rig.Connect() : -1;
  const int check_fd = rig.Connect();
  for (const int fd : rig.fds) {
    if (fd < 0) {
      std::fprintf(stderr, "socketpair failed\n");
      return 2;
    }
  }

  Rng site_rng(StreamSeed(kGraphSeed, 2));
  ColoredGraph mirror = base;
  const std::vector<Site> sites =
      MakeSites(base, update_mix ? 256 : 64, &site_rng);
  const std::vector<Site>* writer_sites = update_mix ? &sites : nullptr;
  // Readers' answers are sampled for the naive check only where the graph
  // is static (serve-probe); update-serve checks in a quiescent phase.
  const size_t sample_every = update_mix ? 0 : 64;

  ServedLoop main = RunServedPhase(reader_fds, writer_fd, writer_sites,
                                   &mirror, n, args.trace ? 0.5 * t : t,
                                   args.seed, 1, sample_every, nullptr);
  ServedLoop traced;
  if (args.trace) {
    traced = RunServedPhase(reader_fds, writer_fd, writer_sites, &mirror, n,
                            0.25 * t, args.seed, 2, sample_every, &traces);
  }

  // Quiescent check: the writer has stopped; one connection probes the
  // final graph, which the benchmark mirrors edit by edit.
  ServedLoop check = RunServedPhase({check_fd}, -1, nullptr, nullptr, n, 0.3,
                                    args.seed, 4, 1, nullptr);
  Tally tally = main.tally;
  tally.Merge(traced.tally);
  tally.Merge(check.tally);
  {
    Checker checker(update_mix ? mirror : base, query);
    const int64_t check_deadline = NowNs() + kCheckBudgetNs;
    std::vector<ProbeSample> samples = check.samples;
    samples.insert(samples.end(), main.samples.begin(), main.samples.end());
    samples.insert(samples.end(), traced.samples.begin(),
                   traced.samples.end());
    VerifyProbes(samples, &checker, check_deadline, &tally);
  }

  const std::vector<double>& aux = update_mix ? main.update_ns : main.next_ns;
  const bool json_e2e = !args.trace;
  report.Add("setup_s", Median(setup_s), "s",
             static_cast<int64_t>(setup_s.size()), json_e2e);
  report.Add("probe_p50_us", Quantile(main.probe_ns, 0.5) / 1e3, "us",
             static_cast<int64_t>(main.probe_ns.size()), json_e2e);
  report.Add("probe_p99_us", Quantile(main.probe_ns, 0.99) / 1e3, "us",
             static_cast<int64_t>(main.probe_ns.size()), json_e2e);
  report.Add("probe_rps", Rate(main.probe_ns.size(), main.elapsed_s), "1/s",
             static_cast<int64_t>(main.probe_ns.size()), json_e2e);
  report.Add("aux_p50_us", Quantile(aux, 0.5) / 1e3, "us",
             static_cast<int64_t>(aux.size()), json_e2e);
  report.Add("aux_p99_us", Quantile(aux, 0.99) / 1e3, "us",
             static_cast<int64_t>(aux.size()), json_e2e);
  report.Add("aux_per_s", Rate(aux.size(), main.elapsed_s), "1/s",
             static_cast<int64_t>(aux.size()), json_e2e);
  if (update_mix) {
    report.Add("update_p50_ms", Quantile(main.update_ns, 0.5) / 1e6, "ms",
               static_cast<int64_t>(main.update_ns.size()), false);
    report.Add("update_p99_ms", Quantile(main.update_ns, 0.99) / 1e6, "ms",
               static_cast<int64_t>(main.update_ns.size()), false);
  }

  if (args.trace) {
    const std::shared_ptr<const serve::EngineSnapshot> live =
        rig.daemon->registry().Acquire();
    layers.probe_contexts = live->dynamic->DrainAnswerStats().contexts;
    layers.client_retries = main.retries + traced.retries;
    layers.round_trip_p50_us = Quantile(main.probe_ns, 0.5) / 1e3;
    const double traced_p50 = Quantile(traced.probe_ns, 0.5) / 1e3;
    layers.trace_overhead_pct =
        (traced_p50 / layers.round_trip_p50_us - 1.0) * 100.0;

    // Shadow request path against the live snapshot, at the workload's
    // concurrency; update-serve's writer runs beside the readers, the
    // other workloads toggle a few sites afterwards.
    serve::AdmissionGate gate(options.max_inflight, options.retry_after_ms);
    const int64_t deadline = Deadline(0.25 * t);
    std::vector<ShadowTally> tallies(static_cast<size_t>(readers) + 1);
    std::vector<std::thread> workers;
    for (int i = 0; i < readers; ++i) {
      SpanLog* log = traces.NewLog(kSpanCapacity);
      workers.emplace_back([&, i, log] {
        ShadowReader(&rig.daemon->registry(), &gate,
                     StreamSeed(args.seed, 300 + static_cast<uint64_t>(i)),
                     (uint64_t{3} << 48) | (uint64_t(i + 1) << 40), deadline,
                     log, &tallies[static_cast<size_t>(i)]);
      });
    }
    SpanLog* writer_log = traces.NewLog(kSpanCapacity);
    const auto run_writer = [&](int64_t until, int64_t max_updates) {
      ShadowWriter(&rig.daemon->registry(), sites, &mirror, !update_mix,
                   StreamSeed(args.seed, 399),
                   (uint64_t{3} << 48) | (uint64_t{9} << 40), until,
                   max_updates, writer_log, &tallies.back());
    };
    if (update_mix) workers.emplace_back([&] { run_writer(deadline, -1); });
    for (std::thread& w : workers) w.join();
    if (!update_mix) run_writer(Deadline(kSweepSeconds), kSweepUpdates);
    for (const ShadowTally& s : tallies) {
      tally.attempted += s.requests;
      tally.failed += s.failed;
      tally.mismatches += s.mismatches;
    }
    layers.shadow = tallies.back();  // only the writer records repairs
    const DynamicEngine::UpdateStats us = live->dynamic->stats();
    const int64_t probes = us.engine_probes + us.lazy_probes;
    layers.lazy_probe_share =
        probes > 0 ? static_cast<double>(us.lazy_probes) / probes : 0.0;
    layers.full_rebuild_share =
        us.batches > 0 ? static_cast<double>(us.full_rebuilds) / us.batches
                       : 0.0;

    // Engine, oracle and BFS layers over the workload's graph.
    {
      const int64_t start = NowNs();
      std::unique_ptr<EnumerationEngine> engine;
      {
        Stage span(main_log, "enumerate.prepare");
        engine =
            std::make_unique<EnumerationEngine>(base, query, options.engine);
      }
      layers.prepare.push_back(PrepareSample{
          static_cast<double>(NowNs() - start) / 1e6, engine->stats()});
      ProbeEngine(*engine, StreamSeed(args.seed, 5), main_log, &report);
    }
    ProbeLocalAndGraph(base, kQueryRadius, StreamSeed(args.seed, 6), main_log);
    for (int i = 0; i < kMinSetups; ++i) {
      Stage span(main_log, "graph.load");
      if (!ReadGraphFromFile(graph_path).ok) tally.Fail("graph reload");
    }
  }

  return Finish(args, tally, traces, origin, layers, &report);
}

// --- enum-near -----------------------------------------------------------

struct WindowSample {
  Tuple start;
  std::vector<Tuple> answers;
  bool exhausted = false;  // the last Next found no further answer
};

struct EnumLoop {
  std::vector<double> seek_ns;
  std::vector<double> delay_ns;
  int64_t answers = 0;
  int64_t batch_probes = 0;
  double window_s = 0.0;
  double batch_s = 0.0;
  int64_t attempted = 0;
  std::vector<WindowSample> windows;
  std::vector<std::pair<size_t, std::vector<uint8_t>>> batch_samples;
};

void RunWindows(const EnumerationEngine& engine, uint64_t seed,
                double seconds, SpanLog* log, EnumLoop* out) {
  constexpr uint64_t kSampleEvery = 64;
  const int64_t n = engine.universe();
  Rng rng(seed);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  for (uint64_t w = 0; NowNs() < deadline; ++w) {
    const bool sampled = w % kSampleEvery == 0;
    WindowSample sample;
    sample.start = RandomPair(n, &rng);
    std::optional<Tuple> answer;
    int64_t t0 = NowNs();
    {
      Stage span(log, "enumerate.seek", w + 1);
      answer = engine.Next(sample.start);
    }
    out->seek_ns.push_back(static_cast<double>(NowNs() - t0));
    ++out->attempted;
    for (int i = 0; answer.has_value(); ++i) {
      ++out->answers;
      if (sampled) sample.answers.push_back(*answer);
      if (i + 1 == kWindowAnswers) break;
      Tuple from = *answer;
      if (!LexIncrement(&from, n)) {
        answer.reset();
        break;
      }
      t0 = NowNs();
      {
        Stage span(log, "enumerate.next_answer", w + 1);
        answer = engine.Next(from);
      }
      out->delay_ns.push_back(static_cast<double>(NowNs() - t0));
      ++out->attempted;
    }
    sample.exhausted = !answer.has_value();
    if (sampled && out->windows.size() < 1024) {
      out->windows.push_back(std::move(sample));
    }
  }
  out->window_s += static_cast<double>(NowNs() - start) / 1e9;
}

void RunBatches(const EnumerationEngine& engine,
                const std::vector<std::vector<Tuple>>& batches, double seconds,
                SpanLog* log, EnumLoop* out) {
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  for (size_t i = 0; NowNs() < deadline; ++i) {
    const size_t b = i % batches.size();
    std::vector<uint8_t> bits;
    {
      Stage span(log, "enumerate.test_batch", i + 1);
      bits = engine.TestBatch(batches[b], kBatchThreads);
    }
    out->batch_probes += kBatchSize;
    out->attempted += kBatchSize;
    if (out->batch_samples.size() < 2) {
      out->batch_samples.emplace_back(b, std::move(bits));
    }
  }
  out->batch_s += static_cast<double>(NowNs() - start) / 1e9;
}

void VerifyEnum(const EnumLoop& loop,
                const std::vector<std::vector<Tuple>>& batches,
                Checker* checker, int64_t n, Tally* tally) {
  constexpr size_t kBatchChecks = 1024;
  for (const auto& [b, bits] : loop.batch_samples) {
    for (size_t i = 0; i < kBatchChecks && i < bits.size(); ++i) {
      if (checker->Test(batches[b][i]) != (bits[i] != 0)) {
        tally->Mismatch("TestBatch " + serve::FormatTuple(batches[b][i]));
      }
    }
  }
  const int64_t deadline = NowNs() + kCheckBudgetNs;
  int64_t checked = 0;
  int64_t answers = 0;
  for (const WindowSample& w : loop.windows) {
    if (checked > 0 && NowNs() > deadline) break;
    ++checked;
    // expected: the naive answer for the window's next step; an exhausted
    // window must end where the naive scan finds nothing more.
    std::optional<Tuple> expected = checker->Next(w.start);
    bool agreed = true;
    for (size_t i = 0; agreed && i < w.answers.size(); ++i) {
      ++answers;
      agreed = expected == w.answers[i];
      if (i + 1 == w.answers.size() && !w.exhausted) break;
      Tuple from = w.answers[i];
      expected = LexIncrement(&from, n) ? checker->Next(from) : std::nullopt;
    }
    if (!agreed || (w.exhausted && expected.has_value())) {
      tally->Mismatch("window from " + serve::FormatTuple(w.start));
    }
  }
  std::printf("check enum: %lld windows (%lld answers), %zu batches\n",
              static_cast<long long>(checked),
              static_cast<long long>(answers), loop.batch_samples.size());
}

int RunEnumNear(const Args& args, const fo::Query& query,
                const std::string& graph_path, const ColoredGraph& base) {
  const int64_t n = base.NumVertices();
  const double t = args.seconds;
  Report report;
  TraceSet traces;
  const int64_t origin = NowNs();
  SpanLog* main_log = args.trace ? traces.NewLog(kSpanCapacity) : nullptr;
  LayerInputs layers;
  Tally tally;

  EngineOptions options;
  options.num_threads = kBatchThreads;
  std::unique_ptr<ColoredGraph> graph;
  std::unique_ptr<EnumerationEngine> engine;
  std::vector<double> setup_s;
  while (MoreSetups(setup_s)) {
    engine.reset();
    const int64_t start = NowNs();
    Stage setup(main_log, "setup");
    GraphParseResult parsed;
    {
      Stage span(main_log, "graph.load");
      parsed = ReadGraphFromFile(graph_path);
    }
    if (!parsed.ok) {
      std::fprintf(stderr, "load: %s\n", parsed.error.c_str());
      return 2;
    }
    graph = std::make_unique<ColoredGraph>(std::move(parsed.graph));
    const int64_t prepare_start = NowNs();
    {
      Stage span(main_log, "enumerate.prepare");
      engine = std::make_unique<EnumerationEngine>(*graph, query, options);
    }
    const int64_t end = NowNs();
    layers.prepare.push_back(PrepareSample{
        static_cast<double>(end - prepare_start) / 1e6, engine->stats()});
    setup_s.push_back(static_cast<double>(end - start) / 1e9);
  }

  Rng batch_rng(StreamSeed(args.seed, 7));
  std::vector<std::vector<Tuple>> batches(8);
  for (auto& batch : batches) {
    for (int i = 0; i < kBatchSize; ++i) batch.push_back(RandomPair(n, &batch_rng));
  }
  // Windows run before any batch: concurrent TestBatch calls grow the
  // engine's probe-context pool, and every later single probe pays for
  // the pool's size, so the order is fixed in both kinds of run.
  const double share = args.trace ? 0.5 : 1.0;
  EnumLoop main;
  EnumLoop traced;
  SpanLog* traced_log = args.trace ? traces.NewLog(kSpanCapacity) : nullptr;
  RunWindows(*engine, StreamSeed(args.seed, 8), 0.7 * share * t, nullptr,
             &main);
  if (args.trace) {
    RunWindows(*engine, StreamSeed(args.seed, 9), 0.175 * t, traced_log,
               &traced);
    ProbeEngine(*engine, StreamSeed(args.seed, 5), main_log, &report);
  }
  RunBatches(*engine, batches, 0.3 * share * t, nullptr, &main);
  if (args.trace) {
    RunBatches(*engine, batches, 0.075 * t, traced_log, &traced);
  }
  tally.attempted = main.attempted + traced.attempted;
  {
    Checker checker(base, query);
    VerifyEnum(main, batches, &checker, n, &tally);
  }

  const bool json_e2e = !args.trace;
  const auto count = [](const std::vector<double>& v) {
    return static_cast<int64_t>(v.size());
  };
  report.Add("setup_s", Median(setup_s), "s", count(setup_s), json_e2e);
  report.Add("probe_p50_us", Quantile(main.seek_ns, 0.5) / 1e3, "us",
             count(main.seek_ns), json_e2e);
  report.Add("probe_p99_us", Quantile(main.seek_ns, 0.99) / 1e3, "us",
             count(main.seek_ns), json_e2e);
  report.Add("probe_rps", Rate(main.batch_probes, main.batch_s), "1/s",
             main.batch_probes, json_e2e);
  report.Add("aux_p50_us", Quantile(main.delay_ns, 0.5) / 1e3, "us",
             count(main.delay_ns), json_e2e);
  report.Add("aux_p99_us", Quantile(main.delay_ns, 0.99) / 1e3, "us",
             count(main.delay_ns), json_e2e);
  report.Add("aux_per_s", Rate(main.answers, main.window_s), "1/s",
             main.answers, json_e2e);
  report.Add("seek_p50_us", Quantile(main.seek_ns, 0.5) / 1e3, "us",
             count(main.seek_ns), false);
  report.Add("enum_delay_p50_ns", Quantile(main.delay_ns, 0.5), "ns",
             count(main.delay_ns), false);
  report.Add("enum_delay_p99_ns", Quantile(main.delay_ns, 0.99), "ns",
             count(main.delay_ns), false);
  report.Add("enum_answers_per_s", Rate(main.answers, main.window_s), "1/s",
             main.answers, false);
  report.Add("batch_probes_per_s", Rate(main.batch_probes, main.batch_s),
             "1/s", main.batch_probes, false);

  if (args.trace) {
    layers.probe_contexts = engine->DrainAnswerStats().contexts;
    layers.trace_overhead_pct =
        (Quantile(traced.delay_ns, 0.5) / Quantile(main.delay_ns, 0.5) - 1.0) * 100.0;

    // No daemon in this workload: the shadow request path runs against a
    // local registry holding a snapshot of the same graph, at the
    // workload's single caller, then toggles a few sites.
    serve::SnapshotRegistry registry;
    {
      auto snapshot = std::make_unique<serve::EngineSnapshot>();
      snapshot->source = "file:" + graph_path;
      snapshot->graph = base;
      snapshot->query = query;
      snapshot->Prepare(options);
      registry.Publish(std::move(snapshot));
    }
    serve::AdmissionGate gate(serve::DaemonOptions{}.max_inflight,
                              serve::DaemonOptions{}.retry_after_ms);
    ShadowReader(&registry, &gate, StreamSeed(args.seed, 300),
                 (uint64_t{3} << 48) | (uint64_t{1} << 40), Deadline(0.25 * t),
                 traces.NewLog(kSpanCapacity), &layers.shadow);
    Rng site_rng(StreamSeed(kGraphSeed, 2));
    const std::vector<Site> sites = MakeSites(base, 64, &site_rng);
    ColoredGraph mirror = base;
    ShadowWriter(&registry, sites, &mirror, /*with_colors=*/true,
                 StreamSeed(args.seed, 399),
                 (uint64_t{3} << 48) | (uint64_t{9} << 40), Deadline(kSweepSeconds),
                 kSweepUpdates, main_log, &layers.shadow);
    tally.attempted += layers.shadow.requests;
    tally.failed += layers.shadow.failed;
    tally.mismatches += layers.shadow.mismatches;
    const DynamicEngine::UpdateStats us = registry.Acquire()->dynamic->stats();
    const int64_t probes = us.engine_probes + us.lazy_probes;
    layers.lazy_probe_share =
        probes > 0 ? static_cast<double>(us.lazy_probes) / probes : 0.0;
    layers.full_rebuild_share =
        us.batches > 0 ? static_cast<double>(us.full_rebuilds) / us.batches
                       : 0.0;
    layers.round_trip_p50_us = 0.0;

    ProbeLocalAndGraph(base, kQueryRadius, StreamSeed(args.seed, 6), main_log);
  }

  return Finish(args, tally, traces, origin, layers, &report);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--out") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && (args->workload == "serve-probe" ||
                           args->workload == "enum-near" ||
                           args->workload == "update-serve");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: nwdbench --workload serve-probe|enum-near|"
                 "update-serve --seed N --seconds S --trace 0|1 [--out DIR]\n");
    return 2;
  }
  const fo::ParseResult parsed = fo::ParseQuery(
      args.workload == "serve-probe" ? kFarQuery : kNearQuery);
  if (!parsed.ok) {
    std::fprintf(stderr, "query: %s\n", parsed.error.c_str());
    return 2;
  }
  const ColoredGraph base = MakeGraph(args.workload);
  const std::string graph_path = args.out_dir + "/" + args.workload + "-" +
                                 std::to_string(args.seed) + ".graph";
  if (!WriteGraphToFile(base, graph_path)) {
    std::fprintf(stderr, "cannot write %s\n", graph_path.c_str());
    return 2;
  }
  std::printf("workload %s seed %llu seconds %.1f trace %d n=%lld\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0,
              static_cast<long long>(base.NumVertices()));
  const int rc = args.workload == "enum-near"
                     ? RunEnumNear(args, parsed.query, graph_path, base)
                     : RunServed(args, parsed.query, graph_path, base);
  std::remove(graph_path.c_str());
  return rc;
}

}  // namespace
}  // namespace bench
}  // namespace nwd

int main(int argc, char** argv) { return nwd::bench::Main(argc, argv); }
