// Per-layer probes of the repository benchmark. Each probe times calls
// into one layer's public functions from outside, recording a span per
// call into the run's TraceSet; the traced run turns the span self times
// into the per-layer metrics.

#ifndef NWD_REPOBENCH_LAYERS_H_
#define NWD_REPOBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "bench_util.h"
#include "enumerate/engine.h"
#include "graph/colored_graph.h"
#include "serve/admission.h"
#include "serve/snapshot.h"
#include "util/rng.h"

namespace nwd {
namespace bench {

inline constexpr double kTestShare = 0.7;  // test vs next probe mix
inline constexpr size_t kMaxFrame = size_t{1} << 20;
inline constexpr size_t kSpanCapacity = 1 << 18;


// An update site: a vertex pair at distance exactly 2, toggled by edits.
struct Site {
  Vertex u;
  Vertex v;
};

std::vector<Site> MakeSites(const ColoredGraph& g, size_t count, Rng* rng);
// The edit that changes the graph at `site`: add when the edge is absent,
// delete when present.
GraphEdit ToggleEdit(const ColoredGraph& mirror, const Site& site);

// A seeded uniform probe tuple over [0, n)^2.
Tuple RandomPair(int64_t n, Rng* rng);

// One timed EnumerationEngine construction and its stage timings.
struct PrepareSample {
  double total_ms = 0.0;
  EnumerationEngine::Stats stats;
};

// Direct calls into an engine: Test/Next on seeded tuples (spans
// enumerate.test / enumerate.next), then TestBatch at 1 and 4 threads
// (enumerate.test_batch.1t / .4t). Adds the drained answer counters
// (descents, ball cache, compiled share) to `report`.
void ProbeEngine(const EnumerationEngine& engine, uint64_t seed, SpanLog* log,
                 Report* report);

// DistanceOracle build and WithinDistance on seeded pairs, and
// BfsScratch::Neighborhood at the Case II radius.
void ProbeLocalAndGraph(const ColoredGraph& g, int radius, uint64_t seed,
                        SpanLog* log);

// The shadow request path: the daemon's probe handling replayed through
// its public functions in its order (frame write/read over a socketpair,
// parse, admission, snapshot pin, engine_stats, Test/Next, reply format,
// reply frame), one span per call, rooted at serve.request.
struct ShadowTally {
  int64_t requests = 0;
  int64_t failed = 0;
  int64_t mismatches = 0;
  std::vector<double> repair_cover_ms;
  std::vector<double> repair_skips_ms;
  std::vector<double> repair_extendable_ms;
  std::vector<double> repair_compile_ms;
};
void ShadowReader(serve::SnapshotRegistry* registry,
                  serve::AdmissionGate* gate, uint64_t seed,
                  uint64_t rid_base, int64_t deadline_ns, SpanLog* log,
                  ShadowTally* tally);
// Toggles sites on the live snapshot's DynamicEngine: Apply plus
// WaitForSync under one dynamic.sync span, then the repair stage timings
// from UpdateStats::last_repair. Edits go back to back, so repairs hold
// engine_mu_ often enough for the readers' engine_stats p99 to show it. Stops at the deadline or after
// `max_updates` (< 0: no cap). `mirror` tracks the graph state. With
// `with_colors`, every other edit toggles color 0 on the site's first
// vertex instead: on graphs where any edge edit dirties more than the
// rebuild threshold, color edits are the ones that repair in place.
void ShadowWriter(serve::SnapshotRegistry* registry,
                  const std::vector<Site>& sites, ColoredGraph* mirror,
                  bool with_colors, uint64_t seed, uint64_t rid_base,
                  int64_t deadline_ns, int64_t max_updates, SpanLog* log,
                  ShadowTally* tally);

// What the traced run measured outside the span logs.
struct LayerInputs {
  // Untraced served probe p50 (us), split by the serve ledger; 0 when the
  // workload has no daemon, in which case the shadow path's own median
  // round trip is split instead.
  double round_trip_p50_us = 0.0;
  double trace_overhead_pct = 0.0;
  int64_t probe_contexts = 0;
  int64_t client_retries = 0;
  double lazy_probe_share = 0.0;
  double full_rebuild_share = 0.0;
  ShadowTally shadow;
  std::vector<PrepareSample> prepare;
};

// Adds every per-layer metric: span self-time medians by layer, the serve
// ledger (stage medians plus serve.unattributed_us summing to the round
// trip) and the prepare ledger (stages plus other_ms summing to
// enumerate.prepare_ms). Prints both ledgers.
void AddLayerMetrics(const TraceSet& traces, const LayerInputs& in,
                     Report* report);

}  // namespace bench
}  // namespace nwd

#endif  // NWD_REPOBENCH_LAYERS_H_
