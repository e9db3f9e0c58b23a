// The enumeration engine — the paper's main contribution (Theorem 2.3 via
// Theorem 5.1 / Lemma 5.2), specialized to the LNF fragment.
//
// Prepare-time (pseudo-linear on the sparse classes this library targets):
//   * compile the query to LNF (the Theorem 5.4 stand-in),
//   * when some case has a Case I position (a fresh tau-component at a
//     position > 0, dead cases included), build a (k*r, 2k*r)-neighborhood
//     cover and the r-kernels of its bags (Theorem 4.4 / Lemma 5.7) — the
//     cover radius k*r makes every tau-component fit inside one canonical
//     bag, and, crucially, makes "outside every kernel of the query
//     vertices' bags" imply "at distance > r from every query vertex" (the
//     kernel argument of Case I); only Case I reads them,
//   * build the distance oracle of Proposition 4.2 (splitter strategy,
//     cover + splitter recursion, each level inducing G[X \ {s_X}] of its
//     bags) for constant-time dist <= d tests,
//   * per case and per "fresh" position: the candidate lists L (Step 12),
//     and skip pointers (Lemma 5.8, Step 13) over the lists some Case I
//     position reads,
//   * lower the LNF cases to the bytecode programs of src/compile/ (once,
//     right after the skip pointers),
//   * materialize the extendable first coordinates (the Unary Theorem 5.3
//     stand-in) so enumeration never dead-ends at position 0; each value
//     is decided by one pinned descent on the bytecode executor.
// The independent prepare stages (kernels, candidate-list scans, skip
// pointers, extendable descents) shard over a worker pool
// (EngineOptions::num_threads) with results collected in index order, so
// the built engine is bit-identical at any thread count.
//
// Answer-time, an engine answers in one of two modes. Outside the LNF
// fragment, and when a budget trip abandoned preprocessing, every answer
// comes from BaselineAnswers (src/baseline/): the sorted solution set
// (preprocessing Step 1 on small graphs, sentences, unary and
// unsupported queries) or, for degraded engines and budgeted graphs too
// big to materialize, one lazy backtracking search. Otherwise every
// answer runs through the bytecode executor (src/compile/exec.h):
//   * Test(tuple): the Test program checks each live (tau, i) case's
//     distance types through the oracle plus its literals; O(1) per case
//     (Corollary 2.4).
//   * Next(from): per case, the Next program's lexicographic descent over
//     positions, where each position's candidates come from
//       - the extendable first coordinates (position 0),
//       - the (k-1)*r-ball of the component anchor (positions with an
//         earlier same-component variable; Case II of Section 5.2.2), or
//       - the skip pointers over L avoiding the earlier vertices' kernels,
//         merged with scans of those vertices' bags (Case I: the b'_0 and
//         b'_kappa candidates);
//     the smallest case answer wins (Theorem 2.3 / 5.1).
//
// Concurrency contract: after construction the engine is logically
// immutable, and Test/Next/First (and the batch wrappers below) are safe
// to call from any number of threads at once. Every per-probe mutable
// datum lives in a ProbeContext drawn from a pool (one context per
// in-flight probe; see probe_context.h); answer-time statistics
// accumulate in per-context counters drained on demand through
// DrainAnswerStats(). Preprocessing and Repair run their descents on
// private contexts, so those counters see probes only. Answers are
// bit-identical regardless of the number of concurrent callers. The lazy
// baseline's one search keeps BFS scratch and serializes behind the
// BaselineAnswers mutex — correct under concurrency, faster
// single-threaded; the materialized set answers lock-free.
//
// Deviations from the paper, both documented in DESIGN.md:
//   * within-component "smallest valid member" is found by scanning the
//     (k-1)*r-ball of the component anchor (complete by the component-
//     spread bound) instead of the lambda-recursive Lemma 5.2 structures —
//     work bounded by the anchor's ball size, which is the constant-delay
//     budget on the sparse classes (measured by experiments E2/E4);
//   * positions after the first can dead-end (the paper prevents this with
//     recursive structures for every projection query); the descent
//     backtracks, and experiment E2 measures the resulting delays. Only
//     position 0 is materialized as extendable (extendable0).
//
// Unsupported queries (quantifiers) transparently fall back to the
// baseline; `used_fallback()` reports it. Test and Next abort on a probe
// of the wrong arity or with a component outside [0, n), in every mode.

#ifndef NWD_ENUMERATE_ENGINE_H_
#define NWD_ENUMERATE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cover/neighborhood_cover.h"
#include "enumerate/lnf.h"
#include "enumerate/local_unary.h"
#include "enumerate/probe_context.h"
#include "fo/ast.h"
#include "graph/bfs.h"
#include "graph/colored_graph.h"
#include "local/distance_oracle.h"
#include "skip/skip_pointers.h"
#include "splitter/strategy.h"
#include "util/budget.h"
#include "util/flat_rows.h"
#include "util/lex.h"

namespace nwd {

class BaselineAnswers;
namespace compile {
class CompiledQuery;
}  // namespace compile

struct EngineOptions {
  // Graphs with at most this many vertices are handled by materializing
  // the full (sorted) solution set — the "naive algorithm" of preprocessing
  // Step 1.
  int64_t naive_cutoff = 48;
  // Worker threads for the preprocessing phase (kernels, candidate-list
  // scans, skip pointers, extendable-coordinate materialization): 0 picks
  // hardware_concurrency, 1 (the default) is the fully serial path. Every
  // parallel stage collects results in index order, so the built engine —
  // and therefore every Next/Test/Enumerate answer — is bit-identical
  // across thread counts. Answer-time parallelism is the caller's choice:
  // Test/Next are thread-safe, and TestBatch/NextBatch/EnumerateParallel
  // take their own thread count.
  int num_threads = 1;
  DistanceOracle::Options oracle;
  // Resource budget + density guards for the preprocessing phase.
  // Preprocessing is pseudo-linear only on (effectively) nowhere dense
  // inputs; with any limit set here, a trip — wall-clock deadline,
  // edge-work cap, allocation cap, or the cheap density pre-check saying
  // the input is far outside the sparse regime — makes the engine abandon
  // the LNF construction and degrade to a correct lazy baseline answer
  // path instead of hanging or crashing (Stats records the tripped stage
  // and reason). Default: unlimited, behavior unchanged. Answering is
  // never budgeted: per-probe work is bounded by the (budgeted)
  // preprocessing structures.
  ResourceBudgetOptions budget;
};

class EnumerationEngine {
 public:
  struct Stats {
    bool fallback = false;          // materialized instead of LNF machinery
    std::string fallback_reason;
    int64_t cover_bags = 0;
    int64_t cover_degree = 0;
    int64_t skip_entries = 0;
    int oracle_depth = 0;
    int64_t materialized_solutions = 0;  // only in fallback mode
    // Guarded-local unary subformulas materialized as virtual colors (the
    // Unary Theorem 5.3 stand-in widening the fast fragment).
    int64_t local_unaries = 0;
    // Wall time per preprocessing phase (LNF mode only), each read off
    // the stage's span; the speedup curves of bench_preprocessing read
    // these. Without a Case I position the cover, kernel and skip stages
    // build nothing: their times and sizes above stay 0.
    double cover_ms = 0.0;       // (k*r, 2k*r)-cover construction
    double kernels_ms = 0.0;     // per-bag r-kernels
    double oracle_ms = 0.0;      // splitter strategy + distance oracle
    double skips_ms = 0.0;       // candidate-list scans + skip pointers
    double compile_ms = 0.0;     // lowering to bytecode (src/compile/)
    double extendable_ms = 0.0;  // extendable first-coordinate descents
    // Case II anchor balls served from the per-probe cache instead of a
    // fresh BFS during the preprocessing descents. (Answer-time cache
    // traffic is per-context; drain it via DrainAnswerStats().)
    int64_t ball_cache_hits = 0;
    // Graceful degradation (see EngineOptions::budget). `degraded` means a
    // budget / density-guard / fault-injection trip aborted the LNF
    // construction; answers then come from the baseline path and stay
    // correct. `tripped_stage` names the prepare stage charged with the
    // trip ("engine/cover", "engine/kernels", "engine/oracle",
    // "engine/lists", "engine/skips", "engine/extendable",
    // "engine/density"). `lazy_fallback` means the fallback answers
    // through a lazy backtracking search instead of materializing
    // (degraded engines, and graphs too big to materialize under a
    // budget).
    bool degraded = false;
    std::string tripped_stage;
    bool lazy_fallback = false;
    int64_t budget_edge_work = 0;        // work units charged while preparing
    int64_t budget_peak_alloc_bytes = 0;
    double budget_elapsed_ms = 0.0;
  };

  // Performs the full preprocessing phase. Borrows `g`; it must outlive
  // the engine.
  EnumerationEngine(const ColoredGraph& g, const fo::Query& query,
                    EngineOptions options = {});

  // The engine holds internal self-references; pin it in place.
  EnumerationEngine(const EnumerationEngine&) = delete;
  EnumerationEngine& operator=(const EnumerationEngine&) = delete;
  ~EnumerationEngine();

  int arity() const { return query_.arity(); }
  // Domain size of the underlying graph.
  int64_t universe() const { return graph_->NumVertices(); }
  bool used_fallback() const { return stats_.fallback; }
  const Stats& stats() const { return stats_; }

  // Theorem 2.3: the smallest solution >= from (lexicographically), or
  // nullopt. `from` must have the query's arity with components in [0, n).
  // Thread-safe; callable concurrently with any other answer method.
  std::optional<Tuple> Next(const Tuple& from) const;

  // Corollary 2.4: constant-time solution test; `tuple` as for Next.
  // Thread-safe.
  bool Test(const Tuple& tuple) const;

  // The smallest solution overall. Thread-safe.
  std::optional<Tuple> First() const;

  // Batched probe serving: answers probes[i] into slot i, fanning the
  // probes across `num_threads` workers (0 = hardware concurrency, 1 =
  // inline). Results are exactly what a Test()/Next() loop would produce.
  std::vector<uint8_t> TestBatch(const std::vector<Tuple>& probes,
                                 int num_threads = 1) const;
  std::vector<std::optional<Tuple>> NextBatch(const std::vector<Tuple>& froms,
                                              int num_threads = 1) const;

  // All solutions (up to `limit`; limit < 0 = unbounded) in lexicographic
  // order, produced by sharding the solution space over the extendable
  // first-coordinate ranges and enumerating the shards concurrently.
  // Exactly the ConstantDelayEnumerator stream, num_threads-invariant.
  std::vector<Tuple> EnumerateParallel(int num_threads,
                                       int64_t limit = -1) const;

  // Aggregates and resets the answer-time counters accumulated by every
  // probe context since the last drain. The extendable descents of
  // construction and Repair are not probes and never count here
  // (construction's cache hits land in stats().ball_cache_hits).
  // Thread-safe; may run concurrently with probes, which keep counting
  // into the next drain.
  AnswerCounters DrainAnswerStats() const;

  // The bytecode programs this engine answers through: non-null exactly
  // when the engine runs the LNF machinery (not used_fallback()).
  // Borrowed; owned by the engine. The nwdq --dump-program view.
  const compile::CompiledQuery* compiled_query() const {
    return compiled_.get();
  }

  // --- Dynamic-update plane: localized in-place repair ------------------

  struct RepairStats {
    int64_t edits = 0;            // edits in the batch
    int64_t region_size = 0;      // vertices within 2R of an edit site
    int64_t damaged_bags = 0;     // cover bags whose 2R-ball changed
    int64_t new_bags = 0;         // bags opened for orphaned vertices
    int64_t reassigned = 0;       // vertices moved to another bag
    int64_t kernels_recomputed = 0;
    int64_t skips_rebuilt = 0;    // lists rebuilt from scratch (list changed)
    int64_t skips_repaired = 0;   // lists patched via incremental SC repair
    int64_t skip_rows_recomputed = 0;  // SC closures re-grown across lists
    int64_t witnesses_rechecked = 0;
    int64_t witnesses_broken = 0;
    int64_t descents_run = 0;     // fresh extendable descents
    int64_t oracle_dirty = 0;     // dirty overlay size after this repair
    // Per-stage wall time, for the update-vs-rebuild cost breakdown
    // (experiment E18).
    double cover_ms = 0.0;        // region BFS + bag patching + kernels
    double skips_ms = 0.0;        // kernel index + skip-list repair
    double extendable_ms = 0.0;   // witness recheck + fresh descents
    double compile_ms = 0.0;      // bytecode re-lowering
  };

  // Repairs the preprocessed structures in place after `edits` have
  // already been applied to the underlying graph (the caller owns the
  // graph and mutates it through ColoredGraph::ApplyInPlace). Damage is
  // localized to the vertices within 2R = 2k*r of an edit: only bags
  // whose 2R-ball touches an edit are re-BFS'd, only their kernels
  // recomputed, only affected candidate lists patched, the bytecode
  // re-lowered, and the extendable projections repaired through stored
  // witnesses — the distance oracle goes stale gracefully behind a dirty
  // overlay instead of rebuilding. Structures prepare did not build (the
  // cover, kernels and skips of a query without a Case I position) are
  // skipped. Bumps generation() so pooled probe contexts drop their
  // cached anchor balls.
  //
  // Returns false when in-place repair is not possible — fallback /
  // degraded / sentence / local-unary engines, or the dirty overlay
  // crossed its staleness threshold — in which case the engine was NOT
  // modified beyond the (harmless, monotone) dirty marks and the caller
  // must rebuild from scratch. Not thread-safe: the caller must exclude
  // all concurrent probes (the dynamic engine routes probes to its lag
  // path while a repair is in flight).
  bool Repair(std::span<const GraphEdit> edits, RepairStats* out = nullptr);

  // Starts at 0; Repair bumps it. Probe contexts stamp their anchor-ball
  // caches with it.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  struct CaseData {
    // Per fresh position (minimum of its tau-component): index into
    // lists_ / skips_ of the candidate list for that position's unary
    // literals; -1 for non-fresh positions.
    std::vector<int> list_index;
    // Sorted, case-specific extendable values for position 0 (the
    // materialized projection).
    std::vector<Vertex> extendable0;
    // witness0[i]: one full solution extending extendable0[i], captured by
    // the preprocessing descent. Repair rechecks these semantically — a
    // surviving witness proves the value still extendable without a new
    // descent.
    std::vector<Tuple> witness0;
  };

  // Runs the LNF preprocessing stages. Returns false when the budget
  // tripped (deadline / work cap / allocation cap / fault injection) or a
  // density guard rejected the input; the partially built structures are
  // then garbage and the caller must invoke DegradeAfterTrip().
  bool PrepareLnfMode();
  // Stage boundary check: fires the stage's fault point (tripping the
  // budget), attributes an anonymous trip to `stage`, and reports whether
  // preprocessing must stop.
  bool StageTripped(const char* stage);
  // Discards every (partial) LNF structure, records the degradation in
  // stats_, and installs the lazy baseline answer path.
  void DegradeAfterTrip();
  // Copies the budget's counters into stats_ (end of construction).
  void FinalizeBudgetStats();

  // Lowers the LNF cases to bytecode against the current graph (so
  // constant-folded color facts are current) into compiled_, timing it
  // into stats_.compile_ms. Runs once in prepare, right after the skip
  // pointers, and again in Repair before the extendable repair.
  void CompileQuery();

  // Whether a0, pinned at position 0 of case `case_index`, completes to a
  // solution of the case; the completion is left in ctx->assignment. One
  // non-counting descent on the executor (compile::ExecExtendCase).
  bool Extends(size_t case_index, Vertex a0, ProbeContext* ctx) const;

  // Runs the full descent for one case; on success the solution is left in
  // ctx->assignment.
  bool NextForCase(size_t case_index, const Tuple& from,
                   ProbeContext* ctx) const;

  // LNF-mode Next() body running against the caller's context.
  std::optional<Tuple> NextLnf(const Tuple& from, ProbeContext* ctx) const;

  // Whether `t` satisfies every predicate of case `c` on the current graph
  // (tau distance types + literals) — the semantic witness recheck.
  bool CaseSatisfied(const LnfCase& c, const Tuple& t) const;
  // Repairs each case's extendable0/witness0 after a structural repair,
  // running its descents on the freshly recompiled program.
  // `edit_dist[v]` is the distance from v to the nearest edit site (-1 if
  // beyond 2R); `color_edited` flags the colors touched by the batch.
  void RepairExtendable(const std::vector<int32_t>& edit_dist,
                        const std::vector<uint8_t>& color_edited,
                        bool have_edge_edits, RepairStats* stats);

  const ColoredGraph* graph_;
  // When guarded-local unaries are materialized, the engine operates on
  // this expanded copy (original graph + virtual colors).
  ColoredGraph owned_graph_;
  fo::Query query_;
  EngineOptions options_;
  // The preprocessing budget (unlimited when no limits are configured;
  // fault injection can still trip it). Declared after options_ so the
  // member-init list can read options_.budget.
  ResourceBudget budget_;
  Lnf lnf_;
  Stats stats_;

  // Fallback mode (non-null exactly when stats_.fallback): the sorted
  // solution set, or the lazy search when stats_.lazy_fallback.
  std::unique_ptr<BaselineAnswers> baseline_;

  // LNF mode.
  std::unique_ptr<SplitterStrategy> strategy_;  // the oracle borrows it
  std::unique_ptr<DistanceOracle> oracle_;
  // Case I structures: null / empty without a Case I position.
  std::unique_ptr<NeighborhoodCover> cover_;
  FlatRows<Vertex> kernels_;  // r-kernels per bag, CSR layout
  // Deduplicated candidate lists (by unary-literal signature) and their
  // skip pointers (null where no Case I position reads the list). The
  // signatures are kept so the dynamic-update plane can patch list
  // membership after a color edit.
  std::vector<std::vector<Vertex>> lists_;
  std::vector<std::vector<std::pair<int, bool>>> list_signatures_;
  std::vector<std::unique_ptr<SkipPointers>> skips_;
  // The shared vertex -> containing-kernels index behind every skip
  // structure (null with the cover); rebuilt when any kernel row changes.
  std::shared_ptr<const FlatRows<int64_t>> kernels_containing_;
  std::vector<CaseData> case_data_;
  // Bumped by Repair; see generation().
  std::atomic<uint64_t> generation_{0};
  // The compiled bytecode programs (null only in fallback mode). Borrows
  // case_data_'s list_index and extendable0 vectors and is reset before
  // them (DegradeAfterTrip).
  std::unique_ptr<compile::CompiledQuery> compiled_;
  // Per-probe contexts for the answer-time descents: a pool handing one
  // context to each in-flight Test/Next, which makes the answer path
  // reentrant and allocation-free in steady state.
  mutable std::unique_ptr<ProbeContextPool> probe_pool_;
};

}  // namespace nwd

#endif  // NWD_ENUMERATE_ENGINE_H_
