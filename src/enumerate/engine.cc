#include "enumerate/engine.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <span>
#include <utility>

#include "baseline/naive_enum.h"
#include "compile/compiler.h"
#include "compile/exec.h"
#include "cover/kernel.h"
#include "enumerate/sentences.h"
#include "fo/analysis.h"
#include "graph/stats.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace nwd {
namespace {

// Registry lookups take a mutex; the engine resolves its instruments once
// per process and mutates through cached pointers (relaxed atomics).
struct EngineInstruments {
  obs::Counter* engines_built;
  obs::Counter* engines_fallback;
  obs::Counter* engines_degraded;
  obs::Counter* probes_served;
  obs::Counter* descents;
  obs::Counter* ball_cache_hits;
  obs::Counter* ball_cache_misses;
  obs::Counter* budget_edge_work;
  obs::Counter* compile_programs;
  obs::Counter* compile_insns;
  obs::Counter* compile_checks;
  obs::Counter* compile_folds;
  obs::Counter* compile_dead_cases;
  obs::Counter* compile_specialized_finds;
  obs::Counter* compiled_probes;
  obs::Counter* compiled_exec_insns;
  obs::Gauge* cover_bags;
  obs::Gauge* cover_degree;
  obs::Gauge* kernel_values;
  obs::Gauge* skip_entries;
  obs::Gauge* oracle_depth;
  obs::Gauge* budget_peak_alloc;
  obs::Gauge* answer_contexts;
  obs::Histogram* cover_us;
  obs::Histogram* kernels_us;
  obs::Histogram* oracle_us;
  obs::Histogram* skips_us;
  obs::Histogram* extendable_us;
  obs::Histogram* compile_us;
};

EngineInstruments& Instruments() {
  static EngineInstruments* instruments = [] {
    auto& reg = obs::MetricsRegistry::Global();
    auto* m = new EngineInstruments();
    m->engines_built = reg.GetCounter("engine.built");
    m->engines_fallback = reg.GetCounter("engine.fallback");
    m->engines_degraded = reg.GetCounter("engine.degraded");
    m->probes_served = reg.GetCounter("answer.probes_served");
    m->descents = reg.GetCounter("answer.descents");
    m->ball_cache_hits = reg.GetCounter("answer.ball_cache_hits");
    m->ball_cache_misses = reg.GetCounter("answer.ball_cache_misses");
    m->budget_edge_work = reg.GetCounter("budget.edge_work_charged");
    m->compile_programs = reg.GetCounter("compile.programs");
    m->compile_insns = reg.GetCounter("compile.insns");
    m->compile_checks = reg.GetCounter("compile.checks");
    m->compile_folds = reg.GetCounter("compile.folds");
    m->compile_dead_cases = reg.GetCounter("compile.dead_cases");
    m->compile_specialized_finds = reg.GetCounter("compile.specialized_finds");
    m->compiled_probes = reg.GetCounter("compile.exec.probes");
    m->compiled_exec_insns = reg.GetCounter("compile.exec.insns");
    m->cover_bags = reg.GetGauge("engine.cover.bags");
    m->cover_degree = reg.GetGauge("engine.cover.degree");
    m->kernel_values = reg.GetGauge("engine.kernels.values");
    m->skip_entries = reg.GetGauge("engine.skips.entries");
    m->oracle_depth = reg.GetGauge("engine.oracle.depth");
    m->budget_peak_alloc = reg.GetGauge("budget.peak_alloc_bytes");
    m->answer_contexts = reg.GetGauge("answer.contexts");
    m->cover_us = reg.GetHistogram("engine.phase.cover_us");
    m->kernels_us = reg.GetHistogram("engine.phase.kernels_us");
    m->oracle_us = reg.GetHistogram("engine.phase.oracle_us");
    m->skips_us = reg.GetHistogram("engine.phase.skips_us");
    m->extendable_us = reg.GetHistogram("engine.phase.extendable_us");
    m->compile_us = reg.GetHistogram("engine.phase.compile_us");
    return m;
  }();
  return *instruments;
}

}  // namespace

EnumerationEngine::~EnumerationEngine() {
  // Absorb any still-pooled answer counters into the process-wide registry
  // so metrics scraped after teardown don't lose the tail between the last
  // explicit DrainAnswerStats() and destruction.
  if (probe_pool_ != nullptr) DrainAnswerStats();
}

EnumerationEngine::EnumerationEngine(const ColoredGraph& g,
                                     const fo::Query& query,
                                     EngineOptions options)
    : graph_(&g), query_(query), options_(options),
      budget_(options_.budget) {
  obs::ScopedSpan prepare_span("engine/prepare");
  for (size_t i = 0; i < query_.free_vars.size(); ++i) {
    for (size_t j = i + 1; j < query_.free_vars.size(); ++j) {
      NWD_CHECK_NE(query_.free_vars[i], query_.free_vars[j])
          << "duplicate free variable in query tuple";
    }
  }
  lnf_ = CompileToLnf(query_);
  const int64_t n = g.NumVertices();
  // The probe-context pool serves every answer mode (LNF descents need the
  // full context; fallback probes still draw one for the counters), so it
  // exists before any early return. Materializing local unaries below adds
  // colors, never vertices, so sizing contexts off `g` is final.
  probe_pool_ = std::make_unique<ProbeContextPool>(n);

  // Sentences go through the dedicated model checker (guarded-local
  // existentials, independence sentences, boolean combinations — naive
  // only as a last resort inside CheckSentence).
  if (query_.arity() == 0) {
    stats_.fallback = true;
    stats_.fallback_reason = "sentence: decided by the model checker";
    // The solution set is the one empty tuple iff the sentence holds.
    std::vector<Tuple> solutions;
    if (CheckSentence(g, query_.formula).holds) solutions.emplace_back();
    stats_.materialized_solutions = static_cast<int64_t>(solutions.size());
    baseline_ = std::make_unique<BaselineAnswers>(std::move(solutions));
    FinalizeBudgetStats();
    return;
  }

  // Quantified query on a large graph: try to peel off guarded-local unary
  // subformulas (the Unary Theorem stand-in). If every quantifier lives in
  // such a subformula, materialize them as virtual colors and proceed with
  // the now quantifier-free residual on the expanded graph.
  if (!lnf_.supported && n > options_.naive_cutoff &&
      !fo::IsQuantifierFree(query_.formula)) {
    LocalUnaryExtraction extraction =
        ExtractLocalUnaries(query_, g.NumColors());
    if (extraction.complete && !extraction.unaries.empty()) {
      Lnf rewritten_lnf = CompileToLnf(extraction.rewritten);
      if (rewritten_lnf.supported) {
        owned_graph_ = MaterializeLocalUnaries(g, extraction.unaries);
        graph_ = &owned_graph_;
        query_ = std::move(extraction.rewritten);
        lnf_ = std::move(rewritten_lnf);
        stats_.local_unaries =
            static_cast<int64_t>(extraction.unaries.size());
      }
    }
  }

  const bool materialize = !lnf_.supported || lnf_.arity < 2 ||
                           n <= options_.naive_cutoff ||
                           lnf_.radius >= (int64_t{1} << 20);
  if (materialize) {
    stats_.fallback = true;
    if (!lnf_.supported) {
      stats_.fallback_reason = lnf_.unsupported_reason;
    } else if (lnf_.arity < 2) {
      stats_.fallback_reason = "arity <= 1: materialized by a linear scan";
    } else if (lnf_.radius >= (int64_t{1} << 20)) {
      stats_.fallback_reason = "distance bounds too large for the oracle";
    } else {
      stats_.fallback_reason = "small graph (preprocessing Step 1)";
    }
    if (options_.budget.HasLimits() && n > options_.naive_cutoff) {
      // Materializing all solutions is itself O(n^k) work a budgeted
      // caller never signed up for; answer lazily instead.
      stats_.lazy_fallback = true;
      baseline_ = std::make_unique<BaselineAnswers>(*graph_, query_);
    } else {
      std::vector<Tuple> solutions =
          BacktrackingEnumerator(*graph_, query_).AllSolutions();
      stats_.materialized_solutions = static_cast<int64_t>(solutions.size());
      baseline_ = std::make_unique<BaselineAnswers>(std::move(solutions));
    }
    FinalizeBudgetStats();
    return;
  }
  if (!PrepareLnfMode()) DegradeAfterTrip();
  FinalizeBudgetStats();
}

bool EnumerationEngine::StageTripped(const char* stage) {
  if (NWD_FAULT_POINT(stage)) budget_.Trip(stage, "fault injection");
  if (!budget_.Exceeded()) return false;
  budget_.AttributeStage(stage);
  return true;
}

void EnumerationEngine::DegradeAfterTrip() {
  compiled_.reset();  // borrows case_data_; must die first
  strategy_.reset();
  cover_.reset();
  kernels_.Clear();
  kernels_containing_.reset();
  oracle_.reset();
  lists_.clear();
  lists_.shrink_to_fit();
  list_signatures_.clear();
  list_signatures_.shrink_to_fit();
  skips_.clear();
  skips_.shrink_to_fit();
  case_data_.clear();
  case_data_.shrink_to_fit();
  stats_.fallback = true;
  stats_.degraded = true;
  stats_.tripped_stage = budget_.tripped_stage();
  const std::string reason = budget_.trip_reason();
  stats_.fallback_reason =
      "degraded: " + (reason.empty() ? std::string("budget exceeded") : reason);
  stats_.lazy_fallback = true;
  baseline_ = std::make_unique<BaselineAnswers>(*graph_, query_);
}

void EnumerationEngine::FinalizeBudgetStats() {
  stats_.budget_edge_work = budget_.work_charged();
  stats_.budget_peak_alloc_bytes = budget_.peak_alloc_bytes();
  stats_.budget_elapsed_ms = budget_.ElapsedMs();

  // Every constructor exit path funnels through here exactly once, so this
  // is where the one-shot preprocessing results land in the process-wide
  // registry: counts by outcome, structure-size high-water gauges, and the
  // per-phase wall-time distributions across engine builds.
  EngineInstruments& m = Instruments();
  m.engines_built->Increment();
  if (stats_.fallback) m.engines_fallback->Increment();
  if (stats_.degraded) m.engines_degraded->Increment();
  m.budget_edge_work->Add(stats_.budget_edge_work);
  m.budget_peak_alloc->SetMax(stats_.budget_peak_alloc_bytes);
  if (!stats_.fallback) {
    m.cover_bags->SetMax(stats_.cover_bags);
    m.cover_degree->SetMax(stats_.cover_degree);
    m.kernel_values->SetMax(kernels_.TotalValues());
    m.skip_entries->SetMax(stats_.skip_entries);
    m.oracle_depth->SetMax(stats_.oracle_depth);
    if (cover_ != nullptr) {  // built only for queries with a Case I position
      m.cover_us->Record(static_cast<int64_t>(stats_.cover_ms * 1e3));
      m.kernels_us->Record(static_cast<int64_t>(stats_.kernels_ms * 1e3));
    }
    m.oracle_us->Record(static_cast<int64_t>(stats_.oracle_ms * 1e3));
    m.skips_us->Record(static_cast<int64_t>(stats_.skips_ms * 1e3));
    m.extendable_us->Record(static_cast<int64_t>(stats_.extendable_ms * 1e3));
  }
  if (compiled_ != nullptr) {
    const compile::CompileStats& cs = compiled_->stats;
    m.compile_programs->Increment();
    m.compile_insns->Add(cs.test_insns + cs.next_insns);
    m.compile_checks->Add(cs.checks);
    m.compile_folds->Add(cs.color_folds + cs.dist_fusions + cs.dedup_drops);
    m.compile_dead_cases->Add(cs.dead_cases);
    m.compile_specialized_finds->Add(cs.specialized_finds);
    m.compile_us->Record(static_cast<int64_t>(stats_.compile_ms * 1e3));
  }
}

bool EnumerationEngine::PrepareLnfMode() {
  const int k = lnf_.arity;
  const int r = static_cast<int>(lnf_.radius);
  const int64_t n = graph_->NumVertices();

  // Density pre-check: the LNF construction is pseudo-linear only on
  // sparse inputs, and an O(n + m) summary is enough to reject a graph
  // that is obviously outside that regime before any expensive stage runs.
  const ResourceBudgetOptions& bopts = options_.budget;
  if (bopts.max_avg_degree > 0.0 || bopts.max_degeneracy > 0) {
    const DensitySummary density = SummarizeDensity(*graph_);
    if (bopts.max_avg_degree > 0.0 &&
        density.avg_degree > bopts.max_avg_degree) {
      char reason[96];
      std::snprintf(reason, sizeof(reason),
                    "density guard: average degree %.1f > %.1f",
                    density.avg_degree, bopts.max_avg_degree);
      budget_.Trip("engine/density", reason);
      return false;
    }
    if (bopts.max_degeneracy > 0 &&
        density.degeneracy > bopts.max_degeneracy) {
      budget_.Trip("engine/density",
                   "density guard: degeneracy " +
                       std::to_string(density.degeneracy) + " > " +
                       std::to_string(bopts.max_degeneracy));
      return false;
    }
  }
  if (StageTripped("engine/density")) return false;

  // Preprocessing is where Theorem 2.3's f(q,eps)*n^{1+eps} cost lives, and
  // its heavy stages — per-bag kernel BFS, candidate-list color scans,
  // per-list skip pointers, per-base-vertex extendable descents — are all
  // independent work items. They shard over this pool; every stage collects
  // its results in index order, so the built engine is bit-identical to the
  // num_threads == 1 path.
  ThreadPool pool(options_.num_threads);

  // Candidate lists, deduplicated by unary-literal signature across cases
  // and positions (Step 12's L sets); the serial order defines list ids.
  // Only Case I, a fresh component at a position p > 0 (kFindSkip), reads
  // a list's skips and the earlier vertices' bags and kernels, so only its
  // lists get skips, and the cover and kernels exist only if one does.
  // Dead cases count: Repair re-lowers the query after color edits.
  std::map<std::vector<std::pair<int, bool>>, int> signature_to_list;
  std::vector<std::vector<std::pair<int, bool>>> signatures;
  std::vector<uint8_t> case_one_reads;  // per list: a kFindSkip indexes it
  bool has_case_one = false;
  case_data_.resize(lnf_.cases.size());
  for (size_t ci = 0; ci < lnf_.cases.size(); ++ci) {
    const LnfCase& c = lnf_.cases[ci];
    CaseData& data = case_data_[ci];
    data.list_index.assign(static_cast<size_t>(k), -1);
    for (int pos = 0; pos < k; ++pos) {
      const int comp = c.component_of[pos];
      if (c.components[comp][0] != pos) continue;  // not fresh
      std::vector<std::pair<int, bool>> signature;
      for (const LnfLiteral& lit : c.unary_literals[pos]) {
        signature.emplace_back(lit.atom.color, lit.positive);
      }
      std::sort(signature.begin(), signature.end());
      signature.erase(std::unique(signature.begin(), signature.end()),
                      signature.end());
      const auto [it, inserted] = signature_to_list.try_emplace(
          signature, static_cast<int>(signatures.size()));
      if (inserted) {
        signatures.push_back(std::move(signature));
        case_one_reads.push_back(0);
      }
      data.list_index[pos] = it->second;
      if (pos > 0) {
        case_one_reads[static_cast<size_t>(it->second)] = 1;
        has_case_one = true;
      }
    }
  }

  // Each stage's span is also its timer: End() fills its Stats field. A
  // stage that builds nothing records no span; its boundary check stays.
  if (has_case_one) {
    obs::ScopedSpan span("engine/cover");
    cover_ = std::make_unique<NeighborhoodCover>(
        NeighborhoodCover::Build(*graph_, k * r, &budget_));
    stats_.cover_ms = span.End();
  }
  if (StageTripped("engine/cover")) return false;
  if (cover_ != nullptr) {
    budget_.ChargeAllocation(cover_->TotalBagSize() *
                             static_cast<int64_t>(sizeof(Vertex)));
    obs::ScopedSpan span("engine/kernels");
    const std::vector<std::vector<Vertex>> kernel_rows =
        ComputeAllKernels(*graph_, *cover_, r, &pool, &budget_);
    kernels_ = FlatRows<Vertex>(kernel_rows);
    stats_.kernels_ms = span.End();
  }
  if (StageTripped("engine/kernels")) return false;
  budget_.ChargeAllocation(kernels_.TotalValues() *
                           static_cast<int64_t>(sizeof(Vertex)));

  DistanceOracle::Options oracle_options = options_.oracle;
  oracle_options.budget = &budget_;
  {
    obs::ScopedSpan span("engine/oracle");
    strategy_ = MakeAutoStrategy(*graph_);
    oracle_ = std::make_unique<DistanceOracle>(*graph_, r, *strategy_,
                                               oracle_options);
    stats_.oracle_ms = span.End();
  }
  if (StageTripped("engine/oracle")) return false;
  // Arm the dirty overlay now (zero-cost until Repair marks something):
  // repairs must accumulate marks monotonically, so attaching exactly once
  // keeps earlier batches' staleness visible to later queries.
  oracle_->AttachLiveGraph(graph_);
  stats_.oracle_depth = oracle_->stats().max_depth;
  if (cover_ != nullptr) {
    stats_.cover_bags = cover_->NumBags();
    stats_.cover_degree = cover_->Degree();
  }

  // Materialize each list by a color scan sharded over vertex ranges.
  obs::ScopedSpan lists_span("engine/lists");
  lists_.resize(signatures.size());
  const int64_t chunk =
      std::max<int64_t>(1024, n / (8 * pool.num_threads()));
  const int64_t num_chunks = (n + chunk - 1) / chunk;
  for (size_t li = 0; li < signatures.size(); ++li) {
    const std::vector<std::pair<int, bool>>& signature = signatures[li];
    std::vector<std::vector<Vertex>> parts(static_cast<size_t>(num_chunks));
    pool.ParallelFor(
        0, num_chunks, /*grain=*/1,
        [&](int64_t part, int) {
          const Vertex lo = static_cast<Vertex>(part * chunk);
          const Vertex hi = std::min<Vertex>(n, lo + chunk);
          if (!budget_.ChargeWork(hi - lo)) return;
          std::vector<Vertex>& out = parts[static_cast<size_t>(part)];
          for (Vertex v = lo; v < hi; ++v) {
            bool ok = true;
            for (const auto& [color, positive] : signature) {
              if (graph_->HasColor(v, color) != positive) {
                ok = false;
                break;
              }
            }
            if (ok) out.push_back(v);
          }
        },
        &budget_);
    size_t total = 0;
    for (const auto& part : parts) total += part.size();
    std::vector<Vertex>& list = lists_[li];
    list.reserve(total);
    for (const auto& part : parts) {
      list.insert(list.end(), part.begin(), part.end());
    }
    budget_.ChargeAllocation(static_cast<int64_t>(total * sizeof(Vertex)));
    if (budget_.Exceeded()) break;  // lists are partial; stage check below
  }
  list_signatures_ = std::move(signatures);  // kept for color-edit repair
  stats_.skips_ms = lists_span.End();
  if (StageTripped("engine/lists")) return false;

  // The vertex -> containing-kernels index is shared by every per-list
  // skip structure; one counting-sort pass over the flattened kernels.
  // The skip constructions fan out across lists; lists Case I never reads
  // keep a null slot.
  skips_.resize(lists_.size());
  if (cover_ != nullptr) {
    obs::ScopedSpan skips_span("engine/skips");
    NWD_CHECK(cover_->complete()) << "skip build over a budget-tripped cover";
    kernels_containing_ = std::make_shared<const FlatRows<int64_t>>(
        SkipPointers::IndexKernels(n, kernels_));
    budget_.ChargeWork(kernels_.TotalValues());
    budget_.ChargeAllocation(kernels_containing_->TotalValues() *
                             static_cast<int64_t>(sizeof(int64_t)));
    const int skip_set_size = std::max(1, k - 1);
    pool.ParallelFor(
        0, static_cast<int64_t>(lists_.size()), /*grain=*/1,
        [&](int64_t li, int) {
          if (!case_one_reads[static_cast<size_t>(li)]) return;
          skips_[static_cast<size_t>(li)] = std::make_unique<SkipPointers>(
              n, kernels_containing_, lists_[static_cast<size_t>(li)],
              skip_set_size, &budget_);
        },
        &budget_);
    stats_.skips_ms += skips_span.End();
  }
  if (StageTripped("engine/skips")) return false;
  // Totalled after the stage check: a tripped sweep leaves partial counts.
  for (const auto& skip : skips_) {
    if (skip != nullptr) stats_.skip_entries += skip->TotalEntries();
  }
  budget_.ChargeAllocation(stats_.skip_entries *
                           static_cast<int64_t>(sizeof(Vertex) + 24));

  // Lower the LNF cases to the flat bytecode programs (src/compile/) before
  // the extendable descents, which run on the executor. Compilation is
  // never on the answer path: the serving daemon rebuilds engines on its
  // rebuild lane and swaps the snapshot in whole, programs included.
  CompileQuery();

  // Materialize the extendable first coordinates per case (the Unary
  // Theorem stand-in): position 0 is always the minimum of its component,
  // so its base list exists; keep only values with a full completion. Each
  // descent is read-only on the shared structures, so base vertices shard
  // over the pool with one private ProbeContext per worker (outside the
  // answer pool, so the descents never reach DrainAnswerStats()); the
  // keep/drop flags land in index order.
  obs::ScopedSpan extendable_span("engine/extendable");
  std::vector<std::unique_ptr<ProbeContext>> contexts(
      static_cast<size_t>(pool.num_threads()));
  for (size_t ci = 0; ci < lnf_.cases.size(); ++ci) {
    CaseData& data = case_data_[ci];
    const std::vector<Vertex>& base =
        lists_[static_cast<size_t>(data.list_index[0])];
    std::vector<uint8_t> extendable(base.size(), 0);
    std::vector<Tuple> witnesses(base.size());
    pool.ParallelFor(
        0, static_cast<int64_t>(base.size()), /*grain=*/64,
        [&](int64_t i, int worker) {
          auto& ctx = contexts[static_cast<size_t>(worker)];
          if (ctx == nullptr) {
            ctx = std::make_unique<ProbeContext>(n);
            ctx->budget = &budget_;
          }
          if (budget_.Exceeded()) return;
          ctx->ResetBallCache();
          if (Extends(ci, base[static_cast<size_t>(i)], ctx.get())) {
            extendable[static_cast<size_t>(i)] = 1;
            // The completed assignment is this value's witness; Repair
            // rechecks it instead of re-running the descent.
            witnesses[static_cast<size_t>(i)] = ctx->assignment;
          }
        },
        &budget_);
    if (budget_.Exceeded()) break;  // flags are partial; stage check below
    for (size_t i = 0; i < base.size(); ++i) {
      if (extendable[i]) {
        data.extendable0.push_back(base[i]);
        data.witness0.push_back(std::move(witnesses[i]));
      }
    }
  }
  stats_.extendable_ms = extendable_span.End();
  if (StageTripped("engine/extendable")) return false;
  // The preprocessing descents' cache traffic lands in stats_; answer-time
  // traffic stays per-context until DrainAnswerStats().
  for (const auto& ctx : contexts) {
    if (ctx != nullptr) {
      stats_.ball_cache_hits +=
          ctx->ball_cache_hits.load(std::memory_order_relaxed);
    }
  }
  return true;
}

void EnumerationEngine::CompileQuery() {
  obs::ScopedSpan span("engine/compile");
  std::vector<compile::CaseInputs> inputs;
  inputs.reserve(case_data_.size());
  for (const CaseData& data : case_data_) {
    inputs.push_back(compile::CaseInputs{&data.list_index, &data.extendable0});
  }
  compiled_ = compile::Compile(lnf_, *graph_, inputs);
  stats_.compile_ms = span.End();
}

bool EnumerationEngine::Extends(size_t case_index, Vertex a0,
                                ProbeContext* ctx) const {
  ctx->assignment.assign(static_cast<size_t>(lnf_.arity), 0);
  ctx->assignment[0] = a0;
  const compile::ExecEnv env{graph_, oracle_.get(), cover_.get(), &skips_};
  return compile::ExecExtendCase(*compiled_, env,
                                 compiled_->next_entry[case_index], ctx);
}

bool EnumerationEngine::Repair(std::span<const GraphEdit> edits,
                               RepairStats* out) {
  RepairStats local;
  RepairStats* stats = out != nullptr ? out : &local;
  *stats = RepairStats{};
  stats->edits = static_cast<int64_t>(edits.size());
  if (edits.empty()) return true;
  // In-place repair only exists for the full LNF machinery. Fallback /
  // degraded / lazy engines answer from the graph directly and need a
  // plain rebuild; local-unary engines run on an expanded copy whose
  // virtual colors an edit invalidates wholesale.
  if (stats_.fallback || stats_.degraded || stats_.local_unaries > 0) {
    return false;
  }
  obs::ScopedSpan span("engine/repair");
  NWD_CHECK(oracle_ != nullptr);
  // Each stage's span fills its RepairStats field; "cover" spans the
  // damage region, the oracle marks and the cover + kernel patch.
  obs::ScopedSpan cover_span("engine/repair/cover");

  const int k = lnf_.arity;
  const int r = static_cast<int>(lnf_.radius);
  const int cover_radius = k * r;              // the cover radius R
  const int region_radius = 2 * cover_radius;  // the bag-ball radius
  const int64_t n = graph_->NumVertices();
  const int skip_set_size = std::max(1, k - 1);

  bool have_edge_edits = false;
  std::vector<Vertex> sites;
  std::vector<uint8_t> color_edited(
      static_cast<size_t>(graph_->NumColors()), 0);
  for (const GraphEdit& e : edits) {
    switch (e.kind) {
      case GraphEdit::Kind::kAddEdge:
      case GraphEdit::Kind::kRemoveEdge:
        have_edge_edits = true;
        sites.push_back(e.u);
        sites.push_back(e.v);
        break;
      case GraphEdit::Kind::kSetColor:
        sites.push_back(e.u);
        color_edited[static_cast<size_t>(e.color)] = 1;
        break;
    }
  }
  std::sort(sites.begin(), sites.end());
  sites.erase(std::unique(sites.begin(), sites.end()), sites.end());

  // The damage region: everything within 2R of an edit site, with the
  // distance to the nearest site. One multi-source BFS on the post-edit
  // graph is exact for both add and remove — a shortest path to the site
  // SET {u, v} never crosses the (u, v) edge itself.
  BfsScratch scratch(n);
  const std::vector<Vertex> region =
      scratch.Neighborhood(*graph_, sites, region_radius);
  std::vector<int32_t> edit_dist(static_cast<size_t>(n), -1);
  for (const Vertex v : region) {
    edit_dist[static_cast<size_t>(v)] =
        static_cast<int32_t>(scratch.DistanceTo(v));
  }
  stats->region_size = static_cast<int64_t>(region.size());

  if (have_edge_edits) {
    // Distances may have shifted anywhere inside the region; the oracle
    // answers those pairs from the live graph from now on. Past a quarter
    // of the universe the stale structure stops paying for itself —
    // decline, and the caller rebuilds (the marks below are monotone and
    // conservative, so the declined state stays correct).
    oracle_->MarkDirty(region);
    stats->oracle_dirty = oracle_->NumDirty();
    if (oracle_->NumDirty() * 4 > n) return false;
  } else {
    stats->oracle_dirty = oracle_->NumDirty();
  }

  // --- Cover + kernel repair (edge edits only: colors touch neither) ---
  const int64_t old_bags = cover_ != nullptr ? cover_->NumBags() : 0;
  std::vector<int64_t> touched_bags;
  if (have_edge_edits && cover_ != nullptr) {
    std::vector<NeighborhoodCover::BagPatch> patches;
    std::vector<std::pair<Vertex, int64_t>> reassign;
    std::vector<Vertex> broken;
    // A bag's ball changes iff its center is within 2R of a site; its
    // assignments break iff the new center distance exceeds R (assignments
    // to undamaged bags provably survive: all paths of length <= 2R from
    // an untouched center avoid every edited edge).
    for (int64_t b = 0; b < old_bags; ++b) {
      const Vertex center = cover_->Center(b);
      if (edit_dist[static_cast<size_t>(center)] < 0) continue;
      ++stats->damaged_bags;
      touched_bags.push_back(b);
      NeighborhoodCover::BagPatch patch;
      patch.bag = b;
      patch.center = center;
      scratch.NeighborhoodInto(*graph_, center, region_radius,
                               &patch.members);
      // DistanceTo is valid for exactly this BFS; orphan detection must
      // happen before the next bag's ball is explored.
      for (const Vertex v : cover_->AssignedVertices(b)) {
        const int64_t d = scratch.DistanceTo(v);
        if (d < 0 || d > cover_radius) broken.push_back(v);
      }
      patches.push_back(std::move(patch));
    }
    // Re-home the orphans: any center within R works (answers are
    // semantically determined, so the choice only shapes per-probe cost);
    // take the smallest bag id for determinism, or open a fresh bag.
    std::vector<int64_t> center_bag(static_cast<size_t>(n), -1);
    for (int64_t b = 0; b < old_bags; ++b) {
      center_bag[static_cast<size_t>(cover_->Center(b))] = b;
    }
    int64_t appended = 0;
    std::vector<Vertex> ball;
    for (const Vertex v : broken) {
      scratch.NeighborhoodInto(*graph_, v, region_radius, &ball);
      int64_t target = -1;
      for (const Vertex u : ball) {
        if (scratch.DistanceTo(u) > cover_radius) continue;
        const int64_t b = center_bag[static_cast<size_t>(u)];
        if (b >= 0 && (target < 0 || b < target)) target = b;
      }
      if (target < 0) {
        NeighborhoodCover::BagPatch patch;
        patch.center = v;
        patch.members = ball;  // N_2R(v), sorted
        patches.push_back(std::move(patch));
        target = old_bags + appended++;
        center_bag[static_cast<size_t>(v)] = target;
        ++stats->new_bags;
      }
      reassign.emplace_back(v, target);
    }
    stats->reassigned = static_cast<int64_t>(reassign.size());
    cover_->ApplyPatch(patches, reassign);
    stats_.cover_bags = cover_->NumBags();
    stats_.cover_degree = cover_->Degree();

    // Kernel rows to recompute: the damaged bags plus every bag holding a
    // vertex whose r-ball changed (K_r membership can flip without the
    // bag itself changing).
    for (const Vertex v : region) {
      if (edit_dist[static_cast<size_t>(v)] > r) continue;
      for (const int64_t b : cover_->BagsContaining(v)) {
        if (b < old_bags) touched_bags.push_back(b);
      }
    }
    std::sort(touched_bags.begin(), touched_bags.end());
    touched_bags.erase(
        std::unique(touched_bags.begin(), touched_bags.end()),
        touched_bags.end());
    std::vector<std::pair<int64_t, std::vector<Vertex>>> kernel_rows;
    kernel_rows.reserve(touched_bags.size());
    for (const int64_t b : touched_bags) {
      kernel_rows.emplace_back(b, ComputeKernel(*graph_, *cover_, b, r));
    }
    kernels_.ReplaceRows(kernel_rows);
    for (int64_t b = old_bags; b < cover_->NumBags(); ++b) {
      const std::vector<Vertex> row = ComputeKernel(*graph_, *cover_, b, r);
      kernels_.PushRow(row);
    }
    stats->kernels_recomputed =
        static_cast<int64_t>(touched_bags.size()) + stats->new_bags;
  }

  stats->cover_ms = cover_span.End();

  // --- Candidate-list patching (color edits only) -----------------------
  obs::ScopedSpan skips_span("engine/repair/skips");
  std::vector<uint8_t> list_changed(lists_.size(), 0);
  for (const GraphEdit& e : edits) {
    if (e.kind != GraphEdit::Kind::kSetColor) continue;
    for (size_t li = 0; li < lists_.size(); ++li) {
      bool mentions = false;
      bool matches = true;
      for (const auto& [color, positive] : list_signatures_[li]) {
        if (color == e.color) mentions = true;
        if (graph_->HasColor(e.u, color) != positive) matches = false;
      }
      if (!mentions) continue;
      std::vector<Vertex>& list = lists_[li];
      const auto it = std::lower_bound(list.begin(), list.end(), e.u);
      const bool present = it != list.end() && *it == e.u;
      if (matches && !present) {
        list.insert(it, e.u);
        list_changed[li] = 1;
      } else if (!matches && present) {
        list.erase(it);
        list_changed[li] = 1;
      }
    }
  }

  // --- Skip repair ------------------------------------------------------
  // Changed kernels do NOT force a full downward sweep: an SC entry whose
  // bag set avoids every damaged bag keeps both its membership and its
  // stored skip, so each list is patched incrementally — only closures
  // that can mention a damaged bag are re-grown (RepairKernels). Lists
  // whose membership itself changed (color edits) lose that invariant and
  // rebuild from scratch against the current kernel index. Lists Case I
  // never reads have no skips to patch.
  std::vector<int64_t> damaged_bags;
  if (have_edge_edits && cover_ != nullptr) {
    kernels_containing_ = std::make_shared<const FlatRows<int64_t>>(
        SkipPointers::IndexKernels(n, kernels_));
    damaged_bags = touched_bags;  // sorted; appended ids extend the order
    for (int64_t b = old_bags; b < cover_->NumBags(); ++b) {
      damaged_bags.push_back(b);
    }
  }
  stats_.skip_entries = 0;
  for (size_t li = 0; li < lists_.size(); ++li) {
    if (skips_[li] == nullptr) continue;
    if (list_changed[li]) {
      skips_[li] = std::make_unique<SkipPointers>(
          n, kernels_containing_, lists_[li], skip_set_size, nullptr);
      ++stats->skips_rebuilt;
    } else if (have_edge_edits) {
      stats->skip_rows_recomputed +=
          skips_[li]->RepairKernels(kernels_containing_, damaged_bags);
      ++stats->skips_repaired;
    }
    stats_.skip_entries += skips_[li]->TotalEntries();
  }
  stats->skips_ms = skips_span.End();

  // --- Bytecode + extendable projections --------------------------------
  // Re-lowering against the current graph retires every constant-folded
  // fact the batch may have invalidated (color counts); the extendable
  // repair then descends on the new program.
  CompileQuery();
  stats->compile_ms = stats_.compile_ms;
  obs::ScopedSpan extendable_span("engine/repair/extendable");
  RepairExtendable(edit_dist, color_edited, have_edge_edits, stats);
  stats->extendable_ms = extendable_span.End();

  generation_.fetch_add(1, std::memory_order_acq_rel);
  return true;
}

bool EnumerationEngine::CaseSatisfied(const LnfCase& c, const Tuple& t) const {
  const int k = lnf_.arity;
  const int r = static_cast<int>(lnf_.radius);
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) {
      if (oracle_->WithinDistance(t[i], t[j], r) != c.tau[i][j]) return false;
    }
  }
  for (const LnfLiteral& lit : c.literals) {
    bool holds = false;
    switch (lit.atom.kind) {
      case LnfAtom::Kind::kColor:
        holds = graph_->HasColor(t[lit.atom.pos1], lit.atom.color);
        break;
      case LnfAtom::Kind::kEdge:
        holds = graph_->HasEdge(t[lit.atom.pos1], t[lit.atom.pos2]);
        break;
      case LnfAtom::Kind::kEquals:
        holds = t[lit.atom.pos1] == t[lit.atom.pos2];
        break;
      case LnfAtom::Kind::kDist:
        holds = oracle_->WithinDistance(t[lit.atom.pos1], t[lit.atom.pos2],
                                        static_cast<int>(lit.atom.dist_bound));
        break;
    }
    if (holds != lit.positive) return false;
  }
  return true;
}

void EnumerationEngine::RepairExtendable(
    const std::vector<int32_t>& edit_dist,
    const std::vector<uint8_t>& color_edited, bool have_edge_edits,
    RepairStats* stats) {
  const int r = static_cast<int>(lnf_.radius);
  // Any tuple whose truth flipped has a component within r of a site; in a
  // single-tau-component case that pins a0 within (k-1)*r + r = k*r of it.
  const int32_t locality = static_cast<int32_t>(lnf_.arity * lnf_.radius);
  // A private context, as in prepare: repair descents are not probes, so
  // their ball-cache traffic stays out of the answer pool's counters. Its
  // cache serves every descent of this repair (the graph is fixed now).
  ProbeContext ctx(graph_->NumVertices());

  for (size_t ci = 0; ci < lnf_.cases.size(); ++ci) {
    const LnfCase& c = lnf_.cases[ci];
    CaseData& data = case_data_[ci];
    // Color-only batches leave a case alone unless it mentions an edited
    // color (its base list and every predicate are then untouched).
    if (!have_edge_edits) {
      bool mentions = false;
      for (const LnfLiteral& lit : c.literals) {
        if (lit.atom.kind == LnfAtom::Kind::kColor &&
            color_edited[static_cast<size_t>(lit.atom.color)]) {
          mentions = true;
          break;
        }
      }
      if (!mentions) continue;
    }
    const std::vector<Vertex>& base =
        lists_[static_cast<size_t>(data.list_index[0])];
    const bool single_comp = c.components.size() == 1;
    std::vector<Vertex> new_ext;
    std::vector<Tuple> new_wit;
    new_ext.reserve(data.extendable0.size());
    new_wit.reserve(data.witness0.size());
    size_t pi = 0;  // cursor into the old (sorted) extendable0
    for (const Vertex a0 : base) {
      while (pi < data.extendable0.size() && data.extendable0[pi] < a0) {
        ++pi;  // value left the base list; its entry drops
      }
      const bool was_positive =
          pi < data.extendable0.size() && data.extendable0[pi] == a0;
      bool keep = false;
      Tuple witness;
      bool need_descent = false;
      if (was_positive) {
        Tuple& w = data.witness0[pi];
        // A witness with every component further than r from every site
        // kept all its predicates; closer ones get the cheap semantic
        // recheck, and only broken ones pay for a fresh descent.
        bool near = false;
        for (const Vertex t : w) {
          const int32_t d = edit_dist[static_cast<size_t>(t)];
          if (d >= 0 && d <= r) {
            near = true;
            break;
          }
        }
        if (!near) {
          keep = true;
          witness = std::move(w);
        } else {
          ++stats->witnesses_rechecked;
          if (CaseSatisfied(c, w)) {
            keep = true;
            witness = std::move(w);
          } else {
            ++stats->witnesses_broken;
            need_descent = true;
          }
        }
        ++pi;
      } else {
        // A negative flips only when some solution through it appeared:
        // single-component cases localize that to `locality` around a
        // site; multi-component cases can couple a0 to a far-away flip
        // (the fresh component sits anywhere), so they re-descend.
        const int32_t d = edit_dist[static_cast<size_t>(a0)];
        need_descent = !single_comp || (d >= 0 && d <= locality);
      }
      if (need_descent) {
        ++stats->descents_run;
        if (Extends(ci, a0, &ctx)) {
          keep = true;
          witness = ctx.assignment;
        }
      }
      if (keep) {
        new_ext.push_back(a0);
        new_wit.push_back(std::move(witness));
      }
    }
    data.extendable0 = std::move(new_ext);
    data.witness0 = std::move(new_wit);
  }
}

bool EnumerationEngine::NextForCase(size_t case_index, const Tuple& from,
                                    ProbeContext* ctx) const {
  ctx->descents.fetch_add(1, std::memory_order_relaxed);
  ctx->assignment.assign(static_cast<size_t>(lnf_.arity), 0);
  const int32_t entry = compiled_->next_entry[case_index];
  // A dead (peephole-proved contradictory) case has no solution at all, so
  // skipping it preserves the cross-case minimum.
  if (entry < 0) return false;
  const compile::ExecEnv env{graph_, oracle_.get(), cover_.get(), &skips_};
  return compile::ExecNextCase(*compiled_, env, entry, from, ctx);
}

std::optional<Tuple> EnumerationEngine::NextLnf(const Tuple& from,
                                                ProbeContext* ctx) const {
  // Anchor balls depend only on the graph (the Case II radius is fixed per
  // engine), so the cache persists across probes and is dropped only when
  // the dynamic-update plane patched the engine in place (generation
  // mismatch) or the arena grew past its cap. Repeated probes against the
  // same anchors — the enumeration loop's common shape — then skip the
  // ball BFS entirely.
  constexpr size_t kMaxCachedBalls = 4096;
  const uint64_t gen = generation_.load(std::memory_order_acquire);
  if (ctx->generation != gen || ctx->balls.size() > kMaxCachedBalls) {
    ctx->ResetBallCache();
    ctx->generation = gen;
  }
  bool have_best = false;
  for (size_t ci = 0; ci < lnf_.cases.size(); ++ci) {
    if (!NextForCase(ci, from, ctx)) continue;
    if (!have_best || LexCompare(ctx->assignment, ctx->best) < 0) {
      ctx->best = ctx->assignment;  // capacity-reusing copy
      have_best = true;
    }
  }
  if (!have_best) return std::nullopt;
  return ctx->best;
}

std::optional<Tuple> EnumerationEngine::Next(const Tuple& from) const {
  CheckProbe(from, arity(), graph_->NumVertices());
  ScopedProbeContext ctx(probe_pool_.get());
  ctx->probes_served.fetch_add(1, std::memory_order_relaxed);
  if (baseline_ != nullptr) {
    // A lazy answer is one backtracking search: the twin of an LNF
    // descent, so degraded-mode drains report comparable work.
    if (stats_.lazy_fallback) {
      ctx->descents.fetch_add(1, std::memory_order_relaxed);
    }
    return baseline_->Next(from);
  }
  return NextLnf(from, ctx.get());
}

bool EnumerationEngine::Test(const Tuple& tuple) const {
  CheckProbe(tuple, arity(), graph_->NumVertices());
  ScopedProbeContext ctx(probe_pool_.get());
  ctx->probes_served.fetch_add(1, std::memory_order_relaxed);
  if (baseline_ != nullptr) return baseline_->Test(tuple);
  const compile::ExecEnv env{graph_, oracle_.get(), cover_.get(), &skips_};
  return compile::ExecTest(*compiled_, env, tuple, ctx.get());
}

std::optional<Tuple> EnumerationEngine::First() const {
  // Sentences are always answered by the baseline: the empty tuple iff
  // the sentence holds.
  if (arity() == 0) return baseline_->Next({});
  if (graph_->NumVertices() == 0) return std::nullopt;
  return Next(LexMin(arity()));
}

std::vector<uint8_t> EnumerationEngine::TestBatch(
    const std::vector<Tuple>& probes, int num_threads) const {
  obs::ScopedSpan span("answer/test_batch");
  std::vector<uint8_t> out(probes.size(), 0);
  ThreadPool pool(num_threads);
  pool.ParallelFor(0, static_cast<int64_t>(probes.size()), /*grain=*/8,
                   [&](int64_t i, int) {
                     out[static_cast<size_t>(i)] =
                         Test(probes[static_cast<size_t>(i)]) ? 1 : 0;
                   });
  return out;
}

std::vector<std::optional<Tuple>> EnumerationEngine::NextBatch(
    const std::vector<Tuple>& froms, int num_threads) const {
  obs::ScopedSpan span("answer/next_batch");
  std::vector<std::optional<Tuple>> out(froms.size());
  ThreadPool pool(num_threads);
  pool.ParallelFor(0, static_cast<int64_t>(froms.size()), /*grain=*/8,
                   [&](int64_t i, int) {
                     out[static_cast<size_t>(i)] =
                         Next(froms[static_cast<size_t>(i)]);
                   });
  return out;
}

std::vector<Tuple> EnumerationEngine::EnumerateParallel(int num_threads,
                                                        int64_t limit) const {
  if (limit == 0) return {};
  obs::ScopedSpan span("answer/enumerate");
  const int k = arity();
  const int64_t n = graph_->NumVertices();
  if (baseline_ != nullptr) {
    // The baseline answers from one ordered structure, so there is nothing
    // to shard: run exactly the ConstantDelayEnumerator loop.
    std::vector<Tuple> out;
    if (k > 0 && n == 0) return out;
    Tuple cursor = LexMin(k);
    for (;;) {
      if (limit >= 0 && static_cast<int64_t>(out.size()) >= limit) break;
      std::optional<Tuple> sol = Next(cursor);
      if (!sol.has_value()) break;
      out.push_back(std::move(*sol));
      cursor = out.back();
      if (!LexIncrement(&cursor, n)) break;
    }
    return out;
  }

  // LNF mode: every solution's first coordinate is an extendable value of
  // some case, so the union of the extendable0 lists partitions the
  // solution space into contiguous first-coordinate ranges. Shards are
  // disjoint (distinct first coordinates) and internally ordered, so
  // concatenating them in range order reproduces the serial stream
  // exactly — no merge, no dedup.
  std::vector<Vertex> firsts;
  for (const CaseData& data : case_data_) {
    firsts.insert(firsts.end(), data.extendable0.begin(),
                  data.extendable0.end());
  }
  std::sort(firsts.begin(), firsts.end());
  firsts.erase(std::unique(firsts.begin(), firsts.end()), firsts.end());
  if (firsts.empty()) return {};

  ThreadPool pool(num_threads);
  const int64_t num_shards = std::min<int64_t>(
      pool.num_threads(), static_cast<int64_t>(firsts.size()));
  const int64_t per_shard =
      (static_cast<int64_t>(firsts.size()) + num_shards - 1) / num_shards;
  std::vector<std::vector<Tuple>> parts(static_cast<size_t>(num_shards));
  // Pool workers don't inherit the caller's thread-local request id;
  // capture it here so sharded work still attributes to the request.
  const uint64_t rid = obs::CurrentRequestId();
  pool.ParallelFor(
      0, num_shards, /*grain=*/1, [&](int64_t s, int) {
        obs::RequestScope rid_scope(rid);
        const int64_t lo_idx = s * per_shard;
        const int64_t hi_idx = std::min<int64_t>(
            static_cast<int64_t>(firsts.size()), lo_idx + per_shard);
        if (lo_idx >= hi_idx) return;
        const Vertex last_first = firsts[static_cast<size_t>(hi_idx - 1)];
        ScopedProbeContext ctx(probe_pool_.get());
        std::vector<Tuple>& out = parts[static_cast<size_t>(s)];
        Tuple cursor = LexMin(k);
        cursor[0] = firsts[static_cast<size_t>(lo_idx)];
        for (;;) {
          // A global limit needs at most `limit` answers from any shard
          // (the kept prefix of the concatenation).
          if (limit >= 0 && static_cast<int64_t>(out.size()) >= limit) break;
          ctx->probes_served.fetch_add(1, std::memory_order_relaxed);
          std::optional<Tuple> sol = NextLnf(cursor, ctx.get());
          if (!sol.has_value() || (*sol)[0] > last_first) break;
          out.push_back(std::move(*sol));
          cursor = out.back();
          if (!LexIncrement(&cursor, n)) break;
        }
      });
  std::vector<Tuple> out;
  for (std::vector<Tuple>& part : parts) {
    for (Tuple& t : part) {
      if (limit >= 0 && static_cast<int64_t>(out.size()) >= limit) return out;
      out.push_back(std::move(t));
    }
  }
  return out;
}

AnswerCounters EnumerationEngine::DrainAnswerStats() const {
  const AnswerCounters drained = probe_pool_->Drain();
  // Drained per-context counters feed the process-wide registry here, the
  // one place answer-time traffic leaves the pool.
  EngineInstruments& m = Instruments();
  m.probes_served->Add(drained.probes_served);
  m.descents->Add(drained.descents);
  m.ball_cache_hits->Add(drained.ball_cache_hits);
  m.ball_cache_misses->Add(drained.ball_cache_misses);
  m.compiled_probes->Add(drained.compiled_probes);
  m.compiled_exec_insns->Add(drained.compiled_insns);
  m.answer_contexts->SetMax(drained.contexts);
  return drained;
}

}  // namespace nwd
