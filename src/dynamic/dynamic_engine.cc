#include "dynamic/dynamic_engine.h"

#include <utility>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace nwd {
namespace {

struct DynamicInstruments {
  obs::Counter* edits_applied;
  obs::Counter* edits_noop;
  obs::Counter* batches;
  // One sample per lag-lane probe, from dropping the state lock to the
  // answer; their counts add up to UpdateStats::lazy_probes.
  obs::Histogram* lag_test_ns;
  obs::Histogram* lag_next_ns;
  obs::Histogram* sync_us;
  // repair.* plane: the RepairStats breakdown as fleet-scrapeable
  // instruments (the per-stage walls feed experiment E18/E19 dashboards).
  obs::Counter* repair_repairs;
  obs::Counter* repair_rebuilds;
  obs::Counter* repair_kernels;
  obs::Counter* repair_skip_rows;
  obs::Histogram* repair_cover_us;
  obs::Histogram* repair_skips_us;
  obs::Histogram* repair_extendable_us;
  obs::Histogram* repair_compile_us;
};

DynamicInstruments& Instruments() {
  static DynamicInstruments* instruments = [] {
    auto& reg = obs::MetricsRegistry::Global();
    auto* m = new DynamicInstruments();
    m->edits_applied = reg.GetCounter("dynamic.edits_applied");
    m->edits_noop = reg.GetCounter("dynamic.edits_noop");
    m->batches = reg.GetCounter("dynamic.batches");
    m->lag_test_ns = reg.GetHistogram("dynamic.lag_test_ns");
    m->lag_next_ns = reg.GetHistogram("dynamic.lag_next_ns");
    m->sync_us = reg.GetHistogram("dynamic.sync_us");
    m->repair_repairs = reg.GetCounter("repair.repairs");
    m->repair_rebuilds = reg.GetCounter("repair.full_rebuilds");
    m->repair_kernels = reg.GetCounter("repair.kernels_recomputed");
    m->repair_skip_rows = reg.GetCounter("repair.skip_rows_recomputed");
    m->repair_cover_us = reg.GetHistogram("repair.cover_us");
    m->repair_skips_us = reg.GetHistogram("repair.skips_us");
    m->repair_extendable_us = reg.GetHistogram("repair.extendable_us");
    m->repair_compile_us = reg.GetHistogram("repair.compile_us");
    return m;
  }();
  return *instruments;
}

int64_t MsToUs(double ms) { return static_cast<int64_t>(ms * 1e3); }

}  // namespace

DynamicEngine::DynamicEngine(ColoredGraph graph, fo::Query query,
                             EngineOptions options)
    : query_(std::move(query)),
      options_(options),
      num_vertices_(graph.NumVertices()),
      num_colors_(graph.NumColors()),
      serving_graph_(std::make_shared<const ColoredGraph>(std::move(graph))),
      engine_graph_(*serving_graph_) {
  engine_ = std::make_unique<EnumerationEngine>(engine_graph_, query_,
                                                options_);
  engine_stats_ = engine_->stats();
  degraded_.store(engine_stats_.degraded);
  repair_thread_ = std::thread(&DynamicEngine::RepairThreadBody, this);
}

DynamicEngine::~DynamicEngine() {
  {
    std::unique_lock<WriterFirstMutex> lock(state_mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  repair_thread_.join();
}

int64_t DynamicEngine::Apply(std::span<const GraphEdit> edits) {
  obs::ScopedSpan span("dynamic/apply");
  for (const GraphEdit& e : edits) {
    NWD_CHECK(e.u >= 0 && e.u < num_vertices_) << "edit vertex out of range";
    if (e.kind != GraphEdit::Kind::kSetColor) {
      NWD_CHECK(e.v >= 0 && e.v < num_vertices_) << "edit vertex out of range";
    } else {
      NWD_CHECK(e.color >= 0 && e.color < num_colors_)
          << "edit color out of range";
    }
  }
  // Copy-on-write: the O(n + m) copy and its edits run outside state_mu_,
  // so probes keep answering from the current version meanwhile.
  std::lock_guard<std::mutex> apply_lock(apply_mu_);
  auto next = std::make_shared<ColoredGraph>(*serving_graph_);
  std::vector<GraphEdit> changed;
  for (const GraphEdit& e : edits) {
    if (next->ApplyInPlace(e)) changed.push_back(e);
  }
  const int64_t applied = static_cast<int64_t>(changed.size());
  const int64_t noop = static_cast<int64_t>(edits.size()) - applied;
  Instruments().edits_applied->Add(applied);
  Instruments().edits_noop->Add(noop);
  // The replaced version is freed after state_mu_ drops (or by the last
  // probe still pinning it).
  std::shared_ptr<const ColoredGraph> replaced;
  {
    std::unique_lock<WriterFirstMutex> lock(state_mu_);
    stats_.edits_applied += applied;
    stats_.edits_noop += noop;
    if (applied == 0) return applied;
    replaced = std::exchange(serving_graph_, std::move(next));
    pending_.insert(pending_.end(), changed.begin(), changed.end());
    in_sync_ = false;
    // Attribute the eventual background sync to the request that queued
    // it (coalesced batches credit the newest requester).
    pending_rid_ = obs::CurrentRequestId();
  }
  work_cv_.notify_one();
  return applied;
}

void DynamicEngine::SyncBatch(std::vector<GraphEdit> batch,
                              uint64_t origin_rid) {
  // The background lane runs under the originating request's id: every
  // span and flight event below (the engine's repair or rebuild stages
  // included) carries it, so one rid follows an update from its wire
  // frame into the stage that was slow.
  obs::RequestScope rid_scope(origin_rid);
  obs::ScopedSpan span("dynamic/sync");
  EnumerationEngine::RepairStats repair_stats;
  EnumerationEngine::Stats fresh_stats;
  bool repaired;
  {
    std::lock_guard<std::mutex> engine_lock(engine_mu_);
    for (const GraphEdit& e : batch) engine_graph_.ApplyInPlace(e);
    repaired = engine_->Repair(std::span<const GraphEdit>(batch),
                               &repair_stats);
    if (!repaired) {
      // Repair declined (degraded engine, stale oracle past threshold,
      // local-unary rewrite, ...): rebuild from the already-current copy.
      engine_.reset();
      engine_ = std::make_unique<EnumerationEngine>(engine_graph_, query_,
                                                    options_);
    }
    fresh_stats = engine_->stats();
  }
  const double sync_ms = span.End();
  DynamicInstruments& m = Instruments();
  m.batches->Increment();
  m.sync_us->Record(static_cast<int64_t>(sync_ms * 1e3));
  if (repaired) {
    m.repair_repairs->Increment();
    m.repair_kernels->Add(repair_stats.kernels_recomputed);
    m.repair_skip_rows->Add(repair_stats.skip_rows_recomputed);
    m.repair_cover_us->Record(MsToUs(repair_stats.cover_ms));
    m.repair_skips_us->Record(MsToUs(repair_stats.skips_ms));
    m.repair_extendable_us->Record(MsToUs(repair_stats.extendable_ms));
    m.repair_compile_us->Record(MsToUs(repair_stats.compile_ms));
  } else {
    m.repair_rebuilds->Increment();
  }

  {
    std::lock_guard<std::mutex> stats_lock(engine_stats_mu_);
    engine_stats_ = std::move(fresh_stats);
    degraded_.store(engine_stats_.degraded);
  }
  std::unique_lock<WriterFirstMutex> lock(state_mu_);
  ++stats_.batches;
  if (repaired) {
    ++stats_.repairs;
    stats_.last_repair = repair_stats;
  } else {
    ++stats_.full_rebuilds;
  }
  stats_.last_sync_ms = sync_ms;
  stats_.total_sync_ms += sync_ms;
  if (pending_.empty()) {
    in_sync_ = true;
    sync_cv_.notify_all();
  }
}

void DynamicEngine::RepairThreadBody() {
  std::unique_lock<WriterFirstMutex> lock(state_mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || !pending_.empty(); });
    if (pending_.empty()) {
      if (stop_) return;
      continue;
    }
    std::vector<GraphEdit> batch = std::move(pending_);
    pending_.clear();
    const uint64_t origin_rid = pending_rid_;
    pending_rid_ = 0;
    lock.unlock();
    SyncBatch(std::move(batch), origin_rid);
    lock.lock();
  }
}

std::unique_ptr<BacktrackingEnumerator> DynamicEngine::TakeLagSearch(
    const ColoredGraph& pinned, const Tuple& probe) const {
  CheckProbe(probe, arity(), num_vertices_);
  lazy_probes_.fetch_add(1, std::memory_order_relaxed);
  std::unique_ptr<BacktrackingEnumerator> search;
  {
    std::lock_guard<std::mutex> lock(lag_free_mu_);
    if (!lag_free_.empty()) {
      search = std::move(lag_free_.back());
      lag_free_.pop_back();
    }
  }
  if (search == nullptr) {
    return std::make_unique<BacktrackingEnumerator>(pinned, query_);
  }
  search->Rebind(pinned);
  return search;
}

void DynamicEngine::ReturnLagSearch(
    std::unique_ptr<BacktrackingEnumerator> search) const {
  std::lock_guard<std::mutex> lock(lag_free_mu_);
  lag_free_.push_back(std::move(search));
}

std::optional<Tuple> DynamicEngine::Next(const Tuple& from) const {
  std::shared_ptr<const ColoredGraph> pinned;
  {
    std::shared_lock<WriterFirstMutex> lock(state_mu_);
    if (in_sync_) {
      engine_probes_.fetch_add(1, std::memory_order_relaxed);
      return engine_->Next(from);  // the engine checks the probe
    }
    pinned = serving_graph_;
  }
  const int64_t start_ns = obs::NowNs();
  std::unique_ptr<BacktrackingEnumerator> search = TakeLagSearch(*pinned, from);
  std::optional<Tuple> out = search->Next(from);
  ReturnLagSearch(std::move(search));
  Instruments().lag_next_ns->Record(obs::NowNs() - start_ns);
  return out;
}

bool DynamicEngine::Test(const Tuple& tuple) const {
  std::shared_ptr<const ColoredGraph> pinned;
  {
    std::shared_lock<WriterFirstMutex> lock(state_mu_);
    if (in_sync_) {
      engine_probes_.fetch_add(1, std::memory_order_relaxed);
      return engine_->Test(tuple);  // the engine checks the probe
    }
    pinned = serving_graph_;
  }
  const int64_t start_ns = obs::NowNs();
  std::unique_ptr<BacktrackingEnumerator> search =
      TakeLagSearch(*pinned, tuple);
  const bool out = search->Test(tuple);
  ReturnLagSearch(std::move(search));
  Instruments().lag_test_ns->Record(obs::NowNs() - start_ns);
  return out;
}

std::optional<Tuple> DynamicEngine::First() const {
  if (arity() == 0) {
    return Test({}) ? std::make_optional(Tuple{}) : std::nullopt;
  }
  if (num_vertices_ == 0) return std::nullopt;
  return Next(LexMin(arity()));
}

bool DynamicEngine::in_sync() const {
  std::shared_lock<WriterFirstMutex> lock(state_mu_);
  return in_sync_;
}

void DynamicEngine::WaitForSync() const {
  std::shared_lock<WriterFirstMutex> lock(state_mu_);
  sync_cv_.wait(lock, [&] { return in_sync_; });
}

DynamicEngine::UpdateStats DynamicEngine::stats() const {
  std::shared_lock<WriterFirstMutex> lock(state_mu_);
  UpdateStats out = stats_;
  out.in_sync = in_sync_;
  out.engine_probes = engine_probes_.load(std::memory_order_relaxed);
  out.lazy_probes = lazy_probes_.load(std::memory_order_relaxed);
  return out;
}

EnumerationEngine::Stats DynamicEngine::engine_stats() const {
  std::lock_guard<std::mutex> stats_lock(engine_stats_mu_);
  return engine_stats_;
}

AnswerCounters DynamicEngine::DrainAnswerStats() const {
  std::lock_guard<std::mutex> engine_lock(engine_mu_);
  return engine_->DrainAnswerStats();
}

}  // namespace nwd
