// Dynamic graph updates over a live enumeration engine.
//
// The paper's data structures are built for a fixed graph; this plane adds
// AddEdge / RemoveEdge / SetColor on top of them without ever blocking or
// lying to a probe. Two graphs, one truth:
//
//   * serving_graph_ — always current. Apply() mutates it immediately
//     under the state lock, so every answer given after Apply() returns
//     reflects the edit.
//   * engine_graph_ — the copy the EnumerationEngine borrows. It lags: a
//     single background repair lane drains queued edits, applies them to
//     this copy, and runs EnumerationEngine::Repair (localized in-place
//     damage repair; falls back to a full rebuild when repair declines).
//
// Probes take the state lock shared. When the engine is in sync they go
// through the full LNF machinery; while a repair is in flight they answer
// through the lag lane, the same BaselineAnswers search a budget-tripped
// engine answers through, over the serving graph — correct by
// construction, just slower, and never blocked behind the repair lane.
// Callers that need the engine caught up (tests, benchmarks, the daemon's
// `update … wait=1`) follow Apply() with WaitForSync().

#ifndef NWD_DYNAMIC_DYNAMIC_ENGINE_H_
#define NWD_DYNAMIC_DYNAMIC_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <thread>
#include <vector>

#include "baseline/naive_enum.h"
#include "enumerate/engine.h"
#include "fo/ast.h"
#include "graph/colored_graph.h"
#include "util/lex.h"

namespace nwd {

class DynamicEngine {
 public:
  struct UpdateStats {
    int64_t edits_applied = 0;  // edits that changed the serving graph
    int64_t edits_noop = 0;     // already-present / already-absent edits
    int64_t batches = 0;        // repair-lane batches drained
    int64_t repairs = 0;        // in-place repairs that succeeded
    int64_t full_rebuilds = 0;  // batches where repair declined
    double last_sync_ms = 0.0;  // wall time of the last batch's sync
    double total_sync_ms = 0.0;
    EnumerationEngine::RepairStats last_repair;
    bool in_sync = true;
    int64_t engine_probes = 0;  // probes answered by the LNF engine
    int64_t lazy_probes = 0;    // probes answered by the lag lane
  };

  // Takes ownership of the graph (the dynamic plane must be the only
  // mutator). Builds the initial engine eagerly, and every rebuild, with
  // `options`.
  DynamicEngine(ColoredGraph graph, fo::Query query,
                EngineOptions options = {});
  ~DynamicEngine();

  DynamicEngine(const DynamicEngine&) = delete;
  DynamicEngine& operator=(const DynamicEngine&) = delete;

  // Applies the edits to the serving graph (immediately visible to every
  // subsequent probe) and schedules the engine repair on the background
  // lane. Returns the number of edits that changed the graph; no-ops are
  // dropped before they reach the repair lane. Vertex and color ids must
  // be in range.
  int64_t Apply(std::span<const GraphEdit> edits);

  // Probe API, mirroring EnumerationEngine: both lanes abort on a probe
  // with a component outside [0, NumVertices()). Thread-safe, never
  // blocks on the repair lane, and always answers against the current
  // serving graph.
  std::optional<Tuple> Next(const Tuple& from) const;
  bool Test(const Tuple& tuple) const;
  std::optional<Tuple> First() const;

  int arity() const { return query_.arity(); }
  int64_t NumVertices() const { return num_vertices_; }
  int NumColors() const { return num_colors_; }
  const fo::Query& query() const { return query_; }

  // Whether the engine has caught up with every applied edit.
  bool in_sync() const;
  // Blocks until the repair lane drains (a no-op when in sync).
  void WaitForSync() const;

  // Counters snapshot (consistent under the state lock).
  UpdateStats stats() const;
  // The underlying engine's preprocessing stats, taken race-free against
  // the repair lane.
  EnumerationEngine::Stats engine_stats() const;
  // Drains the engine's answer-time counters (see EnumerationEngine).
  AnswerCounters DrainAnswerStats() const;

 private:
  // `origin_rid` is the request id of the Apply() that (last) queued this
  // batch; the sync runs under its RequestScope so repair spans and
  // flight events attribute to the originating request even from the
  // background lane.
  void SyncBatch(std::vector<GraphEdit> batch, uint64_t origin_rid);
  void RepairThreadBody();

  // Read-mostly: fixed after construction, read by every probe (the
  // daemon's range check reads NumVertices()).
  const fo::Query query_;
  const EngineOptions options_;
  int64_t num_vertices_ = 0;
  int num_colors_ = 0;

  // State lock: probes shared, Apply / sync-state flips exclusive. Every
  // probe's shared_lock writes the lock word, so it starts its own cache
  // line, away from the read-mostly fields above.
  alignas(64) mutable std::shared_mutex state_mu_;
  ColoredGraph serving_graph_;
  bool in_sync_ = true;
  std::vector<GraphEdit> pending_;
  uint64_t pending_rid_ = 0;  // origin rid of the newest pending edits
  bool stop_ = false;
  UpdateStats stats_;
  mutable std::condition_variable_any work_cv_;
  mutable std::condition_variable_any sync_cv_;

  // Engine lane: everything below is touched by the repair lane only
  // while !in_sync_, under engine_mu_ (stats readers take it too).
  mutable std::mutex engine_mu_;
  ColoredGraph engine_graph_;
  std::unique_ptr<EnumerationEngine> engine_;

  // The lag lane: a lazy search over the serving graph, which Apply()
  // mutates in place only while holding state_mu_ exclusively.
  const BaselineAnswers lag_;

  mutable std::atomic<int64_t> engine_probes_{0};
  mutable std::atomic<int64_t> lazy_probes_{0};

  std::thread repair_thread_;
};

}  // namespace nwd

#endif  // NWD_DYNAMIC_DYNAMIC_ENGINE_H_
