// Dynamic graph updates over a live enumeration engine.
//
// The paper's data structures are built for a fixed graph; this plane adds
// AddEdge / RemoveEdge / SetColor on top of them without ever blocking or
// lying to a probe. Immutable serving versions, plus the engine's own copy:
//
//   * serving_graph_ — the newest applied version, a shared_ptr to a
//     const graph. Apply() copies it, edits the copy outside the state
//     lock, and swaps the pointer in one short exclusive section, so every
//     probe that starts after Apply() returns sees the edit. A probe that
//     needs the graph pins the version it started on by copying the
//     pointer; older versions die with their last pin.
//   * engine_graph_ — the copy the EnumerationEngine borrows. It lags: a
//     single background repair lane drains queued edits, applies them to
//     this copy, and runs EnumerationEngine::Repair (localized in-place
//     damage repair; falls back to a full rebuild when repair declines).
//
// Probes take the state lock shared only to read whether the engine is in
// sync. In sync, they answer through the full LNF machinery under that
// lock. While a repair is in flight they pin the serving version, drop the
// lock and answer through the lag lane: a BacktrackingEnumerator over the
// pinned graph, one per concurrent caller, so lag-lane probes run in
// parallel and nothing they do holds off the repair lane — correct by
// construction, just slower. Callers that need the engine caught up
// (tests, benchmarks, the daemon's `update … wait=1`) follow Apply() with
// WaitForSync().

#ifndef NWD_DYNAMIC_DYNAMIC_ENGINE_H_
#define NWD_DYNAMIC_DYNAMIC_ENGINE_H_

#include <pthread.h>

#include <atomic>
#include <cerrno>
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
#include "util/check.h"
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

  // Applies the edits to a copy of the serving graph, publishes the copy
  // (visible to every probe that starts after Apply() returns) and
  // schedules the engine repair on the background lane. Concurrent calls
  // serialize. Returns the number of edits that changed the graph; no-ops
  // are dropped before they reach the repair lane. Vertex and color ids
  // must be in range.
  int64_t Apply(std::span<const GraphEdit> edits);

  // Probe API, mirroring EnumerationEngine: both lanes abort on a probe
  // with a component outside [0, NumVertices()). Thread-safe, never
  // blocks on the repair lane, and answers for the newest graph applied
  // when the probe starts.
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
  // The underlying engine's preprocessing stats, as of construction or the
  // end of the last sync; never waits out a repair or a rebuild.
  EnumerationEngine::Stats engine_stats() const;
  // engine_stats().degraded, lock-free: the daemon reads it per probe.
  bool degraded() const { return degraded_.load(); }
  // Drains the engine's answer-time counters (see EnumerationEngine). May
  // wait out an in-flight repair.
  AnswerCounters DrainAnswerStats() const;

 private:
  // A reader-writer lock that prefers writers: once a writer waits, new
  // readers queue behind it. std::shared_mutex prefers readers on glibc,
  // so probes arriving back to back could hold off Apply()'s publish step
  // and the end of a sync indefinitely. Meets SharedMutex, for
  // std::shared_lock, std::unique_lock and std::condition_variable_any.
  // Never take it shared twice on one thread: a waiting writer would
  // block the second acquisition.
  class WriterFirstMutex {
   public:
    WriterFirstMutex() {
      pthread_rwlockattr_t attr;
      NWD_CHECK_EQ(0, pthread_rwlockattr_init(&attr));
#ifdef __GLIBC__
      NWD_CHECK_EQ(0, pthread_rwlockattr_setkind_np(
                          &attr, PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP));
#endif
      NWD_CHECK_EQ(0, pthread_rwlock_init(&rw_, &attr));
      pthread_rwlockattr_destroy(&attr);
    }
    ~WriterFirstMutex() { pthread_rwlock_destroy(&rw_); }
    WriterFirstMutex(const WriterFirstMutex&) = delete;
    WriterFirstMutex& operator=(const WriterFirstMutex&) = delete;

    void lock() { NWD_CHECK_EQ(0, pthread_rwlock_wrlock(&rw_)); }
    bool try_lock() { return pthread_rwlock_trywrlock(&rw_) == 0; }
    void unlock() { NWD_CHECK_EQ(0, pthread_rwlock_unlock(&rw_)); }
    void lock_shared() {
      int rc;
      // EAGAIN: too many readers at once; retry, as std::shared_mutex does.
      while ((rc = pthread_rwlock_rdlock(&rw_)) == EAGAIN) {
      }
      NWD_CHECK_EQ(0, rc);
    }
    bool try_lock_shared() { return pthread_rwlock_tryrdlock(&rw_) == 0; }
    void unlock_shared() { NWD_CHECK_EQ(0, pthread_rwlock_unlock(&rw_)); }

   private:
    pthread_rwlock_t rw_;
  };

  // `origin_rid` is the request id of the Apply() that (last) queued this
  // batch; the sync runs under its RequestScope so repair spans and
  // flight events attribute to the originating request even from the
  // background lane.
  void SyncBatch(std::vector<GraphEdit> batch, uint64_t origin_rid);
  void RepairThreadBody();

  // The lag lane: counts the probe, checks it, and hands out a search
  // over `pinned` from lag_free_ (a fresh one when every search is in
  // use). Give it back with ReturnLagSearch once the answer is in.
  std::unique_ptr<BacktrackingEnumerator> TakeLagSearch(
      const ColoredGraph& pinned, const Tuple& probe) const;
  void ReturnLagSearch(std::unique_ptr<BacktrackingEnumerator> search) const;

  // Read-mostly: fixed after construction (degraded_ changes only at the
  // end of a sync), read by every probe (the daemon's range check reads
  // NumVertices(), its degraded counter degraded()).
  const fo::Query query_;
  const EngineOptions options_;
  int64_t num_vertices_ = 0;
  int num_colors_ = 0;
  std::atomic<bool> degraded_{false};

  // State lock: probes shared, the publish step of Apply and sync-state
  // flips exclusive. Every probe's shared_lock writes the lock word, so it
  // starts its own cache line, away from the read-mostly fields above.
  alignas(64) mutable WriterFirstMutex state_mu_;
  std::shared_ptr<const ColoredGraph> serving_graph_;
  bool in_sync_ = true;
  std::vector<GraphEdit> pending_;
  uint64_t pending_rid_ = 0;  // origin rid of the newest pending edits
  bool stop_ = false;
  UpdateStats stats_;
  mutable std::condition_variable_any work_cv_;
  mutable std::condition_variable_any sync_cv_;

  // engine_stats()'s copy, refreshed at the end of each sync. Its own lock
  // keeps stats readers off state_mu_, whose word every probe writes.
  alignas(64) mutable std::mutex engine_stats_mu_;
  EnumerationEngine::Stats engine_stats_;

  // Serializes Apply() callers. Each copies and edits the newest version
  // outside state_mu_; serving_graph_ changes only under both locks, so
  // Apply() reads it under this one alone.
  std::mutex apply_mu_;

  // Engine lane: everything below is touched by the repair lane only
  // while !in_sync_, under engine_mu_ (DrainAnswerStats takes it too).
  mutable std::mutex engine_mu_;
  ColoredGraph engine_graph_;
  std::unique_ptr<EnumerationEngine> engine_;

  // Idle lag-lane searches, at most one per concurrent lag-lane caller;
  // each holds BFS scratch for NumVertices() vertices.
  mutable std::mutex lag_free_mu_;
  mutable std::vector<std::unique_ptr<BacktrackingEnumerator>> lag_free_;

  mutable std::atomic<int64_t> engine_probes_{0};
  mutable std::atomic<int64_t> lazy_probes_{0};

  std::thread repair_thread_;
};

}  // namespace nwd

#endif  // NWD_DYNAMIC_DYNAMIC_ENGINE_H_
