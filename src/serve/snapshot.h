// Epoch-based engine snapshots: the daemon's reload-without-downtime
// mechanism.
//
// A snapshot bundles one world: the query and a DynamicEngine prepared
// over the graph built from `source`. The registry holds the current
// snapshot behind a shared_ptr; a request Acquire()s it once and serves
// entirely against that snapshot, so a concurrent Publish() (graph
// reload) can swap the current pointer without ever blocking a probe or
// mixing answers across epochs — the acceptance property the soak test
// replays for. Old epochs drain naturally: the last in-flight holder
// dropping its reference destroys the snapshot, and the custom deleter
// timestamps that moment so swap-drain latency is a histogram
// (`serve.swap_drain_ns`), not a guess.
//
// The world is no longer immutable within an epoch: the `update` verb
// patches the live snapshot's graph in place through the DynamicEngine,
// which repairs its engine in the background while probes keep getting
// current answers. That works through `shared_ptr<const EngineSnapshot>`
// because const does not propagate through the `dynamic` unique_ptr, and
// DynamicEngine is internally synchronized. The epoch only advances on
// reload (a wholesale world swap), never on update.
//
// Metrics: serve.epoch_swaps (counter), serve.epoch (gauge),
// serve.snapshots_live (gauge), serve.swap_drain_ns (histogram, recorded
// from the timestamp the deleter already takes for its kEpochDrain flight
// event).

#ifndef NWD_SERVE_SNAPSHOT_H_
#define NWD_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "dynamic/dynamic_engine.h"
#include "enumerate/engine.h"
#include "fo/ast.h"
#include "graph/colored_graph.h"

namespace nwd {
namespace serve {

struct EngineSnapshot {
  int64_t epoch = 0;          // assigned by Publish(), 1-based
  std::string source;         // "file:<path>" / "gen:<class>:<n>:<seed>"
  ColoredGraph graph;         // staging only: moved into `dynamic` below
  fo::Query query;
  std::unique_ptr<DynamicEngine> dynamic;  // owns the live graph

  // Builds the dynamic engine over graph/query, consuming `graph` (the
  // dynamic plane must be the only mutator). Call exactly once.
  void Prepare(const EngineOptions& options) {
    dynamic = std::make_unique<DynamicEngine>(std::move(graph), query,
                                              options);
  }
};

class SnapshotRegistry {
 public:
  SnapshotRegistry() = default;
  SnapshotRegistry(const SnapshotRegistry&) = delete;
  SnapshotRegistry& operator=(const SnapshotRegistry&) = delete;

  // The current snapshot, or null before the first Publish(). The caller
  // keeps the shared_ptr for the whole request — that reference IS the
  // epoch pin.
  std::shared_ptr<const EngineSnapshot> Acquire() const;

  // Atomically replaces the current snapshot, assigning the next epoch
  // (returned). The previous snapshot is retired: its drain time (from
  // this call until its last reference drops) is recorded in
  // serve.swap_drain_ns, and serve.epoch_swaps increments (the first
  // publish is a load, not a swap).
  int64_t Publish(std::unique_ptr<EngineSnapshot> snapshot);

  // Epoch of the current snapshot (0 = none yet).
  int64_t current_epoch() const;

 private:
  // Shared state between the registry and each snapshot's deleter: when
  // the registry retires a snapshot it stamps `retired_at_ns`; the
  // deleter (running on whichever thread drops the last reference)
  // records the drain histogram from it.
  struct RetireState;

  mutable std::mutex mu_;
  std::shared_ptr<const EngineSnapshot> current_;
  std::shared_ptr<RetireState> current_retire_;
  int64_t next_epoch_ = 1;
};

}  // namespace serve
}  // namespace nwd

#endif  // NWD_SERVE_SNAPSHOT_H_
