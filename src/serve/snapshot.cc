#include "serve/snapshot.h"

#include <atomic>

#include "obs/flight.h"
#include "obs/metrics.h"

namespace nwd {
namespace serve {
namespace {

obs::Gauge* LiveGauge() {
  static obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("serve.snapshots_live");
  return gauge;
}

// Snapshots alive process-wide (published + draining); feeds the
// serve.snapshots_live gauge so a stuck drain is visible.
std::atomic<int64_t> g_live_snapshots{0};

}  // namespace

struct SnapshotRegistry::RetireState {
  // 0 until the registry retires the snapshot; then the retire stamp.
  std::atomic<int64_t> retired_at_ns{0};
};

std::shared_ptr<const EngineSnapshot> SnapshotRegistry::Acquire() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

int64_t SnapshotRegistry::Publish(std::unique_ptr<EngineSnapshot> snapshot) {
  auto retire = std::make_shared<RetireState>();
  static obs::Counter* swaps =
      obs::MetricsRegistry::Global().GetCounter("serve.epoch_swaps");
  static obs::Gauge* epoch_gauge =
      obs::MetricsRegistry::Global().GetGauge("serve.epoch");
  static obs::Histogram* drain =
      obs::MetricsRegistry::Global().GetHistogram("serve.swap_drain_ns");

  // The deleter runs on whichever thread drops the last reference — the
  // moment the old epoch has fully drained (every in-flight request on it
  // finished). Recording there, not at Publish, is what makes the drain
  // time honest under load.
  EngineSnapshot* raw = snapshot.release();
  LiveGauge()->Set(g_live_snapshots.fetch_add(1) + 1);
  std::shared_ptr<const EngineSnapshot> published(
      raw, [retire](const EngineSnapshot* s) {
        const int64_t retired_at =
            retire->retired_at_ns.load(std::memory_order_acquire);
        if (retired_at != 0) {
          const int64_t drain_ns = obs::NowNs() - retired_at;
          drain->Record(drain_ns);
          obs::FlightRecord(obs::FlightEventKind::kEpochDrain, nullptr,
                            /*a=*/s->epoch, /*b=*/drain_ns);
        }
        delete s;
        LiveGauge()->Set(g_live_snapshots.fetch_sub(1) - 1);
      });

  std::shared_ptr<const EngineSnapshot> old;
  std::shared_ptr<RetireState> old_retire;
  int64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    epoch = next_epoch_++;
    const_cast<EngineSnapshot*>(published.get())->epoch = epoch;
    old = std::move(current_);
    old_retire = std::move(current_retire_);
    current_ = published;
    current_retire_ = retire;
  }
  epoch_gauge->Set(epoch);
  obs::FlightRecord(obs::FlightEventKind::kEpochPublish, nullptr,
                    /*a=*/epoch);
  if (old != nullptr) {
    swaps->Increment();
    old_retire->retired_at_ns.store(obs::NowNs(), std::memory_order_release);
    old.reset();  // may run the deleter right here if no probe holds it
  }
  return epoch;
}

int64_t SnapshotRegistry::current_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_ == nullptr ? 0 : current_->epoch;
}

}  // namespace serve
}  // namespace nwd
