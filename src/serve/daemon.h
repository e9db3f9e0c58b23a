// nwdd's core: a long-running daemon serving Test/Next/Enumerate probes
// over the frame protocol of serve/wire.h, hardened along four axes.
//
//   1. Epoch snapshot swap. Reload requests rebuild the engine in a
//      dedicated background rebuild thread (never on a serving thread)
//      and publish atomically through SnapshotRegistry; requests pin the
//      snapshot they started on, so an in-flight enumeration finishes on
//      its epoch while new requests already see the next one. The
//      rebuild is admission-controlled too: a second reload arriving
//      while one is in flight is rejected with RETRY_AFTER, and the
//      rebuild runs under the request's ResourceBudget — a budget trip
//      publishes a degraded-but-correct engine (the PR 2 lazy baseline)
//      instead of failing the swap.
//
//   2. Per-request deadlines. Every request may carry deadline_ms; a
//      request that can't start in time gets DEADLINE_EXCEEDED, and an
//      enumeration that trips mid-stream is terminated with a typed
//      DEADLINE_EXCEEDED error frame — the stream contract (wire.h)
//      guarantees the client can tell a completed stream from an aborted
//      one. Never a hang: the serving path has no unbounded waits.
//
//   3. Backpressure. AdmissionGate bounds concurrently-served requests;
//      beyond the cap the daemon rejects with RETRY_AFTER + a scaled
//      backoff hint instead of queueing. Slow/stuck clients are bounded
//      by the write timeout: a response write that cannot make progress
//      drops the connection (serve.dropped_conns) rather than wedging a
//      worker.
//
//   4. Fault visibility. Every outcome increments a serve.* metric, and
//      the `metrics` request dumps the whole registry as nwd-metrics/1
//      JSON (or Prometheus text with format=prom), so a soak harness
//      (tests/serve_soak_test.cc) can reconcile client-observed outcomes
//      against the daemon's own accounting. Serve-path fault points
//      (NWD_FAULT_POINT, incl. the probabilistic NWD_FAULT_PROB mode):
//      serve/admission/reject, serve/frame/corrupt, serve/answer,
//      serve/stream/abort, serve/stream/deadline, serve/worker/death.
//
//   5. Request identity + flight recording. Each request runs under a
//      64-bit request id (client-supplied rid= or minted) installed via
//      obs::RequestScope; every response frame carries ` rid=N`, every
//      flight event the request produces (its spans included) is stamped
//      with it, and the rebuild/repair lanes inherit the originating id —
//      one id reconstructs a request's full path across epoch swaps. The
//      always-on flight recorder (obs/flight.h) keeps the recent event
//      history: the `dump` verb returns it over the wire, a simulated
//      worker death dumps it to stderr (dump_on_death), and requests
//      slower than slow_request_ms are captured eagerly.
//
// Threading model: one handler thread per connection (ServeFd), plus one
// background rebuild thread, plus an optional TCP accept thread. A
// connection serves its requests strictly in order; cross-request
// concurrency comes from multiple connections, bounded by the gate.

#ifndef NWD_SERVE_DAEMON_H_
#define NWD_SERVE_DAEMON_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "enumerate/engine.h"
#include "graph/io.h"
#include "serve/admission.h"
#include "serve/snapshot.h"
#include "serve/wire.h"

namespace nwd {
namespace serve {

struct DaemonOptions {
  // Admission cap on concurrently-served requests; excess is rejected
  // with RETRY_AFTER (never queued).
  int max_inflight = 8;
  // Base backoff hint for rejections (scaled up under sustained load).
  int64_t retry_after_ms = 10;
  // Largest acceptable request/response frame.
  int64_t max_frame_bytes = int64_t{1} << 20;
  // A response write stuck longer than this drops the connection
  // (0 = block forever; don't, outside tests).
  int64_t write_timeout_ms = 5000;
  // Default per-request deadline when the request carries none
  // (0 = unlimited).
  int64_t default_deadline_ms = 0;
  // Engine preprocessing options for reload rebuilds (num_threads, base
  // budget; a reload request's budget_ms/max_edge_work override the
  // budget fields per-reload).
  EngineOptions engine;
  // Loader caps for file: reload sources.
  GraphParseLimits parse_limits;
  // Refuse reload / update / shutdown requests (a fleet-facing daemon
  // may want probes only).
  bool allow_reload = true;
  bool allow_update = true;
  bool allow_shutdown = true;
  // A request slower than this triggers an eager flight-recorder capture
  // (FlightRecorder::CaptureSlow) keyed by its rid (0 = off).
  int64_t slow_request_ms = 0;
  // Dump the flight recorder's recent tail to stderr when a worker dies
  // (the serve/worker/death fault path) — the forensic record the
  // recorder exists for. Soak tests turn this off to keep logs bounded.
  bool dump_on_death = true;
};

// Builds a graph from a reload source spec: `file:<path>` through the
// hardened loader, or the deterministic `gen:<class>:<n>:<seed>` with
// class in {tree, bdeg, grid, caterpillar} (exact same construction the
// soak replay uses, so a spec names a bit-reproducible graph). False +
// *error on unknown class / malformed spec / load failure.
bool BuildGraphFromSource(const std::string& source,
                          const GraphParseLimits& limits, ColoredGraph* graph,
                          std::string* error);

class Daemon {
 public:
  explicit Daemon(const fo::Query& query, DaemonOptions options = {});
  ~Daemon();  // Stop() + join everything

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Builds and publishes the initial snapshot synchronously (epoch 1).
  // `source` is a reload-style spec. False + *error on load failure.
  bool LoadInitialSnapshot(const std::string& source, std::string* error);

  // Serves one connection on a freshly spawned handler thread. The fds
  // are owned by the daemon from here on (closed when the connection
  // ends). read_fd/write_fd may be the same fd (socket).
  void ServeFd(int read_fd, int write_fd);

  // Serves one connection on the calling thread (nwdd --stdio mode);
  // returns at EOF / fatal frame error / shutdown. Does NOT close fds.
  void ServeBlocking(int read_fd, int write_fd);

  // Starts a loopback TCP listener; accepted connections go through
  // ServeFd. False + *error if the socket can't be bound.
  bool ListenTcp(int port, std::string* error);
  int tcp_port() const { return tcp_port_; }  // resolved port (for 0)

  // Stops accepting, asks handlers to finish their current request, and
  // wakes the rebuild thread. Idempotent.
  void Stop();
  bool stopping() const {
    return stopping_.load(std::memory_order_acquire);
  }

  // Blocks until Stop() was called (by a shutdown request or externally).
  void WaitUntilStopped();

  SnapshotRegistry& registry() { return registry_; }

 private:
  struct RebuildJob {
    std::string source;
    int64_t budget_ms = 0;
    int64_t max_edge_work = 0;
    uint64_t rid = 0;  // originating request id (spans/events attribution)
    // Result (valid once done=true):
    bool ok = false;
    std::string error;
    int64_t epoch = 0;
    bool degraded = false;
    double prep_ms = 0.0;
    bool done = false;
  };

  struct ConnRecord;
  // Connection handler body. `record` is null for ServeBlocking (fds
  // borrowed, caller-managed); otherwise the handler closes the fds
  // through the record's handshake when it finishes.
  void HandleConnection(int read_fd, int write_fd, ConnRecord* record);
  // Serves one parsed request; returns false when the connection must
  // close (write failure / shutdown).
  bool HandleRequest(FdStream* stream, const Request& request);
  bool HandleProbe(FdStream* stream, const Request& request);
  bool HandleEnumerate(FdStream* stream, const Request& request,
                       int64_t admitted_at_ns);
  bool HandleReload(FdStream* stream, const Request& request);
  bool HandleUpdate(FdStream* stream, const Request& request);
  bool HandleMetrics(FdStream* stream, const Request& request);
  bool HandleStats(FdStream* stream);
  bool HandleDump(FdStream* stream);

  bool SendError(FdStream* stream, ErrorCode code, std::string_view message,
                 int64_t retry_after_ms = 0);

  // Loads `source`, checks it carries the query's colors and prepares the
  // snapshot's engine with `engine`: the one build behind the initial load
  // and every reload. Null + *error on failure.
  std::unique_ptr<EngineSnapshot> BuildSnapshot(const std::string& source,
                                                const EngineOptions& engine,
                                                std::string* error) const;
  void RebuildThreadBody();
  void AcceptThreadBody();

  const fo::Query query_;
  const DaemonOptions options_;
  SnapshotRegistry registry_;
  AdmissionGate gate_;

  std::atomic<bool> stopping_{false};

  // Rebuild lane: at most one queued job (reject-don't-queue, same
  // admission philosophy as the probe path).
  std::mutex rebuild_mu_;
  std::condition_variable rebuild_cv_;
  std::shared_ptr<RebuildJob> pending_job_;   // waiting for the thread
  bool rebuild_busy_ = false;                 // a job is being built
  std::thread rebuild_thread_;

  // Per-connection record: fds + handler thread + a close/shutdown
  // handshake so Stop() can shutdown(2) sockets still blocked in read()
  // without racing the handler's own close (fd-reuse hazard).
  struct ConnRecord {
    int read_fd = -1;
    int write_fd = -1;
    std::mutex mu;              // guards closed + the fds' validity
    bool closed = false;        // handler already closed the fds
    std::atomic<bool> done{false};  // handler body finished (reapable)
    std::thread th;
  };
  std::atomic<int64_t> open_connections_{0};
  std::mutex conn_mu_;
  std::vector<std::shared_ptr<ConnRecord>> conn_records_;

  // Read by the accept thread while Stop() closes and clears it.
  std::atomic<int> listen_fd_{-1};
  int tcp_port_ = -1;
  std::thread accept_thread_;

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
};

}  // namespace serve
}  // namespace nwd

#endif  // NWD_SERVE_DAEMON_H_
