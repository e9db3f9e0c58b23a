// Always-on flight recorder + request identity (the observability
// layer's one event stream).
//
// Metrics aggregate, so they cannot answer "what was the daemon doing
// in the last 50 milliseconds before this worker died?". The flight
// recorder does: every thread that records events owns a fixed-size
// ring of compact binary events (request start/end, epoch publish/drain,
// spans, budget trips, fault-point fires, admission rejects), written
// with relaxed atomics on the hot path and merged on read. Memory is
// bounded (rings are fixed-size and reused across thread lifetimes), the
// record path allocates nothing in steady state, and a dump is always
// coherent: each slot is a per-slot seqlock whose sequence number
// doubles as the event's global index, so a reader can tell a stable
// event from one being overwritten mid-read — torn events are skipped
// and counted, never emitted.
//
// Spans ride the same rings: an obs::ScopedSpan records one kSpan event
// when it ends (label = span name, a = duration), so a ring stays in
// timestamp order and every view — `dump`, slow-request captures, the
// Chrome trace of WriteChromeTrace — shows the stages next to the
// requests that ran them. Spans fire once per build, repair, update or
// batch call, never per probe.
//
// Request identity rides the same header: the daemon mints (or adopts) a
// 64-bit request id per request and installs it in a thread-local via
// RequestScope; every span and every flight event recorded on that
// thread carries the id, so one id correlates the wire frame, the
// stages, and the typed error response across epoch swaps and into the
// repair lane (DynamicEngine forwards the originating id to its
// background batches).
//
// Concurrency contract: Record() is single-writer per ring (a ring is
// owned by exactly one live thread; the free-list handoff on thread
// exit is mutex-serialized), readers never block writers, and every
// slot field is an atomic, so the TSan twin sees no data race by
// construction. Collect()/WriteText() take the registry mutex only to
// enumerate rings; DumpToFd() takes no lock and allocates nothing — it
// is the path fatal-signal handlers and worker-death forensics use.
//
// Toggle: the recorder is ON unless NWD_FLIGHT=0 (or
// SetFlightEnabled(false)) says otherwise — "always-on" is the point,
// and the per-event cost is a clock read plus a handful of relaxed
// stores. Turning it off drops spans too; a span still times its stage.

#ifndef NWD_OBS_FLIGHT_H_
#define NWD_OBS_FLIGHT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string_view>
#include <vector>

namespace nwd {
namespace obs {

// The one monotonic clock every obs timestamp and duration is read from.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Request identity --------------------------------------------------

// Process-unique non-zero request id, always < 2^63 so it survives the
// wire protocol's strict non-negative integer parse. Minted ids live in
// a high band (bit 62 set) so they can never collide with the small ids
// clients typically supply themselves.
uint64_t MintRequestId();

// The request id installed on this thread (0 = none).
uint64_t CurrentRequestId();

// RAII thread-local request id (saves and restores the previous value,
// so nested scopes — e.g. a synchronous repair inside a request — keep
// attribution correct).
class RequestScope {
 public:
  explicit RequestScope(uint64_t rid);
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  uint64_t prev_;
};

// --- Events ------------------------------------------------------------

enum class FlightEventKind : uint8_t {
  kNone = 0,
  kRequestStart,     // rid, code=verb ordinal, label=verb
  kRequestEnd,       // rid, code=verb ordinal, a=latency_ns, b=alive
  kEpochPublish,     // a=new epoch
  kEpochDrain,       // a=drained epoch, b=drain_ns
  kSpan,             // label=span name, a=duration_ns; stamped at its end
  kBudgetTrip,       // label=stage, a=work charged
  kFaultFire,        // label=point, a=fire count
  kAdmissionReject,  // a=inflight at rejection
  kSlowRequest,      // rid, a=latency_ns
  kWorkerDeath,      // rid
};

// Stable lower-case token for dumps ("request_start", ...).
const char* FlightEventKindName(FlightEventKind kind);

// Interns a dynamic label into a leaked bounded table and returns a
// stable pointer (flight events store `const char*`). String literals
// don't need this. Past the table cap every new label maps to a shared
// overflow marker — the table can never grow without bound.
const char* InternFlightLabel(std::string_view label);

// Gate. Default ON; NWD_FLIGHT=0 in the environment (or
// SetFlightEnabled(false)) disables, leaving one relaxed load + branch
// per site (the bench A/B overhead measurement flips this).
bool FlightEnabled();
void SetFlightEnabled(bool enabled);

// --- Recorder ----------------------------------------------------------

class FlightRecorder {
 public:
  // Per-ring capacity default; NWD_FLIGHT_CAPACITY overrides for the
  // global recorder. Always rounded up to a power of two, min 4.
  static constexpr size_t kDefaultCapacity = 2048;
  // Rings ever created (live threads + parked free rings). Beyond this
  // new threads record nothing — bounded memory beats completeness.
  static constexpr int kMaxRings = 512;

  // capacity 0 = environment/default resolution.
  explicit FlightRecorder(size_t capacity = 0);
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // The process-wide recorder the library's built-in sites use.
  static FlightRecorder& Global();

  // Records one event on this thread's ring, stamped with
  // CurrentRequestId() and a monotonic timestamp. `label` must be a
  // string literal or interned (the pointer is stored). No-op when
  // FlightEnabled() is off or the ring table is exhausted. Steady-state
  // cost: a clock read plus relaxed atomic stores; allocates only on a
  // thread's first record (its ring).
  void Record(FlightEventKind kind, const char* label = nullptr,
              int64_t a = 0, int64_t b = 0, uint32_t code = 0);
  // Same, but attributes the event to an explicit request id (cross-
  // thread attribution, e.g. the repair lane crediting the originating
  // request).
  void RecordFor(uint64_t rid, FlightEventKind kind,
                 const char* label = nullptr, int64_t a = 0, int64_t b = 0,
                 uint32_t code = 0);

  // Decoded event (merge-on-read form).
  struct Event {
    int64_t ts_ns = 0;
    uint64_t rid = 0;
    uint64_t tid = 0;   // ring owner's thread id hash at write time
    int ring = 0;       // ring index (stable per ring)
    uint64_t seq = 0;   // global per-ring event index (0-based)
    FlightEventKind kind = FlightEventKind::kNone;
    uint32_t code = 0;
    const char* label = nullptr;  // may be null
    int64_t a = 0;
    int64_t b = 0;
  };
  struct CollectStats {
    int64_t recorded = 0;      // events ever written, all rings
    int64_t overwritten = 0;   // events lost to ring wraparound
    int64_t torn_skipped = 0;  // slots skipped mid-overwrite during read
    int rings = 0;
  };

  // Merges every ring's surviving events, sorted by timestamp. Safe
  // concurrently with writers: in-progress slots are skipped and counted
  // in torn_skipped, never emitted half-written.
  std::vector<Event> Collect(CollectStats* stats = nullptr) const;

  // Text dump, one stable `key=value` line per event (sorted by
  // timestamp), newest `max_events` only when non-zero. The first line
  // is a summary header; the collection stats it was built from are
  // returned (the daemon's `dump` verb stamps them on its head frame).
  CollectStats WriteText(std::ostream& out, size_t max_events = 0) const;

  // Chrome Trace Event JSON (chrome://tracing, Perfetto) of every ring's
  // surviving events: a kSpan becomes a complete event (ph "X", ts/dur in
  // microseconds from the earliest event) and every other event an
  // instant (ph "i") named by its kind; both carry args.rid. otherData
  // holds the collection stats (recorded, overwritten, torn_skipped,
  // rings), so a trace says how much history the rings had already lost.
  void WriteChromeTrace(std::ostream& out) const;

  // Allocation-free best-effort dump for fatal paths (signal handlers,
  // worker death). Walks rings without locking and writes directly to
  // `fd`; `max_events_per_ring` bounds the tail (0 = whole rings).
  void DumpToFd(int fd, size_t max_events_per_ring = 0) const;

  // Eager snapshot for a slow request: stores the merged recent history
  // under `rid`, records a kSlowRequest event, and bumps the capture
  // counter. The latest capture wins (one slot — the point is "what did
  // the slowest recent request see", not an archive).
  void CaptureSlow(uint64_t rid, int64_t latency_ns);
  struct SlowCapture {
    uint64_t rid = 0;
    int64_t latency_ns = 0;
    std::vector<Event> events;
  };
  std::optional<SlowCapture> LastSlowCapture() const;
  int64_t slow_captures() const {
    return slow_captures_.load(std::memory_order_relaxed);
  }

  size_t capacity() const { return capacity_; }
  int ring_count() const {
    return ring_count_.load(std::memory_order_acquire);
  }

 private:
  friend struct ThreadRingCache;
  struct Slot;
  struct Ring;

  Ring* AcquireRing();   // slow path: free-list reuse or create
  void ReleaseRing(Ring* ring);  // thread exit: park for reuse
  Ring* CachedRing();    // fast path: thread-local lookup
  bool ReadSlot(const Ring& ring, uint64_t index, int ring_index,
                Event* out) const;

  const uint64_t id_;        // process-unique, never reused
  const size_t capacity_;    // power of two
  mutable std::mutex mu_;    // guards free_ + ring creation
  std::vector<Ring*> free_;  // parked rings (owner thread exited)
  std::vector<std::unique_ptr<Ring>> owned_;
  // Lock-free readable ring table: entries are set once, count is
  // released after the entry is visible.
  std::atomic<Ring*> rings_[kMaxRings] = {};
  std::atomic<int> ring_count_{0};

  mutable std::mutex slow_mu_;
  SlowCapture slow_;
  bool has_slow_ = false;
  std::atomic<int64_t> slow_captures_{0};
};

// Convenience for call sites: record on the global recorder iff enabled.
inline void FlightRecord(FlightEventKind kind, const char* label = nullptr,
                         int64_t a = 0, int64_t b = 0, uint32_t code = 0) {
  if (!FlightEnabled()) return;
  FlightRecorder::Global().Record(kind, label, a, b, code);
}
inline void FlightRecordFor(uint64_t rid, FlightEventKind kind,
                            const char* label = nullptr, int64_t a = 0,
                            int64_t b = 0, uint32_t code = 0) {
  if (!FlightEnabled()) return;
  FlightRecorder::Global().RecordFor(rid, kind, label, a, b, code);
}

// A named stage on this thread's timeline, and the stage's timer. When
// the span ends it records one kSpan event on the global recorder (label
// = `name`, a = duration in ns, stamped with the thread's request id);
// End() returns the elapsed milliseconds, which callers store in their
// Stats whether or not the recorder is on:
//   obs::ScopedSpan span("engine/cover");
//   ... work ...
//   stats.cover_ms = span.End();
// `name` must be a string literal (the event stores the pointer).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : name_(name), begin_ns_(NowNs()) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Ends the span now instead of at scope exit. Idempotent: later calls
  // (and the destructor) record nothing and return the same duration.
  double End() {
    if (duration_ns_ < 0) {
      duration_ns_ = NowNs() - begin_ns_;
      FlightRecord(FlightEventKind::kSpan, name_, duration_ns_);
    }
    return static_cast<double>(duration_ns_) / 1e6;
  }

 private:
  const char* name_;
  int64_t begin_ns_;
  int64_t duration_ns_ = -1;
};

}  // namespace obs
}  // namespace nwd

#endif  // NWD_OBS_FLIGHT_H_
