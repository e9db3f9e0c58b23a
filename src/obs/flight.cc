#include "obs/flight.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "obs/json.h"

namespace nwd {
namespace obs {
namespace {

uint64_t CurrentTidHash() {
  thread_local const uint64_t tid =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return tid;
}

thread_local uint64_t t_request_id = 0;

std::mutex& LiveMu() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

// Live recorders by id, so a thread-exit hook can tell a still-valid
// recorder pointer from a dangling one before parking its ring. Leaked
// (construction-order safe against thread_local destructors).
std::unordered_map<uint64_t, FlightRecorder*>& LiveTable() {
  static auto* table = new std::unordered_map<uint64_t, FlightRecorder*>();
  return *table;
}

uint64_t NextRecorderId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::atomic<int>& FlightEnabledFlag() {
  // -1 = unresolved (consult the environment on first query).
  static std::atomic<int> flag{-1};
  return flag;
}

size_t RoundUpPow2(size_t v) {
  size_t p = 4;
  while (p < v) p <<= 1;
  return p;
}

size_t ResolveCapacity(size_t requested) {
  size_t capacity = requested;
  if (capacity == 0) {
    capacity = FlightRecorder::kDefaultCapacity;
    const char* env = std::getenv("NWD_FLIGHT_CAPACITY");
    if (env != nullptr && env[0] != '\0') {
      char* end = nullptr;
      const long long v = std::strtoll(env, &end, 10);
      if (end != env && v > 0) capacity = static_cast<size_t>(v);
    }
  }
  if (capacity > (size_t{1} << 20)) capacity = size_t{1} << 20;
  return RoundUpPow2(capacity);
}

}  // namespace

// --- Request identity --------------------------------------------------

uint64_t MintRequestId() {
  static std::atomic<uint64_t> next{1};
  // High band (bit 62): disjoint from small client-chosen ids, still
  // below 2^63 so the wire protocol's non-negative int parse takes it.
  return (uint64_t{1} << 62) | next.fetch_add(1, std::memory_order_relaxed);
}

uint64_t CurrentRequestId() { return t_request_id; }

RequestScope::RequestScope(uint64_t rid) : prev_(t_request_id) {
  t_request_id = rid;
}

RequestScope::~RequestScope() { t_request_id = prev_; }

// --- Events ------------------------------------------------------------

const char* FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kNone: return "none";
    case FlightEventKind::kRequestStart: return "request_start";
    case FlightEventKind::kRequestEnd: return "request_end";
    case FlightEventKind::kEpochPublish: return "epoch_publish";
    case FlightEventKind::kEpochDrain: return "epoch_drain";
    case FlightEventKind::kSpan: return "span";
    case FlightEventKind::kBudgetTrip: return "budget_trip";
    case FlightEventKind::kFaultFire: return "fault_fire";
    case FlightEventKind::kAdmissionReject: return "admission_reject";
    case FlightEventKind::kSlowRequest: return "slow_request";
    case FlightEventKind::kWorkerDeath: return "worker_death";
  }
  return "none";
}

const char* InternFlightLabel(std::string_view label) {
  static constexpr size_t kMaxLabels = 4096;
  static std::mutex* mu = new std::mutex();
  static auto* table = new std::unordered_set<std::string>();
  std::lock_guard<std::mutex> lock(*mu);
  auto it = table->find(std::string(label));
  if (it != table->end()) return it->c_str();
  if (table->size() >= kMaxLabels) return "(label-overflow)";
  return table->emplace(label).first->c_str();
}

bool FlightEnabled() {
  int state = FlightEnabledFlag().load(std::memory_order_relaxed);
  if (state < 0) {
    // Default ON: the recorder exists to have already been running when
    // something goes wrong. NWD_FLIGHT=0 opts out.
    const char* env = std::getenv("NWD_FLIGHT");
    state = (env != nullptr && env[0] == '0') ? 0 : 1;
    FlightEnabledFlag().store(state, std::memory_order_relaxed);
  }
  return state != 0;
}

void SetFlightEnabled(bool enabled) {
  FlightEnabledFlag().store(enabled ? 1 : 0, std::memory_order_relaxed);
}

// --- Recorder ----------------------------------------------------------

// One event slot. Every field is an atomic (so concurrent dump reads are
// race-free by construction); `seq` is a per-slot seqlock whose stable
// value encodes the event's global index: after event number h (0-based)
// lands in slot h % capacity, seq == 2*(h+1); while the writer is mid-
// update it holds the odd 2*h+1. A reader expecting event h accepts the
// slot only if seq reads 2*(h+1) on both sides of the payload read —
// anything else means the slot was torn or lapped, and is skipped.
struct alignas(64) FlightRecorder::Slot {
  std::atomic<uint64_t> seq{0};
  std::atomic<int64_t> ts_ns{0};
  std::atomic<uint64_t> rid{0};
  std::atomic<uint64_t> tid{0};
  std::atomic<const char*> label{nullptr};
  std::atomic<int64_t> a{0};
  std::atomic<int64_t> b{0};
  std::atomic<uint32_t> kind_code{0};  // kind << 24 | (code & 0xFFFFFF)
};

struct FlightRecorder::Ring {
  explicit Ring(size_t capacity) : slots(capacity) {}
  std::vector<Slot> slots;
  // Events ever written to this ring; the write cursor is head % size.
  std::atomic<uint64_t> head{0};
  std::atomic<uint64_t> owner_tid{0};
};

// Thread-local ring cache: one entry per (thread, recorder) pair. The
// destructor parks rings back on their recorder's free-list so a daemon
// that churns a thread per connection reuses a bounded ring set instead
// of growing one ring per connection ever served. Entries carry the
// recorder's unique id so a dangling pointer (test-scoped recorder that
// died before this thread) is detected and skipped, never dereferenced.
struct ThreadRingCache {
  struct Entry {
    uint64_t recorder_id = 0;
    FlightRecorder* recorder = nullptr;
    FlightRecorder::Ring* ring = nullptr;
  };
  std::vector<Entry> entries;

  ~ThreadRingCache() {
    std::lock_guard<std::mutex> lock(LiveMu());
    for (const Entry& e : entries) {
      if (e.ring == nullptr) continue;
      auto it = LiveTable().find(e.recorder_id);
      if (it != LiveTable().end() && it->second == e.recorder) {
        e.recorder->ReleaseRing(e.ring);
      }
    }
  }
};

namespace {
ThreadRingCache& TlsRingCache() {
  thread_local ThreadRingCache cache;
  return cache;
}
}  // namespace

FlightRecorder::FlightRecorder(size_t capacity)
    : id_(NextRecorderId()), capacity_(ResolveCapacity(capacity)) {
  std::lock_guard<std::mutex> lock(LiveMu());
  LiveTable()[id_] = this;
}

FlightRecorder::~FlightRecorder() {
  std::lock_guard<std::mutex> lock(LiveMu());
  LiveTable().erase(id_);
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

FlightRecorder::Ring* FlightRecorder::AcquireRing() {
  std::lock_guard<std::mutex> lock(mu_);
  Ring* ring = nullptr;
  if (!free_.empty()) {
    ring = free_.back();
    free_.pop_back();
  } else {
    const int n = ring_count_.load(std::memory_order_relaxed);
    if (n >= kMaxRings) return nullptr;
    owned_.push_back(std::make_unique<Ring>(capacity_));
    ring = owned_.back().get();
    rings_[n].store(ring, std::memory_order_release);
    ring_count_.store(n + 1, std::memory_order_release);
  }
  ring->owner_tid.store(CurrentTidHash(), std::memory_order_relaxed);
  return ring;
}

void FlightRecorder::ReleaseRing(Ring* ring) {
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(ring);
}

FlightRecorder::Ring* FlightRecorder::CachedRing() {
  ThreadRingCache& cache = TlsRingCache();
  for (const ThreadRingCache::Entry& e : cache.entries) {
    if (e.recorder == this && e.recorder_id == id_) return e.ring;
  }
  // First record from this thread on this recorder: acquire (or fail to
  // acquire — a null is cached too, so a full ring table costs one miss,
  // not a mutex per event).
  Ring* ring = AcquireRing();
  cache.entries.push_back(ThreadRingCache::Entry{id_, this, ring});
  return ring;
}

void FlightRecorder::Record(FlightEventKind kind, const char* label,
                            int64_t a, int64_t b, uint32_t code) {
  RecordFor(t_request_id, kind, label, a, b, code);
}

void FlightRecorder::RecordFor(uint64_t rid, FlightEventKind kind,
                               const char* label, int64_t a, int64_t b,
                               uint32_t code) {
  if (!FlightEnabled()) return;
  Ring* ring = CachedRing();
  if (ring == nullptr) return;
  const uint64_t h = ring->head.load(std::memory_order_relaxed);
  Slot& slot = ring->slots[h & (capacity_ - 1)];
  slot.seq.store(2 * h + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.ts_ns.store(NowNs(), std::memory_order_relaxed);
  slot.rid.store(rid, std::memory_order_relaxed);
  slot.tid.store(CurrentTidHash(), std::memory_order_relaxed);
  slot.label.store(label, std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  slot.kind_code.store(
      (static_cast<uint32_t>(kind) << 24) | (code & 0xFFFFFFu),
      std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.seq.store(2 * (h + 1), std::memory_order_relaxed);
  ring->head.store(h + 1, std::memory_order_release);
}

bool FlightRecorder::ReadSlot(const Ring& ring, uint64_t index,
                              int ring_index, Event* out) const {
  const Slot& slot = ring.slots[index & (capacity_ - 1)];
  const uint64_t want = 2 * (index + 1);
  if (slot.seq.load(std::memory_order_acquire) != want) return false;
  Event e;
  e.ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
  e.rid = slot.rid.load(std::memory_order_relaxed);
  e.tid = slot.tid.load(std::memory_order_relaxed);
  e.label = slot.label.load(std::memory_order_relaxed);
  e.a = slot.a.load(std::memory_order_relaxed);
  e.b = slot.b.load(std::memory_order_relaxed);
  const uint32_t kind_code = slot.kind_code.load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  if (slot.seq.load(std::memory_order_relaxed) != want) return false;
  e.kind = static_cast<FlightEventKind>(kind_code >> 24);
  e.code = kind_code & 0xFFFFFFu;
  e.ring = ring_index;
  e.seq = index;
  *out = e;
  return true;
}

std::vector<FlightRecorder::Event> FlightRecorder::Collect(
    CollectStats* stats) const {
  CollectStats st;
  std::vector<Event> out;
  const int n = ring_count_.load(std::memory_order_acquire);
  st.rings = n;
  for (int i = 0; i < n; ++i) {
    const Ring* ring = rings_[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    const uint64_t begin = head > capacity_ ? head - capacity_ : 0;
    st.recorded += static_cast<int64_t>(head);
    st.overwritten += static_cast<int64_t>(begin);
    for (uint64_t idx = begin; idx < head; ++idx) {
      Event e;
      if (ReadSlot(*ring, idx, i, &e)) {
        out.push_back(e);
      } else {
        ++st.torn_skipped;
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const Event& x, const Event& y) {
    if (x.ts_ns != y.ts_ns) return x.ts_ns < y.ts_ns;
    if (x.ring != y.ring) return x.ring < y.ring;
    return x.seq < y.seq;
  });
  if (stats != nullptr) *stats = st;
  return out;
}

FlightRecorder::CollectStats FlightRecorder::WriteText(
    std::ostream& out, size_t max_events) const {
  CollectStats st;
  std::vector<Event> events = Collect(&st);
  size_t first = 0;
  if (max_events > 0 && events.size() > max_events) {
    first = events.size() - max_events;  // newest tail
  }
  out << "flightdump rings=" << st.rings << " recorded=" << st.recorded
      << " overwritten=" << st.overwritten << " torn=" << st.torn_skipped
      << " events=" << (events.size() - first) << "\n";
  for (size_t i = first; i < events.size(); ++i) {
    const Event& e = events[i];
    out << "flight ring=" << e.ring << " seq=" << e.seq
        << " ts_ns=" << e.ts_ns << " tid=" << (e.tid % 100000)
        << " kind=" << FlightEventKindName(e.kind) << " rid=" << e.rid
        << " code=" << e.code
        << " label=" << (e.label != nullptr ? e.label : "-") << " a=" << e.a
        << " b=" << e.b << "\n";
  }
  return st;
}

void FlightRecorder::WriteChromeTrace(std::ostream& out) const {
  CollectStats st;
  const std::vector<Event> events = Collect(&st);
  // A span is stamped when it ends; it began `a` nanoseconds earlier.
  const auto begin_ns = [](const Event& e) {
    return e.kind == FlightEventKind::kSpan ? e.ts_ns - e.a : e.ts_ns;
  };
  // Timestamps start near 0 whatever the steady_clock epoch.
  int64_t base_ns = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const int64_t b = begin_ns(events[i]);
    if (i == 0 || b < base_ns) base_ns = b;
  }
  out << "{\"traceEvents\":[";
  char buf[192];
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (i > 0) out << ',';
    const double ts_us = static_cast<double>(begin_ns(e) - base_ns) / 1e3;
    const unsigned long long tid = e.tid % 100000;
    const unsigned long long rid = e.rid;
    out << "{\"name\":";
    if (e.kind == FlightEventKind::kSpan) {
      json::WriteString(out, e.label != nullptr ? e.label : "-");
      std::snprintf(buf, sizeof(buf),
                    ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                    "\"tid\":%llu,\"args\":{\"rid\":%llu}}",
                    ts_us, static_cast<double>(e.a) / 1e3, tid, rid);
      out << buf;
      continue;
    }
    json::WriteString(out, FlightEventKindName(e.kind));
    std::snprintf(buf, sizeof(buf),
                  ",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":1,"
                  "\"tid\":%llu,\"args\":{\"rid\":%llu,\"code\":%u,"
                  "\"a\":%lld,\"b\":%lld",
                  ts_us, tid, rid, e.code, static_cast<long long>(e.a),
                  static_cast<long long>(e.b));
    out << buf;
    if (e.label != nullptr) {
      out << ",\"label\":";
      json::WriteString(out, e.label);
    }
    out << "}}";
  }
  out << "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"recorded\":"
      << st.recorded << ",\"overwritten\":" << st.overwritten
      << ",\"torn_skipped\":" << st.torn_skipped << ",\"rings\":" << st.rings
      << "}}\n";
}

void FlightRecorder::DumpToFd(int fd, size_t max_events_per_ring) const {
  char buf[320];
  int len = std::snprintf(buf, sizeof(buf),
                          "flightdump rings=%d capacity=%zu\n",
                          ring_count_.load(std::memory_order_acquire),
                          capacity_);
  if (len > 0) (void)!::write(fd, buf, static_cast<size_t>(len));
  const int n = ring_count_.load(std::memory_order_acquire);
  for (int i = 0; i < n; ++i) {
    const Ring* ring = rings_[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    uint64_t begin = head > capacity_ ? head - capacity_ : 0;
    if (max_events_per_ring > 0 && head - begin > max_events_per_ring) {
      begin = head - max_events_per_ring;
    }
    for (uint64_t idx = begin; idx < head; ++idx) {
      Event e;
      if (!ReadSlot(*ring, idx, i, &e)) continue;
      len = std::snprintf(
          buf, sizeof(buf),
          "flight ring=%d seq=%llu ts_ns=%lld tid=%llu kind=%s rid=%llu"
          " code=%u label=%s a=%lld b=%lld\n",
          e.ring, static_cast<unsigned long long>(e.seq),
          static_cast<long long>(e.ts_ns),
          static_cast<unsigned long long>(e.tid % 100000),
          FlightEventKindName(e.kind),
          static_cast<unsigned long long>(e.rid), e.code,
          e.label != nullptr ? e.label : "-", static_cast<long long>(e.a),
          static_cast<long long>(e.b));
      if (len > 0) (void)!::write(fd, buf, static_cast<size_t>(len));
    }
  }
}

void FlightRecorder::CaptureSlow(uint64_t rid, int64_t latency_ns) {
  RecordFor(rid, FlightEventKind::kSlowRequest, nullptr, latency_ns, 0, 0);
  SlowCapture capture;
  capture.rid = rid;
  capture.latency_ns = latency_ns;
  capture.events = Collect();
  {
    std::lock_guard<std::mutex> lock(slow_mu_);
    slow_ = std::move(capture);
    has_slow_ = true;
  }
  slow_captures_.fetch_add(1, std::memory_order_relaxed);
}

std::optional<FlightRecorder::SlowCapture> FlightRecorder::LastSlowCapture()
    const {
  std::lock_guard<std::mutex> lock(slow_mu_);
  if (!has_slow_) return std::nullopt;
  return slow_;
}

}  // namespace obs
}  // namespace nwd
