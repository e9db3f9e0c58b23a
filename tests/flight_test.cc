// The flight recorder's contracts: request identity scoping, bounded
// ring wraparound, coherent merge-on-read dumps under concurrent
// writers (the TSan twin runs the same cases), zero steady-state
// allocation on the record path, and the slow-request capture hook.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define NWD_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define NWD_UNDER_SANITIZER 1
#endif
#endif

// Counting global allocator (same scheme as probe_pool_test): every
// operator new in this binary bumps the counter while the gate is open.
// The gate is only opened around a single-threaded measurement window.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<int64_t> g_alloc_count{0};

void* CountedAlloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace nwd {
namespace obs {
namespace {

class FlightTest : public ::testing::Test {
 protected:
  void SetUp() override { SetFlightEnabled(true); }
  void TearDown() override { SetFlightEnabled(true); }
};

TEST_F(FlightTest, MintedIdsAreUniqueHighBandAndWireSafe) {
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t rid = MintRequestId();
    EXPECT_NE(uint64_t{0}, rid);
    EXPECT_TRUE(rid & (uint64_t{1} << 62)) << "minted ids live in the high "
                                              "band, disjoint from client ids";
    EXPECT_LT(rid, uint64_t{1} << 63) << "must survive the wire's int parse";
    EXPECT_TRUE(seen.insert(rid).second) << "ids must never repeat";
  }
}

TEST_F(FlightTest, RequestScopeNestsAndRestores) {
  EXPECT_EQ(uint64_t{0}, CurrentRequestId());
  {
    RequestScope outer(7);
    EXPECT_EQ(uint64_t{7}, CurrentRequestId());
    {
      RequestScope inner(9);
      EXPECT_EQ(uint64_t{9}, CurrentRequestId());
    }
    EXPECT_EQ(uint64_t{7}, CurrentRequestId());
  }
  EXPECT_EQ(uint64_t{0}, CurrentRequestId());
}

TEST_F(FlightTest, RecordedEventsComeBackDecodedAndStamped) {
  FlightRecorder recorder(/*capacity=*/64);
  {
    RequestScope scope(42);
    recorder.Record(FlightEventKind::kRequestStart, "test", 0, 0, 3);
    recorder.Record(FlightEventKind::kSpan, "engine/cover", 120, 5);
  }
  recorder.RecordFor(77, FlightEventKind::kEpochDrain, nullptr, 2, 999);

  FlightRecorder::CollectStats stats;
  const std::vector<FlightRecorder::Event> events = recorder.Collect(&stats);
  ASSERT_EQ(3u, events.size());
  EXPECT_EQ(3, stats.recorded);
  EXPECT_EQ(0, stats.overwritten);
  EXPECT_EQ(0, stats.torn_skipped);
  EXPECT_EQ(1, stats.rings);

  EXPECT_EQ(FlightEventKind::kRequestStart, events[0].kind);
  EXPECT_EQ(uint64_t{42}, events[0].rid);
  EXPECT_STREQ("test", events[0].label);
  EXPECT_EQ(uint32_t{3}, events[0].code);
  EXPECT_EQ(FlightEventKind::kSpan, events[1].kind);
  EXPECT_STREQ("engine/cover", events[1].label);
  EXPECT_EQ(120, events[1].a);
  EXPECT_EQ(5, events[1].b);
  EXPECT_EQ(uint64_t{77}, events[2].rid) << "RecordFor overrides the scope";
  // Timestamps are monotone within one writer thread.
  EXPECT_LE(events[0].ts_ns, events[1].ts_ns);
  EXPECT_LE(events[1].ts_ns, events[2].ts_ns);
}

TEST_F(FlightTest, TinyRingWrapsKeepingNewestAndCountingLost) {
  FlightRecorder recorder(/*capacity=*/4);
  EXPECT_EQ(4u, recorder.capacity());
  for (int64_t i = 0; i < 20; ++i) {
    recorder.Record(FlightEventKind::kBudgetTrip, nullptr, /*a=*/i);
  }
  FlightRecorder::CollectStats stats;
  const std::vector<FlightRecorder::Event> events = recorder.Collect(&stats);
  EXPECT_EQ(20, stats.recorded);
  EXPECT_EQ(16, stats.overwritten);
  EXPECT_EQ(0, stats.torn_skipped);
  ASSERT_EQ(4u, events.size()) << "exactly the newest capacity-many survive";
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(static_cast<int64_t>(16 + i), events[i].a)
        << "survivors are the newest events, in order";
    EXPECT_EQ(uint64_t{16 + i}, events[i].seq);
  }
}

TEST_F(FlightTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(4u, FlightRecorder(1).capacity());
  EXPECT_EQ(8u, FlightRecorder(5).capacity());
  EXPECT_EQ(64u, FlightRecorder(33).capacity());
  EXPECT_EQ(64u, FlightRecorder(64).capacity());
}

// Concurrent writers against a concurrent dump loop: the reader must
// never surface a torn event as real data. Runs under the TSan twin,
// where any non-atomic slot access would also be flagged directly.
TEST_F(FlightTest, ConcurrentWritersAndDumpsStayCoherent) {
  FlightRecorder recorder(/*capacity=*/32);  // small: force heavy lapping
  constexpr int kWriters = 4;
  constexpr int64_t kEventsPerWriter = 20000;
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&recorder, &ready, w] {
      RequestScope scope(static_cast<uint64_t>(w) + 1);
      // The first record acquires this thread's ring. Hold at the
      // barrier until every writer owns one: a writer that finished and
      // exited would park its ring for reuse, collapsing the test to a
      // single ring.
      recorder.Record(FlightEventKind::kRequestEnd, "soak", 0,
                      static_cast<int64_t>(w));
      ready.fetch_add(1);
      while (ready.load() < kWriters) std::this_thread::yield();
      for (int64_t i = 1; i < kEventsPerWriter; ++i) {
        recorder.Record(FlightEventKind::kRequestEnd, "soak", i,
                        static_cast<int64_t>(w));
      }
    });
  }
  // Dump continuously while the writers lap their rings; stop once every
  // writer's events have landed.
  int64_t collected_total = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    {
      FlightRecorder::CollectStats now;
      recorder.Collect(&now);
      if (now.recorded >= kWriters * kEventsPerWriter) {
        stop.store(true, std::memory_order_relaxed);
      }
    }
    FlightRecorder::CollectStats stats;
    const std::vector<FlightRecorder::Event> events =
        recorder.Collect(&stats);
    collected_total += static_cast<int64_t>(events.size());
    std::map<int, uint64_t> last_seq;
    std::map<int, int64_t> last_ts;
    for (const FlightRecorder::Event& e : events) {
      // Every surfaced event is fully formed: a real kind, a writer's
      // rid, the shared label — never a half-written slot.
      EXPECT_EQ(FlightEventKind::kRequestEnd, e.kind);
      EXPECT_GE(e.rid, uint64_t{1});
      EXPECT_LE(e.rid, uint64_t{kWriters});
      EXPECT_STREQ("soak", e.label);
      EXPECT_EQ(e.b + 1, static_cast<int64_t>(e.rid));
      // Per-ring sequence numbers and timestamps are monotone.
      const auto seq_it = last_seq.find(e.ring);
      if (seq_it != last_seq.end()) {
        EXPECT_GT(e.seq, seq_it->second);
        EXPECT_GE(e.ts_ns, last_ts[e.ring]);
      }
      last_seq[e.ring] = e.seq;
      last_ts[e.ring] = e.ts_ns;
    }
  }
  for (std::thread& t : writers) t.join();

  FlightRecorder::CollectStats stats;
  const std::vector<FlightRecorder::Event> events = recorder.Collect(&stats);
  EXPECT_EQ(kWriters * kEventsPerWriter, stats.recorded);
  EXPECT_EQ(0, stats.torn_skipped) << "quiescent reads see no torn slots";
  EXPECT_EQ(kWriters, stats.rings);
  EXPECT_EQ(static_cast<size_t>(kWriters) * recorder.capacity(),
            events.size());
  EXPECT_GT(collected_total, 0);
}

TEST_F(FlightTest, RecordPathAllocatesNothingInSteadyState) {
#ifdef NWD_UNDER_SANITIZER
  GTEST_SKIP() << "allocation counting is meaningless under sanitizers";
#endif
  FlightRecorder recorder(/*capacity=*/64);
  // Warm-up: the first record from this thread acquires its ring (the
  // one permitted allocation).
  recorder.Record(FlightEventKind::kRequestStart);
  const char* label = InternFlightLabel("steady-state");  // pre-interned

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (int64_t i = 0; i < 10000; ++i) {
    recorder.Record(FlightEventKind::kRequestEnd, label, i, i * 2, 7);
  }
  {
    RequestScope scope(MintRequestId());
    recorder.Record(FlightEventKind::kSlowRequest);
  }
  g_count_allocs.store(false);
  EXPECT_EQ(0, g_alloc_count.load())
      << "the record hot path must not allocate after ring acquisition";
}

TEST_F(FlightTest, InternedLabelsAreStableAndDeduplicated) {
  const char* a = InternFlightLabel("flight-test-label");
  const char* b = InternFlightLabel(std::string("flight-test-label"));
  EXPECT_EQ(a, b) << "same content must intern to the same pointer";
  EXPECT_STREQ("flight-test-label", a);
  const char* c = InternFlightLabel("flight-test-other");
  EXPECT_NE(a, c);
}

TEST_F(FlightTest, WriteTextEmitsHeaderAndNewestTail) {
  FlightRecorder recorder(/*capacity=*/16);
  for (int64_t i = 0; i < 10; ++i) {
    recorder.RecordFor(100 + i, FlightEventKind::kEpochPublish, nullptr, i);
  }
  std::ostringstream full;
  const FlightRecorder::CollectStats stats = recorder.WriteText(full);
  EXPECT_EQ(10, stats.recorded);
  EXPECT_EQ(0u, full.str().find("flightdump rings=1 recorded=10 "
                                "overwritten=0 torn=0 events=10\n"));
  EXPECT_NE(std::string::npos, full.str().find("kind=epoch_publish"));
  EXPECT_NE(std::string::npos, full.str().find("rid=109"));

  // max_events keeps the newest tail only.
  std::ostringstream tail;
  recorder.WriteText(tail, /*max_events=*/3);
  const std::string text = tail.str();
  EXPECT_NE(std::string::npos, text.find("events=3\n"));
  EXPECT_EQ(std::string::npos, text.find("rid=100")) << "oldest dropped";
  EXPECT_NE(std::string::npos, text.find("rid=107"));
  EXPECT_NE(std::string::npos, text.find("rid=109"));
}

TEST_F(FlightTest, DumpToFdWritesWithoutLocksOrAllocation) {
  FlightRecorder recorder(/*capacity=*/16);
  recorder.RecordFor(555, FlightEventKind::kWorkerDeath, "boom");
  int fds[2];
  ASSERT_EQ(0, ::pipe(fds));
  recorder.DumpToFd(fds[1]);
  ::close(fds[1]);
  std::string dump;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) {
    dump.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  EXPECT_NE(std::string::npos, dump.find("flightdump rings=1 capacity=16"));
  EXPECT_NE(std::string::npos, dump.find("kind=worker_death"));
  EXPECT_NE(std::string::npos, dump.find("rid=555"));
  EXPECT_NE(std::string::npos, dump.find("label=boom"));
}

TEST_F(FlightTest, CaptureSlowStoresLatestSnapshotByRid) {
  FlightRecorder recorder(/*capacity=*/32);
  EXPECT_FALSE(recorder.LastSlowCapture().has_value());
  EXPECT_EQ(0, recorder.slow_captures());

  recorder.RecordFor(11, FlightEventKind::kRequestStart);
  recorder.CaptureSlow(/*rid=*/11, /*latency_ns=*/5'000'000);
  const std::optional<FlightRecorder::SlowCapture> capture =
      recorder.LastSlowCapture();
  ASSERT_TRUE(capture.has_value());
  EXPECT_EQ(uint64_t{11}, capture->rid);
  EXPECT_EQ(5'000'000, capture->latency_ns);
  EXPECT_EQ(1, recorder.slow_captures());
  // The capture includes the history up to (and including) the slow
  // request's own marker event.
  ASSERT_FALSE(capture->events.empty());
  EXPECT_EQ(FlightEventKind::kSlowRequest, capture->events.back().kind);
  EXPECT_EQ(uint64_t{11}, capture->events.back().rid);

  // Latest capture wins.
  recorder.CaptureSlow(/*rid=*/22, /*latency_ns=*/9'000'000);
  EXPECT_EQ(uint64_t{22}, recorder.LastSlowCapture()->rid);
  EXPECT_EQ(2, recorder.slow_captures());
}

TEST_F(FlightTest, DisabledRecorderDropsEventsCheaply) {
  FlightRecorder recorder(/*capacity=*/16);
  SetFlightEnabled(false);
  EXPECT_FALSE(FlightEnabled());
  recorder.Record(FlightEventKind::kRequestStart);
  FlightRecord(FlightEventKind::kRequestStart);  // global helper no-ops too
  SetFlightEnabled(true);
  FlightRecorder::CollectStats stats;
  recorder.Collect(&stats);
  EXPECT_EQ(0, stats.recorded);
}

TEST_F(FlightTest, EventKindNamesAreStableTokens) {
  EXPECT_STREQ("request_start",
               FlightEventKindName(FlightEventKind::kRequestStart));
  EXPECT_STREQ("epoch_drain",
               FlightEventKindName(FlightEventKind::kEpochDrain));
  EXPECT_STREQ("span", FlightEventKindName(FlightEventKind::kSpan));
  EXPECT_STREQ("worker_death",
               FlightEventKindName(FlightEventKind::kWorkerDeath));
  EXPECT_STREQ("none", FlightEventKindName(FlightEventKind::kNone));
}

}  // namespace
}  // namespace obs
}  // namespace nwd
