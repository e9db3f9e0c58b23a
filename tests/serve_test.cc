// The serving daemon, driven end to end over real socketpairs: the frame
// protocol, probe/enumerate correctness against a directly-built engine,
// the deadline and backpressure contracts, epoch pinning under a live
// reload, and survival of injected serving-layer faults.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "enumerate/engine.h"
#include "fo/parser.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/snapshot.h"
#include "serve/wire.h"
#include "util/fault_injection.h"
#include "util/lex.h"

namespace nwd {
namespace serve {
namespace {

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

// Every final response frame ends with the request id the daemon adopted
// or minted (` rid=N`). Tests that assert on the rest of the head
// verbatim strip it; rid-specific tests read Response::rid instead.
std::string StripRid(const std::string& head) {
  const size_t pos = head.rfind(" rid=");
  return pos == std::string::npos ? head : head.substr(0, pos);
}

std::vector<Tuple> AllAnswers(const EnumerationEngine& engine,
                              Tuple cursor) {
  std::vector<Tuple> out;
  const int64_t n = engine.universe();
  while (true) {
    const std::optional<Tuple> next = engine.Next(cursor);
    if (!next.has_value()) break;
    out.push_back(*next);
    cursor = *next;
    if (!LexIncrement(&cursor, n)) break;
  }
  return out;
}

std::vector<Tuple> AllAnswers(const DynamicEngine& engine, Tuple cursor) {
  std::vector<Tuple> out;
  const int64_t n = engine.NumVertices();
  while (true) {
    const std::optional<Tuple> next = engine.Next(cursor);
    if (!next.has_value()) break;
    out.push_back(*next);
    cursor = *next;
    if (!LexIncrement(&cursor, n)) break;
  }
  return out;
}

// --- Wire-level units --------------------------------------------------

TEST(WireTest, ErrorCodeNamesRoundTrip) {
  for (const ErrorCode code :
       {ErrorCode::kBadFrame, ErrorCode::kBadRequest, ErrorCode::kOutOfRange,
        ErrorCode::kNoGraph, ErrorCode::kDeadlineExceeded,
        ErrorCode::kRetryAfter, ErrorCode::kShuttingDown,
        ErrorCode::kInternal}) {
    const auto parsed = ParseErrorCode(ErrorCodeName(code));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(code, *parsed);
  }
  EXPECT_FALSE(ParseErrorCode("NOPE").has_value());
}

TEST(WireTest, FrameRoundTrip) {
  int fds[2];
  ASSERT_EQ(0, ::pipe(fds));
  FdStream writer(-1, fds[1]);
  FdStream reader(fds[0], -1);
  ASSERT_TRUE(WriteFrame(&writer, "hello"));
  ASSERT_TRUE(WriteFrame(&writer, std::string(1000, 'x')));
  std::string payload;
  ASSERT_EQ(FrameStatus::kOk, ReadFrame(&reader, 1 << 20, &payload));
  EXPECT_EQ("hello", payload);
  ASSERT_EQ(FrameStatus::kOk, ReadFrame(&reader, 1 << 20, &payload));
  EXPECT_EQ(std::string(1000, 'x'), payload);
  ::close(fds[1]);
  EXPECT_EQ(FrameStatus::kEof, ReadFrame(&reader, 1 << 20, &payload));
  ::close(fds[0]);
}

TEST(WireTest, FrameRejectsOversizedAndZeroLengths) {
  int fds[2];
  ASSERT_EQ(0, ::pipe(fds));
  FdStream reader(fds[0], -1);
  std::string payload;
  // Zero length prefix.
  const uint8_t zero[4] = {0, 0, 0, 0};
  ASSERT_EQ(4, ::write(fds[1], zero, 4));
  EXPECT_EQ(FrameStatus::kTooBig, ReadFrame(&reader, 64, &payload));
  // Length above the cap (a stream that was never framed).
  const uint8_t huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(4, ::write(fds[1], huge, 4));
  EXPECT_EQ(FrameStatus::kTooBig, ReadFrame(&reader, 64, &payload));
  // Truncated mid-header is an IO error, not a clean EOF.
  const uint8_t partial[2] = {5, 0};
  ASSERT_EQ(2, ::write(fds[1], partial, 2));
  ::close(fds[1]);
  EXPECT_EQ(FrameStatus::kIoError, ReadFrame(&reader, 64, &payload));
  ::close(fds[0]);
}

TEST(WireTest, TupleTextRoundTrip) {
  Tuple t;
  ASSERT_TRUE(ParseTupleText("3,7,0", &t));
  EXPECT_EQ((Tuple{3, 7, 0}), t);
  EXPECT_EQ("3,7,0", FormatTuple(t));
  ASSERT_TRUE(ParseTupleText("42", &t));
  EXPECT_EQ((Tuple{42}), t);
  EXPECT_FALSE(ParseTupleText("", &t));
  EXPECT_FALSE(ParseTupleText("3,7,", &t));
  EXPECT_FALSE(ParseTupleText(",3", &t));
  EXPECT_FALSE(ParseTupleText("3,,7", &t));
  EXPECT_FALSE(ParseTupleText("3,-7", &t));
  EXPECT_FALSE(ParseTupleText("3,x", &t));
}

TEST(WireTest, ParseRequestForms) {
  Request r;
  std::string error;
  ASSERT_TRUE(ParseRequest("ping", &r, &error));
  EXPECT_EQ(RequestOp::kPing, r.op);
  ASSERT_TRUE(ParseRequest("test 3,7 deadline_ms=50", &r, &error));
  EXPECT_EQ(RequestOp::kTest, r.op);
  EXPECT_EQ((Tuple{3, 7}), r.tuple);
  EXPECT_EQ(50, r.deadline_ms);
  ASSERT_TRUE(ParseRequest("next 0,0", &r, &error));
  EXPECT_EQ(RequestOp::kNext, r.op);
  ASSERT_TRUE(ParseRequest("enumerate from=2,5 limit=10 deadline_ms=7", &r,
                           &error));
  EXPECT_EQ(RequestOp::kEnumerate, r.op);
  EXPECT_TRUE(r.has_from);
  EXPECT_EQ((Tuple{2, 5}), r.tuple);
  EXPECT_EQ(10, r.limit);
  EXPECT_EQ(7, r.deadline_ms);
  ASSERT_TRUE(ParseRequest("enumerate", &r, &error));
  EXPECT_FALSE(r.has_from);
  EXPECT_EQ(-1, r.limit);
  ASSERT_TRUE(
      ParseRequest("reload gen:tree:100:3 budget_ms=5 max_edge_work=9", &r,
                   &error));
  EXPECT_EQ(RequestOp::kReload, r.op);
  EXPECT_EQ("gen:tree:100:3", r.source);
  EXPECT_EQ(5, r.budget_ms);
  EXPECT_EQ(9, r.max_edge_work);
  ASSERT_TRUE(
      ParseRequest("update add:1,2;del:3,4;color:5,0,1 wait=1", &r, &error));
  EXPECT_EQ(RequestOp::kUpdate, r.op);
  ASSERT_EQ(3u, r.edits.size());
  EXPECT_EQ(GraphEdit::Kind::kAddEdge, r.edits[0].kind);
  EXPECT_EQ(1, r.edits[0].u);
  EXPECT_EQ(2, r.edits[0].v);
  EXPECT_EQ(GraphEdit::Kind::kRemoveEdge, r.edits[1].kind);
  EXPECT_EQ(3, r.edits[1].u);
  EXPECT_EQ(4, r.edits[1].v);
  EXPECT_EQ(GraphEdit::Kind::kSetColor, r.edits[2].kind);
  EXPECT_EQ(5, r.edits[2].u);
  EXPECT_EQ(0, r.edits[2].color);
  EXPECT_TRUE(r.edits[2].color_on);
  EXPECT_TRUE(r.wait_sync);
  ASSERT_TRUE(ParseRequest("update color:2,1,0", &r, &error));
  EXPECT_EQ(RequestOp::kUpdate, r.op);
  ASSERT_EQ(1u, r.edits.size());
  EXPECT_FALSE(r.edits[0].color_on);
  EXPECT_FALSE(r.wait_sync);
  // rid= is accepted on any request; absent means "mint one".
  ASSERT_TRUE(ParseRequest("ping rid=77", &r, &error));
  EXPECT_EQ(uint64_t{77}, r.rid);
  ASSERT_TRUE(ParseRequest("test 1,2 rid=9000000000", &r, &error));
  EXPECT_EQ(uint64_t{9000000000}, r.rid);
  ASSERT_TRUE(ParseRequest("ping", &r, &error));
  EXPECT_EQ(uint64_t{0}, r.rid);
  ASSERT_TRUE(ParseRequest("dump", &r, &error));
  EXPECT_EQ(RequestOp::kDump, r.op);
  ASSERT_TRUE(ParseRequest("metrics format=prom", &r, &error));
  EXPECT_EQ(RequestOp::kMetrics, r.op);
  EXPECT_TRUE(r.prom_format);
  ASSERT_TRUE(ParseRequest("metrics format=json", &r, &error));
  EXPECT_FALSE(r.prom_format);
  ASSERT_TRUE(ParseRequest("metrics", &r, &error));
  EXPECT_FALSE(r.prom_format);
  for (const char* bad :
       {"", "frobnicate", "test", "test 1,2,", "test 1,2 limit=3",
        "enumerate limit=x", "enumerate from=1,2 bogus=3", "reload",
        "reload budget_ms=5", "next -1", "update", "update add:1",
        "update add:1,2;", "update frob:1,2", "update color:1,2",
        "update color:1,0,2", "update add:1,2 wait=2",
        "test 1,2 wait=1", "ping rid=0", "ping rid=-3", "ping rid=x",
        "metrics format=xml", "test 1,2 format=prom"}) {
    EXPECT_FALSE(ParseRequest(bad, &r, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(WireTest, FindTokenScansKeyValuePairs) {
  const std::string line = "end count=17 epoch=3 limit=1";
  EXPECT_EQ("17", FindToken(line, "count").value_or(""));
  EXPECT_EQ("3", FindToken(line, "epoch").value_or(""));
  EXPECT_EQ("1", FindToken(line, "limit").value_or(""));
  EXPECT_FALSE(FindToken(line, "coun").has_value());
  EXPECT_FALSE(FindToken(line, "missing").has_value());
}

TEST(WireTest, FormatErrorCarriesRetryHint) {
  EXPECT_EQ("err RETRY_AFTER retry_after_ms=40 at capacity",
            FormatError(ErrorCode::kRetryAfter, "at capacity", 40));
  EXPECT_EQ("err BAD_REQUEST nope",
            FormatError(ErrorCode::kBadRequest, "nope"));
}

// --- Admission gate ----------------------------------------------------

TEST(AdmissionTest, RejectsPastCapAndScalesHint) {
  AdmissionGate gate(2, 10);
  int64_t hint = 0;
  ASSERT_TRUE(gate.TryAdmit(&hint));
  ASSERT_TRUE(gate.TryAdmit(&hint));
  EXPECT_EQ(2, gate.inflight());
  ASSERT_FALSE(gate.TryAdmit(&hint));
  EXPECT_GE(hint, 10);
  int64_t second_hint = 0;
  ASSERT_FALSE(gate.TryAdmit(&second_hint));
  EXPECT_GE(second_hint, hint);  // sustained rejection scales the hint
  gate.Release();
  ASSERT_TRUE(gate.TryAdmit(&hint));
  gate.Release();
  gate.Release();
  EXPECT_EQ(0, gate.inflight());
}

// --- Snapshot registry -------------------------------------------------

TEST(SnapshotTest, PinnedEpochSurvivesPublish) {
  fo::ParseResult parsed = fo::ParseFormula("E(x, y)");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  SnapshotRegistry registry;
  EXPECT_EQ(nullptr, registry.Acquire());
  EXPECT_EQ(0, registry.current_epoch());

  GraphParseLimits limits;
  std::string error;
  auto make = [&](const std::string& source) {
    auto snapshot = std::make_unique<EngineSnapshot>();
    snapshot->source = source;
    snapshot->query = parsed.query;
    EXPECT_TRUE(
        BuildGraphFromSource(source, limits, &snapshot->graph, &error))
        << error;
    snapshot->Prepare(EngineOptions{});
    return snapshot;
  };
  EXPECT_EQ(1, registry.Publish(make("gen:tree:60:1")));
  const auto pinned = registry.Acquire();
  ASSERT_NE(nullptr, pinned);
  const std::vector<Tuple> before =
      AllAnswers(*pinned->dynamic, LexMin(pinned->dynamic->arity()));

  EXPECT_EQ(2, registry.Publish(make("gen:tree:40:2")));
  EXPECT_EQ(2, registry.current_epoch());
  // The pinned snapshot still answers, bit-identically, on its epoch.
  EXPECT_EQ(1, pinned->epoch);
  EXPECT_EQ(before,
            AllAnswers(*pinned->dynamic, LexMin(pinned->dynamic->arity())));
  EXPECT_EQ(2, registry.Acquire()->epoch);
}

TEST(SnapshotTest, BuildGraphFromSourceRejectsBadSpecs) {
  GraphParseLimits limits;
  ColoredGraph graph;
  std::string error;
  for (const char* bad :
       {"gen:tree", "gen:tree:10", "gen:nope:10:1", "gen:tree:0:1",
        "gen:tree:9999999999:1", "gen:tree:10:x", "unknown:stuff",
        "file:/nonexistent/definitely/missing.graph"}) {
    error.clear();
    EXPECT_FALSE(BuildGraphFromSource(bad, limits, &graph, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
  // Every generator class resolves deterministically from its spec.
  for (const char* good : {"gen:tree:50:3", "gen:bdeg:50:3", "gen:grid:49:3",
                           "gen:caterpillar:40:3"}) {
    error.clear();
    EXPECT_TRUE(BuildGraphFromSource(good, limits, &graph, &error))
        << good << ": " << error;
    ColoredGraph again;
    EXPECT_TRUE(BuildGraphFromSource(good, limits, &again, &error));
    EXPECT_EQ(graph.NumVertices(), again.NumVertices());
    EXPECT_EQ(graph.NumEdges(), again.NumEdges());
  }
}

// --- Daemon over socketpairs -------------------------------------------

constexpr const char* kSource = "gen:tree:150:7";

class DaemonTest : public ::testing::Test {
 protected:
  void Start(DaemonOptions options = {}, const char* query = "E(x, y)",
             const std::string& source = kSource) {
    fo::ParseResult parsed = fo::ParseFormula(query);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    query_ = parsed.query;
    daemon_ = std::make_unique<Daemon>(parsed.query, options);
    std::string error;
    ASSERT_TRUE(daemon_->LoadInitialSnapshot(source, &error)) << error;
  }

  // Opens a connection served by a daemon handler thread; returns the
  // client end (caller closes). `sndbuf` shrinks the daemon-side send
  // buffer so an unread enumeration stream stalls the handler quickly.
  int Connect(int sndbuf = 0) {
    int sv[2] = {-1, -1};
    EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
    if (sndbuf > 0) {
      ::setsockopt(sv[1], SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
    }
    daemon_->ServeFd(sv[1], sv[1]);
    return sv[0];
  }

  // The same engine the daemon serves, built directly.
  std::unique_ptr<EnumerationEngine> DirectEngine(
      const std::string& source = kSource) {
    graphs_.push_back(std::make_unique<ColoredGraph>());
    std::string error;
    EXPECT_TRUE(BuildGraphFromSource(source, GraphParseLimits{},
                                     graphs_.back().get(), &error))
        << error;
    return std::make_unique<EnumerationEngine>(*graphs_.back(), query_,
                                               EngineOptions{});
  }

  // Polls `stats` on its own connection until `pred(head)` holds.
  void WaitForStats(const std::function<bool(const std::string&)>& pred) {
    const int fd = Connect();
    Client client(fd, fd, /*seed=*/1);
    Response response;
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE(client.Call("stats", &response));
      if (pred(response.head)) {
        ::close(fd);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ::close(fd);
    FAIL() << "stats condition never held; last: " << response.head;
  }

  fo::Query query_;
  std::unique_ptr<Daemon> daemon_;
  std::vector<std::unique_ptr<ColoredGraph>> graphs_;
};

TEST_F(DaemonTest, ProbesMatchDirectEngine) {
  Start();
  const auto engine = DirectEngine();
  const int fd = Connect();
  Client client(fd, fd, /*seed=*/3);
  Response response;

  ASSERT_TRUE(client.Call("ping", &response));
  EXPECT_TRUE(response.ok);
  EXPECT_EQ("ok ping", StripRid(response.head));
  EXPECT_GT(response.rid, 0) << "a minted rid must ride the final frame";

  Rng rng(99);
  const int64_t n = engine->universe();
  for (int i = 0; i < 50; ++i) {
    Tuple t{static_cast<int64_t>(rng.NextBounded(n)),
            static_cast<int64_t>(rng.NextBounded(n))};
    ASSERT_TRUE(client.Call("test " + FormatTuple(t), &response));
    ASSERT_TRUE(response.ok) << response.head;
    EXPECT_EQ(std::string("ok test ") + (engine->Test(t) ? "1" : "0") +
                  " epoch=1",
              StripRid(response.head));
    ASSERT_TRUE(client.Call("next " + FormatTuple(t), &response));
    ASSERT_TRUE(response.ok) << response.head;
    const std::optional<Tuple> next = engine->Next(t);
    EXPECT_EQ(std::string("ok next ") +
                  (next.has_value() ? FormatTuple(*next)
                                    : std::string("none")) +
                  " epoch=1",
              StripRid(response.head));
  }
  ::close(fd);
}

TEST_F(DaemonTest, EnumerateStreamsEveryAnswerThenEnd) {
  Start();
  const auto engine = DirectEngine();
  const std::vector<Tuple> expected =
      AllAnswers(*engine, LexMin(engine->arity()));
  ASSERT_FALSE(expected.empty());

  const int fd = Connect();
  Client client(fd, fd, /*seed=*/4);
  Response response;
  ASSERT_TRUE(client.Call("enumerate", &response));
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(expected, response.answers);
  EXPECT_EQ(static_cast<int64_t>(expected.size()), response.count);
  EXPECT_EQ(1, response.epoch);
  EXPECT_FALSE(FindToken(response.head, "limit").has_value());
  ::close(fd);
}

TEST_F(DaemonTest, EnumerateHonorsLimitAndFrom) {
  Start();
  const auto engine = DirectEngine();
  const std::vector<Tuple> all =
      AllAnswers(*engine, LexMin(engine->arity()));
  ASSERT_GT(all.size(), 5u);

  const int fd = Connect();
  Client client(fd, fd, /*seed=*/5);
  Response response;
  ASSERT_TRUE(client.Call("enumerate limit=3", &response));
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(std::vector<Tuple>(all.begin(), all.begin() + 3),
            response.answers);
  EXPECT_EQ("1", FindToken(response.head, "limit").value_or(""));

  // from= resumes exactly where the client left off (inclusive cursor).
  ASSERT_TRUE(
      client.Call("enumerate from=" + FormatTuple(all[3]), &response));
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(std::vector<Tuple>(all.begin() + 3, all.end()),
            response.answers);

  // limit=0 is a valid "just touch the stream" request.
  ASSERT_TRUE(client.Call("enumerate limit=0", &response));
  EXPECT_TRUE(response.ok);
  EXPECT_TRUE(response.answers.empty());
  EXPECT_EQ(0, response.count);
  ::close(fd);
}

TEST_F(DaemonTest, TypedErrorsForBadProbes) {
  Start();
  const int fd = Connect();
  Client client(fd, fd, /*seed=*/6);
  Response response;
  ASSERT_TRUE(client.Call("test 1", &response));  // arity 1 vs 2
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(ErrorCode::kBadRequest, response.code);
  EXPECT_GT(response.rid, 0) << "typed errors must carry the request id";
  ASSERT_TRUE(client.Call("test 1 rid=606", &response));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(606, response.rid)
      << "a client-supplied rid must ride even an error response";
  ASSERT_TRUE(client.Call("test 99999,0", &response));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(ErrorCode::kOutOfRange, response.code);
  ASSERT_TRUE(client.Call("enumerate from=99999,0", &response));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(ErrorCode::kOutOfRange, response.code);
  // The connection survives typed errors.
  ASSERT_TRUE(client.Call("ping", &response));
  EXPECT_TRUE(response.ok);
  ::close(fd);
}

TEST_F(DaemonTest, MidStreamDeadlineAbortsWithTypedError) {
  Start();
  const int fd = Connect();
  Client client(fd, fd, /*seed=*/7);
  Response response;
  {
    fault_injection::ScopedFault fault("serve/stream/deadline",
                                       fault_injection::Mode::kOnce);
    ASSERT_TRUE(client.Call("enumerate", &response));
  }
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(ErrorCode::kDeadlineExceeded, response.code);
  // The typed abort names the epoch, so the client knows what the partial
  // prefix was consistent with.
  EXPECT_EQ(1, response.epoch);
  // The connection is still usable afterwards — a deadline is a request
  // outcome, not a connection fault.
  ASSERT_TRUE(client.Call("enumerate limit=2", &response));
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(2, response.count);
  ::close(fd);
}

TEST_F(DaemonTest, TinyDeadlineNeverHangs) {
  Start();
  const int fd = Connect();
  Client client(fd, fd, /*seed=*/8);
  Response response;
  // A 1ms deadline either completes in time or aborts typed — the
  // no-hang contract is that a final frame always arrives.
  ASSERT_TRUE(client.Call("enumerate deadline_ms=1", &response));
  EXPECT_TRUE(response.ok || response.code == ErrorCode::kDeadlineExceeded)
      << response.head;
  ::close(fd);
}

TEST_F(DaemonTest, InjectedRejectionRetriesOnceAndSucceeds) {
  Start();
  const int fd = Connect();
  Client client(fd, fd, /*seed=*/9);
  Response response;
  const int64_t rejected_before = CounterValue("serve.rejected");
  {
    fault_injection::ScopedFault fault("serve/admission/reject",
                                       fault_injection::Mode::kOnce);
    BackoffPolicy policy;
    policy.base_ms = 1;
    ASSERT_TRUE(client.Call("ping", &response));  // un-gated, no fault hit
    EXPECT_TRUE(response.ok);
    ASSERT_TRUE(client.CallWithRetry("test 0,1", policy, &response));
  }
  EXPECT_TRUE(response.ok) << response.head;
  EXPECT_EQ(1, client.retries());
  EXPECT_GE(client.backoff_ms(), 1);
  EXPECT_EQ(rejected_before + 1, CounterValue("serve.rejected"));
  ::close(fd);
}

TEST_F(DaemonTest, PersistentRejectionGivesUpTyped) {
  Start();
  const int fd = Connect();
  Client client(fd, fd, /*seed=*/10);
  Response response;
  {
    fault_injection::ScopedFault fault("serve/admission/reject",
                                       fault_injection::Mode::kEveryHit);
    BackoffPolicy policy;
    policy.max_attempts = 3;
    policy.base_ms = 1;
    policy.max_ms = 2;
    ASSERT_TRUE(client.CallWithRetry("test 0,1", policy, &response));
  }
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(ErrorCode::kRetryAfter, response.code);
  EXPECT_GE(response.retry_after_ms, 1);
  EXPECT_EQ(2, client.retries());
  ::close(fd);
}

TEST_F(DaemonTest, SaturationRejectsInsteadOfQueueing) {
  DaemonOptions options;
  options.max_inflight = 1;
  options.write_timeout_ms = 30000;
  Start(options, "E(x, y)", "gen:tree:2000:7");

  // Hold the single slot: an enumeration the client does not read stalls
  // the handler on a tiny send buffer mid-stream.
  const int busy_fd = Connect(/*sndbuf=*/1);
  FdStream busy(busy_fd, busy_fd);
  ASSERT_TRUE(WriteFrame(&busy, "enumerate"));
  WaitForStats([](const std::string& head) {
    return FindToken(head, "inflight").value_or("") == "1";
  });

  const int fd = Connect();
  Client client(fd, fd, /*seed=*/11);
  Response response;
  ASSERT_TRUE(client.Call("test 0,1", &response));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(ErrorCode::kRetryAfter, response.code);
  EXPECT_GE(response.retry_after_ms, options.retry_after_ms);

  // Drain the stalled stream; the slot frees and the probe goes through.
  Response stream;
  ASSERT_TRUE(ReadResponse(&busy, 1 << 20, &stream));
  EXPECT_TRUE(stream.ok);
  ::close(busy_fd);
  BackoffPolicy policy;
  policy.base_ms = 1;
  ASSERT_TRUE(client.CallWithRetry("test 0,1", policy, &response));
  EXPECT_TRUE(response.ok) << response.head;
  ::close(fd);
}

TEST_F(DaemonTest, ReloadSwapsEpochWithoutDisturbingPinnedStream) {
  DaemonOptions options;
  options.write_timeout_ms = 30000;
  Start(options, "E(x, y)", "gen:tree:2000:7");
  const auto old_engine = DirectEngine("gen:tree:2000:7");
  const std::vector<Tuple> old_answers =
      AllAnswers(*old_engine, LexMin(old_engine->arity()));

  const int64_t swaps_before = CounterValue("serve.epoch_swaps");

  // Stall a stream on epoch 1 mid-flight.
  const int pinned_fd = Connect(/*sndbuf=*/1);
  FdStream pinned(pinned_fd, pinned_fd);
  ASSERT_TRUE(WriteFrame(&pinned, "enumerate"));
  WaitForStats([](const std::string& head) {
    return FindToken(head, "inflight").value_or("") == "1";
  });

  // Swap the world underneath it.
  const int fd = Connect();
  Client client(fd, fd, /*seed=*/12);
  Response response;
  ASSERT_TRUE(client.Call("reload gen:tree:120:9", &response));
  ASSERT_TRUE(response.ok) << response.head;
  EXPECT_EQ(2, response.epoch);
  EXPECT_EQ("0", FindToken(response.head, "degraded").value_or(""));

  // New requests are served on the new epoch immediately (no blocking on
  // the still-draining old snapshot).
  ASSERT_TRUE(client.Call("test 0,1", &response));
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(2, response.epoch);
  const auto new_engine = DirectEngine("gen:tree:120:9");
  ASSERT_TRUE(client.Call("enumerate", &response));
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(AllAnswers(*new_engine, LexMin(new_engine->arity())),
            response.answers);
  EXPECT_EQ(2, response.epoch);

  // The pinned stream drains bit-identically on its original epoch: no
  // mixing, no abort.
  Response stream;
  ASSERT_TRUE(ReadResponse(&pinned, 1 << 20, &stream));
  EXPECT_TRUE(stream.ok);
  EXPECT_EQ(1, stream.epoch);
  EXPECT_EQ(old_answers, stream.answers);
  ::close(pinned_fd);

  EXPECT_EQ(swaps_before + 1, CounterValue("serve.epoch_swaps"));
  ::close(fd);
}

TEST_F(DaemonTest, ConcurrentReloadGetsRetryAfter) {
  Start();
  bool observed_busy = false;
  // A second reload arriving while one rebuilds must be rejected, not
  // queued. The rebuild must outlast the second request's arrival, so
  // grow the graph until the race window is comfortably wide.
  for (const char* spec :
       {"gen:grid:22500:1", "gen:grid:62500:1", "gen:grid:160000:1"}) {
    const int fd_a = Connect();
    const int fd_b = Connect();
    Response response_a;
    std::thread first([&] {
      Client client(fd_a, fd_a, /*seed=*/13);
      ASSERT_TRUE(
          client.Call(std::string("reload ") + spec, &response_a));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Client client(fd_b, fd_b, /*seed=*/14);
    Response response_b;
    ASSERT_TRUE(client.Call("reload gen:tree:50:2", &response_b));
    first.join();
    EXPECT_TRUE(response_a.ok) << response_a.head;
    ::close(fd_a);
    ::close(fd_b);
    if (!response_b.ok) {
      EXPECT_EQ(ErrorCode::kRetryAfter, response_b.code);
      // The reload lane advertises a scaled hint (4x the probe base).
      EXPECT_GE(response_b.retry_after_ms, 4 * DaemonOptions{}.retry_after_ms);
      observed_busy = true;
      break;
    }
  }
  EXPECT_TRUE(observed_busy)
      << "never caught the rebuild lane busy, even at 160k vertices";
}

TEST_F(DaemonTest, BudgetedReloadPublishesDegradedEngine) {
  Start();
  const int fd = Connect();
  Client client(fd, fd, /*seed=*/15);
  Response response;
  ASSERT_TRUE(
      client.Call("reload gen:bdeg:800:2 max_edge_work=1", &response));
  ASSERT_TRUE(response.ok) << response.head;
  EXPECT_EQ("1", FindToken(response.head, "degraded").value_or(""));
  // Degraded is still correct: answers match a directly-built engine
  // under the same budget.
  std::string error;
  graphs_.push_back(std::make_unique<ColoredGraph>());
  ASSERT_TRUE(BuildGraphFromSource("gen:bdeg:800:2", GraphParseLimits{},
                                   graphs_.back().get(), &error));
  EngineOptions degraded_options;
  degraded_options.budget.max_edge_work = 1;
  EnumerationEngine degraded(*graphs_.back(), query_, degraded_options);
  EXPECT_TRUE(degraded.stats().degraded);
  Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    Tuple t{static_cast<int64_t>(rng.NextBounded(degraded.universe())),
            static_cast<int64_t>(rng.NextBounded(degraded.universe()))};
    ASSERT_TRUE(client.Call("test " + FormatTuple(t), &response));
    ASSERT_TRUE(response.ok);
    EXPECT_EQ(std::string("ok test ") + (degraded.Test(t) ? "1" : "0") +
                  " epoch=2",
              StripRid(response.head));
  }
  ::close(fd);
}

TEST_F(DaemonTest, ReloadFailureKeepsServingOldEpoch) {
  Start();
  const int fd = Connect();
  Client client(fd, fd, /*seed=*/16);
  Response response;
  ASSERT_TRUE(client.Call("reload gen:nope:10:1", &response));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(ErrorCode::kBadRequest, response.code);
  ASSERT_TRUE(client.Call("stats", &response));
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(1, response.epoch);
  EXPECT_EQ(kSource, FindToken(response.head, "source").value_or(""));
  ::close(fd);
}

TEST_F(DaemonTest, BadFrameClosesConnectionBadRequestDoesNot) {
  Start();
  // Malformed request text: typed error, connection stays.
  const int fd = Connect();
  Client client(fd, fd, /*seed=*/17);
  Response response;
  ASSERT_TRUE(client.Call("frobnicate the graph", &response));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(ErrorCode::kBadRequest, response.code);
  ASSERT_TRUE(client.Call("ping", &response));
  EXPECT_TRUE(response.ok);
  ::close(fd);

  // Garbage length prefix: BAD_FRAME, then hang-up (no resync possible).
  const int raw_fd = Connect();
  const uint8_t huge[4] = {0xFF, 0xFF, 0xFF, 0x7F};
  ASSERT_EQ(4, ::write(raw_fd, huge, 4));
  FdStream raw(raw_fd, raw_fd);
  Response last;
  ASSERT_TRUE(ReadResponse(&raw, 1 << 20, &last));
  EXPECT_FALSE(last.ok);
  EXPECT_EQ(ErrorCode::kBadFrame, last.code);
  std::string payload;
  EXPECT_EQ(FrameStatus::kEof, ReadFrame(&raw, 1 << 20, &payload));
  ::close(raw_fd);

  // The daemon is unfazed either way.
  const int fd2 = Connect();
  Client after(fd2, fd2, /*seed=*/18);
  ASSERT_TRUE(after.Call("ping", &response));
  EXPECT_TRUE(response.ok);
  ::close(fd2);
}

TEST_F(DaemonTest, WorkerDeathKillsOneConnectionNotTheDaemon) {
  Start();
  const int64_t deaths_before = CounterValue("serve.worker_deaths");
  const int fd = Connect();
  Client client(fd, fd, /*seed=*/19);
  Response response;
  {
    fault_injection::ScopedFault fault("serve/worker/death",
                                       fault_injection::Mode::kOnce);
    EXPECT_FALSE(client.Call("ping", &response));
  }
  EXPECT_TRUE(response.transport_error);
  EXPECT_EQ(deaths_before + 1, CounterValue("serve.worker_deaths"));
  ::close(fd);

  const int fd2 = Connect();
  Client survivor(fd2, fd2, /*seed=*/20);
  ASSERT_TRUE(survivor.Call("ping", &response));
  EXPECT_TRUE(response.ok);
  ::close(fd2);
}

TEST_F(DaemonTest, MidStreamClientDeathDropsConnectionOnly) {
  DaemonOptions options;
  options.write_timeout_ms = 30000;
  Start(options, "E(x, y)", "gen:tree:2000:7");
  const int64_t dropped_before = CounterValue("serve.dropped_conns");

  const int fd = Connect(/*sndbuf=*/1);
  FdStream stream(fd, fd);
  ASSERT_TRUE(WriteFrame(&stream, "enumerate"));
  // Read a couple of answers, then die mid-stream.
  std::string payload;
  ASSERT_EQ(FrameStatus::kOk, ReadFrame(&stream, 1 << 20, &payload));
  ASSERT_EQ(FrameStatus::kOk, ReadFrame(&stream, 1 << 20, &payload));
  ::close(fd);

  // The handler notices (EPIPE or write stall), drops the connection, and
  // the daemon keeps serving.
  const int fd2 = Connect();
  Client client(fd2, fd2, /*seed=*/21);
  Response response;
  ASSERT_TRUE(client.Call("ping", &response));
  EXPECT_TRUE(response.ok);
  for (int i = 0; i < 2000; ++i) {
    if (CounterValue("serve.dropped_conns") > dropped_before) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(CounterValue("serve.dropped_conns"), dropped_before);
  ::close(fd2);
}

TEST_F(DaemonTest, MetricsRequestDumpsRegistryJson) {
  Start();
  const int fd = Connect();
  Client client(fd, fd, /*seed=*/22);
  Response response;
  ASSERT_TRUE(client.Call("test 0,1", &response));
  ASSERT_TRUE(client.Call("metrics", &response));
  EXPECT_TRUE(response.ok);
  EXPECT_EQ("ok metrics", StripRid(response.head));
  EXPECT_NE(std::string::npos, response.body.find("nwd-metrics/1"));
  EXPECT_NE(std::string::npos, response.body.find("serve.requests"));
  EXPECT_NE(std::string::npos, response.body.find("serve.epoch"));
  ::close(fd);
}

TEST_F(DaemonTest, MetricsPromFormatRendersExposition) {
  Start();
  const int fd = Connect();
  Client client(fd, fd, /*seed=*/40);
  Response response;
  ASSERT_TRUE(client.Call("test 0,1", &response));
  ASSERT_TRUE(client.Call("metrics format=prom", &response));
  EXPECT_TRUE(response.ok);
  EXPECT_EQ("ok metrics", StripRid(response.head));
  // Prometheus text exposition, not the JSON schema: TYPE lines, _total
  // counters, cumulative buckets with an +Inf bound, derived quantiles.
  EXPECT_EQ(std::string::npos, response.body.find("nwd-metrics/1"));
  EXPECT_NE(std::string::npos,
            response.body.find("# TYPE nwd_serve_requests_total counter"));
  EXPECT_NE(std::string::npos,
            response.body.find("# TYPE nwd_serve_request_ns histogram"));
  EXPECT_NE(std::string::npos,
            response.body.find("nwd_serve_request_ns_bucket{le=\"+Inf\"}"));
  EXPECT_NE(std::string::npos, response.body.find("nwd_serve_request_ns_p99"));
  ::close(fd);
}

TEST_F(DaemonTest, StatsReportHistogramQuantiles) {
  Start();
  // Latency histograms record only while the metrics plane is on (the
  // clock reads are the gated cost); quantiles need real samples.
  obs::SetMetricsEnabled(true);
  const int fd = Connect();
  Client client(fd, fd, /*seed=*/41);
  Response response;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.Call("test 0,1", &response));
  }
  obs::SetMetricsEnabled(false);
  ASSERT_TRUE(client.Call("stats", &response));
  ASSERT_TRUE(response.ok) << response.head;
  // serve.request_ns has samples by now, so its p50/p99 must be real.
  const int64_t p50 =
      std::stoll(FindToken(response.head, "request_ns_p50").value_or("-1"));
  const int64_t p99 =
      std::stoll(FindToken(response.head, "request_ns_p99").value_or("-1"));
  EXPECT_GT(p50, 0);
  EXPECT_GE(p99, p50);
  // The drain histogram is present even before any swap (possibly 0).
  EXPECT_TRUE(FindToken(response.head, "swap_drain_ns_p50").has_value());
  EXPECT_TRUE(FindToken(response.head, "swap_drain_ns_p99").has_value());
  ::close(fd);
}

TEST_F(DaemonTest, DumpVerbReturnsFlightHistory) {
  Start();
  const int fd = Connect();
  Client client(fd, fd, /*seed=*/42);
  Response response;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Call("test 0,1", &response));
  }
  ASSERT_TRUE(client.Call("dump", &response));
  ASSERT_TRUE(response.ok) << response.head;
  EXPECT_GT(std::stoll(FindToken(response.head, "events").value_or("-1")), 0);
  EXPECT_GT(std::stoll(FindToken(response.head, "rings").value_or("-1")), 0);
  EXPECT_EQ("0", FindToken(response.head, "torn").value_or(""));
  EXPECT_NE(std::string::npos, response.body.find("flightdump"));
  EXPECT_NE(std::string::npos, response.body.find("kind=request_start"));
  EXPECT_NE(std::string::npos, response.body.find("kind=request_end"));
  ::close(fd);
}

// The acceptance case for request-scoped tracing: one client-supplied id
// correlates the wire frame, the Chrome trace rendered from the flight
// rings, and the flight events of a single request.
TEST_F(DaemonTest, RidCorrelatesWireTraceAndFlightEvents) {
  Start();
  const int fd = Connect();
  Client client(fd, fd, /*seed=*/43);
  Response response;
  constexpr uint64_t kRid = 424242;
  ASSERT_TRUE(client.Call("test 0,1 rid=" + std::to_string(kRid),
                          &response));
  ASSERT_TRUE(response.ok) << response.head;

  // Wire: the daemon adopted the client's id on the final frame.
  EXPECT_EQ(static_cast<int64_t>(kRid), response.rid);
  EXPECT_NE(std::string::npos,
            response.head.find(" rid=" + std::to_string(kRid)));

  // Trace: the request's events carry the same id in their args.
  std::ostringstream trace;
  obs::FlightRecorder::Global().WriteChromeTrace(trace);
  EXPECT_NE(std::string::npos,
            trace.str().find("\"rid\":" + std::to_string(kRid)));

  // Flight: the recorder's request start/end events carry it too.
  ASSERT_TRUE(client.Call("dump", &response));
  ASSERT_TRUE(response.ok) << response.head;
  EXPECT_NE(std::string::npos,
            response.body.find("rid=" + std::to_string(kRid)));
  ::close(fd);
}

// The labels of the `kind=span` lines of a dump body recorded under `rid`.
std::set<std::string> SpanLabelsForRid(const std::string& dump,
                                       uint64_t rid) {
  std::set<std::string> labels;
  std::istringstream lines(dump);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find(" kind=span ") == std::string::npos) continue;
    if (FindToken(line, "rid") != std::to_string(rid)) continue;
    labels.insert(FindToken(line, "label").value_or(""));
  }
  return labels;
}

// A reload's and an update's stages reach `dump` as span events under the
// request's rid, with no switch set: the rid of a slow reload or update
// names the stage that was slow. The far query has a Case I position, so
// the reload builds the cover, the kernels and the skips.
TEST_F(DaemonTest, ReloadAndUpdateStagesDumpUnderTheirRid) {
  Start(DaemonOptions{}, "dist(x, y) > 1");
  const int fd = Connect();
  Client client(fd, fd, /*seed=*/45);
  Response response;
  // A 30x30 grid: the chord 0-2 in its corner damages few enough bags
  // that the update is repaired in place rather than rebuilt.
  constexpr uint64_t kReloadRid = 616161;
  ASSERT_TRUE(client.Call(
      "reload gen:grid:900:1 rid=" + std::to_string(kReloadRid), &response));
  ASSERT_TRUE(response.ok) << response.head;
  constexpr uint64_t kUpdateRid = 626262;
  ASSERT_TRUE(client.Call(
      "update add:0,2 wait=1 rid=" + std::to_string(kUpdateRid), &response));
  ASSERT_TRUE(response.ok) << response.head;
  ASSERT_TRUE(client.Call("dump", &response));
  ASSERT_TRUE(response.ok) << response.head;

  const std::set<std::string> reload =
      SpanLabelsForRid(response.body, kReloadRid);
  for (const char* stage :
       {"engine/prepare", "engine/cover", "engine/kernels", "engine/oracle",
        "engine/lists", "engine/skips", "engine/compile",
        "engine/extendable"}) {
    EXPECT_EQ(1u, reload.count(stage)) << stage << "\n" << response.body;
  }
  const std::set<std::string> update =
      SpanLabelsForRid(response.body, kUpdateRid);
  for (const char* stage :
       {"dynamic/apply", "dynamic/sync", "engine/repair",
        "engine/repair/cover", "engine/repair/skips", "engine/compile",
        "engine/repair/extendable"}) {
    EXPECT_EQ(1u, update.count(stage)) << stage << "\n" << response.body;
  }
  ::close(fd);
}

TEST_F(DaemonTest, SlowRequestCaptureFiresWithWireRid) {
  DaemonOptions options;
  options.slow_request_ms = 1;  // any reload of a real graph exceeds this
  Start(options);
  const int fd = Connect();
  Client client(fd, fd, /*seed=*/44);
  Response response;
  constexpr uint64_t kRid = 515151;
  const int64_t captures_before =
      obs::FlightRecorder::Global().slow_captures();
  ASSERT_TRUE(client.Call("reload gen:tree:20000:3 rid=" +
                              std::to_string(kRid),
                          &response));
  ASSERT_TRUE(response.ok) << response.head;
  EXPECT_EQ(static_cast<int64_t>(kRid), response.rid);
  // The capture runs on the worker thread after the reply frame is
  // already on the wire; give it a moment to land.
  for (int i = 0;
       i < 2000 &&
       obs::FlightRecorder::Global().slow_captures() <= captures_before;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(obs::FlightRecorder::Global().slow_captures(), captures_before);
  const std::optional<obs::FlightRecorder::SlowCapture> capture =
      obs::FlightRecorder::Global().LastSlowCapture();
  ASSERT_TRUE(capture.has_value());
  EXPECT_EQ(kRid, capture->rid) << "the eager capture must attribute the "
                                   "slow request by its wire rid";
  EXPECT_GE(capture->latency_ns, 1'000'000);
  ::close(fd);
}

TEST_F(DaemonTest, ShutdownRequestStopsTheDaemon) {
  Start();
  const int fd = Connect();
  Client client(fd, fd, /*seed=*/23);
  Response response;
  ASSERT_TRUE(client.Call("shutdown", &response));
  EXPECT_TRUE(response.ok);
  EXPECT_EQ("ok shutdown", StripRid(response.head));
  daemon_->WaitUntilStopped();
  EXPECT_TRUE(daemon_->stopping());
  std::string payload;
  FdStream stream(fd, fd);
  EXPECT_NE(FrameStatus::kOk, ReadFrame(&stream, 1 << 20, &payload));
  ::close(fd);
}

TEST_F(DaemonTest, ShutdownCanBeDisabled) {
  DaemonOptions options;
  options.allow_shutdown = false;
  options.allow_reload = false;
  Start(options);
  const int fd = Connect();
  Client client(fd, fd, /*seed=*/24);
  Response response;
  ASSERT_TRUE(client.Call("shutdown", &response));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(ErrorCode::kBadRequest, response.code);
  ASSERT_TRUE(client.Call("reload gen:tree:50:1", &response));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(ErrorCode::kBadRequest, response.code);
  EXPECT_FALSE(daemon_->stopping());
  ASSERT_TRUE(client.Call("ping", &response));
  EXPECT_TRUE(response.ok);
  ::close(fd);
}

TEST_F(DaemonTest, UpdatePatchesLiveSnapshotWithoutEpochSwap) {
  Start();
  const int64_t swaps_before = CounterValue("serve.epoch_swaps");
  const int fd = Connect();
  Client client(fd, fd, /*seed=*/31);
  Response response;

  // Mutate a reference copy of the served graph identically.
  graphs_.push_back(std::make_unique<ColoredGraph>());
  ColoredGraph& reference = *graphs_.back();
  std::string error;
  ASSERT_TRUE(
      BuildGraphFromSource(kSource, GraphParseLimits{}, &reference, &error))
      << error;
  const std::vector<GraphEdit> edits = {GraphEdit::AddEdge(0, 9),
                                        GraphEdit::SetColor(5, 0, true)};
  int64_t changed = 0;
  for (const GraphEdit& e : edits) changed += reference.ApplyInPlace(e) ? 1 : 0;

  ASSERT_TRUE(client.Call("update add:0,9;color:5,0,1 wait=1", &response));
  ASSERT_TRUE(response.ok) << response.head;
  EXPECT_EQ(1, response.epoch) << "update must not swap the epoch";
  EXPECT_EQ(std::to_string(changed),
            FindToken(response.head, "applied").value_or(""));
  EXPECT_EQ("2", FindToken(response.head, "total").value_or(""));
  EXPECT_EQ("1", FindToken(response.head, "insync").value_or(""))
      << "wait=1 must not reply before the repair lane drains";

  // Answers now reflect the edits, still on epoch 1.
  EnumerationEngine patched(reference, query_, EngineOptions{});
  ASSERT_TRUE(client.Call("enumerate", &response));
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(1, response.epoch);
  EXPECT_EQ(AllAnswers(patched, LexMin(patched.arity())), response.answers);
  ASSERT_TRUE(client.Call("test 0,9", &response));
  ASSERT_TRUE(response.ok);
  EXPECT_EQ("ok test 1 epoch=1", StripRid(response.head));

  // Replaying the same edits is a no-op batch.
  ASSERT_TRUE(client.Call("update add:0,9;color:5,0,1", &response));
  ASSERT_TRUE(response.ok);
  EXPECT_EQ("0", FindToken(response.head, "applied").value_or(""));

  // Stats surface the edit accounting on the unchanged epoch.
  ASSERT_TRUE(client.Call("stats", &response));
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(1, response.epoch);
  EXPECT_EQ(std::to_string(changed),
            FindToken(response.head, "edits").value_or(""));
  EXPECT_EQ(swaps_before, CounterValue("serve.epoch_swaps"));
  ::close(fd);
}

TEST_F(DaemonTest, UpdateTypedErrorsLeaveConnectionUsable) {
  Start();
  const int fd = Connect();
  Client client(fd, fd, /*seed=*/32);
  Response response;
  ASSERT_TRUE(client.Call("update add:0,999999", &response));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(ErrorCode::kOutOfRange, response.code);
  ASSERT_TRUE(client.Call("update color:0,9,1", &response));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(ErrorCode::kOutOfRange, response.code);
  ASSERT_TRUE(client.Call("update frob:1,2", &response));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(ErrorCode::kBadRequest, response.code);
  // A rejected batch is all-or-nothing: nothing was applied.
  ASSERT_TRUE(client.Call("stats", &response));
  ASSERT_TRUE(response.ok);
  EXPECT_EQ("0", FindToken(response.head, "edits").value_or(""));
  ASSERT_TRUE(client.Call("ping", &response));
  EXPECT_TRUE(response.ok);
  ::close(fd);
}

TEST_F(DaemonTest, UpdateCanBeDisabled) {
  DaemonOptions options;
  options.allow_update = false;
  Start(options);
  const int fd = Connect();
  Client client(fd, fd, /*seed=*/33);
  Response response;
  ASSERT_TRUE(client.Call("update add:0,1", &response));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(ErrorCode::kBadRequest, response.code);
  ASSERT_TRUE(client.Call("ping", &response));
  EXPECT_TRUE(response.ok);
  ::close(fd);
}

TEST_F(DaemonTest, UpdateDuringRebuildGetsRetryAfter) {
  Start();
  bool observed_busy = false;
  // An update racing an in-flight reload must be rejected, not silently
  // discarded by the epoch swap. Grow the reload until the race window
  // is comfortably wide (same ladder as ConcurrentReloadGetsRetryAfter).
  for (const char* spec :
       {"gen:grid:22500:1", "gen:grid:62500:1", "gen:grid:160000:1"}) {
    const int fd_a = Connect();
    const int fd_b = Connect();
    Response response_a;
    std::thread first([&] {
      Client client(fd_a, fd_a, /*seed=*/34);
      ASSERT_TRUE(client.Call(std::string("reload ") + spec, &response_a));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Client client(fd_b, fd_b, /*seed=*/35);
    Response response_b;
    ASSERT_TRUE(client.Call("update add:0,1", &response_b));
    first.join();
    EXPECT_TRUE(response_a.ok) << response_a.head;
    ::close(fd_a);
    ::close(fd_b);
    if (!response_b.ok) {
      EXPECT_EQ(ErrorCode::kRetryAfter, response_b.code);
      EXPECT_GE(response_b.retry_after_ms,
                4 * DaemonOptions{}.retry_after_ms);
      observed_busy = true;
      break;
    }
  }
  EXPECT_TRUE(observed_busy)
      << "never caught the rebuild lane busy, even at 160k vertices";
}

TEST_F(DaemonTest, UpdateAccountingClosesIdentity) {
  Start();
  const int64_t requests0 = CounterValue("serve.requests");
  const int64_t bad_frames0 = CounterValue("serve.bad_frames");
  const int64_t ok0 = CounterValue("serve.responses_ok");
  const int64_t err0 = CounterValue("serve.responses_err");
  const int64_t dropped0 = CounterValue("serve.dropped_conns");
  const int64_t deaths0 = CounterValue("serve.worker_deaths");
  const int64_t updates0 = CounterValue("serve.updates");
  const int64_t update_edits0 = CounterValue("serve.update_edits");

  const int fd = Connect();
  Client client(fd, fd, /*seed=*/36);
  Response response;
  // A mix of successful, no-op, and rejected updates plus probes: every
  // request must land in exactly one accounting bucket.
  ASSERT_TRUE(client.Call("update add:0,3;add:0,4 wait=1", &response));
  EXPECT_TRUE(response.ok);
  const int64_t applied_first =
      std::stoll(FindToken(response.head, "applied").value_or("-1"));
  ASSERT_GE(applied_first, 0);
  ASSERT_TRUE(client.Call("update add:0,3", &response));  // no-op now
  EXPECT_TRUE(response.ok);
  EXPECT_EQ("0", FindToken(response.head, "applied").value_or(""));
  ASSERT_TRUE(client.Call("update add:0,999999", &response));
  EXPECT_FALSE(response.ok);
  ASSERT_TRUE(client.Call("update nonsense", &response));
  EXPECT_FALSE(response.ok);
  ASSERT_TRUE(client.Call("test 0,3", &response));
  EXPECT_TRUE(response.ok);
  // The dump verb must land in the same accounting buckets as any other
  // request — forensics reads may not unbalance the identity.
  ASSERT_TRUE(client.Call("dump", &response));
  EXPECT_TRUE(response.ok);
  ::close(fd);

  EXPECT_EQ(updates0 + 2, CounterValue("serve.updates"))
      << "only accepted batches count as updates";
  EXPECT_EQ(update_edits0 + applied_first, CounterValue("serve.update_edits"));
  bool balanced = false;
  for (int i = 0; i < 5000 && !balanced; ++i) {
    balanced = (CounterValue("serve.requests") - requests0) +
                   (CounterValue("serve.bad_frames") - bad_frames0) ==
               (CounterValue("serve.responses_ok") - ok0) +
                   (CounterValue("serve.responses_err") - err0) +
                   (CounterValue("serve.dropped_conns") - dropped0) +
                   (CounterValue("serve.worker_deaths") - deaths0);
    if (!balanced) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(balanced) << "serve.* accounting identity never closed after "
                           "the update mix";
}

TEST_F(DaemonTest, TcpListenerServesLoopbackConnections) {
  Start();
  std::string error;
  ASSERT_TRUE(daemon_->ListenTcp(/*port=*/0, &error)) << error;
  ASSERT_GT(daemon_->tcp_port(), 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(daemon_->tcp_port()));
  ASSERT_EQ(0, ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                         sizeof(addr)));
  Client client(fd, fd, /*seed=*/25);
  Response response;
  ASSERT_TRUE(client.Call("ping", &response));
  EXPECT_TRUE(response.ok);
  ASSERT_TRUE(client.Call("test 0,1", &response));
  EXPECT_TRUE(response.ok);
  ::close(fd);
  daemon_->Stop();
}

}  // namespace
}  // namespace serve
}  // namespace nwd
