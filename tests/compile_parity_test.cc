// Compiled-answer parity: the bytecode executor is the engine's only LNF
// answer path, so every answer surface — Test, Next, serial and parallel
// enumeration — must equal fo::NaiveEvaluator's across random queries and
// random graphs from every generator class, with the answer-path fault
// armed, on budget-tripped (degraded) engines, and across live epoch
// swaps in the serving daemon. The naive evaluator is the only oracle;
// any divergence is a compiler or executor bug, never a tie to break.
//
// Runs under the TSan and ASan twins too (ctest -L tsan / -L asan): the
// compiled programs are shared immutably across probe threads, and the
// per-op hit counters are the only mutation.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "compile/program.h"
#include "enumerate/engine.h"
#include "enumerate/enumerator.h"
#include "fo/naive_eval.h"
#include "fo/parser.h"
#include "fo/printer.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/wire.h"
#include "tests/property_common.h"
#include "util/fault_injection.h"
#include "util/lex.h"
#include "util/rng.h"

namespace nwd {
namespace {

using testing_common::RandomGraph;
using testing_common::RandomQuery;

std::vector<Tuple> Enumerate(const EnumerationEngine& engine) {
  ConstantDelayEnumerator enumerator(engine);
  std::vector<Tuple> out;
  for (auto t = enumerator.NextSolution(); t.has_value();
       t = enumerator.NextSolution()) {
    out.push_back(*t);
  }
  return out;
}

// The smallest solution >= from in the naive (sorted) solution set.
std::optional<Tuple> NaiveNext(const std::vector<Tuple>& solutions,
                               const Tuple& from) {
  const auto it = std::lower_bound(
      solutions.begin(), solutions.end(), from,
      [](const Tuple& a, const Tuple& b) { return LexCompare(a, b) < 0; });
  if (it == solutions.end()) return std::nullopt;
  return *it;
}

Tuple RandomTuple(const ColoredGraph& g, int arity, Rng* rng) {
  Tuple t;
  for (int i = 0; i < arity; ++i) {
    t.push_back(static_cast<Vertex>(
        rng->NextBounded(static_cast<uint64_t>(g.NumVertices()))));
  }
  return t;
}

// Asserts every answer surface of `engine` equals the naive evaluator's,
// and that an engine running the LNF machinery answers through a
// compiled program. Returns void so ASSERT_* can bail out of the
// caller's round.
void ExpectMatchesNaive(const EnumerationEngine& engine, const ColoredGraph& g,
                        const fo::Query& q, Rng* rng) {
  const std::string label = fo::ToString(q) + " on " + g.DebugString();
  if (!engine.used_fallback()) {
    ASSERT_NE(engine.compiled_query(), nullptr) << label;
  }
  fo::NaiveEvaluator naive(g);
  const std::vector<Tuple> expected = naive.AllSolutions(q);
  ASSERT_EQ(Enumerate(engine), expected) << label;
  ASSERT_EQ(engine.EnumerateParallel(3), expected) << label;
  const int arity = engine.arity();
  for (int trial = 0; trial < 60; ++trial) {
    const Tuple t = RandomTuple(g, arity, rng);
    ASSERT_EQ(engine.Test(t), naive.TestTuple(q, t))
        << label << " test tuple " << serve::FormatTuple(t);
    ASSERT_EQ(engine.Next(t), NaiveNext(expected, t))
        << label << " next tuple " << serve::FormatTuple(t);
  }
}

EngineOptions SmallGraphOptions() {
  EngineOptions options;
  options.naive_cutoff = 10;
  options.oracle.small_cutoff = 8;
  return options;
}

class CompileParity : public ::testing::TestWithParam<int> {};

// The core sweep: random binary/ternary queries on random graphs.
TEST_P(CompileParity, RandomQueriesRandomGraphs) {
  Rng rng(7000 + GetParam());
  int lnf_rounds = 0;
  for (int round = 0; round < 4; ++round) {
    const int arity = (round % 2 == 0) ? 2 : 3;
    const ColoredGraph g =
        RandomGraph(round + GetParam(), arity == 2 ? 45 : 24, &rng);
    const fo::Query q = RandomQuery(arity, 2, &rng);
    const EnumerationEngine engine(g, q, SmallGraphOptions());
    if (!engine.used_fallback()) ++lnf_rounds;
    ExpectMatchesNaive(engine, g, q, &rng);
  }
  // A sweep that never exercised the compiled path would prove nothing.
  EXPECT_GT(lnf_rounds, 0);
}

// The answer-path fault forces the executor's ball-cache bypass
// (AnchorBall's fresh-BFS route) in the extendable descents and in every
// probe; answers must not move.
TEST_P(CompileParity, BallCacheFaultIsBehaviorPreserving) {
  Rng rng(7700 + GetParam());
  const ColoredGraph g = RandomGraph(GetParam(), 45, &rng);
  const fo::Query q = RandomQuery(2, 2, &rng);
  fault_injection::ScopedFault fault("answer/ball_cache",
                                     fault_injection::Mode::kEveryHit);
  const EnumerationEngine engine(g, q, SmallGraphOptions());
  ExpectMatchesNaive(engine, g, q, &rng);
}

// A budget trip degrades the engine to the lazy baseline and discards the
// compiled program (it borrows the dropped case lists); the degraded
// engine must still answer exactly.
TEST_P(CompileParity, DegradedEngineDropsProgramAndStaysIdentical) {
  Rng rng(8400 + GetParam());
  EngineOptions tripped_options = SmallGraphOptions();
  tripped_options.budget.max_edge_work = 1;
  const ColoredGraph g = RandomGraph(GetParam(), 45, &rng);
  const fo::Query q = RandomQuery(2, 2, &rng);
  const EnumerationEngine tripped(g, q, tripped_options);
  ASSERT_TRUE(tripped.stats().degraded) << "work cap never tripped";
  EXPECT_EQ(tripped.compiled_query(), nullptr);
  ExpectMatchesNaive(tripped, g, q, &rng);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CompileParity, ::testing::Range(0, 4));

}  // namespace

// --- Daemon epoch swaps -------------------------------------------------
// A daemon serves one query across a live epoch swap; before and after,
// its enumeration and its test/next replies must equal the naive
// evaluator's over the snapshot's graph.

namespace serve {
namespace {

struct DaemonAnswers {
  std::vector<Tuple> enumerated;
  std::vector<std::string> probe_heads;
};

class DaemonHarness {
 public:
  explicit DaemonHarness(const fo::Query& query)
      : daemon_(std::make_unique<Daemon>(query, DaemonOptions{})) {}

  void Load(const std::string& source) {
    std::string error;
    ASSERT_TRUE(daemon_->LoadInitialSnapshot(source, &error)) << error;
  }

  void Reload(const std::string& source, int expected_epoch) {
    Response response;
    ASSERT_TRUE(Call("reload " + source, &response));
    ASSERT_TRUE(response.ok) << response.head;
    EXPECT_EQ(expected_epoch, response.epoch);
  }

  // The metrics verb's JSON body (empty on failure).
  std::string Metrics() {
    Response response;
    EXPECT_TRUE(Call("metrics", &response));
    EXPECT_TRUE(response.ok) << response.head;
    return response.body;
  }

  // Full enumeration plus a deterministic sweep of test/next probes.
  DaemonAnswers Collect(int64_t num_vertices, int arity) {
    DaemonAnswers answers;
    Response response;
    EXPECT_TRUE(Call("enumerate", &response));
    EXPECT_TRUE(response.ok) << response.head;
    answers.enumerated = response.answers;
    Rng rng(31337);
    for (int trial = 0; trial < 40; ++trial) {
      Tuple t;
      for (int i = 0; i < arity; ++i) {
        t.push_back(static_cast<Vertex>(
            rng.NextBounded(static_cast<uint64_t>(num_vertices))));
      }
      for (const char* op : {"test ", "next "}) {
        EXPECT_TRUE(Call(op + FormatTuple(t), &response));
        EXPECT_TRUE(response.ok) << response.head;
        // Strip the per-request id: the two daemons mint different rids
        // but must agree on everything else in the head.
        std::string head = response.head;
        const size_t rid = head.rfind(" rid=");
        if (rid != std::string::npos) head.resize(rid);
        answers.probe_heads.push_back(std::move(head));
      }
    }
    return answers;
  }

 private:
  bool Call(const std::string& request, Response* response) {
    int sv[2] = {-1, -1};
    EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
    daemon_->ServeFd(sv[1], sv[1]);
    Client client(sv[0], sv[0], /*seed=*/7);
    const bool ok = client.Call(request, response);
    ::close(sv[0]);
    return ok;
  }

  std::unique_ptr<Daemon> daemon_;
};

// The daemon's answers for `source` as the naive evaluator gives them:
// the same probe sweep as DaemonHarness::Collect, with the heads the
// daemon formats for them at `epoch`.
DaemonAnswers NaiveAnswers(const std::string& source, const fo::Query& query,
                           int64_t epoch) {
  DaemonAnswers answers;
  ColoredGraph g;
  std::string error;
  EXPECT_TRUE(BuildGraphFromSource(source, GraphParseLimits{}, &g, &error))
      << error;
  fo::NaiveEvaluator naive(g);
  answers.enumerated = naive.AllSolutions(query);
  const std::string suffix = " epoch=" + std::to_string(epoch);
  Rng rng(31337);
  for (int trial = 0; trial < 40; ++trial) {
    Tuple t;
    for (int i = 0; i < query.arity(); ++i) {
      t.push_back(static_cast<Vertex>(
          rng.NextBounded(static_cast<uint64_t>(g.NumVertices()))));
    }
    answers.probe_heads.push_back(
        std::string("ok test ") + (naive.TestTuple(query, t) ? "1" : "0") +
        suffix);
    const std::optional<Tuple> next = NaiveNext(answers.enumerated, t);
    answers.probe_heads.push_back(
        "ok next " + (next.has_value() ? FormatTuple(*next) : "none") +
        suffix);
  }
  return answers;
}

TEST(CompileParityDaemon, AnswersMatchAcrossEpochSwaps) {
  const fo::ParseResult parsed = fo::ParseFormula("dist(x, y) > 1 & C0(x)");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  constexpr const char* kFirst = "gen:tree:150:7";
  constexpr const char* kSecond = "gen:bdeg:120:9";

  DaemonHarness daemon(parsed.query);
  daemon.Load(kFirst);
  const DaemonAnswers first = daemon.Collect(150, 2);
  daemon.Reload(kSecond, /*expected_epoch=*/2);
  const DaemonAnswers second = daemon.Collect(120, 2);

  // The compilation plane is visible through the daemon's metrics verb
  // (values are process-global across tests, so assert the instruments
  // and that the program counter moved past the two builds above).
  const std::string metrics = daemon.Metrics();
  EXPECT_NE(metrics.find("compile.programs"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("compile.exec.op.find_skip"), std::string::npos);
  EXPECT_GE(
      obs::MetricsRegistry::Global().GetCounter("compile.programs")->value(),
      2);

  const DaemonAnswers naive_first = NaiveAnswers(kFirst, parsed.query, 1);
  const DaemonAnswers naive_second = NaiveAnswers(kSecond, parsed.query, 2);
  EXPECT_FALSE(first.enumerated.empty());
  EXPECT_EQ(first.enumerated, naive_first.enumerated);
  EXPECT_EQ(first.probe_heads, naive_first.probe_heads);
  EXPECT_EQ(second.enumerated, naive_second.enumerated);
  EXPECT_EQ(second.probe_heads, naive_second.probe_heads);
}

}  // namespace
}  // namespace serve
}  // namespace nwd
