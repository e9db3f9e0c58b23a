// nwdq — a tiny command-line query runner over colored-graph files.
//
// Usage:
//   nwdq <graph-file> '<query>' [--limit N] [--count] [--test a,b,...]
//        [--next a,b,...] [--explain] [--dump-program] [--color Name=idx]...
//        [--budget-ms N] [--max-edge-work N] [--max-avg-degree X]
//        [--probe-file FILE] [--answer-threads N]
//        [--metrics-json FILE] [--metrics-prom FILE] [--trace-json FILE]
//
// Examples:
//   nwdq city.g '(x, y) := dist(x, y) <= 4 & C0(y)' --limit 10
//   nwdq net.g  '(x, y) := Blue(y) & dist(x,y) > 2' --color Blue=0 --count
//   nwdq net.g  '(x, y) := E(x, y)' --test 3,7
//   nwdq web.g  '(x, y) := E(x, y)' --budget-ms 100   # degrade, don't hang
//   nwdq net.g  '(x, y) := E(x, y)' --probe-file probes.txt
//               --answer-threads 8                    # batched serving
//
// --explain prints the LNF normal form the engine enumerates from;
// --dump-program prints the flat bytecode the engine compiled it to (a
// fallback engine has none), then exits.
//
// --metrics-json / --metrics-prom / --trace-json write the observability
// artifacts when the run finishes: a metrics snapshot (nwd-metrics/1
// schema or Prometheus text exposition, fleet-scrapeable with
// tools/nwd-stat; these flags turn metrics on) and a chrome://tracing
// timeline rendered from the always-on flight recorder: every prepare
// stage and batch call as a span, every other recorded event as an
// instant, the newest NWD_FLIGHT_CAPACITY events per thread.
//
// A probe file holds one probe per line: `test a,b,...`, `next a,b,...`,
// or a bare tuple `a,b,...` (treated as test). Blank lines and lines
// starting with '#' are skipped; CRLF line endings and a missing final
// newline are tolerated. Answers print in input order; with
// --answer-threads N the probes are served by N concurrent workers
// (answers are bit-identical to serial). --answer-threads also switches
// plain enumeration to the sharded parallel enumerator.
//
// Demonstrates downstream-tool usage of the full public API: graph I/O,
// the parser, the engine (including budgeted preprocessing with graceful
// degradation), counting, testing, next-solution and constant-delay
// enumeration.
//
// Error contract: exit 0 on success (including degraded runs — answers
// stay correct), 1 on bad data (unreadable/malformed graph, bad query,
// out-of-range tuples), 2 on usage errors (unknown or malformed flags).
// Every failure prints a one-line diagnostic to stderr; no input aborts
// the process.

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "compile/program.h"
#include "enumerate/counting.h"
#include "enumerate/engine.h"
#include "enumerate/lnf.h"
#include "enumerate/enumerator.h"
#include "fo/analysis.h"
#include "fo/parser.h"
#include "fo/printer.h"
#include "graph/io.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/prom.h"
#include "util/timer.h"

namespace {

// Strict numeric flag parsing: the whole argument must be one number
// (atoll-style silent truncation turns "--limit 1x0" into 1).
bool ParseInt64Flag(const char* flag, const char* text, int64_t min_value,
                    int64_t* out) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < min_value) {
    std::fprintf(stderr, "error: %s expects an integer >= %lld, got '%s'\n",
                 flag, static_cast<long long>(min_value), text);
    return false;
  }
  *out = value;
  return true;
}

bool ParseDoubleFlag(const char* flag, const char* text, double* out) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || value < 0.0) {
    std::fprintf(stderr, "error: %s expects a number >= 0, got '%s'\n", flag,
                 text);
    return false;
  }
  *out = value;
  return true;
}

bool ParseTuple(const char* text, int arity, nwd::Tuple* out) {
  out->clear();
  const char* p = text;
  while (*p != '\0') {
    char* end = nullptr;
    out->push_back(std::strtoll(p, &end, 10));
    if (end == p) return false;
    if (*end == ',') {
      p = end + 1;
      if (*p == '\0') return false;  // trailing comma: "3,7," is malformed
    } else {
      p = end;
      if (*p != '\0') return false;
    }
  }
  return static_cast<int>(out->size()) == arity;
}

// The engine contract requires probe components in [0, n); report bad
// user input as an error instead of tripping the engine's NWD_CHECK.
bool TupleInRange(const nwd::Tuple& t, int64_t num_vertices,
                  const char* flag) {
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i] < 0 || t[i] >= num_vertices) {
      std::fprintf(stderr,
                   "error: %s tuple component %zu is %lld, outside the "
                   "graph's vertex range [0, %lld)\n",
                   flag, i, static_cast<long long>(t[i]),
                   static_cast<long long>(num_vertices));
      return false;
    }
  }
  return true;
}

// True once stdout has failed (typically EPIPE: the consumer — `head`,
// a pager, a dying pipeline — went away). Enumeration loops poll this
// and shut down cleanly instead of letting SIGPIPE kill the process
// mid-stream; see main(), which ignores the signal.
bool StdoutBroken() { return std::ferror(stdout) != 0; }

// Diagnostic for the broken-pipe shutdown path: stderr still works even
// when stdout is gone, and a truncated-by-consumer run is a success
// (exit 0), not an error.
void ReportOutputClosed(long long produced) {
  std::fprintf(stderr,
               "nwdq: output closed after %lld answers; stopping cleanly\n",
               produced);
  std::fflush(stderr);
}

void PrintTuple(const nwd::Tuple& t) {
  std::printf("(");
  for (size_t i = 0; i < t.size(); ++i) {
    std::printf("%s%lld", i ? ", " : "", static_cast<long long>(t[i]));
  }
  std::printf(")");
}

int Usage() {
  std::fprintf(stderr,
               "usage: nwdq <graph-file> '<query>' [--limit N] [--count]\n"
               "            [--test a,b,..] [--next a,b,..] [--explain]\n"
               "            [--dump-program] [--color Name=idx]...\n"
               "            [--budget-ms N] [--max-edge-work N] "
               "[--max-avg-degree X]\n"
               "            [--probe-file FILE] [--answer-threads N]\n"
               "            [--metrics-json FILE] [--metrics-prom FILE]\n"
               "            [--trace-json FILE]\n");
  return 2;
}

// Scrapes the observability artifacts at scope exit, so every exit path
// after flag parsing (success, degraded, bad probe file) leaves them
// behind — a failed run's trace is exactly the one worth reading.
struct ObsExport {
  std::ofstream metrics;
  std::ofstream metrics_prom;
  std::ofstream trace;
  ~ObsExport() {
    if (metrics.is_open()) {
      nwd::obs::MetricsRegistry::Global().WriteJson(metrics);
    }
    if (metrics_prom.is_open()) nwd::obs::WriteGlobalPrometheus(metrics_prom);
    if (trace.is_open()) {
      nwd::obs::FlightRecorder::Global().WriteChromeTrace(trace);
    }
  }
};

// One parsed probe-file line.
struct Probe {
  bool is_next = false;  // false = test
  nwd::Tuple tuple;
};

// Parses `path` into probes. Returns false (with a diagnostic) on any
// malformed or out-of-range line — bad batch input is all-or-nothing.
bool ReadProbeFile(const std::string& path, int arity, int64_t num_vertices,
                   std::vector<Probe>* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read probe file '%s'\n", path.c_str());
    return false;
  }
  std::string line;
  int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // getline strips '\n' but keeps a CRLF file's '\r'; drop it (plus any
    // trailing blanks) so ParseTuple sees a clean terminator.
    const size_t last = line.find_last_not_of(" \t\r");
    line.resize(last == std::string::npos ? 0 : last + 1);
    size_t begin = line.find_first_not_of(" \t");
    if (begin == std::string::npos || line[begin] == '#') continue;
    Probe probe;
    const char* rest = line.c_str() + begin;
    if (std::strncmp(rest, "test", 4) == 0 &&
        (rest[4] == ' ' || rest[4] == '\t')) {
      rest += 5;
    } else if (std::strncmp(rest, "next", 4) == 0 &&
               (rest[4] == ' ' || rest[4] == '\t')) {
      probe.is_next = true;
      rest += 5;
    }
    while (*rest == ' ' || *rest == '\t') ++rest;
    if (!ParseTuple(rest, arity, &probe.tuple)) {
      std::fprintf(stderr, "error: %s:%lld: expected %d comma-separated "
                   "vertices, got '%s'\n",
                   path.c_str(), static_cast<long long>(line_no), arity,
                   rest);
      return false;
    }
    const std::string where =
        path + ":" + std::to_string(line_no) + ": probe";
    if (!TupleInRange(probe.tuple, num_vertices, where.c_str())) {
      return false;
    }
    out->push_back(std::move(probe));
  }
  return true;
}

// Serves a probe file through the batch APIs and prints one answer line
// per probe, in input order.
int ServeProbeFile(const nwd::EnumerationEngine& engine,
                   const std::vector<Probe>& probes, int answer_threads) {
  std::vector<nwd::Tuple> tests;
  std::vector<nwd::Tuple> nexts;
  for (const Probe& probe : probes) {
    (probe.is_next ? nexts : tests).push_back(probe.tuple);
  }
  nwd::Timer timer;
  const std::vector<uint8_t> test_answers =
      engine.TestBatch(tests, answer_threads);
  const std::vector<std::optional<nwd::Tuple>> next_answers =
      engine.NextBatch(nexts, answer_threads);
  const double elapsed = timer.ElapsedSeconds();
  size_t ti = 0;
  size_t ni = 0;
  size_t printed = 0;
  for (const Probe& probe : probes) {
    if (StdoutBroken()) {
      ReportOutputClosed(static_cast<long long>(printed));
      return 0;
    }
    ++printed;
    std::printf("%s ", probe.is_next ? "next" : "test");
    PrintTuple(probe.tuple);
    if (probe.is_next) {
      const std::optional<nwd::Tuple>& next = next_answers[ni++];
      if (next.has_value()) {
        std::printf(" = ");
        PrintTuple(*next);
        std::printf("\n");
      } else {
        std::printf(" = none\n");
      }
    } else {
      std::printf(" = %s\n",
                  test_answers[ti++] ? "solution" : "not a solution");
    }
  }
  std::printf("served %zu probes with %d thread%s in %.3fs\n", probes.size(),
              answer_threads, answer_threads == 1 ? "" : "s", elapsed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Piping enumeration into `head` (or any consumer that exits early)
  // must end the run with a clean exit 0, not a SIGPIPE kill: ignore the
  // signal so writes fail with EPIPE instead, and let the output loops
  // detect the failure via StdoutBroken().
  std::signal(SIGPIPE, SIG_IGN);
  if (argc < 3) return Usage();
  const std::string graph_path = argv[1];
  const std::string query_text = argv[2];

  int64_t limit = 20;
  bool count = false;
  bool explain = false;
  bool dump_program = false;
  const char* test_tuple = nullptr;
  const char* next_tuple = nullptr;
  const char* probe_file = nullptr;
  int64_t answer_threads = 1;
  std::map<std::string, int> color_names;
  nwd::EngineOptions engine_options;
  ObsExport obs_export;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--limit" && i + 1 < argc) {
      if (!ParseInt64Flag("--limit", argv[++i], 0, &limit)) return 2;
    } else if (arg == "--count") {
      count = true;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--dump-program") {
      dump_program = true;
    } else if (arg == "--test" && i + 1 < argc) {
      test_tuple = argv[++i];
    } else if (arg == "--next" && i + 1 < argc) {
      next_tuple = argv[++i];
    } else if (arg == "--probe-file" && i + 1 < argc) {
      probe_file = argv[++i];
    } else if (arg == "--metrics-json" && i + 1 < argc) {
      const char* path = argv[++i];
      obs_export.metrics.open(path, std::ios::trunc);
      if (!obs_export.metrics.is_open()) {
        std::fprintf(stderr, "error: cannot write metrics file '%s'\n", path);
        return 1;
      }
      nwd::obs::SetMetricsEnabled(true);
    } else if (arg == "--metrics-prom" && i + 1 < argc) {
      const char* path = argv[++i];
      obs_export.metrics_prom.open(path, std::ios::trunc);
      if (!obs_export.metrics_prom.is_open()) {
        std::fprintf(stderr, "error: cannot write metrics file '%s'\n", path);
        return 1;
      }
      nwd::obs::SetMetricsEnabled(true);
    } else if (arg == "--trace-json" && i + 1 < argc) {
      const char* path = argv[++i];
      obs_export.trace.open(path, std::ios::trunc);
      if (!obs_export.trace.is_open()) {
        std::fprintf(stderr, "error: cannot write trace file '%s'\n", path);
        return 1;
      }
    } else if (arg == "--answer-threads" && i + 1 < argc) {
      if (!ParseInt64Flag("--answer-threads", argv[++i], 1,
                          &answer_threads)) {
        return 2;
      }
    } else if (arg == "--budget-ms" && i + 1 < argc) {
      if (!ParseInt64Flag("--budget-ms", argv[++i], 1,
                          &engine_options.budget.deadline_ms)) {
        return 2;
      }
    } else if (arg == "--max-edge-work" && i + 1 < argc) {
      if (!ParseInt64Flag("--max-edge-work", argv[++i], 1,
                          &engine_options.budget.max_edge_work)) {
        return 2;
      }
    } else if (arg == "--max-avg-degree" && i + 1 < argc) {
      if (!ParseDoubleFlag("--max-avg-degree", argv[++i],
                           &engine_options.budget.max_avg_degree)) {
        return 2;
      }
    } else if (arg == "--color" && i + 1 < argc) {
      const std::string binding = argv[++i];
      const size_t eq = binding.find('=');
      if (eq == std::string::npos) return Usage();
      int64_t color_id = -1;
      if (!ParseInt64Flag("--color", binding.c_str() + eq + 1, 0,
                          &color_id)) {
        return 2;
      }
      color_names[binding.substr(0, eq)] = static_cast<int>(color_id);
    } else {
      return Usage();
    }
  }

  const nwd::GraphParseResult graph = nwd::ReadGraphFromFile(graph_path);
  if (!graph.ok) {
    std::fprintf(stderr, "error: %s\n", graph.error.c_str());
    return 1;
  }
  std::printf("loaded %s\n", graph.graph.DebugString().c_str());

  nwd::fo::ParseResult parsed =
      nwd::fo::ParseQuery(query_text, color_names);
  if (!parsed.ok) {
    // Also accept a bare formula without the "(x,y) :=" header.
    parsed = nwd::fo::ParseFormula(query_text, color_names);
  }
  if (!parsed.ok) {
    std::fprintf(stderr, "query error: %s\n", parsed.error.c_str());
    return 1;
  }
  std::printf("query: %s\n", nwd::fo::ToString(parsed.query).c_str());

  // The evaluators index colors without range checks; reject a query that
  // references colors the graph does not carry.
  const int max_color = nwd::fo::MaxColorId(parsed.query.formula);
  if (max_color >= graph.graph.NumColors()) {
    std::fprintf(stderr,
                 "query error: color C%d out of range (graph has %d "
                 "colors)\n",
                 max_color, graph.graph.NumColors());
    return 1;
  }

  if (explain) {
    const nwd::Lnf lnf = nwd::CompileToLnf(parsed.query);
    std::printf("%s", nwd::DescribeLnf(lnf).c_str());
    return 0;
  }

  nwd::Timer prep;
  const nwd::EnumerationEngine engine(graph.graph, parsed.query,
                                      engine_options);
  std::printf("preprocessing: %.3fs (%s)\n", prep.ElapsedSeconds(),
              engine.used_fallback()
                  ? engine.stats().fallback_reason.c_str()
                  : "LNF engine");
  if (engine.stats().degraded) {
    std::printf("degraded: stage %s after %.1f ms / %lld work units\n",
                engine.stats().tripped_stage.empty()
                    ? "(unattributed)"
                    : engine.stats().tripped_stage.c_str(),
                engine.stats().budget_elapsed_ms,
                static_cast<long long>(engine.stats().budget_edge_work));
  }

  if (dump_program) {
    if (engine.compiled_query() != nullptr) {
      std::printf("%s", engine.compiled_query()->Disassemble().c_str());
    } else {
      // Only fallback engines run without a program.
      std::printf("no compiled program (fallback engine has no LNF)\n");
    }
    return 0;
  }
  if (probe_file != nullptr) {
    std::vector<Probe> probes;
    if (!ReadProbeFile(probe_file, engine.arity(),
                       graph.graph.NumVertices(), &probes)) {
      return 1;
    }
    return ServeProbeFile(engine, probes,
                          static_cast<int>(answer_threads));
  }
  if (test_tuple != nullptr) {
    nwd::Tuple t;
    if (!ParseTuple(test_tuple, engine.arity(), &t)) {
      std::fprintf(stderr, "bad --test tuple\n");
      return 1;
    }
    if (!TupleInRange(t, graph.graph.NumVertices(), "--test")) return 1;
    std::printf("test ");
    PrintTuple(t);
    std::printf(" = %s\n", engine.Test(t) ? "solution" : "not a solution");
    return 0;
  }
  if (next_tuple != nullptr) {
    nwd::Tuple t;
    if (!ParseTuple(next_tuple, engine.arity(), &t)) {
      std::fprintf(stderr, "bad --next tuple\n");
      return 1;
    }
    if (!TupleInRange(t, graph.graph.NumVertices(), "--next")) return 1;
    const auto next = engine.Next(t);
    std::printf("next ");
    PrintTuple(t);
    if (next.has_value()) {
      std::printf(" = ");
      PrintTuple(*next);
      std::printf("\n");
    } else {
      std::printf(" = none\n");
    }
    return 0;
  }
  if (count) {
    nwd::Timer timer;
    const nwd::CountResult result =
        nwd::CountSolutions(graph.graph, parsed.query);
    std::printf("count = %lld (%.3fs, %s)\n",
                static_cast<long long>(result.count),
                timer.ElapsedSeconds(),
                result.fast_path ? "ball counting" : "enumeration");
    return 0;
  }

  int64_t produced = 0;
  if (answer_threads > 1) {
    // Sharded parallel enumeration; the stream is identical to the serial
    // enumerator's.
    const std::vector<nwd::Tuple> solutions =
        engine.EnumerateParallel(static_cast<int>(answer_threads), limit);
    for (const nwd::Tuple& t : solutions) {
      PrintTuple(t);
      std::printf("\n");
      ++produced;
      if (StdoutBroken()) {
        ReportOutputClosed(produced);
        return 0;
      }
    }
  } else {
    nwd::ConstantDelayEnumerator enumerator(engine);
    for (auto t = enumerator.NextSolution();
         t.has_value() && produced < limit; t = enumerator.NextSolution()) {
      PrintTuple(*t);
      std::printf("\n");
      ++produced;
      if (StdoutBroken()) {
        ReportOutputClosed(produced);
        return 0;
      }
    }
  }
  if (produced == limit && limit > 0) {
    std::printf("... (limit %lld reached)\n", static_cast<long long>(limit));
  }
  return 0;
}
