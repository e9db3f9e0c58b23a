// nwdd — the hardened serving daemon over the enumeration engine.
//
// Usage:
//   nwdd <graph-source> '<query>' [--color Name=idx]...
//        [--max-inflight N] [--retry-after-ms N] [--deadline-ms N]
//        [--budget-ms N] [--max-edge-work N] [--threads N]
//        [--write-timeout-ms N] [--tcp PORT] [--no-reload] [--no-shutdown]
//        [--metrics-json FILE] [--slow-request-ms N] [--no-dump-on-death]
//
// <graph-source> is a plain path, `file:<path>`, or the deterministic
// `gen:<class>:<n>:<seed>` spec (class: tree|bdeg|grid|caterpillar).
//
// Default mode serves the length-prefixed frame protocol (serve/wire.h)
// on stdin/stdout until EOF or a `shutdown` request. With --tcp PORT the
// daemon instead listens on 127.0.0.1:PORT (0 = pick a free port, printed
// to stderr) and serves each accepted connection on its own handler
// thread until a `shutdown` request arrives.
//
// Robustness contract (see serve/daemon.h): reloads swap epochs
// atomically without blocking in-flight probes; per-request deadlines
// degrade to typed DEADLINE_EXCEEDED errors; past --max-inflight the
// daemon rejects with RETRY_AFTER instead of queueing; every outcome is
// a serve.* metric, dumped by the `metrics` request (JSON, or Prometheus
// text with `metrics format=prom`) and (at exit) into --metrics-json.
//
// Forensics: the always-on flight recorder (obs/flight.h) keeps the
// recent event history per thread. The `dump` request returns it over
// the wire; a fatal signal (SIGSEGV/SIGABRT/SIGBUS) dumps the tail to
// stderr before dying; requests slower than --slow-request-ms are
// captured eagerly; a simulated worker death dumps to stderr unless
// --no-dump-on-death.
//
// Exit codes: 0 clean shutdown, 1 bad data (graph/query), 2 usage.

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "fo/analysis.h"
#include "fo/parser.h"
#include "fo/printer.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "serve/daemon.h"

namespace {

// Fatal-signal forensics: dump the flight recorder's recent tail to
// stderr, then re-raise with the default disposition so the exit status
// still reports the signal. DumpToFd takes no lock and allocates nothing,
// which is what makes it callable from here.
void FatalSignalHandler(int sig) {
  nwd::obs::FlightRecorder::Global().DumpToFd(2, /*max_events_per_ring=*/64);
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

void InstallFatalSignalDumps() {
  std::signal(SIGSEGV, FatalSignalHandler);
  std::signal(SIGABRT, FatalSignalHandler);
  std::signal(SIGBUS, FatalSignalHandler);
}

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

int Usage() {
  std::fprintf(
      stderr,
      "usage: nwdd <graph-source> '<query>' [--color Name=idx]...\n"
      "            [--max-inflight N] [--retry-after-ms N] "
      "[--deadline-ms N]\n"
      "            [--budget-ms N] [--max-edge-work N] [--threads N]\n"
      "            [--write-timeout-ms N] [--tcp PORT] [--no-reload]\n"
      "            [--no-shutdown] [--metrics-json FILE]\n"
      "            [--slow-request-ms N] [--no-dump-on-death]\n"
      "graph-source: <path> | file:<path> | gen:<class>:<n>:<seed>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);  // dying clients are EPIPE, not death
  InstallFatalSignalDumps();
  if (argc < 3) return Usage();
  std::string source = argv[1];
  const std::string query_text = argv[2];

  nwd::serve::DaemonOptions options;
  int64_t max_inflight = options.max_inflight;
  int64_t tcp_port = -1;
  const char* metrics_json = nullptr;
  std::map<std::string, int> color_names;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--max-inflight" && i + 1 < argc) {
      if (!ParseInt64Flag("--max-inflight", argv[++i], 1, &max_inflight)) {
        return 2;
      }
    } else if (arg == "--retry-after-ms" && i + 1 < argc) {
      if (!ParseInt64Flag("--retry-after-ms", argv[++i], 1,
                          &options.retry_after_ms)) {
        return 2;
      }
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      if (!ParseInt64Flag("--deadline-ms", argv[++i], 1,
                          &options.default_deadline_ms)) {
        return 2;
      }
    } else if (arg == "--budget-ms" && i + 1 < argc) {
      if (!ParseInt64Flag("--budget-ms", argv[++i], 1,
                          &options.engine.budget.deadline_ms)) {
        return 2;
      }
    } else if (arg == "--max-edge-work" && i + 1 < argc) {
      if (!ParseInt64Flag("--max-edge-work", argv[++i], 1,
                          &options.engine.budget.max_edge_work)) {
        return 2;
      }
    } else if (arg == "--threads" && i + 1 < argc) {
      int64_t threads = 1;
      if (!ParseInt64Flag("--threads", argv[++i], 0, &threads)) return 2;
      options.engine.num_threads = static_cast<int>(threads);
    } else if (arg == "--write-timeout-ms" && i + 1 < argc) {
      if (!ParseInt64Flag("--write-timeout-ms", argv[++i], 0,
                          &options.write_timeout_ms)) {
        return 2;
      }
    } else if (arg == "--tcp" && i + 1 < argc) {
      if (!ParseInt64Flag("--tcp", argv[++i], 0, &tcp_port)) return 2;
    } else if (arg == "--no-reload") {
      options.allow_reload = false;
    } else if (arg == "--no-shutdown") {
      options.allow_shutdown = false;
    } else if (arg == "--slow-request-ms" && i + 1 < argc) {
      if (!ParseInt64Flag("--slow-request-ms", argv[++i], 0,
                          &options.slow_request_ms)) {
        return 2;
      }
    } else if (arg == "--no-dump-on-death") {
      options.dump_on_death = false;
    } else if (arg == "--metrics-json" && i + 1 < argc) {
      metrics_json = argv[++i];
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
  options.max_inflight = static_cast<int>(max_inflight);

  nwd::fo::ParseResult parsed =
      nwd::fo::ParseQuery(query_text, color_names);
  if (!parsed.ok) {
    parsed = nwd::fo::ParseFormula(query_text, color_names);
  }
  if (!parsed.ok) {
    std::fprintf(stderr, "query error: %s\n", parsed.error.c_str());
    return 1;
  }

  // A bare path is sugar for file:<path>.
  if (source.rfind("file:", 0) != 0 && source.rfind("gen:", 0) != 0) {
    source = "file:" + source;
  }

  {
    // Scoped so the daemon is gone before --metrics-json is written: its
    // engines drain their answer-time counters into the registry as they
    // are destroyed.
    nwd::serve::Daemon daemon(parsed.query, options);
    std::string error;
    if (!daemon.LoadInitialSnapshot(source, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "nwdd: serving '%s' over %s (epoch %lld)\n",
                 nwd::fo::ToString(parsed.query).c_str(), source.c_str(),
                 static_cast<long long>(daemon.registry().current_epoch()));

    if (tcp_port >= 0) {
      if (!daemon.ListenTcp(static_cast<int>(tcp_port), &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 1;
      }
      std::fprintf(stderr, "nwdd: listening on 127.0.0.1:%d\n",
                   daemon.tcp_port());
      daemon.WaitUntilStopped();
    } else {
      daemon.ServeBlocking(/*read_fd=*/0, /*write_fd=*/1);
    }
  }

  if (metrics_json != nullptr) {
    std::ofstream out(metrics_json, std::ios::trunc);
    if (out.is_open()) {
      nwd::obs::MetricsRegistry::Global().WriteJson(out);
    } else {
      std::fprintf(stderr, "error: cannot write metrics file '%s'\n",
                   metrics_json);
    }
  }
  return 0;
}
