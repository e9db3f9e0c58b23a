#include "serve/daemon.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "enumerate/enumerator.h"
#include "fo/analysis.h"
#include "gen/generators.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/prom.h"
#include "obs/quantile.h"
#include "util/fault_injection.h"

namespace nwd {
namespace serve {
namespace {

// Cached serve.* instruments (lookup once, relaxed-atomic forever).
struct ServeMetrics {
  obs::Counter* requests;
  obs::Counter* responses_ok;
  obs::Counter* responses_err;
  obs::Counter* rejected;
  obs::Counter* degraded;
  obs::Counter* deadline_exceeded;
  obs::Counter* bad_frames;
  obs::Counter* bad_requests;
  obs::Counter* dropped_conns;
  obs::Counter* internal_errors;
  obs::Counter* worker_deaths;
  obs::Counter* reloads;
  obs::Counter* updates;
  obs::Counter* update_edits;
  obs::Counter* answers;
  obs::Gauge* connections;
  obs::Histogram* request_ns;

  static ServeMetrics& Get() {
    static ServeMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      ServeMetrics v;
      v.requests = reg.GetCounter("serve.requests");
      v.responses_ok = reg.GetCounter("serve.responses_ok");
      v.responses_err = reg.GetCounter("serve.responses_err");
      v.rejected = reg.GetCounter("serve.rejected");
      v.degraded = reg.GetCounter("serve.degraded");
      v.deadline_exceeded = reg.GetCounter("serve.deadline_exceeded");
      v.bad_frames = reg.GetCounter("serve.bad_frames");
      v.bad_requests = reg.GetCounter("serve.bad_requests");
      v.dropped_conns = reg.GetCounter("serve.dropped_conns");
      v.internal_errors = reg.GetCounter("serve.internal_errors");
      v.worker_deaths = reg.GetCounter("serve.worker_deaths");
      v.reloads = reg.GetCounter("serve.reloads");
      v.updates = reg.GetCounter("serve.updates");
      v.update_edits = reg.GetCounter("serve.update_edits");
      v.answers = reg.GetCounter("serve.answers");
      v.connections = reg.GetGauge("serve.connections");
      v.request_ns = reg.GetHistogram("serve.request_ns");
      return v;
    }();
    return m;
  }
};

// Per-request deadline: absolute expiry resolved at admission.
struct Deadline {
  int64_t expires_at_ns = 0;  // 0 = unlimited

  static Deadline Resolve(int64_t request_ms, int64_t default_ms,
                          int64_t start_ns) {
    const int64_t ms = request_ms > 0 ? request_ms : default_ms;
    Deadline d;
    if (ms > 0) d.expires_at_ns = start_ns + ms * 1'000'000;
    return d;
  }
  bool Expired() const {
    return expires_at_ns != 0 && obs::NowNs() >= expires_at_ns;
  }
};

bool TupleInRange(const Tuple& t, int64_t n) {
  for (const int64_t v : t) {
    if (v < 0 || v >= n) return false;
  }
  return true;
}

// The thread's active request id as a response-frame suffix. Every final
// frame (ok/end/err) carries it; `ans` stream frames stay lean.
std::string RidSuffix() {
  const uint64_t rid = obs::CurrentRequestId();
  return rid != 0 ? " rid=" + std::to_string(rid) : std::string();
}

// Appends ` <name>_p50=… <name>_p99=…` tokens for a histogram (stats verb).
void AppendQuantiles(std::string* reply, const char* name,
                     const obs::Histogram& histogram) {
  const obs::Histogram::Snapshot snap = histogram.Read();
  char buf[96];
  std::snprintf(buf, sizeof(buf), " %s_p50=%.0f %s_p99=%.0f", name,
                obs::SnapshotQuantile(snap, 0.5), name,
                obs::SnapshotQuantile(snap, 0.99));
  *reply += buf;
}

}  // namespace

bool BuildGraphFromSource(const std::string& source,
                          const GraphParseLimits& limits, ColoredGraph* graph,
                          std::string* error) {
  if (source.rfind("file:", 0) == 0) {
    GraphParseResult parsed =
        ReadGraphFromFile(source.substr(5), limits);
    if (!parsed.ok) {
      *error = parsed.error;
      return false;
    }
    *graph = std::move(parsed.graph);
    return true;
  }
  if (source.rfind("gen:", 0) == 0) {
    // gen:<class>:<n>:<seed> — deterministic from the spec alone, which
    // is what lets the soak harness replay an epoch bit-for-bit.
    const size_t c1 = source.find(':', 4);
    const size_t c2 = c1 == std::string::npos ? c1 : source.find(':', c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos) {
      *error = "gen source needs gen:<class>:<n>:<seed>";
      return false;
    }
    const std::string cls = source.substr(4, c1 - 4);
    char* end = nullptr;
    const long long n = std::strtoll(source.c_str() + c1 + 1, &end, 10);
    if (end != source.c_str() + c2 || n < 1 || n > (1 << 22)) {
      *error = "gen source: n out of range [1, 2^22]";
      return false;
    }
    errno = 0;
    const uint64_t seed = std::strtoull(source.c_str() + c2 + 1, &end, 10);
    if (*end != '\0' || end == source.c_str() + c2 + 1 || errno == ERANGE) {
      *error = "gen source: bad seed";
      return false;
    }
    Rng rng(seed);
    const gen::ColorOptions colors{2, 0.2};
    if (cls == "tree") {
      *graph = gen::RandomTree(n, 0, colors, &rng);
    } else if (cls == "bdeg") {
      *graph = gen::BoundedDegreeGraph(n, 6, 3.0, colors, &rng);
    } else if (cls == "grid") {
      const int64_t side = std::max<int64_t>(
          2, static_cast<int64_t>(std::sqrt(static_cast<double>(n))));
      *graph = gen::Grid(side, side, colors, &rng);
    } else if (cls == "caterpillar") {
      *graph = gen::Caterpillar(std::max<int64_t>(1, n / 4), 3, colors, &rng);
    } else {
      *error = "gen source: unknown class '" + cls +
               "' (tree|bdeg|grid|caterpillar)";
      return false;
    }
    return true;
  }
  *error = "source must be file:<path> or gen:<class>:<n>:<seed>";
  return false;
}

Daemon::Daemon(const fo::Query& query, DaemonOptions options)
    : query_(query),
      options_(std::move(options)),
      gate_(options_.max_inflight, options_.retry_after_ms) {
  // A dying client must surface as EPIPE on write, not kill the process.
  ::signal(SIGPIPE, SIG_IGN);
  rebuild_thread_ = std::thread([this] { RebuildThreadBody(); });
}

Daemon::~Daemon() {
  Stop();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (rebuild_thread_.joinable()) rebuild_thread_.join();
  std::vector<std::shared_ptr<ConnRecord>> records;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    records.swap(conn_records_);
  }
  for (const auto& record : records) {
    if (record->th.joinable()) record->th.join();
  }
}

std::unique_ptr<EngineSnapshot> Daemon::BuildSnapshot(
    const std::string& source, const EngineOptions& engine,
    std::string* error) const {
  auto snapshot = std::make_unique<EngineSnapshot>();
  snapshot->source = source;
  snapshot->query = query_;
  if (!BuildGraphFromSource(source, options_.parse_limits, &snapshot->graph,
                            error)) {
    return nullptr;
  }
  if (fo::MaxColorId(query_.formula) >= snapshot->graph.NumColors()) {
    *error = "query references colors the graph does not carry";
    return nullptr;
  }
  snapshot->Prepare(engine);
  return snapshot;
}

bool Daemon::LoadInitialSnapshot(const std::string& source,
                                 std::string* error) {
  std::unique_ptr<EngineSnapshot> snapshot =
      BuildSnapshot(source, options_.engine, error);
  if (snapshot == nullptr) return false;
  registry_.Publish(std::move(snapshot));
  return true;
}

void Daemon::ServeFd(int read_fd, int write_fd) {
  std::lock_guard<std::mutex> lock(conn_mu_);
  if (stopping_.load(std::memory_order_acquire)) {
    ::close(read_fd);
    if (write_fd != read_fd) ::close(write_fd);
    return;
  }
  // Reap finished handlers so a long-running daemon doesn't accumulate
  // joinable zombie threads across reconnecting clients.
  for (size_t i = 0; i < conn_records_.size();) {
    if (conn_records_[i]->done.load(std::memory_order_acquire)) {
      if (conn_records_[i]->th.joinable()) conn_records_[i]->th.join();
      conn_records_[i] = conn_records_.back();
      conn_records_.pop_back();
    } else {
      ++i;
    }
  }
  auto record = std::make_shared<ConnRecord>();
  record->read_fd = read_fd;
  record->write_fd = write_fd;
  conn_records_.push_back(record);
  record->th = std::thread([this, record] {
    HandleConnection(record->read_fd, record->write_fd, record.get());
  });
}

void Daemon::ServeBlocking(int read_fd, int write_fd) {
  HandleConnection(read_fd, write_fd, /*record=*/nullptr);
}

void Daemon::HandleConnection(int read_fd, int write_fd,
                              ConnRecord* record) {
  ServeMetrics& metrics = ServeMetrics::Get();
  metrics.connections->Set(
      open_connections_.fetch_add(1, std::memory_order_relaxed) + 1);
  FdStream stream(read_fd, write_fd, options_.write_timeout_ms);
  const size_t max_frame = static_cast<size_t>(options_.max_frame_bytes);
  std::string payload;
  while (!stopping_.load(std::memory_order_acquire)) {
    const FrameStatus status = ReadFrame(&stream, max_frame, &payload);
    if (status == FrameStatus::kEof || status == FrameStatus::kIoError) {
      break;  // client done / died between frames
    }
    if (status == FrameStatus::kTooBig ||
        NWD_FAULT_POINT("serve/frame/corrupt")) {
      // The stream cannot be resynchronized after a garbage length
      // prefix: report and hang up. There is no request to adopt a rid
      // from, so the error frame carries a minted one.
      metrics.bad_frames->Increment();
      obs::RequestScope rid_scope(obs::MintRequestId());
      SendError(&stream, ErrorCode::kBadFrame,
                "unframeable stream (bad length prefix)");
      break;
    }
    metrics.requests->Increment();
    Request request;
    std::string parse_error;
    const bool parsed = ParseRequest(payload, &request, &parse_error);
    // Request identity: adopt the client's rid= or mint one; the scope
    // makes it visible to every span and flight event this thread (and,
    // forwarded, the rebuild/repair lanes) records for this request.
    const uint64_t rid =
        parsed && request.rid != 0 ? request.rid : obs::MintRequestId();
    obs::RequestScope rid_scope(rid);
    if (!parsed) {
      metrics.bad_requests->Increment();
      if (!SendError(&stream, ErrorCode::kBadRequest, parse_error)) break;
      continue;  // framing is intact; the connection stays usable
    }
    const int64_t started_ns = obs::NowNs();
    obs::FlightRecord(obs::FlightEventKind::kRequestStart, nullptr, 0, 0,
                      static_cast<uint32_t>(request.op));
    const bool alive = HandleRequest(&stream, request);
    const int64_t latency_ns = obs::NowNs() - started_ns;
    obs::FlightRecord(obs::FlightEventKind::kRequestEnd, nullptr, latency_ns,
                      alive ? 1 : 0, static_cast<uint32_t>(request.op));
    if (options_.slow_request_ms > 0 && obs::FlightEnabled() &&
        latency_ns >= options_.slow_request_ms * 1'000'000) {
      obs::FlightRecorder::Global().CaptureSlow(rid, latency_ns);
    }
    if (!alive) break;
  }
  if (record != nullptr) {
    // Handshake with Stop(): close under the record mutex so a
    // concurrent shutdown(2) never touches a recycled fd number.
    std::lock_guard<std::mutex> lock(record->mu);
    record->closed = true;
    ::close(read_fd);
    if (write_fd != read_fd) ::close(write_fd);
    record->done.store(true, std::memory_order_release);
  }
  metrics.connections->Set(
      open_connections_.fetch_sub(1, std::memory_order_relaxed) - 1);
}

bool Daemon::SendError(FdStream* stream, ErrorCode code,
                       std::string_view message, int64_t retry_after_ms) {
  ServeMetrics& metrics = ServeMetrics::Get();
  if (!WriteFrame(stream,
                  FormatError(code, message, retry_after_ms) + RidSuffix())) {
    metrics.dropped_conns->Increment();
    return false;
  }
  metrics.responses_err->Increment();
  return true;
}

bool Daemon::HandleRequest(FdStream* stream, const Request& request) {
  ServeMetrics& metrics = ServeMetrics::Get();
  if (NWD_FAULT_POINT("serve/worker/death")) {
    // Simulated worker death: the connection dies with no response; the
    // daemon (and every other connection) must keep serving. The flight
    // recorder is the black box here — record the death and dump the
    // recent tail to stderr for the postmortem.
    metrics.worker_deaths->Increment();
    obs::FlightRecord(obs::FlightEventKind::kWorkerDeath);
    if (options_.dump_on_death && obs::FlightEnabled()) {
      obs::FlightRecorder::Global().DumpToFd(2, /*max_events_per_ring=*/32);
    }
    return false;
  }
  switch (request.op) {
    case RequestOp::kPing: {
      if (!WriteFrame(stream, "ok ping" + RidSuffix())) {
        metrics.dropped_conns->Increment();
        return false;
      }
      metrics.responses_ok->Increment();
      return true;
    }
    case RequestOp::kMetrics:
      return HandleMetrics(stream, request);
    case RequestOp::kStats:
      return HandleStats(stream);
    case RequestOp::kDump:
      return HandleDump(stream);
    case RequestOp::kShutdown: {
      if (!options_.allow_shutdown) {
        return SendError(stream, ErrorCode::kBadRequest,
                         "shutdown disabled");
      }
      if (WriteFrame(stream, "ok shutdown" + RidSuffix())) {
        metrics.responses_ok->Increment();
      } else {
        metrics.dropped_conns->Increment();
      }
      Stop();
      return false;
    }
    default:
      break;
  }

  // Probe / reload lane: admission first, everything after is bounded.
  if (stopping_.load(std::memory_order_acquire)) {
    return SendError(stream, ErrorCode::kShuttingDown, "daemon stopping");
  }
  AdmissionGate::Ticket ticket(&gate_);
  if (NWD_FAULT_POINT("serve/admission/reject") || !ticket.admitted()) {
    metrics.rejected->Increment();
    const int64_t hint = ticket.admitted() ? options_.retry_after_ms
                                           : ticket.retry_after_ms();
    return SendError(stream, ErrorCode::kRetryAfter, "at capacity", hint);
  }
  const int64_t admitted_at_ns = obs::NowNs();
  bool alive = true;
  switch (request.op) {
    case RequestOp::kTest:
    case RequestOp::kNext:
      alive = HandleProbe(stream, request);
      break;
    case RequestOp::kEnumerate:
      alive = HandleEnumerate(stream, request, admitted_at_ns);
      break;
    case RequestOp::kReload:
      alive = HandleReload(stream, request);
      break;
    case RequestOp::kUpdate:
      alive = HandleUpdate(stream, request);
      break;
    default:
      alive = SendError(stream, ErrorCode::kInternal, "unroutable op");
      break;
  }
  if (obs::MetricsEnabled()) {
    metrics.request_ns->Record(obs::NowNs() - admitted_at_ns);
  }
  return alive;
}

bool Daemon::HandleProbe(FdStream* stream, const Request& request) {
  ServeMetrics& metrics = ServeMetrics::Get();
  const std::shared_ptr<const EngineSnapshot> snapshot = registry_.Acquire();
  if (snapshot == nullptr) {
    return SendError(stream, ErrorCode::kNoGraph, "no graph loaded");
  }
  const DynamicEngine& engine = *snapshot->dynamic;
  if (static_cast<int>(request.tuple.size()) != engine.arity()) {
    return SendError(stream, ErrorCode::kBadRequest,
                     "tuple arity != query arity");
  }
  if (!TupleInRange(request.tuple, engine.NumVertices())) {
    return SendError(stream, ErrorCode::kOutOfRange,
                     "tuple component outside [0, n)");
  }
  const Deadline deadline = Deadline::Resolve(
      request.deadline_ms, options_.default_deadline_ms, obs::NowNs());
  if (deadline.Expired()) {
    metrics.deadline_exceeded->Increment();
    return SendError(stream, ErrorCode::kDeadlineExceeded,
                     "deadline expired before probe");
  }
  if (NWD_FAULT_POINT("serve/answer")) {
    metrics.internal_errors->Increment();
    return SendError(stream, ErrorCode::kInternal, "injected answer fault");
  }
  if (engine.engine_stats().degraded) metrics.degraded->Increment();
  std::string reply;
  if (request.op == RequestOp::kTest) {
    reply = std::string("ok test ") + (engine.Test(request.tuple) ? "1" : "0");
  } else {
    const std::optional<Tuple> next = engine.Next(request.tuple);
    reply = "ok next ";
    reply += next.has_value() ? FormatTuple(*next) : std::string("none");
  }
  reply += " epoch=" + std::to_string(snapshot->epoch) + RidSuffix();
  if (!WriteFrame(stream, reply)) {
    metrics.dropped_conns->Increment();
    return false;
  }
  metrics.responses_ok->Increment();
  return true;
}

bool Daemon::HandleEnumerate(FdStream* stream, const Request& request,
                             int64_t admitted_at_ns) {
  (void)admitted_at_ns;
  ServeMetrics& metrics = ServeMetrics::Get();
  const std::shared_ptr<const EngineSnapshot> snapshot = registry_.Acquire();
  if (snapshot == nullptr) {
    return SendError(stream, ErrorCode::kNoGraph, "no graph loaded");
  }
  const DynamicEngine& engine = *snapshot->dynamic;
  const int64_t n = engine.NumVertices();
  Tuple cursor = request.has_from ? request.tuple : LexMin(engine.arity());
  if (request.has_from) {
    if (static_cast<int>(cursor.size()) != engine.arity()) {
      return SendError(stream, ErrorCode::kBadRequest,
                       "from= arity != query arity");
    }
    if (!TupleInRange(cursor, n)) {
      return SendError(stream, ErrorCode::kOutOfRange,
                       "from= component outside [0, n)");
    }
  }
  const Deadline deadline = Deadline::Resolve(
      request.deadline_ms, options_.default_deadline_ms, obs::NowNs());
  if (engine.engine_stats().degraded) metrics.degraded->Increment();

  const std::string epoch_token = " epoch=" + std::to_string(snapshot->epoch);
  int64_t count = 0;
  bool exhausted = false;
  while (!exhausted && (request.limit < 0 || count < request.limit)) {
    if (deadline.Expired() || NWD_FAULT_POINT("serve/stream/deadline")) {
      // Graceful degradation, typed: the client got `count` answers from
      // this epoch and an explicit marker that the stream is incomplete.
      metrics.deadline_exceeded->Increment();
      metrics.answers->Add(count);
      return SendError(stream, ErrorCode::kDeadlineExceeded,
                       "deadline tripped after " + std::to_string(count) +
                           " answers" + epoch_token);
    }
    if (NWD_FAULT_POINT("serve/stream/abort")) {
      metrics.internal_errors->Increment();
      metrics.answers->Add(count);
      return SendError(stream, ErrorCode::kInternal,
                       "injected stream abort" + epoch_token);
    }
    const std::optional<Tuple> next = engine.Next(cursor);
    if (!next.has_value()) break;
    if (!WriteFrame(stream, "ans " + FormatTuple(*next))) {
      // Killed / stuck client mid-stream: drop the connection; the
      // snapshot pin dies with this handler, letting the epoch drain.
      metrics.dropped_conns->Increment();
      metrics.answers->Add(count);
      return false;
    }
    ++count;
    cursor = *next;
    if (!LexIncrement(&cursor, n)) exhausted = true;
  }
  metrics.answers->Add(count);
  std::string tail = "end count=" + std::to_string(count) + epoch_token;
  if (request.limit >= 0 && count == request.limit && !exhausted) {
    tail += " limit=1";
  }
  tail += RidSuffix();
  if (!WriteFrame(stream, tail)) {
    metrics.dropped_conns->Increment();
    return false;
  }
  metrics.responses_ok->Increment();
  return true;
}

bool Daemon::HandleReload(FdStream* stream, const Request& request) {
  ServeMetrics& metrics = ServeMetrics::Get();
  if (!options_.allow_reload) {
    return SendError(stream, ErrorCode::kBadRequest, "reload disabled");
  }
  auto job = std::make_shared<RebuildJob>();
  job->source = request.source;
  job->budget_ms = request.budget_ms;
  job->max_edge_work = request.max_edge_work;
  job->rid = obs::CurrentRequestId();
  {
    std::unique_lock<std::mutex> lock(rebuild_mu_);
    if (rebuild_busy_ || pending_job_ != nullptr) {
      // One rebuild at a time, none queued: reload admission control.
      metrics.rejected->Increment();
      lock.unlock();
      return SendError(stream, ErrorCode::kRetryAfter, "rebuild in flight",
                       options_.retry_after_ms * 4);
    }
    pending_job_ = job;
    rebuild_cv_.notify_all();
    rebuild_cv_.wait(lock, [&] {
      return job->done || stopping_.load(std::memory_order_acquire);
    });
    if (!job->done) {
      return SendError(stream, ErrorCode::kShuttingDown,
                       "daemon stopped during rebuild");
    }
  }
  if (!job->ok) {
    metrics.bad_requests->Increment();
    return SendError(stream, ErrorCode::kBadRequest, job->error);
  }
  metrics.reloads->Increment();
  if (job->degraded) metrics.degraded->Increment();
  char prep[32];
  std::snprintf(prep, sizeof(prep), "%.3f", job->prep_ms);
  const std::string reply = "ok reload epoch=" + std::to_string(job->epoch) +
                            " degraded=" + (job->degraded ? "1" : "0") +
                            " prep_ms=" + prep + RidSuffix();
  if (!WriteFrame(stream, reply)) {
    metrics.dropped_conns->Increment();
    return false;
  }
  metrics.responses_ok->Increment();
  return true;
}

bool Daemon::HandleUpdate(FdStream* stream, const Request& request) {
  ServeMetrics& metrics = ServeMetrics::Get();
  if (!options_.allow_update) {
    return SendError(stream, ErrorCode::kBadRequest, "update disabled");
  }
  const std::shared_ptr<const EngineSnapshot> snapshot = registry_.Acquire();
  if (snapshot == nullptr) {
    return SendError(stream, ErrorCode::kNoGraph, "no graph loaded");
  }
  const int64_t n = snapshot->dynamic->NumVertices();
  const int num_colors = snapshot->dynamic->NumColors();
  for (const GraphEdit& e : request.edits) {
    if (e.u < 0 || e.u >= n ||
        (e.kind != GraphEdit::Kind::kSetColor && (e.v < 0 || e.v >= n))) {
      return SendError(stream, ErrorCode::kOutOfRange,
                       "edit vertex outside [0, n)");
    }
    if (e.kind == GraphEdit::Kind::kSetColor &&
        (e.color < 0 || e.color >= num_colors)) {
      return SendError(stream, ErrorCode::kOutOfRange,
                       "edit color outside [0, num_colors)");
    }
  }
  int64_t applied = 0;
  {
    // Hold the rebuild lane closed while applying: a reload rebuild in
    // flight would publish an epoch built from the pre-edit source and
    // silently discard an edit this reply acknowledges. Same
    // reject-don't-queue admission as reload itself.
    std::lock_guard<std::mutex> lock(rebuild_mu_);
    if (rebuild_busy_ || pending_job_ != nullptr) {
      metrics.rejected->Increment();
      return SendError(stream, ErrorCode::kRetryAfter, "rebuild in flight",
                       options_.retry_after_ms * 4);
    }
    applied = snapshot->dynamic->Apply(request.edits);
  }
  if (request.wait_sync) snapshot->dynamic->WaitForSync();
  metrics.updates->Increment();
  metrics.update_edits->Add(applied);
  const std::string reply =
      "ok update applied=" + std::to_string(applied) +
      " total=" + std::to_string(request.edits.size()) +
      std::string(" insync=") + (snapshot->dynamic->in_sync() ? "1" : "0") +
      " epoch=" + std::to_string(snapshot->epoch) + RidSuffix();
  if (!WriteFrame(stream, reply)) {
    metrics.dropped_conns->Increment();
    return false;
  }
  metrics.responses_ok->Increment();
  return true;
}

bool Daemon::HandleMetrics(FdStream* stream, const Request& request) {
  ServeMetrics& metrics = ServeMetrics::Get();
  std::ostringstream body;
  if (request.prom_format) {
    obs::WriteGlobalPrometheus(body);
  } else {
    obs::MetricsRegistry::Global().WriteJson(body);
  }
  if (!WriteFrame(stream, "ok metrics" + RidSuffix() + "\n" + body.str())) {
    metrics.dropped_conns->Increment();
    return false;
  }
  metrics.responses_ok->Increment();
  return true;
}

bool Daemon::HandleStats(FdStream* stream) {
  ServeMetrics& metrics = ServeMetrics::Get();
  const std::shared_ptr<const EngineSnapshot> snapshot = registry_.Acquire();
  std::string reply = "ok stats epoch=" +
                      std::to_string(snapshot ? snapshot->epoch : 0) +
                      " inflight=" + std::to_string(gate_.inflight()) +
                      " max_inflight=" + std::to_string(gate_.max_inflight());
  if (snapshot != nullptr) {
    const DynamicEngine::UpdateStats update_stats = snapshot->dynamic->stats();
    reply += " n=" + std::to_string(snapshot->dynamic->NumVertices());
    reply += std::string(" degraded=") +
             (snapshot->dynamic->engine_stats().degraded ? "1" : "0");
    reply += " edits=" + std::to_string(update_stats.edits_applied);
    reply += std::string(" insync=") + (update_stats.in_sync ? "1" : "0");
    reply += " source=" + snapshot->source;
  }
  // Latency shape without a full metrics scrape: interpolated quantiles
  // of the request and epoch-drain histograms (quantile.h).
  auto& reg = obs::MetricsRegistry::Global();
  AppendQuantiles(&reply, "request_ns", *reg.GetHistogram("serve.request_ns"));
  AppendQuantiles(&reply, "swap_drain_ns",
                  *reg.GetHistogram("serve.swap_drain_ns"));
  reply += RidSuffix();
  if (!WriteFrame(stream, reply)) {
    metrics.dropped_conns->Increment();
    return false;
  }
  metrics.responses_ok->Increment();
  return true;
}

bool Daemon::HandleDump(FdStream* stream) {
  ServeMetrics& metrics = ServeMetrics::Get();
  // Bound the body well under max_frame_bytes: ~170 bytes/line puts
  // 2000 events around 340 KB against the 1 MiB default frame cap.
  constexpr size_t kMaxDumpEvents = 2000;
  std::ostringstream body;
  const obs::FlightRecorder::CollectStats stats =
      obs::FlightRecorder::Global().WriteText(body, kMaxDumpEvents);
  const int64_t survived =
      stats.recorded - stats.overwritten - stats.torn_skipped;
  const int64_t emitted =
      std::min<int64_t>(survived, static_cast<int64_t>(kMaxDumpEvents));
  std::string head = "ok dump events=" + std::to_string(emitted) +
                     " rings=" + std::to_string(stats.rings) +
                     " recorded=" + std::to_string(stats.recorded) +
                     " overwritten=" + std::to_string(stats.overwritten) +
                     " torn=" + std::to_string(stats.torn_skipped) +
                     RidSuffix();
  if (!WriteFrame(stream, head + "\n" + body.str())) {
    metrics.dropped_conns->Increment();
    return false;
  }
  metrics.responses_ok->Increment();
  return true;
}

void Daemon::RebuildThreadBody() {
  while (true) {
    std::shared_ptr<RebuildJob> job;
    {
      std::unique_lock<std::mutex> lock(rebuild_mu_);
      rebuild_cv_.wait(lock, [&] {
        return pending_job_ != nullptr ||
               stopping_.load(std::memory_order_acquire);
      });
      if (pending_job_ == nullptr) return;  // stopping
      job = std::move(pending_job_);
      pending_job_ = nullptr;
      rebuild_busy_ = true;
    }
    // Build outside the lock: serving threads keep probing the current
    // snapshot while this runs. The originating request's id rides along
    // so the rebuild's spans and flight events attribute to the reload
    // that asked for it, not to an anonymous background thread.
    obs::RequestScope rid_scope(job->rid);
    EngineOptions engine_options = options_.engine;
    if (job->budget_ms > 0) engine_options.budget.deadline_ms = job->budget_ms;
    if (job->max_edge_work > 0) {
      engine_options.budget.max_edge_work = job->max_edge_work;
    }
    const int64_t started_ns = obs::NowNs();
    std::unique_ptr<EngineSnapshot> snapshot =
        BuildSnapshot(job->source, engine_options, &job->error);
    job->ok = snapshot != nullptr;
    if (job->ok) {
      job->degraded = snapshot->dynamic->engine_stats().degraded;
      job->epoch = registry_.Publish(std::move(snapshot));
    }
    job->prep_ms = static_cast<double>(obs::NowNs() - started_ns) / 1e6;
    {
      std::lock_guard<std::mutex> lock(rebuild_mu_);
      rebuild_busy_ = false;
      job->done = true;
      rebuild_cv_.notify_all();
    }
  }
}

bool Daemon::ListenTcp(int port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(fd, 64) < 0) {
    *error = std::string("bind/listen: ") + std::strerror(errno);
    ::close(fd);
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) ==
      0) {
    tcp_port_ = ntohs(addr.sin_port);
  }
  listen_fd_.store(fd, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptThreadBody(); });
  return true;
}

void Daemon::AcceptThreadBody() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) return;  // Stop() already closed the listener
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by Stop()
    }
    ServeFd(fd, fd);
  }
}

void Daemon::Stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    return;
  }
  const int listen_fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (listen_fd >= 0) {
    ::shutdown(listen_fd, SHUT_RDWR);
    ::close(listen_fd);
  }
  // Unblock handler threads parked in read() on live sockets. shutdown()
  // is a no-op on pipes (ENOTSOCK) — pipe-based tests unblock by closing
  // the client end instead.
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const auto& record : conn_records_) {
      std::lock_guard<std::mutex> rec_lock(record->mu);
      if (!record->closed) {
        ::shutdown(record->read_fd, SHUT_RDWR);
        if (record->write_fd != record->read_fd) {
          ::shutdown(record->write_fd, SHUT_RDWR);
        }
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(rebuild_mu_);
    rebuild_cv_.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_cv_.notify_all();
  }
}

void Daemon::WaitUntilStopped() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  stop_cv_.wait(lock,
                [&] { return stopping_.load(std::memory_order_acquire); });
}

}  // namespace serve
}  // namespace nwd
