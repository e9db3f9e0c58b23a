// Wire protocol of the nwdd serving daemon: length-prefixed frames
// carrying one-line text requests and responses.
//
// Framing. Every message is a frame: a 4-byte little-endian payload
// length followed by that many payload bytes. Length 0 and lengths above
// the receiver's cap (DaemonOptions::max_frame_bytes, default 1 MiB) are
// protocol errors — an oversized length means the stream is garbage (a
// client that never sent a length prefix), so the receiver reports
// BAD_FRAME and closes; there is no way to resynchronize.
//
// Requests (one per frame; the daemon answers each fully before reading
// the next, so a connection is a simple call/response lane — concurrency
// comes from opening more connections):
//
//   ping
//   test <v,v,...> [deadline_ms=N]
//   next <v,v,...> [deadline_ms=N]
//   enumerate [from=v,v,...] [limit=N] [deadline_ms=N]
//   reload <source> [budget_ms=N] [max_edge_work=N]
//   update <spec>[;<spec>...] [wait=1]
//   metrics [format=json|prom]
//   stats
//   dump
//   shutdown
//
// Any request may additionally carry `rid=N` — a client-chosen 64-bit
// request id. The daemon adopts it (or mints one when absent) and
// stamps it on every final response frame and every flight-recorder
// event the request produces, spans included, so one id reconstructs
// the request's path end to end (see obs/flight.h). `dump` returns the
// flight recorder's merged recent history.
//
// `update` patches the live snapshot in place (no epoch swap): each
// `<spec>` is `add:u,v` (edge insert), `del:u,v` (edge delete), or
// `color:v,c,<0|1>` (set/clear color c on v). Every answer given after
// the `ok update` frame reflects the edits; the engine repairs itself in
// the background and probes ride the lag lane's lazy baseline meanwhile.
// `wait=1` blocks the reply until the repair lane has drained (tests).
// An update racing an in-flight reload rebuild is rejected with
// RETRY_AFTER — the freshly built epoch would silently discard an edit
// the daemon had already acknowledged.
//
// `<source>` is `file:<path>` or `gen:<class>:<n>:<seed>` with class in
// {tree, bdeg, grid, caterpillar} — the deterministic in-repo generators,
// so a soak run can name a graph a replay harness can rebuild exactly.
//
// Responses:
//
//   ok ping rid=R
//   ok test <0|1> epoch=E rid=R
//   ok next <v,v,...|none> epoch=E rid=R
//   ans <v,v,...>                      (one frame per enumerated tuple)
//   end count=N epoch=E [limit=1] rid=R  (stream completed on epoch E)
//   ok reload epoch=E degraded=<0|1> prep_ms=<ms> rid=R
//   ok update applied=N total=M insync=<0|1> epoch=E rid=R
//   ok metrics rid=R\n<body>           (nwd-metrics/1 JSON, or Prometheus
//                                       text with format=prom)
//   ok stats epoch=E inflight=N ... insync=<0|1> ... source=<...> rid=R
//   ok dump events=N rings=K overwritten=L torn=T rid=R\n<flight lines>
//   ok shutdown rid=R
//   err <CODE> [retry_after_ms=N] <message> rid=R
//
// `rid=R` trails every final frame (`ans` stream frames stay lean); the
// stable `key=value` token scan (FindToken) is what keeps appending it
// compatible with older clients.
//
// An enumeration stream is zero or more `ans` frames terminated by
// exactly one `end` (single-epoch completion) or `err` (typed abort —
// e.g. DEADLINE_EXCEEDED mid-stream). Nothing else interleaves, so a
// client always knows when a request is fully answered.
//
// Error codes (ErrorCode below): the retry contract is that RETRY_AFTER
// is the only transient code — clients back off `retry_after_ms` (with
// jitter, see serve/client.h) and retry; every other code is permanent
// for that request.

#ifndef NWD_SERVE_WIRE_H_
#define NWD_SERVE_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/colored_graph.h"
#include "util/lex.h"

namespace nwd {
namespace serve {

// Typed error codes carried in `err` frames.
enum class ErrorCode {
  kBadFrame,          // unframeable stream (oversized/zero length): close
  kBadRequest,        // parseable frame, malformed request text
  kOutOfRange,        // tuple components outside [0, n)
  kNoGraph,           // no snapshot published yet
  kDeadlineExceeded,  // per-request deadline tripped (possibly mid-stream)
  kRetryAfter,        // admission rejected; honor retry_after_ms
  kShuttingDown,      // daemon is stopping
  kInternal,          // worker fault (including injected ones)
};

const char* ErrorCodeName(ErrorCode code);
// Reverse lookup; nullopt for unknown names.
std::optional<ErrorCode> ParseErrorCode(std::string_view name);

// --- Framing over file descriptors -----------------------------------

// A byte lane over a (socket or pipe) fd pair with an optional write
// timeout: WriteAll poll()s for writability and gives up after
// `write_timeout_ms` (a stuck client must not wedge a server worker
// forever). Reads block (each connection owns a thread). The fds are
// borrowed, not owned.
class FdStream {
 public:
  FdStream(int read_fd, int write_fd, int64_t write_timeout_ms = 0)
      : read_fd_(read_fd),
        write_fd_(write_fd),
        write_timeout_ms_(write_timeout_ms) {}

  // Exactly `len` bytes or failure. False on EOF, error, or timeout.
  bool ReadAll(void* buf, size_t len);
  bool WriteAll(const void* buf, size_t len);

  int read_fd() const { return read_fd_; }
  int write_fd() const { return write_fd_; }

 private:
  int read_fd_;
  int write_fd_;
  int64_t write_timeout_ms_;  // 0 = block forever
};

enum class FrameStatus {
  kOk,
  kEof,       // clean EOF at a frame boundary
  kTooBig,    // length prefix exceeds max_len (or is zero)
  kIoError,   // short read / closed mid-frame
};

// Reads one frame (length prefix + payload) into *payload.
FrameStatus ReadFrame(FdStream* stream, size_t max_len, std::string* payload);

// Writes one frame. False on write failure/timeout.
bool WriteFrame(FdStream* stream, std::string_view payload);

// --- Request parsing ---------------------------------------------------

enum class RequestOp {
  kPing,
  kTest,
  kNext,
  kEnumerate,
  kReload,
  kUpdate,
  kMetrics,
  kStats,
  kDump,
  kShutdown,
};

struct Request {
  RequestOp op = RequestOp::kPing;
  Tuple tuple;              // test/next probe; enumerate `from=` if given
  bool has_from = false;    // enumerate: a from= tuple was supplied
  int64_t limit = -1;       // enumerate: -1 = unbounded
  int64_t deadline_ms = 0;  // 0 = no per-request deadline
  std::string source;       // reload source spec
  int64_t budget_ms = 0;        // reload prepare budget
  int64_t max_edge_work = 0;    // reload prepare work cap
  std::vector<GraphEdit> edits;  // update edit batch, in request order
  bool wait_sync = false;        // update wait=1: reply after repair drains
  uint64_t rid = 0;              // client-supplied request id (0 = mint)
  bool prom_format = false;      // metrics format=prom
};

// Parses one request line. On failure returns false and sets *error to a
// one-line diagnostic (the daemon wraps it in `err BAD_REQUEST`). Tuple
// arity/range are NOT checked here — the daemon checks them against the
// current snapshot.
bool ParseRequest(std::string_view line, Request* out, std::string* error);

// --- Response formatting ------------------------------------------------

std::string FormatTuple(const Tuple& t);  // "3,7,0"
// Parses "3,7,0" into *out (any arity >= 1). False on malformed text.
bool ParseTupleText(std::string_view text, Tuple* out);

std::string FormatError(ErrorCode code, std::string_view message,
                        int64_t retry_after_ms = 0);

// --- Response parsing (client side) ------------------------------------

// One fully-collected response to a request: the final status frame plus
// any `ans` stream frames that preceded it.
struct Response {
  bool ok = false;                  // final frame was `ok` or `end`
  bool transport_error = false;     // connection died mid-response
  ErrorCode code = ErrorCode::kInternal;  // when !ok && !transport_error
  int64_t retry_after_ms = 0;       // from RETRY_AFTER errors
  std::string head;                 // final frame's first line, verbatim
  std::string body;                 // lines after the first (metrics JSON)
  std::vector<Tuple> answers;       // `ans` frames, in order
  int64_t epoch = -1;               // epoch=E on the final frame, if any
  int64_t count = -1;               // count=N on `end` frames
  int64_t rid = -1;                 // rid=R on the final frame, if any
};

// Reads frames until a final `ok`/`end`/`err` frame (accumulating `ans`
// frames) and fills *out. Returns false only on transport failure (also
// recorded in out->transport_error).
bool ReadResponse(FdStream* stream, size_t max_len, Response* out);

// Scans "key=value" tokens in a response/request line; returns the value
// for `key` or nullopt.
std::optional<std::string> FindToken(std::string_view line,
                                     std::string_view key);

}  // namespace serve
}  // namespace nwd

#endif  // NWD_SERVE_WIRE_H_
