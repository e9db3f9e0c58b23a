// Minimal self-contained JSON reader for the observability artifacts,
// plus the string escaper their emitters share.
//
// The attestation plane consumes this library's own JSON output —
// nwd-bench-json/1 (bench_json.h), nwd-metrics/1 (MetricsRegistry),
// Chrome traces (FlightRecorder::WriteChromeTrace), nwd-attest-json/1
// (attest.h) — and those documents are produced by hand-rolled emitters,
// so the reader is the other half of a round-trip contract: everything
// the emitters write must parse back (tested in attest_test.cc and
// obs_test.cc). It is a strict RFC 8259
// parser, not a lenient one: trailing commas, comments, bare NaN/Inf,
// and trailing garbage after the document are errors, because the whole
// point of the artifact schemas is that CI can trust them blindly.
//
// Scope: a DOM parser for documents in the low-megabyte range (a full
// trace buffer serializes to ~5 MB). Numbers are stored as double —
// every quantity in the artifacts is either a double already or an
// int64 well inside the 2^53 exact range (counters, bucket counts).

#ifndef NWD_OBS_JSON_H_
#define NWD_OBS_JSON_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nwd {
namespace obs {
namespace json {

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  // Insertion order preserved; duplicate keys keep both entries (Find
  // returns the first), mirroring what a streaming emitter would produce.
  std::vector<std::pair<std::string, Value>> object;

  bool IsNull() const { return kind == Kind::kNull; }
  bool IsBool() const { return kind == Kind::kBool; }
  bool IsNumber() const { return kind == Kind::kNumber; }
  bool IsString() const { return kind == Kind::kString; }
  bool IsArray() const { return kind == Kind::kArray; }
  bool IsObject() const { return kind == Kind::kObject; }

  // Object member lookup; nullptr when absent or not an object.
  const Value* Find(std::string_view key) const;

  // Convenience accessors with defaults for optional fields.
  double NumberOr(double fallback) const {
    return IsNumber() ? number : fallback;
  }
  int64_t Int64Or(int64_t fallback) const {
    return IsNumber() ? static_cast<int64_t>(number) : fallback;
  }
  const std::string& StringOr(const std::string& fallback) const {
    return IsString() ? string : fallback;
  }
};

struct ParseResult {
  bool ok = false;
  std::string error;     // one line, with byte offset, empty when ok
  size_t error_offset = 0;
  Value value;
};

// Parses exactly one JSON document (plus surrounding whitespace).
// Nesting deeper than 128 levels is rejected (the artifacts nest 4-5
// levels; a depth bomb should fail cleanly, not overflow the stack).
ParseResult Parse(std::string_view text);

// Reads `path` and parses it; IO errors surface like parse errors.
ParseResult ParseFile(const std::string& path);

// Writes `s` as a quoted JSON string, escaped so that any input yields
// valid JSON.
void WriteString(std::ostream& out, std::string_view s);

}  // namespace json
}  // namespace obs
}  // namespace nwd

#endif  // NWD_OBS_JSON_H_
