#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace nwd {
namespace bench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, int64_t samples, bool json) {
  entries_.push_back(Entry{name, std::isfinite(value) ? value : 0.0, unit,
                           samples, json});
}

void Report::PrintLines() const {
  for (const Entry& e : entries_) {
    std::printf("%s %-32s %16.6f %-6s n=%" PRId64 "\n",
                e.json ? "metric" : "info  ", e.name.c_str(), e.value,
                e.unit.c_str(), e.samples);
  }
}

void Report::PrintJson(bool correct, int64_t attempted,
                       int64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Entry& e : entries_) {
    if (!e.json) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", e.value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + e.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

SpanLog::SpanLog(int tid, size_t capacity) : tid_(tid), capacity_(capacity) {
  spans_.reserve(capacity);
  open_.reserve(16);
}

int32_t SpanLog::Begin(const char* name, uint64_t rid) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  if (spans_.size() >= capacity_) {
    ++dropped_;
    open_.push_back(-1);
    return -1;
  }
  const int32_t index = static_cast<int32_t>(spans_.size());
  if (rid == 0 && parent >= 0) rid = spans_[static_cast<size_t>(parent)].rid;
  const int32_t root =
      parent >= 0 ? spans_[static_cast<size_t>(parent)].root : index;
  spans_.push_back(Span{name, NowNs(), 0, 0, parent, root, rid});
  open_.push_back(index);
  return index;
}

void SpanLog::End(int32_t index) {
  const int64_t end = NowNs();
  open_.pop_back();
  if (index < 0) return;
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = end;
  if (span.parent >= 0) {
    spans_[static_cast<size_t>(span.parent)].child_ns += end - span.begin_ns;
  }
}

SpanLog* TraceSet::NewLog(size_t capacity) {
  logs_.push_back(
      std::make_unique<SpanLog>(static_cast<int>(logs_.size()) + 1, capacity));
  return logs_.back().get();
}

namespace {
double SelfNs(const Span& s) {
  return static_cast<double>(s.end_ns - s.begin_ns - s.child_ns);
}
}  // namespace

std::map<std::string, std::vector<double>> TraceSet::SelfTimes() const {
  std::map<std::string, std::vector<double>> out;
  for (const auto& log : logs_) {
    for (const Span& s : log->spans()) {
      if (s.end_ns != 0) out[s.name].push_back(SelfNs(s));
    }
  }
  return out;
}

std::vector<double> TraceSet::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const auto& log : logs_) {
    for (const Span& s : log->spans()) {
      if (s.end_ns != 0 && name == s.name) {
        out.push_back(static_cast<double>(s.end_ns - s.begin_ns));
      }
    }
  }
  return out;
}

std::map<std::string, std::vector<double>> TraceSet::PerRootSums(
    const std::string& root_name) const {
  std::map<std::string, std::vector<double>> out;
  for (const auto& log : logs_) {
    const std::vector<Span>& spans = log->spans();
    std::unordered_map<int32_t, std::map<std::string, double>> per_root;
    for (const Span& s : spans) {
      if (s.end_ns == 0) continue;
      const Span& root = spans[static_cast<size_t>(s.root)];
      if (root.end_ns == 0 || root_name != root.name) continue;
      per_root[s.root][s.name] += SelfNs(s);
    }
    for (const auto& [root, sums] : per_root) {
      for (const auto& [name, ns] : sums) out[name].push_back(ns);
    }
  }
  return out;
}

bool TraceSet::WriteChromeJson(const std::string& path, int64_t origin_ns,
                               const std::string& workload,
                               uint64_t seed) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  int64_t dropped = 0;
  int64_t omitted = 0;
  for (const auto& log : logs_) {
    dropped += log->dropped();
    const std::vector<Span>& spans = log->spans();
    // Bounded export: every span of the first kHeadRoots requests, and of
    // each request at or above its log's 99th-percentile duration (the
    // slow ones worth matching against the daemon's `dump`).
    constexpr int64_t kHeadRoots = 2000;
    std::vector<double> root_ns;
    std::unordered_map<int32_t, int64_t> ordinal;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.parent < 0 && s.end_ns != 0) {
        ordinal[static_cast<int32_t>(i)] = static_cast<int64_t>(root_ns.size());
        root_ns.push_back(static_cast<double>(s.end_ns - s.begin_ns));
      }
    }
    const double slow_ns = Quantile(root_ns, 0.99);
    for (const Span& s : spans) {
      if (s.end_ns == 0) continue;
      const Span& root = spans[static_cast<size_t>(s.root)];
      const auto it = ordinal.find(s.root);
      if (it == ordinal.end() ||
          (it->second >= kHeadRoots &&
           static_cast<double>(root.end_ns - root.begin_ns) < slow_ns)) {
        ++omitted;
        continue;
      }
      const char* parent =
          s.parent >= 0 ? spans[static_cast<size_t>(s.parent)].name : "";
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"repobench\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                   "\"args\":{\"rid\":%" PRIu64
                   ",\"parent\":\"%s\",\"self_us\":%.3f}}",
                   first ? "" : ",", s.name,
                   static_cast<double>(s.begin_ns - origin_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.begin_ns) / 1e3,
                   log->tid(), s.rid, parent, SelfNs(s) / 1e3);
      first = false;
    }
  }
  std::fprintf(f,
               "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":"
               "\"%s\",\"seed\":%" PRIu64 ",\"dropped_spans\":%" PRId64
               ",\"omitted_spans\":%" PRId64 "}}\n",
               workload.c_str(), seed, dropped, omitted);
  return std::fclose(f) == 0;
}

std::optional<Tuple> Checker::Next(Tuple from) {
  do {
    if (Test(from)) return from;
  } while (LexIncrement(&from, graph_.NumVertices()));
  return std::nullopt;
}

}  // namespace bench
}  // namespace nwd
