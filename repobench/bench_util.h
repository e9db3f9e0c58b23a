// Shared pieces of the repository benchmark: clocks and quantiles, the
// metric report, the in-memory span log, and the answer checker.

#ifndef NWD_REPOBENCH_BENCH_UTIL_H_
#define NWD_REPOBENCH_BENCH_UTIL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fo/ast.h"
#include "fo/naive_eval.h"
#include "graph/colored_graph.h"
#include "util/lex.h"

namespace nwd {
namespace bench {

int64_t NowNs();

// Linear interpolation between closest ranks; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

// Peak resident set (VmHWM) of this process, in MiB.
double PeakRssMb();

// Metrics printed by the run: every entry becomes a human-readable line;
// entries marked `json` also land in the final JSON object.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples, bool json);
  void PrintLines() const;
  // The contract's last stdout line.
  void PrintJson(bool correct, int64_t attempted, int64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    int64_t samples;
    bool json;
  };
  std::vector<Entry> entries_;
};

// One recorded span. `parent` and `root` index into the same log (-1 for
// a root's parent); `child_ns` accumulates the durations of direct
// children, so self time is (end - begin) - child_ns.
struct Span {
  const char* name;
  int64_t begin_ns;
  int64_t end_ns;
  int64_t child_ns;
  int32_t parent;
  int32_t root;
  uint64_t rid;
};

// Per-thread, bounded span log. Spans past the capacity are counted, not
// stored. Not thread-safe: one log per thread.
class SpanLog {
 public:
  SpanLog(int tid, size_t capacity);

  int32_t Begin(const char* name, uint64_t rid);
  void End(int32_t index);

  int tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }
  int64_t dropped() const { return dropped_; }

 private:
  int tid_;
  size_t capacity_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  int64_t dropped_ = 0;
};

// RAII span; a null log records nothing (the untraced runs).
class Stage {
 public:
  Stage(SpanLog* log, const char* name, uint64_t rid = 0)
      : log_(log), index_(log != nullptr ? log->Begin(name, rid) : -1) {}
  ~Stage() {
    if (log_ != nullptr) log_->End(index_);
  }
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

 private:
  SpanLog* log_;
  int32_t index_;
};

// Owns the span logs of a run; hands one to each traced thread.
class TraceSet {
 public:
  SpanLog* NewLog(size_t capacity);

  // Self time of every span, in ns, grouped by span name.
  std::map<std::string, std::vector<double>> SelfTimes() const;
  // Whole durations, in ns, of the spans named `name`.
  std::vector<double> Durations(const std::string& name) const;
  // For each root span named `root_name`: the self times of the spans
  // under it summed per name (the root's own self time under its name).
  // Returns name -> one value per root that contains that name.
  std::map<std::string, std::vector<double>> PerRootSums(
      const std::string& root_name) const;

  // Chrome trace JSON (the format obs::Tracer::WriteJson emits), with the
  // rid, parent name and self time of every span in `args`.
  bool WriteChromeJson(const std::string& path, int64_t origin_ns,
                       const std::string& workload, uint64_t seed) const;

 private:
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

// Ground truth through fo::NaiveEvaluator: Test is one naive evaluation;
// Next scans tuples in lexicographic order from `from`.
class Checker {
 public:
  Checker(const ColoredGraph& graph, const fo::Query& query)
      : graph_(graph), query_(query), eval_(graph) {}

  bool Test(const Tuple& t) { return eval_.TestTuple(query_, t); }
  std::optional<Tuple> Next(Tuple from);

 private:
  const ColoredGraph& graph_;
  const fo::Query& query_;
  fo::NaiveEvaluator eval_;
};

}  // namespace bench
}  // namespace nwd

#endif  // NWD_REPOBENCH_BENCH_UTIL_H_
