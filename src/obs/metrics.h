// Process-wide metrics registry (the observability layer's data plane).
//
// The paper's claims are complexity *shapes* — pseudo-linear preprocessing
// (Theorem 2.3), constant delay (Corollary 2.5), O(n^eps) trie updates
// (Theorem 3.1) — and every one of them is a statement about a counter or
// a distribution: edge work charged, structure sizes, nanoseconds between
// consecutive solutions. This registry turns those into named instruments
// that any caller can scrape as JSON while the engine keeps serving:
//
//   * Counter   — monotonically increasing int64 (relaxed atomic add).
//   * Gauge     — last-value / high-water int64 (relaxed store / CAS max).
//   * Histogram — lock-free log2-bucketed int64 distribution with exact
//                 count/sum/min/max, the instrument behind the enumeration
//                 delay recording (Corollary 2.5 as data, not a printout).
//
// Concurrency contract: instrument mutations are relaxed atomics — safe
// from any thread, no locks on the hot path (the same discipline as
// AnswerCounters in probe_context.h). Instrument *lookup* takes a mutex;
// hot paths look an instrument up once and cache the pointer (instruments
// live as long as the registry, which for Global() is the process).
// Scraping (Snapshot / WriteJson) runs concurrently with mutations and
// sees per-instrument coherent values.
//
// Every instrument is always on; there is no switch. A timed hook records
// only where its clock reads are already paid for: the daemon's request
// and epoch-drain histograms reuse the timestamps the flight recorder and
// the snapshot deleter take anyway, and per-solution delays are timed by
// the caller that drives the enumerator (nwdq, bench_delay, nwd-attest),
// never inside the library's answer path.

#ifndef NWD_OBS_METRICS_H_
#define NWD_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace nwd {
namespace obs {

class Counter {
 public:
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  // Monotone high-water update (peak sizes, pool high-water marks).
  void SetMax(int64_t value) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (value > cur &&
           !value_.compare_exchange_weak(cur, value,
                                         std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Log2-bucketed distribution of non-negative int64 samples. Bucket b
// counts samples whose bit width is b, i.e. values in [2^(b-1), 2^b)
// (bucket 0 holds zeros), so 64 buckets cover the full range and Record()
// is a handful of relaxed atomic ops — no locks, no allocation.
//
// Negative samples are dropped, not clamped: a negative duration means
// the clock went backwards (or the caller subtracted the wrong way), and
// folding it into the zero bucket would silently drag the quantiles
// down. The drop is visible as `negative_samples` in the snapshot.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(int64_t value);

  struct Snapshot {
    int64_t count = 0;  // recorded samples (negatives excluded)
    int64_t sum = 0;
    int64_t min = 0;  // 0 when count == 0
    int64_t max = 0;
    int64_t negative_samples = 0;  // dropped by Record(value < 0)
    std::vector<int64_t> buckets;  // kBuckets entries
    double mean() const {
      return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                       : 0.0;
    }
  };
  Snapshot Read() const;

 private:
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> min_{INT64_MAX};
  std::atomic<int64_t> max_{INT64_MIN};
  std::atomic<int64_t> negative_samples_{0};
  std::atomic<int64_t> buckets_[kBuckets] = {};
};

// Named instrument registry. GetX(name) creates on first use and returns
// a stable pointer (instruments are never destroyed before the registry);
// a name maps to exactly one instrument kind — reusing it with another
// kind is a programming error and check-fails.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry the library's built-in instruments use.
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  // Coherent-per-instrument snapshot, sorted by name; safe concurrently
  // with mutations and registrations.
  struct InstrumentValue {
    enum class Kind { kCounter, kGauge, kHistogram };
    Kind kind;
    int64_t value = 0;            // counter / gauge
    Histogram::Snapshot histogram;  // histogram only
  };
  std::map<std::string, InstrumentValue> Snapshot() const;

  // Serializes Snapshot() as one JSON object:
  //   {"schema":"nwd-metrics/1","counters":{...},"gauges":{...},
  //    "histograms":{"name":{"count":..,"sum":..,"min":..,"max":..,
  //                          "negative_samples":..,"mean":..,
  //                          "buckets":[..]}}}
  // Always valid JSON; all numbers finite.
  void WriteJson(std::ostream& out) const;

  // Zeroes every counter/gauge and forgets histogram samples. Test-only:
  // callers racing Reset against mutations get mixed (but still coherent)
  // values, which is fine for the TSan harness it exists for.
  void ResetForTest();

 private:
  struct Entry {
    InstrumentValue::Kind kind;
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> by_name_;
  // Deques give stable addresses across registration.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
};

}  // namespace obs
}  // namespace nwd

#endif  // NWD_OBS_METRICS_H_
