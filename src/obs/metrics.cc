#include "obs/metrics.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "obs/json.h"
#include "util/check.h"

namespace nwd {
namespace obs {
namespace {

void WriteFiniteDouble(std::ostream& out, double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out << buf;
}

}  // namespace

void Histogram::Record(int64_t value) {
  if (value < 0) {
    negative_samples_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  int64_t cur = min_.load(std::memory_order_relaxed);
  while (value < cur &&
         !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (value > cur &&
         !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  const int bucket = std::bit_width(static_cast<uint64_t>(value));
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::Read() const {
  Snapshot s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.negative_samples = negative_samples_.load(std::memory_order_relaxed);
  s.buckets.resize(kBuckets);
  for (int b = 0; b < kBuckets; ++b) {
    s.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  if (s.count > 0) {
    s.min = min_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
  }
  return s;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    counters_.emplace_back();
    Entry entry;
    entry.kind = InstrumentValue::Kind::kCounter;
    entry.counter = &counters_.back();
    it = by_name_.emplace(name, entry).first;
  }
  NWD_CHECK(it->second.kind == InstrumentValue::Kind::kCounter)
      << "metric '" << name << "' already registered with another kind";
  return it->second.counter;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    gauges_.emplace_back();
    Entry entry;
    entry.kind = InstrumentValue::Kind::kGauge;
    entry.gauge = &gauges_.back();
    it = by_name_.emplace(name, entry).first;
  }
  NWD_CHECK(it->second.kind == InstrumentValue::Kind::kGauge)
      << "metric '" << name << "' already registered with another kind";
  return it->second.gauge;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    histograms_.emplace_back();
    Entry entry;
    entry.kind = InstrumentValue::Kind::kHistogram;
    entry.histogram = &histograms_.back();
    it = by_name_.emplace(name, entry).first;
  }
  NWD_CHECK(it->second.kind == InstrumentValue::Kind::kHistogram)
      << "metric '" << name << "' already registered with another kind";
  return it->second.histogram;
}

std::map<std::string, MetricsRegistry::InstrumentValue>
MetricsRegistry::Snapshot() const {
  std::map<std::string, InstrumentValue> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, entry] : by_name_) {
    InstrumentValue value;
    value.kind = entry.kind;
    switch (entry.kind) {
      case InstrumentValue::Kind::kCounter:
        value.value = entry.counter->value();
        break;
      case InstrumentValue::Kind::kGauge:
        value.value = entry.gauge->value();
        break;
      case InstrumentValue::Kind::kHistogram:
        value.histogram = entry.histogram->Read();
        break;
    }
    out.emplace(name, std::move(value));
  }
  return out;
}

void MetricsRegistry::WriteJson(std::ostream& out) const {
  const auto snapshot = Snapshot();
  out << "{\"schema\":\"nwd-metrics/1\"";
  for (const auto kind : {InstrumentValue::Kind::kCounter,
                          InstrumentValue::Kind::kGauge,
                          InstrumentValue::Kind::kHistogram}) {
    switch (kind) {
      case InstrumentValue::Kind::kCounter: out << ",\"counters\":{"; break;
      case InstrumentValue::Kind::kGauge: out << ",\"gauges\":{"; break;
      case InstrumentValue::Kind::kHistogram: out << ",\"histograms\":{"; break;
    }
    bool first = true;
    for (const auto& [name, value] : snapshot) {
      if (value.kind != kind) continue;
      if (!first) out << ',';
      first = false;
      json::WriteString(out, name);
      out << ':';
      if (kind != InstrumentValue::Kind::kHistogram) {
        out << value.value;
      } else {
        const Histogram::Snapshot& h = value.histogram;
        out << "{\"count\":" << h.count << ",\"sum\":" << h.sum
            << ",\"min\":" << h.min << ",\"max\":" << h.max
            << ",\"negative_samples\":" << h.negative_samples << ",\"mean\":";
        WriteFiniteDouble(out, h.mean());
        // Trailing zero buckets are elided: the bucket index is the bit
        // width of the sample, so readers reconstruct ranges positionally.
        int last = Histogram::kBuckets - 1;
        while (last >= 0 && h.buckets[static_cast<size_t>(last)] == 0) --last;
        out << ",\"buckets\":[";
        for (int b = 0; b <= last; ++b) {
          if (b > 0) out << ',';
          out << h.buckets[static_cast<size_t>(b)];
        }
        out << "]}";
      }
    }
    out << '}';
  }
  out << "}\n";
}

void MetricsRegistry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Counter& c : counters_) c.Add(-c.value());
  for (Gauge& g : gauges_) g.Set(0);
  for (Histogram& h : histograms_) {
    // Placement-reset: histograms are trivially re-initializable.
    h.~Histogram();
    new (&h) Histogram();
  }
}

namespace {

std::atomic<int>& MetricsEnabledFlag() {
  // -1 = unresolved (consult the environment on first query).
  static std::atomic<int> flag{-1};
  return flag;
}

}  // namespace

bool MetricsEnabled() {
  int state = MetricsEnabledFlag().load(std::memory_order_relaxed);
  if (state < 0) {
    const char* env = std::getenv("NWD_METRICS");
    state = (env != nullptr && env[0] != '\0' && env[0] != '0') ? 1 : 0;
    MetricsEnabledFlag().store(state, std::memory_order_relaxed);
  }
  return state != 0;
}

void SetMetricsEnabled(bool enabled) {
  MetricsEnabledFlag().store(enabled ? 1 : 0, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace nwd
