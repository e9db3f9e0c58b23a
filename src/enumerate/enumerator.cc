#include "enumerate/enumerator.h"

#include "obs/flight.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace nwd {
namespace {

obs::Histogram* DelayHistogram() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram("enumerate.delay_ns");
  return histogram;
}

obs::Histogram* FirstSolutionHistogram() {
  static obs::Histogram* histogram = obs::MetricsRegistry::Global().GetHistogram(
      "enumerate.first_solution_ns");
  return histogram;
}

}  // namespace

ConstantDelayEnumerator::ConstantDelayEnumerator(
    const EnumerationEngine& engine)
    : engine_(&engine) {
  Reset();
}

void ConstantDelayEnumerator::Reset() {
  done_ = false;
  produced_ = 0;
  cursor_ = std::nullopt;
  last_output_ns_ = 0;
}

std::optional<Tuple> ConstantDelayEnumerator::NextSolution() {
  if (done_) return std::nullopt;
  const bool metrics = obs::MetricsEnabled();
  const bool first_call = !cursor_.has_value() && last_output_ns_ == 0;
  const int64_t entry_ns = (metrics && first_call) ? obs::NowNs() : 0;
  std::optional<Tuple> solution;
  if (!cursor_.has_value()) {
    solution = engine_->First();
  } else {
    solution = engine_->Next(*cursor_);
  }
  if (!solution.has_value()) {
    done_ = true;
    return std::nullopt;
  }
  ++produced_;
  // Corollary 2.5's guarantee is about the gap between consecutive
  // outputs; record it as a distribution (output i-1 -> output i). The
  // first output of a run is a different quantity — it absorbs First()'s
  // lazy work (and, on a busy host, whatever preemption lands there) —
  // so it goes to its own histogram instead of polluting the steady-state
  // delay distribution. Costs a clock read per solution, hence gated.
  if (metrics) {
    const int64_t now_ns = obs::NowNs();
    if (last_output_ns_ != 0) {
      DelayHistogram()->Record(now_ns - last_output_ns_);
    } else if (first_call) {
      FirstSolutionHistogram()->Record(now_ns - entry_ns);
    }
    last_output_ns_ = now_ns;
  }
  // Advance the cursor past this solution. When the solution is the
  // lexicographic maximum (or a sentence's empty tuple), enumeration ends.
  Tuple next = *solution;
  if (next.empty() || !LexIncrement(&next, engine_->universe())) {
    done_ = true;
  } else {
    cursor_ = std::move(next);
  }
  return solution;
}

void ConstantDelayEnumerator::ForEach(
    const std::function<bool(const Tuple&)>& callback) {
  Reset();
  for (std::optional<Tuple> t = NextSolution(); t.has_value();
       t = NextSolution()) {
    if (!callback(*t)) return;
  }
}

}  // namespace nwd
