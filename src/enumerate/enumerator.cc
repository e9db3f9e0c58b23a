#include "enumerate/enumerator.h"

namespace nwd {

ConstantDelayEnumerator::ConstantDelayEnumerator(
    const EnumerationEngine& engine)
    : engine_(&engine) {
  Reset();
}

void ConstantDelayEnumerator::Reset() {
  done_ = false;
  produced_ = 0;
  cursor_ = std::nullopt;
}

std::optional<Tuple> ConstantDelayEnumerator::NextSolution() {
  if (done_) return std::nullopt;
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
