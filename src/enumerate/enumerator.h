// Constant-delay enumeration (Corollary 2.5) as an iterator over the
// engine's Next() primitive: after outputting a solution, advance it by one
// in lexicographic order and ask for the smallest solution from there —
// exactly the reduction described below Theorem 2.3 in the paper.

#ifndef NWD_ENUMERATE_ENUMERATOR_H_
#define NWD_ENUMERATE_ENUMERATOR_H_

#include <functional>
#include <optional>

#include "enumerate/engine.h"
#include "util/lex.h"

namespace nwd {

class ConstantDelayEnumerator {
 public:
  // Borrows the engine; it must outlive the enumerator.
  explicit ConstantDelayEnumerator(const EnumerationEngine& engine);

  // The next solution in lexicographic order, or nullopt when exhausted.
  std::optional<Tuple> NextSolution();

  // Restarts from the beginning.
  void Reset();

  // Streams all solutions; return false from the callback to stop.
  void ForEach(const std::function<bool(const Tuple&)>& callback);

  int64_t produced() const { return produced_; }

 private:
  const EnumerationEngine* engine_;
  std::optional<Tuple> cursor_;  // next probe position
  bool done_ = false;
  int64_t produced_ = 0;
};

}  // namespace nwd

#endif  // NWD_ENUMERATE_ENUMERATOR_H_
