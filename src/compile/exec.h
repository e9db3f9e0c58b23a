// The bytecode executors: a computed-goto dispatch loop (GCC/Clang label
// addresses; portable switch fallback elsewhere) over the contiguous
// CompiledQuery programs. They are the engine's only LNF answer path:
// Test, Next, and the preprocessing/repair descents that decide which
// first coordinates extend to a solution. Every entry point is
// thread-safe: the program and the ExecEnv structures are immutable, and
// every mutable datum lives in the caller's ProbeContext (memo registers,
// descent minimums, the Case II ball cache and BFS scratch).

#ifndef NWD_COMPILE_EXEC_H_
#define NWD_COMPILE_EXEC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "compile/program.h"
#include "cover/neighborhood_cover.h"
#include "enumerate/probe_context.h"
#include "local/distance_oracle.h"
#include "skip/skip_pointers.h"
#include "util/lex.h"

namespace nwd {
namespace compile {

// Borrowed views of the engine's immutable prepared structures; valid for
// the engine's lifetime (the engine resets its program before releasing
// any of them).
struct ExecEnv {
  const ColoredGraph* graph = nullptr;
  const DistanceOracle* oracle = nullptr;
  const NeighborhoodCover* cover = nullptr;
  const std::vector<std::unique_ptr<SkipPointers>>* skips = nullptr;
};

// Runs the Test program on `tuple`: whether some LNF case holds, with
// each distinct oracle distance test asked at most once per probe
// (memoized in ctx->test_memo).
bool ExecTest(const CompiledQuery& q, const ExecEnv& env, const Tuple& tuple,
              ProbeContext* ctx);

// Runs one case's Next descent from `entry` (a CompiledQuery::next_entry
// value, >= 0): the lexicographically smallest solution of the case that
// is >= from. On success the solution is left in ctx->assignment (which
// must already hold q.arity slots).
bool ExecNextCase(const CompiledQuery& q, const ExecEnv& env, int32_t entry,
                  const Tuple& from, ProbeContext* ctx);

// Completes a pinned first coordinate: ctx->assignment (q.arity slots)
// holds the position-0 value, and the descent of the case at `entry`
// fills positions 1..k-1 with the smallest completion, every later
// position starting from 0. Returns false when none exists — position 0
// is never advanced — or when the case is dead (entry < 0). Anchor-ball
// BFS is charged to ctx->budget when set, and a tripped budget ends the
// descent at the next backtrack. This is the extendable-coordinate
// descent of preprocessing and Repair. It counts no probe, and the engine
// gives it private contexts, so it never reaches the answer counters.
bool ExecExtendCase(const CompiledQuery& q, const ExecEnv& env, int32_t entry,
                    ProbeContext* ctx);

}  // namespace compile
}  // namespace nwd

#endif  // NWD_COMPILE_EXEC_H_
