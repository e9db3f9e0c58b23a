// The query-compilation plane: analyzed FO queries (the LNF cases built by
// src/enumerate/lnf.cc) lowered into a small flat register-style IR and
// executed by a computed-goto bytecode loop (src/compile/exec.cc). Every
// LNF-mode engine answers through it: the engine lowers its cases once,
// right after the skip-pointer stage, and runs Test, Next and its own
// extendable-coordinate descents on the executor.
//
// Two programs per query, both reading straight out of a contiguous
// std::vector<Insn>:
//
//   * The Test program: one straight-line branch sequence per live case.
//     Every distance-type entry (tau) and literal lowers to a conditional
//     branch; a mismatch jumps to the next case, the last mismatch reaches
//     the shared kReject, and a fully matched case reaches kAccept.
//     Distance branches are memoized in per-probe registers (ProbeContext::
//     test_memo), so a (pair, bound) oracle call runs at most once per
//     probe, however many cases test the same tau pair.
//
//   * The Next program: the recursive lexicographic descent of Theorem
//     5.1 flattened into an explicit control-flow graph of kInit / kFind* /
//     kBump ops per position, with the Case I / Case II / position-0
//     candidate source specialized per (case, position) at compile time
//     (kFindSkip / kFindBall / kFindExt0) rather than re-dispatched per
//     call. Candidate validation (unary colors, tau distances to earlier
//     positions, binary literals) is a flat Check range attached to each
//     find op, pre-fused and ordered cheap-first. Each case's code starts
//     at its entry with one kInit/kFind pair per position, so entry + 2*p
//     is position p's kInit (ExecExtendCase enters at position 1).
//
// Peephole passes run at lowering time (see compiler.cc): constant color
// tests folded against the graph's color census, per-pair distance bounds
// fused (tau entries, dist literals, equality and edge implications),
// duplicate branches dropped, and cases proved contradictory eliminated
// from both programs. Every pass preserves the case conjunction pointwise,
// so the programs accept exactly the tuples the LNF cases define; the
// parity suites check the answers against fo::NaiveEvaluator.
//
// A CompiledQuery is immutable after Compile() and safe to execute from
// any number of threads; all per-probe state, the executor's work
// counters (ProbeContext::compiled_probes / compiled_insns) included,
// lives in the caller's ProbeContext.

#ifndef NWD_COMPILE_PROGRAM_H_
#define NWD_COMPILE_PROGRAM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/colored_graph.h"
#include "util/lex.h"

namespace nwd {
namespace compile {

enum class Op : uint8_t {
  // Test-program ops.
  kBrColor = 0,  // HasColor(t[a], imm) == expect ? succ : fail
  kBrEq,         // (t[a] == t[b]) == expect ? succ : fail
  kBrEdge,       // HasEdge(t[a], t[b]) == expect ? succ : fail
  kBrDist,       // WithinDistance(t[a], t[b], imm) == expect, memoized in reg
  kAccept,       // Test := true
  kReject,       // Test := false
  // Next-program ops (one kInit/kFind*/kBump triple per position).
  kInit,      // enter position a from above: reset its minimum and tightness
  kFindExt0,  // position 0: lower_bound over the extendable list ext0[imm]
  kFindBall,  // Case II: scan the cached (k-1)*r ball of anchor regs[b]
  kFindSkip,  // Case I: skip-pointer resolve over list imm + earlier-bag scans
  kBump,      // deeper positions exhausted: advance a's minimum past regs[a]
  kFound,     // descent complete; the solution is in the caller's registers
  kFail,      // position 0 exhausted; this case has no answer >= from
};
inline constexpr int kNumOps = 13;

const char* OpName(Op op);

// One instruction, ~24 bytes, field roles per op (unused fields are -1/0):
//   a      position / pos1
//   b      pos2 (branches) or the Case II anchor position (kFindBall)
//   expect required truth value (branch ops)
//   reg    per-probe memo register (kBrDist)
//   imm    color id / distance bound / ext0 table index / candidate-list id
//   succ   next pc on success (branch passed / candidate found / init done)
//   fail   next pc on failure (branch failed / candidates exhausted)
//   cbegin/ccount  candidate-check range in CompiledQuery::checks (find ops)
struct Insn {
  Op op;
  uint8_t expect = 0;
  int16_t a = -1;
  int16_t b = -1;
  int16_t reg = -1;
  int32_t imm = 0;
  int32_t succ = -1;
  int32_t fail = -1;
  int32_t cbegin = 0;
  int32_t ccount = 0;
};

// One candidate-validation predicate: does candidate v, placed at the find
// op's position, satisfy this unary/binary constraint against the earlier
// registers? Fused and ordered cheap-first (colors, equalities, edges, then
// oracle distance tests) at compile time.
struct Check {
  enum class Kind : uint8_t { kColor, kEq, kEdge, kDist };
  Kind kind;
  uint8_t expect;
  int16_t other = -1;  // earlier position (binary kinds)
  int32_t imm = 0;     // color id / distance bound
};

const char* CheckKindName(Check::Kind kind);

// What the peepholes did, recorded once per Compile().
struct CompileStats {
  int64_t cases_in = 0;
  int64_t cases_live = 0;
  int64_t dead_cases = 0;         // proved contradictory, dropped
  int64_t color_folds = 0;        // constant color tests folded
  int64_t dist_fusions = 0;       // per-pair bounds fused / implied away
  int64_t dedup_drops = 0;        // duplicate branches/checks dropped
  int64_t specialized_finds = 0;  // kFindExt0/kFindBall/kFindSkip emitted
  int64_t test_insns = 0;
  int64_t next_insns = 0;
  int64_t checks = 0;
  int64_t test_regs = 0;  // distinct memoized distance tests
};

// An immutable compiled query: both programs and the shared check pool.
// Built by Compile() (compiler.cc), executed by ExecTest/ExecNextCase
// (exec.cc).
class CompiledQuery {
 public:
  int arity = 0;
  int radius = 0;       // tau locality radius r
  int ball_radius = 0;  // (k-1)*r, the Case II anchor-ball radius

  std::vector<Insn> test_code;
  std::vector<Insn> next_code;
  std::vector<Check> checks;

  // Per original LNF case index: entry pc into next_code, or -1 when the
  // peepholes proved the case contradictory (it can never produce an
  // answer, so skipping it preserves the cross-case minimum).
  std::vector<int32_t> next_entry;

  // kFindExt0's imm indexes this table. The vectors are borrowed from the
  // engine's per-case data, which the program is lowered before: the
  // extendable descents fill them afterwards through ExecExtendCase, which
  // never reads them. The engine owns both and resets the program before
  // releasing them (DegradeAfterTrip).
  std::vector<const std::vector<Vertex>*> ext0;

  int num_test_regs = 0;
  CompileStats stats;

  // One insn per line with resolved operands, plus the check pool. The
  // nwdq --dump-program output.
  std::string Disassemble() const;
};

}  // namespace compile
}  // namespace nwd

#endif  // NWD_COMPILE_PROGRAM_H_
