#include "compile/exec.h"

#include <algorithm>
#include <atomic>
#include <span>

#include "util/budget.h"
#include "util/fault_injection.h"

namespace nwd {
namespace compile {
namespace {

// Computed-goto dispatch on compilers with label addresses (GCC/Clang);
// the portable build falls back to a for/switch loop around the same op
// bodies.
#if defined(__GNUC__) || defined(__clang__)
#define NWD_COMPILE_COMPUTED_GOTO 1
#else
#define NWD_COMPILE_COMPUTED_GOTO 0
#endif

// Candidate validation for the find ops: the fused per-position checks —
// the position's unary colors plus its tau distances and binary literals
// against the earlier registers.
inline bool RunChecks(const Check* checks, int32_t count, Vertex v,
                      const Vertex* regs, const ExecEnv& env) {
  for (int32_t i = 0; i < count; ++i) {
    const Check& c = checks[i];
    bool holds = false;
    switch (c.kind) {
      case Check::Kind::kColor:
        holds = env.graph->HasColor(v, c.imm);
        break;
      case Check::Kind::kEq:
        holds = v == regs[c.other];
        break;
      case Check::Kind::kEdge:
        holds = env.graph->HasEdge(v, regs[c.other]);
        break;
      case Check::Kind::kDist:
        holds = env.oracle->WithinDistance(v, regs[c.other], c.imm);
        break;
    }
    if (holds != static_cast<bool>(c.expect)) return false;
  }
  return true;
}

// The Case II anchor ball through the per-probe cache. The
// answer/ball_cache fault point bypasses both the lookup and the insert
// (forcing the fresh-BFS route without changing any answer), and the
// hit/miss counters feed the context's fields. A fresh BFS is charged to
// ctx->budget, which only the extendable descents set (answer-time
// execution is never budgeted); a charge that trips the budget yields an
// empty ball, and the descent unwinds at its next backtrack.
inline std::span<const Vertex> AnchorBall(const ExecEnv& env, int radius,
                                          Vertex anchor, ProbeContext* ctx) {
  std::span<const Vertex> ball;
  const bool skip_cache = NWD_FAULT_POINT("answer/ball_cache");
  if (!skip_cache && ctx->balls.Lookup(anchor, &ball)) {
    ctx->ball_cache_hits.fetch_add(1, std::memory_order_relaxed);
    return ball;
  }
  ctx->ball_cache_misses.fetch_add(1, std::memory_order_relaxed);
  ctx->scratch.NeighborhoodInto(*env.graph, anchor, radius,
                                &ctx->ball_scratch);
  ball = skip_cache ? std::span<const Vertex>(ctx->ball_scratch)
                    : ctx->balls.Insert(anchor, ctx->ball_scratch);
  if (ctx->budget != nullptr &&
      !ctx->budget->ChargeWork(static_cast<int64_t>(ball.size()))) {
    return {};
  }
  return ball;
}

bool ExecTestImpl(const CompiledQuery& q, const ExecEnv& env, const Vertex* t,
                  ProbeContext* ctx) {
  const Insn* code = q.test_code.data();
  uint8_t* memo = ctx->test_memo.data();
  int64_t executed = 0;
  int32_t pc = 0;

#if NWD_COMPILE_COMPUTED_GOTO
  // Indexed by Op; the next-program ops can never appear in test_code.
  static const void* kTargets[kNumOps] = {
      &&l_kBrColor, &&l_kBrEq, &&l_kBrEdge, &&l_kBrDist, &&l_kAccept,
      &&l_kReject,  &&l_bad,   &&l_bad,     &&l_bad,     &&l_bad,
      &&l_bad,      &&l_bad,   &&l_bad};
#define NWD_OPCASE(name) l_##name:
#define NWD_DISPATCH()                                \
  do {                                                \
    ++executed;                                       \
    goto* kTargets[static_cast<size_t>(code[pc].op)]; \
  } while (0)
  NWD_DISPATCH();
#else
#define NWD_OPCASE(name) case Op::name:
#define NWD_DISPATCH() continue
  for (;;) {
    ++executed;
    switch (code[pc].op) {
#endif

      NWD_OPCASE(kBrColor) {
        const Insn& insn = code[pc];
        const bool v = env.graph->HasColor(t[insn.a], insn.imm);
        pc = (v == static_cast<bool>(insn.expect)) ? insn.succ : insn.fail;
        NWD_DISPATCH();
      }
      NWD_OPCASE(kBrEq) {
        const Insn& insn = code[pc];
        const bool v = t[insn.a] == t[insn.b];
        pc = (v == static_cast<bool>(insn.expect)) ? insn.succ : insn.fail;
        NWD_DISPATCH();
      }
      NWD_OPCASE(kBrEdge) {
        const Insn& insn = code[pc];
        const bool v = env.graph->HasEdge(t[insn.a], t[insn.b]);
        pc = (v == static_cast<bool>(insn.expect)) ? insn.succ : insn.fail;
        NWD_DISPATCH();
      }
      NWD_OPCASE(kBrDist) {
        const Insn& insn = code[pc];
        const uint8_t m = memo[insn.reg];
        bool v;
        if (m == 0) {
          v = env.oracle->WithinDistance(t[insn.a], t[insn.b], insn.imm);
          memo[insn.reg] = v ? 2 : 1;
        } else {
          v = (m == 2);
        }
        pc = (v == static_cast<bool>(insn.expect)) ? insn.succ : insn.fail;
        NWD_DISPATCH();
      }
      NWD_OPCASE(kAccept) {
        ctx->compiled_insns.fetch_add(executed, std::memory_order_relaxed);
        return true;
      }
      NWD_OPCASE(kReject) {
        ctx->compiled_insns.fetch_add(executed, std::memory_order_relaxed);
        return false;
      }

#if NWD_COMPILE_COMPUTED_GOTO
  l_bad:
  return false;
#else
      default:
        return false;
    }
  }
#endif
#undef NWD_OPCASE
#undef NWD_DISPATCH
}

// kExtend selects the pinned-first-coordinate descent (ExecExtendCase):
// backtracking into position 0 ends it, and so does a tripped budget.
template <bool kExtend>
bool ExecNextImpl(const CompiledQuery& q, const ExecEnv& env, int32_t entry,
                  const Vertex* from, ProbeContext* ctx) {
  const Insn* code = q.next_code.data();
  const Check* checks = q.checks.data();
  Vertex* regs = ctx->assignment.data();
  Vertex* minval = ctx->next_minval.data();
  uint8_t* tin = ctx->next_tin.data();  // tightness entering each position
  uint8_t* ct = ctx->next_ct.data();    // tightness after its chosen value
  const int64_t n = env.graph->NumVertices();
  int64_t executed = 0;
  int32_t pc = entry;

#if NWD_COMPILE_COMPUTED_GOTO
  static const void* kTargets[kNumOps] = {
      &&l_bad,   &&l_bad,       &&l_bad,       &&l_bad,       &&l_bad,
      &&l_bad,   &&l_kInit,     &&l_kFindExt0, &&l_kFindBall, &&l_kFindSkip,
      &&l_kBump, &&l_kFound,    &&l_kFail};
#define NWD_OPCASE(name) l_##name:
#define NWD_DISPATCH()                                \
  do {                                                \
    ++executed;                                       \
    goto* kTargets[static_cast<size_t>(code[pc].op)]; \
  } while (0)
  NWD_DISPATCH();
#else
#define NWD_OPCASE(name) case Op::name:
#define NWD_DISPATCH() continue
  for (;;) {
    ++executed;
    switch (code[pc].op) {
#endif

      NWD_OPCASE(kInit) {
        const Insn& insn = code[pc];
        const int p = insn.a;
        tin[p] = (p == 0) ? 1 : ct[p - 1];
        minval[p] = tin[p] ? from[p] : 0;
        pc = insn.succ;
        NWD_DISPATCH();
      }
      NWD_OPCASE(kFindExt0) {
        const Insn& insn = code[pc];
        const int p = insn.a;
        const Vertex mv = minval[p];
        if (mv >= n) {
          pc = insn.fail;
          NWD_DISPATCH();
        }
        const std::vector<Vertex>& ext = *q.ext0[insn.imm];
        const auto it = std::lower_bound(ext.begin(), ext.end(), mv);
        if (it == ext.end()) {
          pc = insn.fail;
          NWD_DISPATCH();
        }
        regs[p] = *it;
        ct[p] = (tin[p] && *it == from[p]) ? 1 : 0;
        pc = insn.succ;
        NWD_DISPATCH();
      }
      NWD_OPCASE(kFindBall) {
        const Insn& insn = code[pc];
        const int p = insn.a;
        const Vertex mv = minval[p];
        if (mv >= n) {
          pc = insn.fail;
          NWD_DISPATCH();
        }
        const std::span<const Vertex> ball =
            AnchorBall(env, q.ball_radius, regs[insn.b], ctx);
        Vertex found = -1;
        for (auto it = std::lower_bound(ball.begin(), ball.end(), mv);
             it != ball.end(); ++it) {
          if (RunChecks(checks + insn.cbegin, insn.ccount, *it, regs, env)) {
            found = *it;
            break;
          }
        }
        if (found < 0) {
          pc = insn.fail;
          NWD_DISPATCH();
        }
        regs[p] = found;
        ct[p] = (tin[p] && found == from[p]) ? 1 : 0;
        pc = insn.succ;
        NWD_DISPATCH();
      }
      NWD_OPCASE(kFindSkip) {
        const Insn& insn = code[pc];
        const int p = insn.a;
        const Vertex mv = minval[p];
        if (mv >= n) {
          pc = insn.fail;
          NWD_DISPATCH();
        }
        std::vector<int64_t>& bags = ctx->case1_bags;
        bags.clear();
        for (int e = 0; e < p; ++e) {
          bags.push_back(env.cover->AssignedBag(regs[e]));
        }
        std::sort(bags.begin(), bags.end());
        bags.erase(std::unique(bags.begin(), bags.end()), bags.end());
        // The skip candidate is trusted without checks (it avoids every
        // earlier kernel, hence is far from every earlier vertex); the
        // earlier-bag scans are validated candidate by candidate.
        Vertex best = (*env.skips)[static_cast<size_t>(insn.imm)]->Skip(
            mv, std::span<const int64_t>(bags));
        for (const int64_t bag : bags) {
          const std::span<const Vertex> members = env.cover->Bag(bag);
          for (auto it =
                   std::lower_bound(members.begin(), members.end(), mv);
               it != members.end(); ++it) {
            const Vertex v = *it;
            if (best >= 0 && v >= best) break;
            if (RunChecks(checks + insn.cbegin, insn.ccount, v, regs, env)) {
              best = v;
              break;
            }
          }
        }
        if (best < 0) {
          pc = insn.fail;
          NWD_DISPATCH();
        }
        regs[p] = best;
        ct[p] = (tin[p] && best == from[p]) ? 1 : 0;
        pc = insn.succ;
        NWD_DISPATCH();
      }
      NWD_OPCASE(kBump) {
        const Insn& insn = code[pc];
        const int p = insn.a;
        if constexpr (kExtend) {
          if (p == 0 || (ctx->budget != nullptr && ctx->budget->Exceeded())) {
            return false;
          }
        }
        minval[p] = regs[p] + 1;
        pc = insn.succ;
        NWD_DISPATCH();
      }
      NWD_OPCASE(kFound) {
        ctx->compiled_insns.fetch_add(executed, std::memory_order_relaxed);
        return true;
      }
      NWD_OPCASE(kFail) {
        ctx->compiled_insns.fetch_add(executed, std::memory_order_relaxed);
        return false;
      }

#if NWD_COMPILE_COMPUTED_GOTO
  l_bad:
  return false;
#else
      default:
        return false;
    }
  }
#endif
#undef NWD_OPCASE
#undef NWD_DISPATCH
}

void EnsureDescentScratch(const CompiledQuery& q, ProbeContext* ctx) {
  const size_t k = static_cast<size_t>(q.arity);
  if (ctx->next_minval.size() < k) {
    ctx->next_minval.resize(k);
    ctx->next_tin.resize(k);
    ctx->next_ct.resize(k);
  }
}

}  // namespace

bool ExecTest(const CompiledQuery& q, const ExecEnv& env, const Tuple& tuple,
              ProbeContext* ctx) {
  ctx->test_memo.assign(static_cast<size_t>(q.num_test_regs), 0);
  ctx->compiled_probes.fetch_add(1, std::memory_order_relaxed);
  return ExecTestImpl(q, env, tuple.data(), ctx);
}

bool ExecNextCase(const CompiledQuery& q, const ExecEnv& env, int32_t entry,
                  const Tuple& from, ProbeContext* ctx) {
  EnsureDescentScratch(q, ctx);
  ctx->compiled_probes.fetch_add(1, std::memory_order_relaxed);
  return ExecNextImpl<false>(q, env, entry, from.data(), ctx);
}

bool ExecExtendCase(const CompiledQuery& q, const ExecEnv& env, int32_t entry,
                    ProbeContext* ctx) {
  if (entry < 0) return false;
  EnsureDescentScratch(q, ctx);
  // Position 0 holds the pinned value and is not tight, so every later
  // kInit starts its position at 0 and `from` is never read. Each case
  // lays out one kInit/kFind pair per position from its entry, so entry+2
  // is position 1's kInit.
  ctx->next_ct[0] = 0;
  const Vertex* regs = ctx->assignment.data();
  return ExecNextImpl<true>(q, env, entry + 2, regs, ctx);
}

}  // namespace compile
}  // namespace nwd
