#include "compile/compiler.h"

#include <algorithm>
#include <limits>
#include <map>
#include <tuple>
#include <utility>

#include "util/check.h"

namespace nwd {
namespace compile {
namespace {

constexpr int64_t kNoUpper = std::numeric_limits<int64_t>::max();

// Truth value of a color test that folds to a graph-wide constant;
// kUnknown when the color is genuinely data-dependent. Out-of-range colors
// are left unfolded so the emitted branch evaluates the graph's own
// HasColor answer for them.
enum class Fold { kUnknown, kFalse, kTrue };

Fold FoldColor(const ColoredGraph& g, int color) {
  if (color < 0 || color >= g.NumColors()) return Fold::kUnknown;
  const int64_t members = static_cast<int64_t>(g.ColorMembers(color).size());
  if (members == 0) return Fold::kFalse;
  if (members == g.NumVertices()) return Fold::kTrue;
  return Fold::kUnknown;
}

// The fused constraint set on one position pair: at most one positive
// bound (the tightest), one negative bound (the widest), and an
// equality/adjacency requirement each. The distance oracle is exact and
// the graph has no self-loops, so the implications applied here
// (eq => dist 0, edge => dist 1 and distinct endpoints, bound
// monotonicity) hold pointwise — the fused set accepts exactly the tuples
// the original conjunction accepts.
struct PairCons {
  int eq = 0;    // +1 required equal, -1 required distinct, 0 free
  int edge = 0;  // +1 required adjacent, -1 required non-adjacent, 0 free
  int64_t upper = kNoUpper;  // dist <= upper required
  int64_t lower = -1;        // dist > lower required
  bool dead = false;
  int64_t fusions = 0;  // constraints absorbed by a tighter/implied one
  int64_t dups = 0;     // exact duplicates dropped

  void AddEq(bool positive) {
    const int want = positive ? 1 : -1;
    if (eq == want) {
      ++dups;
    } else if (eq != 0) {
      dead = true;
    } else {
      eq = want;
    }
  }

  void AddEdge(bool positive) {
    const int want = positive ? 1 : -1;
    if (edge == want) {
      ++dups;
    } else if (edge != 0) {
      dead = true;
    } else {
      edge = want;
    }
  }

  void AddDist(int64_t bound, bool positive) {
    if (positive) {
      if (upper == kNoUpper) {
        upper = bound;
      } else if (bound == upper) {
        ++dups;
      } else {
        ++fusions;
        upper = std::min(upper, bound);
      }
    } else {
      if (lower < 0) {
        lower = bound;
      } else if (bound == lower) {
        ++dups;
      } else {
        ++fusions;
        lower = std::max(lower, bound);
      }
    }
  }

  void Normalize() {
    if (dead) return;
    if (eq == 1 && edge == 1) {  // no self-loops
      dead = true;
      return;
    }
    if (eq == 1) {
      if (lower >= 0) {  // dist > lower >= 0 contradicts dist = 0
        dead = true;
        return;
      }
      if (upper != kNoUpper) {
        ++fusions;
        upper = kNoUpper;
      }
      if (edge == -1) {
        ++fusions;
        edge = 0;
      }
      return;
    }
    if (edge == 1) {
      if (upper != kNoUpper && upper < 1) {  // dist <= 0 is equality
        dead = true;
        return;
      }
      if (lower >= 1) {
        dead = true;
        return;
      }
      if (lower == 0) {  // edge endpoints are distinct
        ++fusions;
        lower = -1;
      }
      if (upper != kNoUpper) {
        ++fusions;
        upper = kNoUpper;
      }
      if (eq == -1) {
        ++fusions;
        eq = 0;
      }
      return;
    }
    if (upper != kNoUpper && lower >= upper) {
      dead = true;
      return;
    }
    if (eq == -1 && lower >= 0) {
      ++fusions;
      eq = 0;
    }
    if (edge == -1 && lower >= 1) {
      ++fusions;
      edge = 0;
    }
    if (upper == 0) {  // dist <= 0 pins the pair equal
      if (eq == -1) {
        dead = true;
        return;
      }
      if (edge == -1) {
        ++fusions;
        edge = 0;
      }
    }
  }
};

// Deduplicated unary color requirements of one position.
struct ColorCons {
  std::map<int, bool> required;  // color -> required truth
  bool dead = false;
  int64_t dups = 0;

  void Add(int color, bool positive) {
    const auto [it, inserted] = required.emplace(color, positive);
    if (inserted) return;
    if (it->second == positive) {
      ++dups;
    } else {
      dead = true;
    }
  }
};

struct CaseAnalysis {
  bool dead = false;
  std::vector<ColorCons> colors;             // per position
  std::vector<std::vector<PairCons>> pairs;  // pairs[j][i] for i < j
  int64_t color_folds = 0;
  int64_t dist_fusions = 0;
  int64_t dedup_drops = 0;
};

CaseAnalysis AnalyzeCase(const Lnf& lnf, const LnfCase& c,
                         const ColoredGraph& g) {
  const int k = lnf.arity;
  CaseAnalysis a;
  a.colors.resize(static_cast<size_t>(k));
  a.pairs.resize(static_cast<size_t>(k));
  for (int j = 0; j < k; ++j) a.pairs[static_cast<size_t>(j)].resize(j);
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) {
      a.pairs[static_cast<size_t>(j)][static_cast<size_t>(i)].AddDist(
          lnf.radius, c.tau[static_cast<size_t>(i)][static_cast<size_t>(j)]);
    }
  }
  for (const LnfLiteral& lit : c.literals) {
    if (lit.atom.kind == LnfAtom::Kind::kColor) {
      const Fold f = FoldColor(g, lit.atom.color);
      if (f == Fold::kUnknown) {
        a.colors[static_cast<size_t>(lit.atom.pos1)].Add(lit.atom.color,
                                                         lit.positive);
      } else {
        ++a.color_folds;
        if ((f == Fold::kTrue) != lit.positive) a.dead = true;
      }
      continue;
    }
    int i = lit.atom.pos1;
    int j = lit.atom.pos2;
    if (i > j) std::swap(i, j);
    if (i == j) {
      // A reflexive atom is a constant: x = x, never edge(x, x) (no
      // self-loops), and dist(x, x) = 0 <= any non-negative bound.
      bool value = false;
      switch (lit.atom.kind) {
        case LnfAtom::Kind::kEquals:
          value = true;
          break;
        case LnfAtom::Kind::kEdge:
          value = false;
          break;
        case LnfAtom::Kind::kDist:
          value = lit.atom.dist_bound >= 0;
          break;
        case LnfAtom::Kind::kColor:
          NWD_CHECK(false) << "color atom routed as binary";
      }
      ++a.dist_fusions;
      if (value != lit.positive) a.dead = true;
      continue;
    }
    PairCons& p = a.pairs[static_cast<size_t>(j)][static_cast<size_t>(i)];
    switch (lit.atom.kind) {
      case LnfAtom::Kind::kEquals:
        p.AddEq(lit.positive);
        break;
      case LnfAtom::Kind::kEdge:
        p.AddEdge(lit.positive);
        break;
      case LnfAtom::Kind::kDist:
        p.AddDist(lit.atom.dist_bound, lit.positive);
        break;
      case LnfAtom::Kind::kColor:
        NWD_CHECK(false) << "color atom routed as binary";
    }
  }
  for (int j = 0; j < k; ++j) {
    for (int i = 0; i < j; ++i) {
      PairCons& p = a.pairs[static_cast<size_t>(j)][static_cast<size_t>(i)];
      p.Normalize();
      if (p.dead) a.dead = true;
      a.dist_fusions += p.fusions;
      a.dedup_drops += p.dups;
    }
    const ColorCons& cc = a.colors[static_cast<size_t>(j)];
    if (cc.dead) a.dead = true;
    a.dedup_drops += cc.dups;
  }
  return a;
}

// A Test branch before pc assignment.
struct PendingBranch {
  Op op;
  int16_t a = -1;
  int16_t b = -1;
  uint8_t expect = 0;
  int32_t imm = 0;
};

// The Test program checks one case as a conjunction; order is free, so
// branches are emitted cheap-first: colors, equalities, edges, then the
// (memoized) oracle distance tests.
std::vector<PendingBranch> TestBranches(const CaseAnalysis& a, int k) {
  std::vector<PendingBranch> colors, eqs, edges, dists;
  for (int pos = 0; pos < k; ++pos) {
    for (const auto& [color, positive] :
         a.colors[static_cast<size_t>(pos)].required) {
      colors.push_back({Op::kBrColor, static_cast<int16_t>(pos), -1,
                        static_cast<uint8_t>(positive), color});
    }
  }
  for (int j = 0; j < k; ++j) {
    for (int i = 0; i < j; ++i) {
      const PairCons& p = a.pairs[static_cast<size_t>(j)][static_cast<size_t>(i)];
      const auto i16 = static_cast<int16_t>(i);
      const auto j16 = static_cast<int16_t>(j);
      if (p.eq != 0) {
        eqs.push_back({Op::kBrEq, i16, j16,
                       static_cast<uint8_t>(p.eq > 0), 0});
      }
      if (p.edge != 0) {
        edges.push_back({Op::kBrEdge, i16, j16,
                         static_cast<uint8_t>(p.edge > 0), 0});
      }
      if (p.upper != kNoUpper) {
        dists.push_back({Op::kBrDist, i16, j16, 1,
                         static_cast<int32_t>(p.upper)});
      }
      if (p.lower >= 0) {
        dists.push_back({Op::kBrDist, i16, j16, 0,
                         static_cast<int32_t>(p.lower)});
      }
    }
  }
  std::vector<PendingBranch> out = std::move(colors);
  out.insert(out.end(), eqs.begin(), eqs.end());
  out.insert(out.end(), edges.begin(), edges.end());
  out.insert(out.end(), dists.begin(), dists.end());
  return out;
}

// Candidate checks for one (case, position): the position's colors plus
// its fused pair constraints against every earlier position, cheap-first.
std::vector<Check> PositionChecks(const CaseAnalysis& a, int pos) {
  std::vector<Check> colors, eqs, edges, dists;
  for (const auto& [color, positive] :
       a.colors[static_cast<size_t>(pos)].required) {
    colors.push_back({Check::Kind::kColor, static_cast<uint8_t>(positive), -1,
                      color});
  }
  for (int e = 0; e < pos; ++e) {
    const PairCons& p = a.pairs[static_cast<size_t>(pos)][static_cast<size_t>(e)];
    const auto e16 = static_cast<int16_t>(e);
    if (p.eq != 0) {
      eqs.push_back({Check::Kind::kEq, static_cast<uint8_t>(p.eq > 0), e16, 0});
    }
    if (p.edge != 0) {
      edges.push_back(
          {Check::Kind::kEdge, static_cast<uint8_t>(p.edge > 0), e16, 0});
    }
    if (p.upper != kNoUpper) {
      dists.push_back(
          {Check::Kind::kDist, 1, e16, static_cast<int32_t>(p.upper)});
    }
    if (p.lower >= 0) {
      dists.push_back(
          {Check::Kind::kDist, 0, e16, static_cast<int32_t>(p.lower)});
    }
  }
  std::vector<Check> out = std::move(colors);
  out.insert(out.end(), eqs.begin(), eqs.end());
  out.insert(out.end(), edges.begin(), edges.end());
  out.insert(out.end(), dists.begin(), dists.end());
  return out;
}

}  // namespace

std::unique_ptr<CompiledQuery> Compile(const Lnf& lnf, const ColoredGraph& g,
                                       const std::vector<CaseInputs>& inputs) {
  NWD_CHECK(lnf.supported);
  NWD_CHECK_GE(lnf.arity, 2);
  NWD_CHECK_EQ(lnf.cases.size(), inputs.size());
  const int k = lnf.arity;

  // The fusion pass leans on bound monotonicity over non-negative
  // distances. fo::DistLeq folds a negative bound to False, so no LNF
  // distance atom carries one.
  for (const LnfCase& c : lnf.cases) {
    for (const LnfLiteral& lit : c.literals) {
      if (lit.atom.kind == LnfAtom::Kind::kDist) {
        NWD_CHECK_GE(lit.atom.dist_bound, 0) << "negative distance bound";
      }
    }
  }

  auto q = std::make_unique<CompiledQuery>();
  q->arity = k;
  q->radius = static_cast<int>(lnf.radius);
  q->ball_radius = static_cast<int>((lnf.arity - 1) * lnf.radius);
  q->next_entry.assign(lnf.cases.size(), -1);
  q->stats.cases_in = static_cast<int64_t>(lnf.cases.size());

  std::vector<CaseAnalysis> analyses;
  analyses.reserve(lnf.cases.size());
  std::vector<size_t> live;
  for (size_t ci = 0; ci < lnf.cases.size(); ++ci) {
    analyses.push_back(AnalyzeCase(lnf, lnf.cases[ci], g));
    const CaseAnalysis& a = analyses.back();
    q->stats.color_folds += a.color_folds;
    q->stats.dist_fusions += a.dist_fusions;
    q->stats.dedup_drops += a.dedup_drops;
    if (a.dead) {
      ++q->stats.dead_cases;
    } else {
      live.push_back(ci);
    }
  }
  q->stats.cases_live = static_cast<int64_t>(live.size());

  // --- Test program: the live cases' branch blocks laid out back to
  // back, sharing one kAccept and one kReject at the end. A failed branch
  // falls to the next case's block (the blocks are contiguous, so that is
  // simply the end of this one); distance branches share per-probe memo
  // registers keyed by (i, j, bound) across cases.
  {
    std::vector<std::vector<PendingBranch>> blocks;
    blocks.reserve(live.size());
    int32_t total = 0;
    for (const size_t ci : live) {
      blocks.push_back(TestBranches(analyses[ci], k));
      total += static_cast<int32_t>(blocks.back().size());
    }
    const int32_t accept_pc = total;
    const int32_t reject_pc = total + 1;
    std::map<std::tuple<int, int, int32_t>, int16_t> dist_regs;
    int32_t pc = 0;
    for (const auto& block : blocks) {
      // Every live case keeps at least one branch per tau pair (fusion
      // only drops a pair's bound in favor of a kept eq/edge branch), so
      // blocks are never empty and falling past one is always a reject.
      NWD_CHECK(!block.empty());
      const int32_t block_end = pc + static_cast<int32_t>(block.size());
      for (size_t t = 0; t < block.size(); ++t) {
        const PendingBranch& br = block[t];
        Insn insn;
        insn.op = br.op;
        insn.a = br.a;
        insn.b = br.b;
        insn.expect = br.expect;
        insn.imm = br.imm;
        insn.succ = (t + 1 < block.size()) ? pc + 1 : accept_pc;
        insn.fail = (block_end == total) ? reject_pc : block_end;
        if (br.op == Op::kBrDist) {
          const auto key = std::make_tuple(static_cast<int>(br.a),
                                           static_cast<int>(br.b), br.imm);
          const auto [it, inserted] = dist_regs.try_emplace(
              key, static_cast<int16_t>(dist_regs.size()));
          insn.reg = it->second;
        }
        q->test_code.push_back(insn);
        ++pc;
      }
    }
    Insn accept;
    accept.op = Op::kAccept;
    q->test_code.push_back(accept);
    Insn reject;
    reject.op = Op::kReject;
    q->test_code.push_back(reject);
    // An all-dead decomposition still needs a pc 0 to execute: the shared
    // kAccept at pc 0 would wrongly accept, but with no live case pc 0 is
    // kAccept only when total == 0 — swap the terminals so execution
    // starts at kReject instead.
    if (total == 0) std::swap(q->test_code[0], q->test_code[1]);
    q->num_test_regs = static_cast<int>(dist_regs.size());
    q->stats.test_regs = q->num_test_regs;
  }

  // --- Next program: per live case, the recursive descent flattened into
  // kInit/kFind*/kBump triples (see exec.cc for the loop), sharing one
  // kFound and one kFail terminal.
  {
    int32_t pc = 0;
    std::vector<int32_t> case_base(live.size());
    for (size_t li = 0; li < live.size(); ++li) {
      case_base[li] = pc;
      pc += 2 * k + (k - 1);  // kInit+kFind per position, kBump per non-last
    }
    const int32_t found_pc = pc;
    const int32_t fail_pc = pc + 1;
    for (size_t li = 0; li < live.size(); ++li) {
      const size_t ci = live[li];
      const LnfCase& c = lnf.cases[ci];
      const CaseAnalysis& a = analyses[ci];
      const CaseInputs& in = inputs[ci];
      const int32_t base = case_base[li];
      q->next_entry[ci] = base;
      for (int p = 0; p < k; ++p) {
        const int32_t init_pc = base + 2 * p;
        const int32_t find_pc = init_pc + 1;
        Insn init;
        init.op = Op::kInit;
        init.a = static_cast<int16_t>(p);
        init.succ = find_pc;
        NWD_CHECK_EQ(static_cast<int32_t>(q->next_code.size()), init_pc);
        q->next_code.push_back(init);

        Insn find;
        find.a = static_cast<int16_t>(p);
        find.succ = (p + 1 < k) ? base + 2 * (p + 1) : found_pc;
        find.fail = (p == 0) ? fail_pc : base + 2 * k + (p - 1);
        if (p > 0) {
          const std::vector<Check> checks = PositionChecks(a, p);
          find.cbegin = static_cast<int32_t>(q->checks.size());
          find.ccount = static_cast<int32_t>(checks.size());
          q->checks.insert(q->checks.end(), checks.begin(), checks.end());
        }
        const int comp = c.component_of[static_cast<size_t>(p)];
        const int anchor_pos = c.components[static_cast<size_t>(comp)][0];
        if (p == 0) {
          // Extendable entries are pre-validated projections; no checks.
          find.op = Op::kFindExt0;
          find.imm = static_cast<int32_t>(q->ext0.size());
          q->ext0.push_back(in.extendable0);
        } else if (anchor_pos < p) {
          find.op = Op::kFindBall;
          find.b = static_cast<int16_t>(anchor_pos);
        } else {
          find.op = Op::kFindSkip;
          NWD_CHECK_GE((*in.list_index)[static_cast<size_t>(p)], 0);
          find.imm = (*in.list_index)[static_cast<size_t>(p)];
        }
        ++q->stats.specialized_finds;
        q->next_code.push_back(find);
      }
      for (int p = 0; p + 1 < k; ++p) {
        Insn bump;
        bump.op = Op::kBump;
        bump.a = static_cast<int16_t>(p);
        bump.succ = base + 2 * p + 1;  // re-run the position's find
        q->next_code.push_back(bump);
      }
    }
    Insn found;
    found.op = Op::kFound;
    NWD_CHECK_EQ(static_cast<int32_t>(q->next_code.size()), found_pc);
    q->next_code.push_back(found);
    Insn fail;
    fail.op = Op::kFail;
    NWD_CHECK_EQ(static_cast<int32_t>(q->next_code.size()), fail_pc);
    q->next_code.push_back(fail);
  }

  q->stats.test_insns = static_cast<int64_t>(q->test_code.size());
  q->stats.next_insns = static_cast<int64_t>(q->next_code.size());
  q->stats.checks = static_cast<int64_t>(q->checks.size());
  q->test_hits = std::vector<std::atomic<uint64_t>>(q->test_code.size());
  q->next_hits = std::vector<std::atomic<uint64_t>>(q->next_code.size());
  return q;
}

}  // namespace compile
}  // namespace nwd
