#include "compile/program.h"

#include <cstdio>

namespace nwd {
namespace compile {

const char* OpName(Op op) {
  switch (op) {
    case Op::kBrColor:
      return "br_color";
    case Op::kBrEq:
      return "br_eq";
    case Op::kBrEdge:
      return "br_edge";
    case Op::kBrDist:
      return "br_dist";
    case Op::kAccept:
      return "accept";
    case Op::kReject:
      return "reject";
    case Op::kInit:
      return "init";
    case Op::kFindExt0:
      return "find_ext0";
    case Op::kFindBall:
      return "find_ball";
    case Op::kFindSkip:
      return "find_skip";
    case Op::kBump:
      return "bump";
    case Op::kFound:
      return "found";
    case Op::kFail:
      return "fail";
  }
  return "?";
}

const char* CheckKindName(Check::Kind kind) {
  switch (kind) {
    case Check::Kind::kColor:
      return "color";
    case Check::Kind::kEq:
      return "eq";
    case Check::Kind::kEdge:
      return "edge";
    case Check::Kind::kDist:
      return "dist";
  }
  return "?";
}

namespace {

void AppendInsn(std::string* out, int32_t pc, const Insn& insn) {
  char line[160];
  int len = std::snprintf(line, sizeof(line), "  [%3d] %-9s", pc,
                          OpName(insn.op));
  auto append = [&](const char* fmt, auto... args) {
    len += std::snprintf(line + len, sizeof(line) - static_cast<size_t>(len),
                         fmt, args...);
  };
  switch (insn.op) {
    case Op::kBrColor:
      append(" pos=%d color=%d expect=%d -> %d else %d", insn.a, insn.imm,
             insn.expect, insn.succ, insn.fail);
      break;
    case Op::kBrEq:
    case Op::kBrEdge:
      append(" pos=%d,%d expect=%d -> %d else %d", insn.a, insn.b,
             insn.expect, insn.succ, insn.fail);
      break;
    case Op::kBrDist:
      append(" pos=%d,%d bound=%d expect=%d reg=%d -> %d else %d", insn.a,
             insn.b, insn.imm, insn.expect, insn.reg, insn.succ, insn.fail);
      break;
    case Op::kAccept:
    case Op::kReject:
    case Op::kFound:
    case Op::kFail:
      break;
    case Op::kInit:
      append(" pos=%d -> %d", insn.a, insn.succ);
      break;
    case Op::kFindExt0:
      append(" pos=%d ext=%d -> %d else %d", insn.a, insn.imm, insn.succ,
             insn.fail);
      break;
    case Op::kFindBall:
      append(" pos=%d anchor=%d checks=[%d+%d) -> %d else %d", insn.a,
             insn.b, insn.cbegin, insn.ccount, insn.succ, insn.fail);
      break;
    case Op::kFindSkip:
      append(" pos=%d list=%d checks=[%d+%d) -> %d else %d", insn.a,
             insn.imm, insn.cbegin, insn.ccount, insn.succ, insn.fail);
      break;
    case Op::kBump:
      append(" pos=%d -> %d", insn.a, insn.succ);
      break;
  }
  out->append(line, static_cast<size_t>(len));
  out->push_back('\n');
}

}  // namespace

std::string CompiledQuery::Disassemble() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "compiled query: arity=%d radius=%d ball_radius=%d\n"
                "cases: %lld live of %lld (%lld dead), folds: color=%lld "
                "dist=%lld dedup=%lld, specialized finds=%lld\n",
                arity, radius, ball_radius,
                static_cast<long long>(stats.cases_live),
                static_cast<long long>(stats.cases_in),
                static_cast<long long>(stats.dead_cases),
                static_cast<long long>(stats.color_folds),
                static_cast<long long>(stats.dist_fusions),
                static_cast<long long>(stats.dedup_drops),
                static_cast<long long>(stats.specialized_finds));
  out += buf;
  std::snprintf(buf, sizeof(buf), "test program (%zu insns, %d memo regs):\n",
                test_code.size(), num_test_regs);
  out += buf;
  for (size_t pc = 0; pc < test_code.size(); ++pc) {
    AppendInsn(&out, static_cast<int32_t>(pc), test_code[pc]);
  }
  std::snprintf(buf, sizeof(buf), "next program (%zu insns):\n",
                next_code.size());
  out += buf;
  for (size_t ci = 0; ci < next_entry.size(); ++ci) {
    std::snprintf(buf, sizeof(buf), "  case %zu entry=%d%s\n", ci,
                  next_entry[ci], next_entry[ci] < 0 ? " (dead)" : "");
    out += buf;
  }
  for (size_t pc = 0; pc < next_code.size(); ++pc) {
    AppendInsn(&out, static_cast<int32_t>(pc), next_code[pc]);
  }
  std::snprintf(buf, sizeof(buf), "checks (%zu):\n", checks.size());
  out += buf;
  for (size_t i = 0; i < checks.size(); ++i) {
    const Check& c = checks[i];
    switch (c.kind) {
      case Check::Kind::kColor:
        std::snprintf(buf, sizeof(buf), "  [%3zu] color=%d expect=%d\n", i,
                      c.imm, c.expect);
        break;
      case Check::Kind::kEq:
        std::snprintf(buf, sizeof(buf), "  [%3zu] eq other=%d expect=%d\n",
                      i, c.other, c.expect);
        break;
      case Check::Kind::kEdge:
        std::snprintf(buf, sizeof(buf), "  [%3zu] edge other=%d expect=%d\n",
                      i, c.other, c.expect);
        break;
      case Check::Kind::kDist:
        std::snprintf(buf, sizeof(buf),
                      "  [%3zu] dist other=%d bound=%d expect=%d\n", i,
                      c.other, c.imm, c.expect);
        break;
    }
    out += buf;
  }
  return out;
}

}  // namespace compile
}  // namespace nwd
