// Parser robustness: randomized and systematically garbled query strings
// must never crash the parser; every rejection must carry a positioned
// one-line error. Runs under the ASan+UBSan twin too (ctest -L asan),
// which is what would catch the lexer's former signed-overflow path.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fo/parser.h"
#include "fo/printer.h"
#include "util/rng.h"

namespace nwd {
namespace {

// Characters the lexer knows plus ones it must reject gracefully.
constexpr char kAlphabet[] =
    "abcxyzEC019(),.&|!<>=: \t$#@~%^*[]{}\"'\\\n\xE2\x82\xAC";

std::string RandomString(Rng* rng, size_t max_len) {
  const size_t len = rng->NextBounded(max_len + 1);
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(kAlphabet[rng->NextBounded(sizeof(kAlphabet) - 1)]);
  }
  return s;
}

void ExpectParsesOrFailsCleanly(const std::string& text) {
  for (const bool as_query : {true, false}) {
    const fo::ParseResult result =
        as_query ? fo::ParseQuery(text) : fo::ParseFormula(text);
    if (!result.ok) {
      EXPECT_FALSE(result.error.empty()) << "input: " << text;
      EXPECT_NE(result.error.find("position"), std::string::npos)
          << "input: " << text << "\nerror: " << result.error;
      EXPECT_EQ(result.error.find('\n'), std::string::npos)
          << "multi-line error for: " << text;
    }
  }
}

TEST(ParserFuzz, RandomGarbageNeverCrashes) {
  Rng rng(0xF00D);
  for (int i = 0; i < 3000; ++i) {
    ExpectParsesOrFailsCleanly(RandomString(&rng, 64));
  }
}

// Mutations of valid queries: deletions, duplications, and character
// swaps hit the parser's recovery paths more often than pure noise.
TEST(ParserFuzz, MutatedValidQueriesNeverCrash) {
  const std::vector<std::string> seeds = {
      "(x, y) := E(x, y) & C0(x)",
      "(x, y) := dist(x, y) <= 4 | !C1(y)",
      "(x, y, z) := E(x, y) & dist(y, z) > 2 & x = z",
      "exists u. E(x, u) & C0(u)",
      "!(C0(x) & (C1(x) | E(x, y)))",
  };
  Rng rng(0xBEEF);
  for (const std::string& seed : seeds) {
    ExpectParsesOrFailsCleanly(seed);  // the seed itself first
    for (int m = 0; m < 400; ++m) {
      std::string s = seed;
      const int op = static_cast<int>(rng.NextBounded(3));
      const size_t pos = rng.NextBounded(s.size());
      if (op == 0) {
        s.erase(pos, 1 + rng.NextBounded(3));
      } else if (op == 1) {
        s.insert(pos, 1, kAlphabet[rng.NextBounded(sizeof(kAlphabet) - 1)]);
      } else {
        s[pos] = kAlphabet[rng.NextBounded(sizeof(kAlphabet) - 1)];
      }
      ExpectParsesOrFailsCleanly(s);
    }
  }
}

// Adversarial literals: long digit strings must saturate, not overflow.
TEST(ParserFuzz, HugeNumbersSaturateCleanly) {
  const std::string huge(40, '9');
  ExpectParsesOrFailsCleanly("(x, y) := dist(x, y) <= " + huge);
  ExpectParsesOrFailsCleanly("(x, y) := C" + huge + "(x)");
  const fo::ParseResult r =
      fo::ParseQuery("(x, y) := dist(x, y) <= " + huge);
  // Whether accepted (with a saturated bound) or rejected, it must not
  // have wrapped to a negative bound.
  if (r.ok) {
    const std::string printed = fo::ToString(r.query);
    EXPECT_EQ(printed.find("-"), std::string::npos) << printed;
  }
}

// Pathological nesting must not blow the stack unreasonably; depth is
// bounded far below what the recursive-descent parser handles.
TEST(ParserFuzz, DeepNestingParses) {
  std::string text;
  for (int i = 0; i < 200; ++i) text += "!(";
  text += "C0(x)";
  for (int i = 0; i < 200; ++i) text += ")";
  ExpectParsesOrFailsCleanly(text);
}

// A tower of ~10k nested quantifiers. The parser folds the variable list
// in a loop (no recursion per quantifier) and the free-variable pass
// walks an explicit stack, so parsing must not overflow the call stack,
// nor may tearing the 10k-deep AST down — the ASan twin, with its much
// larger native frames, is the canary.
TEST(ParserFuzz, DeepQuantifierTowerParses) {
  constexpr int kDepth = 10000;
  constexpr int kVars = 8;
  std::string vars;
  for (int i = 0; i < kDepth; ++i) {
    if (i > 0) vars += ", ";
    vars += "u" + std::to_string(i % kVars);
  }
  for (const std::string& text :
       {"exists " + vars + ". C0(u7)", "forall " + vars + ". false"}) {
    const fo::ParseResult r = fo::ParseFormula(text);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.query.free_vars.empty()) << "every variable is bound";
  }
}

TEST(ParserFuzz, EmptyAndWhitespaceInputs) {
  ExpectParsesOrFailsCleanly("");
  ExpectParsesOrFailsCleanly("   \t\n  ");
  ExpectParsesOrFailsCleanly("(x, y) :=");
  ExpectParsesOrFailsCleanly(":= E(x, y)");
  ExpectParsesOrFailsCleanly("(x, x) := E(x, x)");  // duplicate header vars
}

}  // namespace
}  // namespace nwd
