// Option-grid robustness: the engine must produce identical answers no
// matter how the practical knobs (naive cutoff, oracle cutoffs, depth
// caps, work budgets) are set — the knobs trade speed, never correctness.

#include <gtest/gtest.h>

#include <string>

#include "enumerate/engine.h"
#include "enumerate/enumerator.h"
#include "fo/builders.h"
#include "fo/naive_eval.h"
#include "gen/generators.h"
#include "util/rng.h"

namespace nwd {
namespace {

struct OptionsParams {
  int64_t naive_cutoff;
  int64_t oracle_small_cutoff;
  int oracle_max_lambda;
  int64_t work_budget;
};

// Readable, build-stable test names: one token per knob.
std::string OptionsParamsName(
    const ::testing::TestParamInfo<OptionsParams>& info) {
  const OptionsParams& p = info.param;
  return "cutoff" + std::to_string(p.naive_cutoff) + "_oracle" +
         std::to_string(p.oracle_small_cutoff) + "_lambda" +
         std::to_string(p.oracle_max_lambda) + "_budget" +
         std::to_string(p.work_budget);
}

class OptionsGridTest : public ::testing::TestWithParam<OptionsParams> {};

TEST_P(OptionsGridTest, AnswersAreOptionIndependent) {
  const OptionsParams params = GetParam();
  Rng rng(7);
  const ColoredGraph g = gen::RandomTree(70, 0, {2, 0.35}, &rng);

  EngineOptions options;
  options.naive_cutoff = params.naive_cutoff;
  options.oracle.small_cutoff = params.oracle_small_cutoff;
  options.oracle.max_lambda = params.oracle_max_lambda;
  options.oracle.work_budget_multiplier = params.work_budget;

  fo::NaiveEvaluator naive(g);
  for (const fo::Query& q :
       {fo::DistanceQuery(2), fo::FarColorQuery(2, 0)}) {
    const EnumerationEngine engine(g, q, options);
    const std::vector<Tuple> expected = naive.AllSolutions(q);
    ConstantDelayEnumerator enumerator(engine);
    std::vector<Tuple> produced;
    for (auto t = enumerator.NextSolution(); t.has_value();
         t = enumerator.NextSolution()) {
      produced.push_back(*t);
    }
    EXPECT_EQ(produced, expected)
        << "cutoff=" << params.naive_cutoff
        << " oracle_cutoff=" << params.oracle_small_cutoff
        << " lambda=" << params.oracle_max_lambda
        << " budget=" << params.work_budget;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OptionsGridTest,
    ::testing::Values(OptionsParams{0, 1, 1, 1},     // everything minimal
                      OptionsParams{0, 1, 12, 8},    // deep recursion
                      OptionsParams{0, 64, 2, 2},    // shallow, big leaves
                      OptionsParams{10, 8, 6, 4},    // the test default
                      OptionsParams{200, 8, 6, 4},   // cutoff above n
                      OptionsParams{0, 1000, 12, 100}),
    OptionsParamsName);

}  // namespace
}  // namespace nwd
