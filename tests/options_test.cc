// Option-grid robustness: the engine must produce identical answers no
// matter how the practical knobs (naive cutoff, oracle cutoffs, depth
// caps, work budgets) are set — the knobs trade speed, never correctness.

#include <gtest/gtest.h>

#include <type_traits>

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
  int64_t oracle_max_lambda;  // 64-bit: no padding before work_budget
  int64_t work_budget;
};
// gtest names these tests by the parameter's bytes; with no padding those
// bytes, and so the names, are the same in every build.
static_assert(std::has_unique_object_representations_v<OptionsParams>);

class OptionsGridTest : public ::testing::TestWithParam<OptionsParams> {};

TEST_P(OptionsGridTest, AnswersAreOptionIndependent) {
  const OptionsParams params = GetParam();
  Rng rng(7);
  const ColoredGraph g = gen::RandomTree(70, 0, {2, 0.35}, &rng);

  EngineOptions options;
  options.naive_cutoff = params.naive_cutoff;
  options.oracle.small_cutoff = params.oracle_small_cutoff;
  options.oracle.max_lambda = static_cast<int>(params.oracle_max_lambda);
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
                      OptionsParams{0, 1000, 12, 100}));

}  // namespace
}  // namespace nwd
