// Parameterized sweeps over the SAT solver's configuration space: every
// option combination must preserve correctness (against brute force), and
// the Luby sequence must be the real thing.

#include <tuple>

#include <gtest/gtest.h>

#include "sat/dimacs.h"
#include "sat/solver.h"
#include "util/rng.h"

namespace whyprov::sat {
namespace {

CnfFormula RandomThreeCnf(util::Rng& rng, int num_vars, int num_clauses) {
  CnfFormula formula;
  formula.num_vars = num_vars;
  for (int i = 0; i < num_clauses; ++i) {
    std::vector<Lit> clause;
    while (clause.size() < 3) {
      const auto v = static_cast<Var>(rng.UniformInt(num_vars));
      const Lit lit = Lit::Make(v, !rng.Bernoulli(0.5));
      bool dup = false;
      for (Lit l : clause) {
        if (l.var() == v) dup = true;
      }
      if (!dup) clause.push_back(lit);
    }
    formula.clauses.push_back(clause);
  }
  return formula;
}

// (phase_saving, restart_base, var_decay, reduce_base)
using OptionTuple = std::tuple<bool, int, double, int>;

class SolverOptionsTest : public ::testing::TestWithParam<OptionTuple> {};

TEST_P(SolverOptionsTest, CorrectUnderAllConfigurations) {
  const auto& [phase_saving, restart_base, var_decay, reduce_base] =
      GetParam();
  SolverOptions options;
  options.phase_saving = phase_saving;
  options.restart_base = restart_base;
  options.var_decay = var_decay;
  options.reduce_base = reduce_base;

  util::Rng rng(0x0b7 + restart_base);
  for (int trial = 0; trial < 10; ++trial) {
    const CnfFormula formula = RandomThreeCnf(rng, 10, 43);  // near threshold
    const bool expected = BruteForceSat(formula);
    Solver solver(options);
    formula.LoadInto(solver);
    if (!solver.ok()) {
      EXPECT_FALSE(expected);
      continue;
    }
    EXPECT_EQ(solver.Solve() == SolveResult::kSat, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SolverOptionsTest,
    ::testing::Combine(::testing::Values(false, true),
                       ::testing::Values(2, 100),
                       ::testing::Values(0.8, 0.95),
                       ::testing::Values(16, 4000)));

TEST(SolverOptionsTest, TinyReduceBaseStillSolvesUnsat) {
  // Aggressive clause deletion must not break completeness.
  SolverOptions options;
  options.reduce_base = 8;
  options.reduce_increment = 4;
  Solver solver(options);
  // Pigeonhole 5 into 4.
  const int holes = 4, pigeons = 5;
  auto var = [&](int p, int h) { return Lit::Make(p * holes + h, false); };
  for (int i = 0; i < pigeons * holes; ++i) solver.NewVar();
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(var(p, h));
    ASSERT_TRUE(solver.AddClause(clause));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        ASSERT_TRUE(solver.AddClause({~var(p1, h), ~var(p2, h)}));
      }
    }
  }
  EXPECT_EQ(solver.Solve(), SolveResult::kUnsat);
  EXPECT_GT(solver.stats().deleted_clauses, 0u);
}

TEST(SolverOptionsTest, PolarityHintsSteerTheFirstModel) {
  Solver solver;
  const Var a = solver.NewVar();
  const Var b = solver.NewVar();
  ASSERT_TRUE(solver.AddBinary(Lit::Make(a, false), Lit::Make(b, false)));
  solver.SetPolarity(a, true);
  solver.SetPolarity(b, false);
  ASSERT_EQ(solver.Solve(), SolveResult::kSat);
  EXPECT_EQ(solver.ModelValue(a), LBool::kTrue);
  EXPECT_EQ(solver.ModelValue(b), LBool::kFalse);
}

TEST(SolverOptionsTest, ActivityHintsChangeDecisionOrder) {
  Solver solver;
  const Var a = solver.NewVar();
  const Var b = solver.NewVar();
  // a free, b free: whichever is decided first gets its phase; hint b up
  // with phase true while a stays default (false).
  solver.BumpActivityHint(b, 10.0);
  solver.SetPolarity(b, true);
  ASSERT_TRUE(solver.AddBinary(Lit::Make(a, false), Lit::Make(b, false)));
  ASSERT_EQ(solver.Solve(), SolveResult::kSat);
  EXPECT_EQ(solver.ModelValue(b), LBool::kTrue);
}

}  // namespace
}  // namespace whyprov::sat
