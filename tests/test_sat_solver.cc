// Unit and property tests for the CDCL SAT solver substrate.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sat/dimacs.h"
#include "sat/solver.h"
#include "sat/types.h"
#include "util/rng.h"

namespace whyprov::sat {
namespace {

Lit Pos(Var v) { return Lit::Make(v, false); }
Lit Neg(Var v) { return Lit::Make(v, true); }

TEST(LitTest, EncodingRoundTrip) {
  const Lit p = Pos(7);
  EXPECT_EQ(p.var(), 7);
  EXPECT_FALSE(p.negated());
  EXPECT_TRUE((~p).negated());
  EXPECT_EQ((~p).var(), 7);
  EXPECT_EQ(~~p, p);
  EXPECT_EQ(p.index(), 14);
  EXPECT_EQ((~p).index(), 15);
}

TEST(SolverTest, EmptyFormulaIsSat) {
  Solver solver;
  EXPECT_EQ(solver.Solve(), SolveResult::kSat);
}

TEST(SolverTest, SingleUnit) {
  Solver solver;
  const Var v = solver.NewVar();
  ASSERT_TRUE(solver.AddUnit(Pos(v)));
  EXPECT_EQ(solver.Solve(), SolveResult::kSat);
  EXPECT_EQ(solver.ModelValue(v), LBool::kTrue);
}

TEST(SolverTest, ContradictoryUnitsAreUnsat) {
  Solver solver;
  const Var v = solver.NewVar();
  ASSERT_TRUE(solver.AddUnit(Pos(v)));
  EXPECT_FALSE(solver.AddUnit(Neg(v)));
  EXPECT_EQ(solver.Solve(), SolveResult::kUnsat);
}

TEST(SolverTest, SimpleImplicationChain) {
  Solver solver;
  const Var a = solver.NewVar();
  const Var b = solver.NewVar();
  const Var c = solver.NewVar();
  // a, a->b, b->c  forces all true.
  ASSERT_TRUE(solver.AddUnit(Pos(a)));
  ASSERT_TRUE(solver.AddBinary(Neg(a), Pos(b)));
  ASSERT_TRUE(solver.AddBinary(Neg(b), Pos(c)));
  ASSERT_EQ(solver.Solve(), SolveResult::kSat);
  EXPECT_EQ(solver.ModelValue(a), LBool::kTrue);
  EXPECT_EQ(solver.ModelValue(b), LBool::kTrue);
  EXPECT_EQ(solver.ModelValue(c), LBool::kTrue);
}

TEST(SolverTest, TautologicalClauseIsIgnored) {
  Solver solver;
  const Var a = solver.NewVar();
  const Var b = solver.NewVar();
  ASSERT_TRUE(solver.AddClause({Pos(a), Neg(a), Pos(b)}));
  EXPECT_EQ(solver.Solve(), SolveResult::kSat);
}

TEST(SolverTest, DuplicateLiteralsAreDeduplicated) {
  Solver solver;
  const Var a = solver.NewVar();
  ASSERT_TRUE(solver.AddClause({Pos(a), Pos(a), Pos(a)}));
  ASSERT_EQ(solver.Solve(), SolveResult::kSat);
  EXPECT_EQ(solver.ModelValue(a), LBool::kTrue);
}

// The classical pigeonhole principle PHP(n+1, n): unsatisfiable, and
// famously requires exponential resolution, which exercises learning,
// restarts, and clause-database reduction.
CnfFormula Pigeonhole(int holes) {
  const int pigeons = holes + 1;
  CnfFormula formula;
  auto var = [&](int p, int h) { return p * holes + h; };
  formula.num_vars = pigeons * holes;
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(Pos(var(p, h)));
    formula.clauses.push_back(clause);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        formula.clauses.push_back({Neg(var(p1, h)), Neg(var(p2, h))});
      }
    }
  }
  return formula;
}

TEST(SolverTest, PigeonholeIsUnsat) {
  for (int holes = 2; holes <= 7; ++holes) {
    Solver solver;
    Pigeonhole(holes).LoadInto(solver);
    ASSERT_TRUE(solver.ok());
    EXPECT_EQ(solver.Solve(), SolveResult::kUnsat) << "holes=" << holes;
  }
}

TEST(SolverTest, AssumptionsRestrictModels) {
  Solver solver;
  const Var a = solver.NewVar();
  const Var b = solver.NewVar();
  ASSERT_TRUE(solver.AddBinary(Pos(a), Pos(b)));
  ASSERT_EQ(solver.Solve({Neg(a)}), SolveResult::kSat);
  EXPECT_EQ(solver.ModelValue(a), LBool::kFalse);
  EXPECT_EQ(solver.ModelValue(b), LBool::kTrue);
  // Inconsistent assumptions yield UNSAT without poisoning the solver.
  ASSERT_EQ(solver.Solve({Neg(a), Neg(b)}), SolveResult::kUnsat);
  // The formula itself is still satisfiable.
  EXPECT_EQ(solver.Solve(), SolveResult::kSat);
}

TEST(SolverTest, IncrementalClauseAdditionAfterSolve) {
  // The blocking-clause enumeration loop depends on this pattern.
  Solver solver;
  const Var a = solver.NewVar();
  const Var b = solver.NewVar();
  ASSERT_TRUE(solver.AddBinary(Pos(a), Pos(b)));
  int models = 0;
  while (solver.Solve() == SolveResult::kSat) {
    ++models;
    ASSERT_LE(models, 3);
    // Block the current total assignment.
    std::vector<Lit> blocking;
    for (Var v = 0; v < solver.NumVars(); ++v) {
      blocking.push_back(solver.ModelValue(v) == LBool::kTrue ? Neg(v)
                                                              : Pos(v));
    }
    if (!solver.AddClause(blocking)) break;
  }
  EXPECT_EQ(models, 3);  // {a}, {b}, {a,b}
}

TEST(SolverTest, ConflictBudgetReturnsUnknown) {
  Solver solver;
  Pigeonhole(8).LoadInto(solver);
  ASSERT_TRUE(solver.ok());
  solver.SetConflictBudget(10);
  EXPECT_EQ(solver.Solve(), SolveResult::kUnknown);
}

TEST(SolverTest, DeadlineHintDegradesToUnknownGracefully) {
  // An already-spent deadline: the solver must give up at a restart
  // boundary — here before the first restart even starts — instead of
  // burning conflicts a poll would chop mid-search. No interrupt check is
  // installed, so kUnknown can only come from the hint's budgeting.
  Solver hinted;
  Pigeonhole(8).LoadInto(hinted);
  ASSERT_TRUE(hinted.ok());
  hinted.SetDeadlineHint(std::chrono::steady_clock::now() -
                         std::chrono::milliseconds(1));
  EXPECT_EQ(hinted.Solve(), SolveResult::kUnknown);

  // A comfortable deadline leaves the search unimpeded.
  Solver relaxed;
  Pigeonhole(5).LoadInto(relaxed);
  ASSERT_TRUE(relaxed.ok());
  relaxed.SetDeadlineHint(std::chrono::steady_clock::now() +
                          std::chrono::minutes(5));
  EXPECT_EQ(relaxed.Solve(), SolveResult::kUnsat);
}

TEST(DimacsTest, ParseWriteRoundTrip) {
  const std::string text =
      "c a comment\n"
      "p cnf 3 2\n"
      "1 -2 0\n"
      "2 3 0\n";
  auto parsed = ParseDimacs(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed.value().num_vars, 3);
  ASSERT_EQ(parsed.value().clauses.size(), 2u);
  EXPECT_EQ(parsed.value().clauses[0], (std::vector<Lit>{Pos(0), Neg(1)}));
  EXPECT_FALSE(parsed.value().contains_empty_clause);
  EXPECT_EQ(WriteDimacs(parsed.value()), "p cnf 3 2\n1 -2 0\n2 3 0\n");
  auto reparsed = ParseDimacs(WriteDimacs(parsed.value()));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().clauses, parsed.value().clauses);
}

TEST(DimacsTest, EmptyClauseMarksTheFormulaUnsatisfiable) {
  auto parsed = ParseDimacs("p cnf 1 2\n1 0\n0\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_TRUE(parsed.value().contains_empty_clause);
  EXPECT_FALSE(BruteForceSat(parsed.value()));
  Solver solver;
  parsed.value().LoadInto(solver);
  EXPECT_FALSE(solver.ok());
}

TEST(DimacsTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseDimacs("1 2 0").ok());           // clause before header
  EXPECT_FALSE(ParseDimacs("p cnf 1 1\n5 0\n").ok());  // var out of range
  EXPECT_FALSE(ParseDimacs("p cnf 2 1\n1 2\n").ok());  // unterminated
}

// Property test: on random 3-CNF instances around the phase-transition
// density, the CDCL solver must agree with the exhaustive truth-table
// check, and every model it reports must actually satisfy the formula.
class RandomCnfTest : public ::testing::TestWithParam<int> {};

CnfFormula RandomThreeCnf(util::Rng& rng, int num_vars, int num_clauses) {
  CnfFormula formula;
  formula.num_vars = num_vars;
  for (int i = 0; i < num_clauses; ++i) {
    std::vector<Lit> clause;
    while (clause.size() < 3) {
      const auto v = static_cast<Var>(rng.UniformInt(num_vars));
      const Lit lit = rng.Bernoulli(0.5) ? Pos(v) : Neg(v);
      if (std::find(clause.begin(), clause.end(), lit) == clause.end() &&
          std::find(clause.begin(), clause.end(), ~lit) == clause.end()) {
        clause.push_back(lit);
      }
    }
    formula.clauses.push_back(clause);
  }
  return formula;
}

TEST_P(RandomCnfTest, AgreesWithBruteForce) {
  util::Rng rng(0x5eed0000 + GetParam());
  const int num_vars = 12;
  // Sweep densities from easy-SAT through the ~4.27 threshold to easy-UNSAT.
  for (double density : {2.0, 3.5, 4.3, 5.5, 7.0}) {
    const int num_clauses = static_cast<int>(density * num_vars);
    const CnfFormula formula = RandomThreeCnf(rng, num_vars, num_clauses);
    const bool expected = BruteForceSat(formula);
    Solver solver;
    formula.LoadInto(solver);
    if (!solver.ok()) {
      EXPECT_FALSE(expected);
      continue;
    }
    const SolveResult result = solver.Solve();
    EXPECT_EQ(result == SolveResult::kSat, expected)
        << "density=" << density << " seed=" << GetParam();
    if (result == SolveResult::kSat) {
      // Verify the model.
      for (const auto& clause : formula.clauses) {
        bool satisfied = false;
        for (Lit lit : clause) {
          if (lit.negated() != (solver.ModelValue(lit.var()) == LBool::kTrue)) {
            satisfied = true;
            break;
          }
        }
        EXPECT_TRUE(satisfied) << "model violates a clause";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCnfTest, ::testing::Range(0, 20));

// Property test: incremental enumeration with blocking clauses finds
// exactly the number of models the truth table finds.
class ModelCountTest : public ::testing::TestWithParam<int> {};

TEST_P(ModelCountTest, EnumerationMatchesTruthTableCount) {
  util::Rng rng(0xc0de0000 + GetParam());
  const int num_vars = 8;
  const CnfFormula formula =
      RandomThreeCnf(rng, num_vars, /*num_clauses=*/12);

  // Count models by truth table.
  int expected = 0;
  for (std::uint64_t a = 0; a < (1u << num_vars); ++a) {
    bool all = true;
    for (const auto& clause : formula.clauses) {
      bool sat = false;
      for (Lit lit : clause) {
        if (lit.negated() != (((a >> lit.var()) & 1) != 0)) {
          sat = true;
          break;
        }
      }
      if (!sat) {
        all = false;
        break;
      }
    }
    if (all) ++expected;
  }

  Solver solver;
  formula.LoadInto(solver);
  ASSERT_TRUE(solver.ok());
  int found = 0;
  while (solver.Solve() == SolveResult::kSat) {
    ++found;
    ASSERT_LE(found, expected) << "enumerated a duplicate model";
    std::vector<Lit> blocking;
    for (Var v = 0; v < num_vars; ++v) {
      blocking.push_back(Lit::Make(v, solver.ModelValue(v) == LBool::kTrue));
    }
    if (!solver.AddClause(blocking)) break;
  }
  EXPECT_EQ(found, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelCountTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace whyprov::sat
