// Tests for the hardness-reduction gadgets (Lemmas 17 and 24): the
// constructive content of the paper's NP-hardness proofs, validated
// against brute-force solvers of the source problems.

#include <gtest/gtest.h>

#include "provenance/baseline.h"
#include "provenance/decision.h"
#include "sat/solver.h"
#include "scenarios/reductions.h"
#include "tests/workspace.h"
#include "util/rng.h"

namespace whyprov::scenarios {
namespace {

namespace dl = whyprov::datalog;
namespace pv = whyprov::provenance;

// Decides membership D in why((target), D, Q) for arbitrary proof trees
// via the exhaustive reference algorithm.
bool WholeDatabaseIsWhyMember(const ReductionOutput& reduction) {
  const dl::Model model =
      dl::Evaluator::Evaluate(reduction.program, reduction.database);
  auto target = model.Find(reduction.target);
  if (!target.has_value()) return false;
  pv::BaselineLimits limits;
  limits.max_combinations = 1u << 26;
  auto family = pv::EnumerateWhyExhaustive(reduction.program, model, *target,
                                           pv::TreeClass::kAny, limits);
  EXPECT_TRUE(family.ok()) << family.status().message();
  if (!family.ok()) return false;
  std::vector<dl::Fact> whole(reduction.database.facts());
  std::sort(whole.begin(), whole.end());
  return family.value().contains(whole);
}

// Decides membership D_G in whyNR via the SAT-based unambiguous check
// (valid because the reduction query is linear, where whyNR = whyUN).
bool WholeDatabaseIsWhyNrMemberSat(const ReductionOutput& reduction) {
  const dl::Model model =
      dl::Evaluator::Evaluate(reduction.program, reduction.database);
  auto target = model.Find(reduction.target);
  if (!target.has_value()) return false;
  sat::Solver solver;
  const util::Result<bool> verdict = pv::IsWhyUnMemberPrepared(
      *whyprov::testing::BuildPlan(reduction.program, model, *target), model,
      reduction.database.facts(), solver);
  EXPECT_TRUE(verdict.ok()) << verdict.status().message();
  return verdict.ok() && verdict.value();
}

TEST(ThreeSatReductionTest, ProgramIsLinear) {
  ThreeSatInstance phi;
  phi.num_vars = 2;
  phi.clauses.push_back({1, 2, -1});
  const ReductionOutput reduction = ReduceThreeSat(phi);
  EXPECT_TRUE(reduction.program.IsLinear());
  EXPECT_TRUE(reduction.program.IsRecursive());
  EXPECT_EQ(reduction.program.rules().size(), 8u);
}

TEST(ThreeSatReductionTest, SatisfiableFormulaIsAccepted) {
  // (x1 | x2 | x3) & (~x1 | x2 | x3): satisfiable.
  ThreeSatInstance phi;
  phi.num_vars = 3;
  phi.clauses.push_back({1, 2, 3});
  phi.clauses.push_back({-1, 2, 3});
  ASSERT_TRUE(SolveThreeSatBruteForce(phi));
  EXPECT_TRUE(WholeDatabaseIsWhyMember(ReduceThreeSat(phi)));
}

TEST(ThreeSatReductionTest, UnsatisfiableFormulaIsRejected) {
  // All eight sign patterns over three variables: unsatisfiable.
  ThreeSatInstance phi;
  phi.num_vars = 3;
  for (int mask = 0; mask < 8; ++mask) {
    phi.clauses.push_back({(mask & 1) ? 1 : -1, (mask & 2) ? 2 : -2,
                           (mask & 4) ? 3 : -3});
  }
  ASSERT_FALSE(SolveThreeSatBruteForce(phi));
  EXPECT_FALSE(WholeDatabaseIsWhyMember(ReduceThreeSat(phi)));
}

class ThreeSatPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ThreeSatPropertyTest, ReductionAgreesWithBruteForce) {
  util::Rng rng(0x3a7 + GetParam());
  const int num_vars = 3;
  const int num_clauses = 3 + static_cast<int>(rng.UniformInt(5));
  const ThreeSatInstance phi = RandomThreeSat(num_vars, num_clauses, rng);
  const bool satisfiable = SolveThreeSatBruteForce(phi);
  EXPECT_EQ(WholeDatabaseIsWhyMember(ReduceThreeSat(phi)), satisfiable)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThreeSatPropertyTest, ::testing::Range(0, 12));

TEST(HamCycleReductionTest, ProgramIsLinear) {
  DigraphInstance g;
  g.num_nodes = 3;
  g.edges = {{0, 1}, {1, 2}, {2, 0}};
  const ReductionOutput reduction = ReduceHamiltonianCycle(g);
  EXPECT_TRUE(reduction.program.IsLinear());
  EXPECT_TRUE(reduction.program.IsRecursive());
  EXPECT_EQ(reduction.program.rules().size(), 4u);
}

TEST(HamCycleReductionTest, TriangleHasCycle) {
  DigraphInstance g;
  g.num_nodes = 3;
  g.edges = {{0, 1}, {1, 2}, {2, 0}};
  ASSERT_TRUE(HasHamiltonianCycleBruteForce(g));
  EXPECT_TRUE(WholeDatabaseIsWhyNrMemberSat(ReduceHamiltonianCycle(g)));
}

TEST(HamCycleReductionTest, PathHasNoCycle) {
  DigraphInstance g;
  g.num_nodes = 3;
  g.edges = {{0, 1}, {1, 2}};
  ASSERT_FALSE(HasHamiltonianCycleBruteForce(g));
  EXPECT_FALSE(WholeDatabaseIsWhyNrMemberSat(ReduceHamiltonianCycle(g)));
}

TEST(HamCycleReductionTest, DisconnectedCliquePairHasNoCycle) {
  DigraphInstance g;
  g.num_nodes = 4;
  g.edges = {{0, 1}, {1, 0}, {2, 3}, {3, 2}};
  ASSERT_FALSE(HasHamiltonianCycleBruteForce(g));
  EXPECT_FALSE(WholeDatabaseIsWhyNrMemberSat(ReduceHamiltonianCycle(g)));
}

class HamCyclePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(HamCyclePropertyTest, ReductionAgreesWithBruteForce) {
  util::Rng rng(0x4a3 + GetParam());
  const int num_nodes = 4 + static_cast<int>(rng.UniformInt(2));
  const DigraphInstance g = RandomDigraph(num_nodes, 0.4, rng);
  const bool has_cycle = HasHamiltonianCycleBruteForce(g);
  EXPECT_EQ(WholeDatabaseIsWhyNrMemberSat(ReduceHamiltonianCycle(g)),
            has_cycle)
      << "seed " << GetParam() << " nodes " << num_nodes;
}

INSTANTIATE_TEST_SUITE_P(Seeds, HamCyclePropertyTest,
                         ::testing::Range(0, 12));

// Cross-validation of the two semantics on the Hamiltonian gadget: the
// exhaustive non-recursive reference must agree with the SAT-based
// unambiguous check (whyNR = whyUN for linear queries).
TEST(HamCycleReductionTest, ExhaustiveNrAgreesWithSat) {
  util::Rng rng(0x77);
  for (int trial = 0; trial < 4; ++trial) {
    const DigraphInstance g = RandomDigraph(4, 0.5, rng);
    const ReductionOutput reduction = ReduceHamiltonianCycle(g);
    const dl::Model model =
        dl::Evaluator::Evaluate(reduction.program, reduction.database);
    auto target = model.Find(reduction.target);
    if (!target.has_value()) continue;
    auto family = pv::EnumerateWhyExhaustive(
        reduction.program, model, *target, pv::TreeClass::kNonRecursive);
    ASSERT_TRUE(family.ok()) << family.status().message();
    std::vector<dl::Fact> whole(reduction.database.facts());
    std::sort(whole.begin(), whole.end());
    EXPECT_EQ(family.value().contains(whole),
              WholeDatabaseIsWhyNrMemberSat(reduction));
  }
}

}  // namespace
}  // namespace whyprov::scenarios
