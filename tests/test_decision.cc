// Property tests for the decision procedures: the SAT-based membership
// check and the exhaustive reference algorithms must all agree, and the
// inclusion structure between the four proof-tree classes must hold.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "provenance/decision.h"
#include "provenance/enumerator.h"
#include "sat/solver.h"
#include "tests/workspace.h"
#include "util/rng.h"

namespace whyprov::provenance {
namespace {

using whyprov::testing::BuildPlan;
using whyprov::testing::FamilyToStrings;
using whyprov::testing::MakeWorkspace;
using whyprov::testing::Workspace;
namespace dl = whyprov::datalog;

ProvenanceFamily CollectSat(const dl::Program& program,
                            const dl::Model& model, dl::FactId target) {
  WhyProvenanceEnumerator enumerator(model, BuildPlan(program, model, target),
                                     std::make_unique<sat::Solver>());
  ProvenanceFamily family;
  for (auto member = enumerator.Next(); member.has_value();
       member = enumerator.Next()) {
    family.insert(*member);
  }
  return family;
}

/// The SAT membership decision on a freshly built plan and CDCL solver.
bool IsMemberSat(const dl::Program& program, const dl::Model& model,
                 dl::FactId target, const std::vector<dl::Fact>& dprime) {
  sat::Solver solver;
  const util::Result<bool> verdict = IsWhyUnMemberPrepared(
      *BuildPlan(program, model, target), model, dprime, solver);
  EXPECT_TRUE(verdict.ok()) << verdict.status().message();
  return verdict.ok() && verdict.value();
}

TEST(DecisionTest, SatMembershipOnPaperExample) {
  Workspace w = MakeWorkspace(R"(
    a(X) :- s(X).
    a(X) :- a(Y), a(Z), t(Y, Z, X).
  )",
                              R"(
    s(a). t(a, a, b). t(a, a, c). t(a, a, d). t(b, c, a).
  )");
  const dl::Model model = dl::Evaluator::Evaluate(w.program, w.database);
  const dl::FactId target = *model.Find(w.ParseFact("a(d)"));
  // {s(a), t(a,a,d)} is a whyUN member.
  EXPECT_TRUE(IsMemberSat(
      w.program, model, target,
      {w.ParseFact("s(a)"), w.ParseFact("t(a, a, d)")}));
  // The whole database is a why member but NOT a whyUN member.
  EXPECT_FALSE(IsMemberSat(w.program, model, target,
                           {w.ParseFact("s(a)"), w.ParseFact("t(a, a, b)"),
                            w.ParseFact("t(a, a, c)"),
                            w.ParseFact("t(a, a, d)"),
                            w.ParseFact("t(b, c, a)")}));
  // A subset that is not sufficient.
  EXPECT_FALSE(
      IsMemberSat(w.program, model, target, {w.ParseFact("s(a)")}));
  // A fact outside the closure.
  EXPECT_FALSE(IsMemberSat(
      w.program, model, target,
      {w.ParseFact("s(a)"), w.ParseFact("t(a, a, d)"),
       w.ParseFact("t(a, a, b)")}));
}

TEST(DecisionTest, ExhaustiveFamiliesOnPaperExample) {
  Workspace w = MakeWorkspace(R"(
    a(X) :- s(X).
    a(X) :- a(Y), a(Z), t(Y, Z, X).
  )",
                              R"(
    s(a). t(a, a, b). t(a, a, c). t(a, a, d). t(b, c, a).
  )");
  const dl::Model model = dl::Evaluator::Evaluate(w.program, w.database);
  const dl::FactId target = *model.Find(w.ParseFact("a(d)"));

  auto any = EnumerateWhyExhaustive(w.program, model, target, TreeClass::kAny);
  ASSERT_TRUE(any.ok());
  EXPECT_EQ(any.value().size(), 2u);  // Example 2

  auto un = EnumerateWhyExhaustive(w.program, model, target,
                                   TreeClass::kUnambiguous);
  ASSERT_TRUE(un.ok());
  EXPECT_EQ(FamilyToStrings(un.value(), *w.symbols),
            (std::set<std::string>{"{s(a), t(a, a, d)}"}));

  auto md = EnumerateWhyExhaustive(w.program, model, target,
                                   TreeClass::kMinimalDepth);
  ASSERT_TRUE(md.ok());
  // The minimal depth of a(d) is 2; only the small member is achievable.
  EXPECT_EQ(FamilyToStrings(md.value(), *w.symbols),
            (std::set<std::string>{"{s(a), t(a, a, d)}"}));

  auto nr = EnumerateWhyExhaustive(w.program, model, target,
                                   TreeClass::kNonRecursive);
  ASSERT_TRUE(nr.ok());
  // Non-recursive trees cannot derive a(a) from itself either.
  EXPECT_EQ(FamilyToStrings(nr.value(), *w.symbols),
            (std::set<std::string>{"{s(a), t(a, a, d)}"}));
}

// Random-instance generator over the non-linear path-accessibility program
// (the paper's running example): random s/t facts over a small domain.
Workspace RandomAccessibilityInstance(util::Rng& rng) {
  std::string facts;
  const int domain = 4;
  const int num_sources = 1 + static_cast<int>(rng.UniformInt(2));
  for (int i = 0; i < num_sources; ++i) {
    facts += "s(n" + std::to_string(rng.UniformInt(domain)) + ").";
  }
  const int num_t = 4 + static_cast<int>(rng.UniformInt(5));
  for (int i = 0; i < num_t; ++i) {
    facts += "t(n" + std::to_string(rng.UniformInt(domain)) + ", n" +
             std::to_string(rng.UniformInt(domain)) + ", n" +
             std::to_string(rng.UniformInt(domain)) + ").";
  }
  return MakeWorkspace(R"(
    a(X) :- s(X).
    a(X) :- a(Y), a(Z), t(Y, Z, X).
  )",
                       facts.c_str());
}

class RandomInstanceTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomInstanceTest, SatEnumerationEqualsExhaustiveWhyUn) {
  util::Rng rng(0xf00d + GetParam());
  Workspace w = RandomAccessibilityInstance(rng);
  const dl::Model model = dl::Evaluator::Evaluate(w.program, w.database);
  const dl::PredicateId a = w.symbols->FindPredicate("a").value();
  for (dl::FactId target : model.Relation(a)) {
    auto exhaustive = EnumerateWhyExhaustive(w.program, model, target,
                                             TreeClass::kUnambiguous);
    ASSERT_TRUE(exhaustive.ok()) << exhaustive.status().message();
    const ProvenanceFamily sat_family = CollectSat(w.program, model, target);
    EXPECT_EQ(FamilyToStrings(sat_family, *w.symbols),
              FamilyToStrings(exhaustive.value(), *w.symbols))
        << "target " << dl::FactToString(model.fact(target), *w.symbols);
  }
}

TEST_P(RandomInstanceTest, SatMembershipAgreesWithFamily) {
  util::Rng rng(0xbeef + GetParam());
  Workspace w = RandomAccessibilityInstance(rng);
  const dl::Model model = dl::Evaluator::Evaluate(w.program, w.database);
  const dl::PredicateId a = w.symbols->FindPredicate("a").value();
  for (dl::FactId target : model.Relation(a)) {
    auto family = EnumerateWhyExhaustive(w.program, model, target,
                                         TreeClass::kUnambiguous);
    ASSERT_TRUE(family.ok());
    // Positive checks: every member must be accepted.
    for (const auto& member : family.value()) {
      EXPECT_TRUE(IsMemberSat(w.program, model, target, member));
    }
    // Negative checks: random subsets of D not in the family are rejected.
    for (int trial = 0; trial < 5; ++trial) {
      std::vector<dl::Fact> subset;
      for (const dl::Fact& fact : w.database.facts()) {
        if (rng.Bernoulli(0.5)) subset.push_back(fact);
      }
      std::sort(subset.begin(), subset.end());
      const bool in_family = family.value().contains(subset);
      EXPECT_EQ(IsMemberSat(w.program, model, target, subset), in_family);
    }
  }
}

TEST_P(RandomInstanceTest, ClassInclusionsHold) {
  util::Rng rng(0xcafe + GetParam());
  Workspace w = RandomAccessibilityInstance(rng);
  const dl::Model model = dl::Evaluator::Evaluate(w.program, w.database);
  const dl::PredicateId a = w.symbols->FindPredicate("a").value();
  for (dl::FactId target : model.Relation(a)) {
    auto any =
        EnumerateWhyExhaustive(w.program, model, target, TreeClass::kAny);
    auto nr = EnumerateWhyExhaustive(w.program, model, target,
                                     TreeClass::kNonRecursive);
    auto md = EnumerateWhyExhaustive(w.program, model, target,
                                     TreeClass::kMinimalDepth);
    auto un = EnumerateWhyExhaustive(w.program, model, target,
                                     TreeClass::kUnambiguous);
    ASSERT_TRUE(any.ok() && nr.ok() && md.ok() && un.ok());
    // Each refined family is a subset of the arbitrary-tree family, and
    // none of them is empty (the target is derivable).
    EXPECT_FALSE(any.value().empty());
    EXPECT_FALSE(nr.value().empty());
    EXPECT_FALSE(md.value().empty());
    EXPECT_FALSE(un.value().empty());
    auto subset_of_any = [&](const ProvenanceFamily& family) {
      return std::includes(any.value().begin(), any.value().end(),
                           family.begin(), family.end());
    };
    EXPECT_TRUE(subset_of_any(nr.value()));
    EXPECT_TRUE(subset_of_any(md.value()));
    EXPECT_TRUE(subset_of_any(un.value()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomInstanceTest, ::testing::Range(0, 12));

// On linear programs, unambiguous and non-recursive proof trees coincide
// (the observation the paper uses for the Theorem 14 lower bound), so the
// two independently-implemented reference algorithms must agree.
class LinearProgramTest : public ::testing::TestWithParam<int> {};

TEST_P(LinearProgramTest, WhyUnEqualsWhyNrOnLinearPrograms) {
  util::Rng rng(0x11ea + GetParam());
  std::string facts;
  const int nodes = 5;
  for (int i = 0; i < 9; ++i) {
    facts += "edge(n" + std::to_string(rng.UniformInt(nodes)) + ", n" +
             std::to_string(rng.UniformInt(nodes)) + ").";
  }
  Workspace w = MakeWorkspace(R"(
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
  )",
                              facts.c_str());
  const dl::Model model = dl::Evaluator::Evaluate(w.program, w.database);
  const dl::PredicateId path = w.symbols->FindPredicate("path").value();
  for (dl::FactId target : model.Relation(path)) {
    auto un = EnumerateWhyExhaustive(w.program, model, target,
                                     TreeClass::kUnambiguous);
    auto nr = EnumerateWhyExhaustive(w.program, model, target,
                                     TreeClass::kNonRecursive);
    ASSERT_TRUE(un.ok() && nr.ok());
    EXPECT_EQ(FamilyToStrings(un.value(), *w.symbols),
              FamilyToStrings(nr.value(), *w.symbols));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinearProgramTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace whyprov::provenance
