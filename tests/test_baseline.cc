// Tests for the all-at-once baseline (the Figure 5 comparator).

#include <memory>

#include <gtest/gtest.h>

#include "provenance/baseline.h"
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

TEST(BaselineTest, ChainHasSingleExplanation) {
  Workspace w = MakeWorkspace(R"(
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
  )",
                              "edge(a, b). edge(b, c).");
  const dl::Model model = dl::Evaluator::Evaluate(w.program, w.database);
  auto family = ComputeWhyAllAtOnce(w.program, model,
                                    *model.Find(w.ParseFact("path(a, c)")));
  ASSERT_TRUE(family.ok());
  EXPECT_EQ(FamilyToStrings(family.value(), *w.symbols),
            (std::set<std::string>{"{edge(a, b), edge(b, c)}"}));
}

TEST(BaselineTest, DiamondHasTwoExplanations) {
  Workspace w = MakeWorkspace(R"(
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
  )",
                              R"(
    edge(a, b1). edge(b1, c). edge(a, b2). edge(b2, c).
  )");
  const dl::Model model = dl::Evaluator::Evaluate(w.program, w.database);
  auto family = ComputeWhyAllAtOnce(w.program, model,
                                    *model.Find(w.ParseFact("path(a, c)")));
  ASSERT_TRUE(family.ok());
  EXPECT_EQ(family.value().size(), 2u);
}

TEST(BaselineTest, UnderivableTargetHasEmptyFamily) {
  Workspace w = MakeWorkspace("p(X) :- e(X).", "e(a).");
  const dl::Model model = dl::Evaluator::Evaluate(w.program, w.database);
  auto family =
      ComputeWhyAllAtOnce(w.program, model, dl::kInvalidFact);
  ASSERT_TRUE(family.ok());
  EXPECT_TRUE(family.value().empty());
}

TEST(BaselineTest, DatabaseFactExplainsItself) {
  Workspace w = MakeWorkspace("p(X) :- e(X).", "e(a).");
  const dl::Model model = dl::Evaluator::Evaluate(w.program, w.database);
  auto family = ComputeWhyAllAtOnce(w.program, model,
                                    *model.Find(w.ParseFact("e(a)")));
  ASSERT_TRUE(family.ok());
  EXPECT_EQ(FamilyToStrings(family.value(), *w.symbols),
            (std::set<std::string>{"{e(a)}"}));
}

TEST(BaselineTest, BudgetOverflowIsReportedNotHung) {
  // A program whose why-provenance family grows combinatorially: n
  // independent 2-way choices per chain position.
  std::string facts;
  const int layers = 14;
  for (int i = 0; i < layers; ++i) {
    facts += "e(a" + std::to_string(i) + ", a" + std::to_string(i + 1) + ").";
    facts += "f(a" + std::to_string(i) + ", a" + std::to_string(i + 1) + ").";
  }
  Workspace w = MakeWorkspace(R"(
    path(X, Y) :- e(X, Y).
    path(X, Y) :- f(X, Y).
    path(X, Y) :- e(X, Z), path(Z, Y).
    path(X, Y) :- f(X, Z), path(Z, Y).
  )",
                              facts.c_str());
  const dl::Model model = dl::Evaluator::Evaluate(w.program, w.database);
  BaselineLimits limits;
  limits.max_family_size = 256;  // tiny budget: must trip, not hang
  auto family = ComputeWhyAllAtOnce(
      w.program, model,
      *model.Find(w.ParseFact("path(a0, a" + std::to_string(layers) + ")")),
      limits);
  EXPECT_FALSE(family.ok());
}

// Property: on the paper's non-linear program, whyUN (SAT enumeration) is
// always a subset of why (baseline), and the baseline family is closed
// under the "supports of proof trees" semantics checked via membership of
// each whyUN member.
class BaselineVsSatTest : public ::testing::TestWithParam<int> {};

TEST_P(BaselineVsSatTest, WhyUnIsSubsetOfWhy) {
  util::Rng rng(0xdead + GetParam());
  std::string facts;
  const int domain = 4;
  facts += "s(n" + std::to_string(rng.UniformInt(domain)) + ").";
  for (int i = 0; i < 7; ++i) {
    facts += "t(n" + std::to_string(rng.UniformInt(domain)) + ", n" +
             std::to_string(rng.UniformInt(domain)) + ", n" +
             std::to_string(rng.UniformInt(domain)) + ").";
  }
  Workspace w = MakeWorkspace(R"(
    a(X) :- s(X).
    a(X) :- a(Y), a(Z), t(Y, Z, X).
  )",
                              facts.c_str());
  const dl::Model model = dl::Evaluator::Evaluate(w.program, w.database);
  const dl::PredicateId a = w.symbols->FindPredicate("a").value();
  for (dl::FactId target : model.Relation(a)) {
    auto why = ComputeWhyAllAtOnce(w.program, model, target);
    ASSERT_TRUE(why.ok());
    WhyProvenanceEnumerator enumerator(model,
                                       BuildPlan(w.program, model, target),
                                       std::make_unique<sat::Solver>());
    for (auto member = enumerator.Next(); member.has_value();
         member = enumerator.Next()) {
      EXPECT_TRUE(why.value().contains(*member))
          << "whyUN member missing from why";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineVsSatTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace whyprov::provenance
