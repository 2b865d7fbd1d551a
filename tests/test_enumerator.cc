// End-to-end tests of the SAT-based whyUN enumeration pipeline, anchored
// on the paper's running examples (Examples 1-4) and Proposition 15.

#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "provenance/decision.h"
#include "provenance/enumerator.h"
#include "provenance/proof_dag.h"
#include "sat/solver.h"
#include "tests/workspace.h"

namespace whyprov::provenance {
namespace {

using whyprov::testing::BuildPlan;
using whyprov::testing::FamilyToStrings;
using whyprov::testing::MakeWorkspace;
using whyprov::testing::MemberToString;
using whyprov::testing::Workspace;
namespace dl = whyprov::datalog;

ProvenanceFamily Collect(WhyProvenanceEnumerator& enumerator) {
  ProvenanceFamily family;
  for (auto member = enumerator.Next(); member.has_value();
       member = enumerator.Next()) {
    family.insert(*member);
  }
  return family;
}

TEST(EnumeratorTest, PaperExample1WhyUnHasSingleMember) {
  // Example 1/2 database. why((d)) = {{s(a),t(a,a,d)}, D} for arbitrary
  // trees, but the second member's witness derives a(a) from itself, so
  // whyUN((d)) contains only the small member.
  Workspace w = MakeWorkspace(R"(
    a(X) :- s(X).
    a(X) :- a(Y), a(Z), t(Y, Z, X).
  )",
                              R"(
    s(a). t(a, a, b). t(a, a, c). t(a, a, d). t(b, c, a).
  )");
  const dl::Model model = dl::Evaluator::Evaluate(w.program, w.database);
  const dl::FactId target = *model.Find(w.ParseFact("a(d)"));
  WhyProvenanceEnumerator enumerator(model, BuildPlan(w.program, model, target),
                                     std::make_unique<sat::Solver>());
  const ProvenanceFamily family = Collect(enumerator);
  EXPECT_EQ(FamilyToStrings(family, *w.symbols),
            (std::set<std::string>{"{s(a), t(a, a, d)}"}));
}

TEST(EnumeratorTest, PaperExample4WhyUnHasTwoMembers) {
  // Example 4: whyUN((d)) = {{s(a), t(a,a,c), t(c,c,d)},
  //                          {s(b), t(b,b,c), t(c,c,d)}}.
  Workspace w = MakeWorkspace(R"(
    a(X) :- s(X).
    a(X) :- a(Y), a(Z), t(Y, Z, X).
  )",
                              R"(
    s(a). s(b). t(a, a, c). t(b, b, c). t(c, c, d).
  )");
  const dl::Model model = dl::Evaluator::Evaluate(w.program, w.database);
  const dl::FactId target = *model.Find(w.ParseFact("a(d)"));
  WhyProvenanceEnumerator enumerator(model, BuildPlan(w.program, model, target),
                                     std::make_unique<sat::Solver>());
  const ProvenanceFamily family = Collect(enumerator);
  EXPECT_EQ(FamilyToStrings(family, *w.symbols),
            (std::set<std::string>{"{s(a), t(a, a, c), t(c, c, d)}",
                                   "{s(b), t(b, b, c), t(c, c, d)}"}));
}

TEST(EnumeratorTest, WhyAndWhyUnDifferOnExample1) {
  // The arbitrary-tree family (baseline) contains the whole database as a
  // second member; the unambiguous family does not.
  Workspace w = MakeWorkspace(R"(
    a(X) :- s(X).
    a(X) :- a(Y), a(Z), t(Y, Z, X).
  )",
                              R"(
    s(a). t(a, a, b). t(a, a, c). t(a, a, d). t(b, c, a).
  )");
  const dl::Model model = dl::Evaluator::Evaluate(w.program, w.database);
  const dl::FactId target = *model.Find(w.ParseFact("a(d)"));
  auto why = ComputeWhyAllAtOnce(w.program, model, target);
  ASSERT_TRUE(why.ok()) << why.status().message();
  EXPECT_EQ(FamilyToStrings(why.value(), *w.symbols),
            (std::set<std::string>{
                "{s(a), t(a, a, d)}",
                "{s(a), t(a, a, b), t(a, a, c), t(a, a, d), t(b, c, a)}"}));
}

TEST(EnumeratorTest, UnderivableTargetEnumeratesNothing) {
  Workspace w = MakeWorkspace("p(X) :- e(X).", "e(a).");
  const dl::Model model = dl::Evaluator::Evaluate(w.program, w.database);
  WhyProvenanceEnumerator enumerator(
      model, BuildPlan(w.program, model, dl::kInvalidFact),
      std::make_unique<sat::Solver>());
  EXPECT_FALSE(enumerator.Next().has_value());
}

TEST(EnumeratorTest, DelaysAreRecordedPerMember) {
  Workspace w = MakeWorkspace(R"(
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
  )",
                              "edge(a, b). edge(b, c). edge(a, c).");
  const dl::Model model = dl::Evaluator::Evaluate(w.program, w.database);
  const dl::FactId target = *model.Find(w.ParseFact("path(a, c)"));
  WhyProvenanceEnumerator enumerator(model, BuildPlan(w.program, model, target),
                                     std::make_unique<sat::Solver>());
  const ProvenanceFamily family = Collect(enumerator);
  // Two explanations: the direct edge and the two-hop path.
  EXPECT_EQ(family.size(), 2u);
  EXPECT_EQ(enumerator.delays_ms().size(), 2u);
  EXPECT_GE(enumerator.timings().closure_seconds, 0.0);
}

TEST(EnumeratorTest, WitnessChoicesUnravelToValidUnambiguousTrees) {
  Workspace w = MakeWorkspace(R"(
    a(X) :- s(X).
    a(X) :- a(Y), a(Z), t(Y, Z, X).
  )",
                              R"(
    s(a). s(b). t(a, a, c). t(b, b, c). t(c, c, d).
  )");
  const dl::Model model = dl::Evaluator::Evaluate(w.program, w.database);
  const dl::FactId target = *model.Find(w.ParseFact("a(d)"));
  WhyProvenanceEnumerator enumerator(model, BuildPlan(w.program, model, target),
                                     std::make_unique<sat::Solver>());
  int members = 0;
  for (auto member = enumerator.Next(); member.has_value();
       member = enumerator.Next()) {
    ++members;
    const CompressedDag dag(&enumerator.closure(),
                            enumerator.last_witness_choices());
    ASSERT_TRUE(dag.Validate().ok());
    auto tree = dag.UnravelToProofTree(w.program, model);
    ASSERT_TRUE(tree.ok()) << tree.status().message();
    util::Status valid =
        tree.value().Validate(w.program, w.database, model.fact(target));
    EXPECT_TRUE(valid.ok()) << valid.message();
    EXPECT_TRUE(tree.value().IsUnambiguous());
    // The tree's support must be exactly the emitted member.
    const std::set<dl::Fact> support_set = tree.value().Support();
    std::vector<dl::Fact> support(support_set.begin(), support_set.end());
    std::sort(support.begin(), support.end());
    EXPECT_EQ(support, *member);
  }
  EXPECT_EQ(members, 2);
}

TEST(EnumeratorTest, BothAcyclicityEncodingsYieldTheSameFamily) {
  Workspace w = MakeWorkspace(R"(
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
  )",
                              R"(
    edge(a, b). edge(b, c). edge(c, d). edge(a, c). edge(b, d).
  )");
  const dl::Model model = dl::Evaluator::Evaluate(w.program, w.database);
  const dl::FactId target = *model.Find(w.ParseFact("path(a, d)"));
  CnfEncoder::Options tc;
  tc.acyclicity = AcyclicityEncoding::kTransitiveClosure;
  CnfEncoder::Options ve;
  ve.acyclicity = AcyclicityEncoding::kVertexElimination;
  WhyProvenanceEnumerator with_tc(model,
                                  BuildPlan(w.program, model, target, tc),
                                  std::make_unique<sat::Solver>());
  WhyProvenanceEnumerator with_ve(model,
                                  BuildPlan(w.program, model, target, ve),
                                  std::make_unique<sat::Solver>());
  EXPECT_EQ(Collect(with_tc), Collect(with_ve));
}

TEST(PipelineTest, FromTextEndToEnd) {
  auto engine = whyprov::Engine::FromText(
      R"(
        path(X, Y) :- edge(X, Y).
        path(X, Y) :- edge(X, Z), path(Z, Y).
      )",
      "edge(a, b). edge(b, c).", "path");
  ASSERT_TRUE(engine.ok()) << engine.status().message();
  EXPECT_EQ(engine.value().AnswerFactIds().size(), 3u);
  whyprov::EnumerateRequest request;
  request.target_text = "path(a, c)";
  auto enumeration = engine.value().Enumerate(request);
  ASSERT_TRUE(enumeration.ok()) << enumeration.status().message();
  const auto members = enumeration.value().All();
  ASSERT_EQ(members.size(), 1u);
  EXPECT_EQ(MemberToString(members.front(), engine.value().model().symbols()),
            "{edge(a, b), edge(b, c)}");
}

TEST(PipelineTest, FromTextRejectsUnknownAnswerPredicate) {
  EXPECT_FALSE(whyprov::Engine::FromText("p(X) :- e(X).", "e(a).",
                                         "nonexistent")
                   .ok());
  // Extensional answer predicates are rejected too.
  EXPECT_FALSE(
      whyprov::Engine::FromText("p(X) :- e(X).", "e(a).", "e").ok());
}

TEST(PipelineTest, SampleAnswersIsDeterministicPerSeed) {
  auto engine = whyprov::Engine::FromText(
      R"(
        path(X, Y) :- edge(X, Y).
        path(X, Y) :- edge(X, Z), path(Z, Y).
      )",
      "edge(a, b). edge(b, c). edge(c, d).", "path");
  ASSERT_TRUE(engine.ok());
  util::Rng rng1(7);
  util::Rng rng2(7);
  EXPECT_EQ(engine.value().SampleAnswers(3, rng1),
            engine.value().SampleAnswers(3, rng2));
  util::Rng rng3(7);
  EXPECT_EQ(engine.value().SampleAnswers(100, rng3).size(), 6u);
}

}  // namespace
}  // namespace whyprov::provenance
