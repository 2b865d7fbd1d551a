// Cross-module integration and theory-validation tests: properties that
// tie the Datalog engine, the provenance machinery, and the SAT pipeline
// together, mirroring the paper's lemmas on realistic mixed workloads.

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "provenance/baseline.h"
#include "provenance/decision.h"
#include "provenance/downward_closure.h"
#include "provenance/enumerator.h"
#include "provenance/fo_rewriting.h"
#include "provenance/proof_dag.h"
#include "sat/solver.h"
#include "scenarios/scenarios.h"
#include "tests/workspace.h"
#include "util/rng.h"

namespace whyprov::provenance {
namespace {

using whyprov::testing::BuildPlan;
using whyprov::testing::MakeWorkspace;
using whyprov::testing::Workspace;
namespace dl = whyprov::datalog;
namespace sc = whyprov::scenarios;

// Lemma 29 (and Proposition 28): the evaluator's rank of a fact equals its
// minimal proof-DAG depth, computed here independently by dynamic
// programming over the downward closure.
class RankIsMinDagDepthTest : public ::testing::TestWithParam<int> {};

TEST_P(RankIsMinDagDepthTest, OnRandomAccessibilityInstances) {
  util::Rng rng(0x123 + GetParam());
  std::string facts = "s(n0). s(n1).";
  for (int i = 0; i < 10; ++i) {
    facts += "t(n" + std::to_string(rng.UniformInt(5)) + ", n" +
             std::to_string(rng.UniformInt(5)) + ", n" +
             std::to_string(rng.UniformInt(5)) + ").";
  }
  Workspace w = MakeWorkspace(R"(
    a(X) :- s(X).
    a(X) :- a(Y), a(Z), t(Y, Z, X).
  )",
                              facts.c_str());
  const dl::Model model = dl::Evaluator::Evaluate(w.program, w.database);
  const dl::PredicateId a = w.symbols->FindPredicate("a").value();
  for (dl::FactId target : model.Relation(a)) {
    const DownwardClosure closure =
        DownwardClosure::Build(w.program, model, target);
    // Independent min-depth DP over the closure (facts of rank 0 have
    // depth 0; otherwise 1 + min over hyperedges of the max body depth).
    std::map<dl::FactId, int> depth;
    bool changed = true;
    while (changed) {
      changed = false;
      for (dl::FactId fact : closure.nodes()) {
        if (model.rank(fact) == 0) {
          if (!depth.contains(fact)) {
            depth[fact] = 0;
            changed = true;
          }
          continue;
        }
        int best = -1;
        for (std::size_t e : closure.EdgesWithHead(fact)) {
          int worst = 0;
          bool all_known = true;
          for (dl::FactId body : closure.edges()[e].body) {
            auto it = depth.find(body);
            if (it == depth.end()) {
              all_known = false;
              break;
            }
            worst = std::max(worst, it->second);
          }
          if (all_known && (best < 0 || worst + 1 < best)) best = worst + 1;
        }
        if (best >= 0 && (!depth.contains(fact) || depth[fact] > best)) {
          depth[fact] = best;
          changed = true;
        }
      }
    }
    ASSERT_TRUE(depth.contains(target));
    EXPECT_EQ(depth[target], model.rank(target))
        << dl::FactToString(model.fact(target), *w.symbols);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RankIsMinDagDepthTest,
                         ::testing::Range(0, 10));

// End-to-end on every scenario generator: each enumerated member must be
// re-derivable (membership check accepts it) and the reconstructed proof
// tree must validate and be unambiguous.
class ScenarioRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(ScenarioRoundTripTest, MembersRederiveAndUnravel) {
  const int which = GetParam();
  sc::GeneratedScenario scenario = [&] {
    switch (which) {
      case 0:
        return sc::MakeTransClosure(sc::GraphKind::kSparse, 60, 90, 3);
      case 1:
        return sc::MakeTransClosure(sc::GraphKind::kSocial, 48, 140, 3);
      case 2:
        return sc::MakeDoctors(1, 60, 3);
      case 3:
        return sc::MakeGalen(30, 3);
      case 4:
        return sc::MakeAndersen(80, 3);
      default:
        return sc::MakeCsda("httpd", 120, 3);
    }
  }();
  const whyprov::Engine pipeline = scenario.MakeEngine();
  ASSERT_FALSE(pipeline.AnswerFactIds().empty());
  util::Rng rng(17);
  for (dl::FactId target : pipeline.SampleAnswers(2, rng)) {
    auto enumerator = std::make_unique<WhyProvenanceEnumerator>(
        pipeline.model(),
        BuildPlan(pipeline.program(), pipeline.model(), target),
        std::make_unique<sat::Solver>());
    std::size_t count = 0;
    for (auto member = enumerator->Next();
         member.has_value() && count < 5; member = enumerator->Next()) {
      ++count;
      // Membership: the SAT decision procedure must accept each member.
      sat::Solver solver;
      const util::Result<bool> verdict = IsWhyUnMemberPrepared(
          *BuildPlan(pipeline.program(), pipeline.model(), target),
          pipeline.model(), *member, solver);
      EXPECT_TRUE(verdict.ok() && verdict.value());
      // Witness: the compressed DAG unravels to a valid unambiguous tree
      // whose support is the member.
      const CompressedDag dag(&enumerator->closure(),
                              enumerator->last_witness_choices());
      auto tree = dag.UnravelToProofTree(pipeline.program(),
                                         pipeline.model(), 1u << 16);
      if (!tree.ok()) continue;  // node budget: skip giant unravellings
      util::Status valid =
          tree.value().Validate(pipeline.program(), pipeline.database(),
                                pipeline.model().fact(target));
      EXPECT_TRUE(valid.ok()) << valid.message();
      EXPECT_TRUE(tree.value().IsUnambiguous());
      const std::set<dl::Fact> support_set = tree.value().Support();
      std::vector<dl::Fact> support(support_set.begin(), support_set.end());
      std::sort(support.begin(), support.end());
      EXPECT_EQ(support, *member);
    }
    EXPECT_GT(count, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, ScenarioRoundTripTest,
                         ::testing::Range(0, 6));

// For non-recursive queries, all four proof-tree classes coincide on
// *every* family member when the program is also linear: trees are paths
// of joins, so any proof tree is trivially unambiguous and non-recursive.
TEST(NonRecursiveClassCollapseTest, DoctorsFamiliesAgree) {
  sc::GeneratedScenario scenario = sc::MakeDoctors(1, 50, 5);
  const whyprov::Engine pipeline = scenario.MakeEngine();
  util::Rng rng(23);
  for (dl::FactId target : pipeline.SampleAnswers(3, rng)) {
    auto any = EnumerateWhyExhaustive(pipeline.program(), pipeline.model(),
                                      target, TreeClass::kAny);
    auto un = EnumerateWhyExhaustive(pipeline.program(), pipeline.model(),
                                     target, TreeClass::kUnambiguous);
    auto nr = EnumerateWhyExhaustive(pipeline.program(), pipeline.model(),
                                     target, TreeClass::kNonRecursive);
    auto md = EnumerateWhyExhaustive(pipeline.program(), pipeline.model(),
                                     target, TreeClass::kMinimalDepth);
    ASSERT_TRUE(any.ok() && un.ok() && nr.ok() && md.ok());
    EXPECT_EQ(any.value(), un.value());
    EXPECT_EQ(any.value(), nr.value());
    EXPECT_EQ(any.value(), md.value());
    // And the SAT enumerator agrees with all of them.
    WhyProvenanceEnumerator enumerator(
        pipeline.model(),
        BuildPlan(pipeline.program(), pipeline.model(), target),
        std::make_unique<sat::Solver>());
    ProvenanceFamily sat_family;
    for (auto member = enumerator.Next(); member.has_value();
         member = enumerator.Next()) {
      sat_family.insert(*member);
    }
    EXPECT_EQ(sat_family, any.value());
  }
}

// The FO rewriting of a Doctors query decides membership identically to
// the SAT pipeline (Theorem 9 meets Theorem 14 on NRDat).
TEST(FoVsSatTest, DoctorsAgreement) {
  sc::GeneratedScenario scenario = sc::MakeDoctors(2, 40, 9);
  const whyprov::Engine pipeline = scenario.MakeEngine();
  const dl::PredicateId ans =
      scenario.symbols->FindPredicate("ans").value();
  auto rewriting = FoRewriting::Build(pipeline.program(), ans);
  ASSERT_TRUE(rewriting.ok()) << rewriting.status().message();
  util::Rng rng(31);
  for (dl::FactId target : pipeline.SampleAnswers(3, rng)) {
    auto enumerator = std::make_unique<WhyProvenanceEnumerator>(
        pipeline.model(),
        BuildPlan(pipeline.program(), pipeline.model(), target),
        std::make_unique<sat::Solver>());
    for (auto member = enumerator->Next(); member.has_value();
         member = enumerator->Next()) {
      dl::Database dprime(scenario.symbols);
      for (const dl::Fact& fact : *member) dprime.Insert(fact);
      EXPECT_TRUE(rewriting.value().Decide(
          dprime, pipeline.model().fact(target).args));
      // Dropping any single fact must break membership (members are
      // supports of actual trees; every fact is used).
      for (std::size_t skip = 0; skip < member->size(); ++skip) {
        dl::Database smaller(scenario.symbols);
        for (std::size_t i = 0; i < member->size(); ++i) {
          if (i != skip) smaller.Insert((*member)[i]);
        }
        EXPECT_FALSE(rewriting.value().Decide(
            smaller, pipeline.model().fact(target).args));
      }
    }
  }
}

// The baseline family always contains every SAT-enumerated member, and on
// linear recursive scenarios (CSDA) the inclusion can be strict.
TEST(BaselineInclusionTest, CsdaWhyContainsWhyUn) {
  sc::GeneratedScenario scenario = sc::MakeCsda("httpd", 150, 13);
  const whyprov::Engine pipeline = scenario.MakeEngine();
  util::Rng rng(37);
  for (dl::FactId target : pipeline.SampleAnswers(3, rng)) {
    BaselineLimits limits;
    limits.max_family_size = 1u << 14;
    limits.max_combinations = 1u << 22;
    auto why = ComputeWhyAllAtOnce(pipeline.program(), pipeline.model(),
                                   target, limits);
    if (!why.ok()) continue;  // family too large for the reference: skip
    WhyProvenanceEnumerator enumerator(
        pipeline.model(),
        BuildPlan(pipeline.program(), pipeline.model(), target),
        std::make_unique<sat::Solver>());
    std::size_t members = 0;
    for (auto member = enumerator.Next();
         member.has_value() && members < 200; member = enumerator.Next()) {
      ++members;
      EXPECT_TRUE(why.value().contains(*member));
    }
  }
}

}  // namespace
}  // namespace whyprov::provenance
