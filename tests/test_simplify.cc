// Tests of the plan-time CNF inprocessing pass (sat/simplify.h) and its
// witness side (sat/reconstruction.h): per-technique unit tests (unit
// propagation, failed-literal probing, equivalent-literal substitution,
// subsumption + self-subsuming resolution, bounded variable elimination),
// reconstruction round-trips, the frozen-variable invariant, a randomized
// differential harness (simplify + reconstruct preserves the exact set of
// models projected onto the frozen variables), and end-to-end enumeration
// equivalence — simplified vs off must produce identical provenance
// families on every scenario generator and through deltas.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sat/reconstruction.h"
#include "sat/simplify.h"
#include "scenarios/scenarios.h"
#include "tests/workspace.h"
#include "util/rng.h"
#include "whyprov.h"

namespace whyprov {
namespace {

using sat::CnfFormula;
using sat::LBool;
using sat::Lit;
using sat::SimplifyMode;
using sat::SimplifyResult;
using sat::Var;
using whyprov::testing::FamilyToStrings;
namespace dl = whyprov::datalog;
namespace pv = whyprov::provenance;
namespace sc = whyprov::scenarios;

Lit P(Var v) { return Lit::Make(v, false); }
Lit N(Var v) { return Lit::Make(v, true); }

CnfFormula MakeFormula(int num_vars, std::vector<std::vector<Lit>> clauses) {
  CnfFormula formula;
  formula.num_vars = num_vars;
  formula.clauses = std::move(clauses);
  return formula;
}

bool SatisfiesClause(const std::vector<Lit>& clause,
                     const std::vector<bool>& values) {
  for (const Lit lit : clause) {
    if (values[static_cast<std::size_t>(lit.var())] != lit.negated()) {
      return true;
    }
  }
  return false;
}

bool SatisfiesFormula(const CnfFormula& formula,
                      const std::vector<bool>& values) {
  for (const auto& clause : formula.clauses) {
    if (!SatisfiesClause(clause, values)) return false;
  }
  return true;
}

std::vector<bool> Assignment(int num_vars, std::uint32_t mask) {
  std::vector<bool> values(static_cast<std::size_t>(num_vars));
  for (int v = 0; v < num_vars; ++v) {
    values[static_cast<std::size_t>(v)] = ((mask >> v) & 1u) != 0;
  }
  return values;
}

/// All models of `formula`, projected onto `frozen` (in that order), by
/// brute force. Only for the small formulas these tests build.
std::set<std::vector<bool>> ProjectedModels(const CnfFormula& formula,
                                            const std::vector<Var>& frozen) {
  EXPECT_LE(formula.num_vars, 20);
  std::set<std::vector<bool>> projections;
  const std::uint32_t limit = 1u << formula.num_vars;
  for (std::uint32_t mask = 0; mask < limit; ++mask) {
    const std::vector<bool> values = Assignment(formula.num_vars, mask);
    if (!SatisfiesFormula(formula, values)) continue;
    std::vector<bool> projection;
    projection.reserve(frozen.size());
    for (const Var v : frozen) {
      projection.push_back(values[static_cast<std::size_t>(v)]);
    }
    projections.insert(std::move(projection));
  }
  return projections;
}

/// All models of the *simplified* formula, projected onto the frozen
/// variables through the result's variable map.
std::set<std::vector<bool>> ProjectedSimplifiedModels(
    const SimplifyResult& result, const std::vector<Var>& frozen) {
  EXPECT_LE(result.formula.num_vars, 20);
  std::set<std::vector<bool>> projections;
  const std::uint32_t limit = 1u << result.formula.num_vars;
  for (std::uint32_t mask = 0; mask < limit; ++mask) {
    const std::vector<bool> values = Assignment(result.formula.num_vars, mask);
    if (!SatisfiesFormula(result.formula, values)) continue;
    std::vector<bool> projection;
    projection.reserve(frozen.size());
    for (const Var v : frozen) {
      const Lit mapped = result.MapLit(P(v));
      EXPECT_TRUE(mapped.defined()) << "frozen var " << v << " was removed";
      if (!mapped.defined()) return projections;
      projection.push_back(values[static_cast<std::size_t>(mapped.var())] !=
                           mapped.negated());
    }
    projections.insert(std::move(projection));
  }
  return projections;
}

/// Translates a simplified-space assignment back to the original variable
/// space and replays the reconstruction stack. kUndef survivors read as
/// false (matching the enumeration layer's convention).
std::vector<bool> Reconstruct(const SimplifyResult& result,
                              const std::vector<bool>& simplified_values) {
  std::vector<LBool> model(
      static_cast<std::size_t>(result.num_original_vars), LBool::kUndef);
  for (Var v = 0; v < result.num_original_vars; ++v) {
    const Lit mapped = result.var_map[static_cast<std::size_t>(v)];
    if (!mapped.defined()) continue;
    const bool value =
        simplified_values[static_cast<std::size_t>(mapped.var())] !=
        mapped.negated();
    model[static_cast<std::size_t>(v)] = value ? LBool::kTrue : LBool::kFalse;
  }
  result.stack.Extend(model);
  std::vector<bool> values(model.size());
  for (std::size_t i = 0; i < model.size(); ++i) {
    values[i] = model[i] == LBool::kTrue;
  }
  return values;
}

/// The full contract in one check: same projected model set, every frozen
/// variable alive, and every simplified model reconstructs to a model of
/// the original formula with the same frozen projection.
void CheckPreservesProjectedModels(const CnfFormula& original,
                                   const std::vector<Var>& frozen,
                                   const std::vector<Var>& eliminable,
                                   SimplifyMode mode) {
  const SimplifyResult result =
      sat::Simplify(original, frozen, eliminable, mode);
  ASSERT_EQ(result.num_original_vars, original.num_vars);
  for (const Var v : frozen) {
    EXPECT_TRUE(result.var_map[static_cast<std::size_t>(v)].defined())
        << "frozen var " << v << " did not survive";
  }
  const auto expected = ProjectedModels(original, frozen);
  const auto actual = ProjectedSimplifiedModels(result, frozen);
  ASSERT_EQ(actual, expected);
  if (result.proven_unsat) {
    EXPECT_TRUE(expected.empty());
    return;
  }

  const std::uint32_t limit = 1u << result.formula.num_vars;
  for (std::uint32_t mask = 0; mask < limit; ++mask) {
    const std::vector<bool> values = Assignment(result.formula.num_vars, mask);
    if (!SatisfiesFormula(result.formula, values)) continue;
    const std::vector<bool> reconstructed = Reconstruct(result, values);
    EXPECT_TRUE(SatisfiesFormula(original, reconstructed))
        << "reconstructed assignment falsifies the original formula";
    for (const Var v : frozen) {
      const Lit mapped = result.MapLit(P(v));
      const bool simplified_value =
          values[static_cast<std::size_t>(mapped.var())] != mapped.negated();
      EXPECT_EQ(reconstructed[static_cast<std::size_t>(v)], simplified_value)
          << "reconstruction changed frozen var " << v;
    }
  }
}

constexpr SimplifyMode kFast = SimplifyMode::kFast;
constexpr SimplifyMode kFull = SimplifyMode::kFull;

// --- kOff is the identity ------------------------------------------------

TEST(SimplifyTest, OffModeIsIdentity) {
  const CnfFormula input =
      MakeFormula(3, {{P(0), P(1)}, {N(1), P(2)}, {P(0)}});
  const SimplifyResult result =
      sat::Simplify(input, {0, 1, 2}, {}, SimplifyMode::kOff);
  EXPECT_EQ(result.formula.num_vars, 3);
  EXPECT_EQ(result.formula.clauses, input.clauses);
  EXPECT_TRUE(result.stack.empty());
  for (Var v = 0; v < 3; ++v) {
    EXPECT_EQ(result.MapLit(P(v)), P(v));
  }
}

// --- Unit propagation ----------------------------------------------------

TEST(SimplifyTest, UnitPropagationToFixpoint) {
  // x0; x0 -> x1; x1 -> x2. Everything is forced; the satisfied clause
  // (x2 | x3) disappears and only the frozen x3 keeps a column.
  const CnfFormula input = MakeFormula(
      4, {{P(0)}, {N(0), P(1)}, {N(1), P(2)}, {P(2), P(3)}});
  const SimplifyResult result = sat::Simplify(input, {3}, {}, kFast);
  EXPECT_GE(result.stats.units_fixed, 3u);
  EXPECT_EQ(result.formula.num_vars, 1);
  EXPECT_EQ(result.formula.num_clauses(), 0u);
  EXPECT_FALSE(result.MapLit(P(0)).defined());
  EXPECT_TRUE(result.MapLit(P(3)).defined());

  // The forced chain reconstructs to true regardless of x3.
  const std::vector<bool> reconstructed = Reconstruct(result, {false});
  EXPECT_TRUE(reconstructed[0]);
  EXPECT_TRUE(reconstructed[1]);
  EXPECT_TRUE(reconstructed[2]);
  CheckPreservesProjectedModels(input, {3}, {}, kFast);
}

TEST(SimplifyTest, FixedFrozenVariableKeepsExplicitUnit) {
  // Propagation fixes the frozen x1 = true; the output must still carry
  // that fact as a unit clause (decision pinning asserts over it).
  const CnfFormula input = MakeFormula(2, {{P(0)}, {N(0), P(1)}});
  const SimplifyResult result = sat::Simplify(input, {1}, {}, kFast);
  ASSERT_TRUE(result.MapLit(P(1)).defined());
  ASSERT_EQ(result.formula.num_clauses(), 1u);
  EXPECT_EQ(result.formula.clauses[0],
            std::vector<Lit>{result.MapLit(P(1))});
  CheckPreservesProjectedModels(input, {1}, {}, kFast);
}

TEST(SimplifyTest, ProvesUnsatOutright) {
  const CnfFormula input = MakeFormula(2, {{P(0)}, {N(0)}, {P(1)}});
  const SimplifyResult result = sat::Simplify(input, {1}, {}, kFast);
  EXPECT_TRUE(result.proven_unsat);
  EXPECT_TRUE(result.formula.contains_empty_clause);
  EXPECT_TRUE(result.MapLit(P(1)).defined());
  CheckPreservesProjectedModels(input, {1}, {}, kFast);
}

// --- Failed-literal probing ----------------------------------------------

TEST(SimplifyTest, FailedLiteralProbing) {
  // Assuming x0 propagates x1 and !x1: x0 is a failed literal, so !x0 is
  // forced, which in turn forces the frozen x2 through (x0 | x2).
  const CnfFormula input =
      MakeFormula(3, {{N(0), P(1)}, {N(0), N(1)}, {P(0), P(2)}});
  const SimplifyResult result = sat::Simplify(input, {2}, {}, kFast);
  EXPECT_GE(result.stats.failed_literals, 1u);
  ASSERT_TRUE(result.MapLit(P(2)).defined());
  ASSERT_EQ(result.formula.num_clauses(), 1u);
  EXPECT_EQ(result.formula.clauses[0],
            std::vector<Lit>{result.MapLit(P(2))});
  CheckPreservesProjectedModels(input, {2}, {}, kFast);
}

// --- Equivalent-literal substitution -------------------------------------

TEST(SimplifyTest, BinaryImplicationEquivalence) {
  // (x0 <-> x1) via two binaries; x1 is substituted away and its
  // occurrences rewritten onto x0.
  const CnfFormula input = MakeFormula(
      4, {{N(0), P(1)}, {P(0), N(1)}, {P(0), P(2)}, {P(1), P(3)}});
  const SimplifyResult result = sat::Simplify(input, {2, 3}, {}, kFast);
  EXPECT_GE(result.stats.equivalences, 1u);
  // Exactly one of x0/x1 survives; the frozen vars always do.
  EXPECT_NE(result.MapLit(P(0)).defined(), result.MapLit(P(1)).defined());
  EXPECT_TRUE(result.MapLit(P(2)).defined());
  EXPECT_TRUE(result.MapLit(P(3)).defined());
  CheckPreservesProjectedModels(input, {2, 3}, {}, kFast);
}

TEST(SimplifyTest, EquivalenceRepresentativePrefersFrozen) {
  // x0 == x1 with x1 frozen: the class representative must be the frozen
  // variable, and the non-frozen x0 is the one substituted away.
  const CnfFormula input =
      MakeFormula(3, {{N(0), P(1)}, {P(0), N(1)}, {P(0), P(2)}});
  const SimplifyResult result = sat::Simplify(input, {1, 2}, {}, kFast);
  EXPECT_TRUE(result.MapLit(P(1)).defined());
  EXPECT_FALSE(result.MapLit(P(0)).defined());
  CheckPreservesProjectedModels(input, {1, 2}, {}, kFast);
}

TEST(SimplifyTest, EquivalentFrozenVariablesBothSurvive) {
  // Two frozen variables proved equivalent: neither may be removed, so
  // the output keeps both columns tied together by binaries.
  const CnfFormula input =
      MakeFormula(3, {{N(0), P(1)}, {P(0), N(1)}, {P(0), P(2)}});
  const SimplifyResult result = sat::Simplify(input, {0, 1}, {}, kFast);
  EXPECT_TRUE(result.MapLit(P(0)).defined());
  EXPECT_TRUE(result.MapLit(P(1)).defined());
  const auto projections = ProjectedSimplifiedModels(result, {0, 1});
  EXPECT_EQ(projections, ProjectedModels(input, {0, 1}));
  CheckPreservesProjectedModels(input, {0, 1}, {}, kFast);
}

// --- Subsumption and self-subsuming resolution ---------------------------

TEST(SimplifyTest, BackwardSubsumption) {
  // (x0 | x1) subsumes (x0 | x1 | x2).
  const CnfFormula input =
      MakeFormula(3, {{P(0), P(1)}, {P(0), P(1), P(2)}});
  const SimplifyResult result = sat::Simplify(input, {0, 1, 2}, {}, kFast);
  EXPECT_GE(result.stats.clauses_subsumed, 1u);
  EXPECT_EQ(result.formula.num_clauses(), 1u);
  CheckPreservesProjectedModels(input, {0, 1, 2}, {}, kFast);
}

TEST(SimplifyTest, SelfSubsumingResolutionStrengthens) {
  // (x0 | x1) self-subsumes (!x0 | x1 | x2) down to (x1 | x2).
  const CnfFormula input =
      MakeFormula(3, {{P(0), P(1)}, {N(0), P(1), P(2)}});
  const SimplifyResult result = sat::Simplify(input, {0, 1, 2}, {}, kFast);
  EXPECT_GE(result.stats.clauses_strengthened, 1u);
  std::size_t total_literals = 0;
  for (const auto& clause : result.formula.clauses) {
    total_literals += clause.size();
  }
  EXPECT_LT(total_literals, input.num_literals());
  CheckPreservesProjectedModels(input, {0, 1, 2}, {}, kFast);
}

// --- Bounded variable elimination ----------------------------------------

TEST(SimplifyTest, EliminatesAuxiliaryVariable) {
  // x2 is a Tseitin definition x2 == (x0 & x1) plus one use (x2 | x3):
  // distributing it yields two non-tautological resolvents, strictly
  // fewer clauses, so no-growth elimination fires.
  const CnfFormula input = MakeFormula(4, {{N(2), P(0)},
                                           {N(2), P(1)},
                                           {P(2), N(0), N(1)},
                                           {P(2), P(3)}});
  const SimplifyResult result =
      sat::Simplify(input, {0, 1, 3}, {2}, kFast);
  EXPECT_GE(result.stats.vars_eliminated, 1u);
  EXPECT_FALSE(result.MapLit(P(2)).defined());
  CheckPreservesProjectedModels(input, {0, 1, 3}, {2}, kFast);
}

TEST(SimplifyTest, EliminationRespectsEliminableSet) {
  // The same formula with an empty eliminable set: x2 must survive (it
  // is neither frozen nor eliminable, but elimination may only touch the
  // caller's set — structural vars never qualify).
  const CnfFormula input = MakeFormula(4, {{N(2), P(0)},
                                           {N(2), P(1)},
                                           {P(2), N(0), N(1)},
                                           {P(2), P(3)}});
  const SimplifyResult result = sat::Simplify(input, {0, 1, 3}, {}, kFast);
  EXPECT_EQ(result.stats.vars_eliminated, 0u);
  EXPECT_TRUE(result.MapLit(P(2)).defined());
  CheckPreservesProjectedModels(input, {0, 1, 3}, {}, kFast);
}

// --- Reconstruction stack in isolation -----------------------------------

TEST(ReconstructionTest, ReplaysInReverseOrder) {
  // Chronology: x1 is substituted by !x0 while x0 is still alive, then
  // x0 is fixed to true. Replayed in reverse, the unit lands first, so
  // the equivalence record resolves against the recovered x0.
  sat::ReconstructionStack stack;
  stack.PushEquiv(1, N(0));
  stack.PushUnit(0, true);
  std::vector<LBool> model(2, LBool::kUndef);
  stack.Extend(model);
  EXPECT_EQ(model[0], LBool::kTrue);
  EXPECT_EQ(model[1], LBool::kFalse);
}

TEST(ReconstructionTest, EliminatedWitnessFlipsOnlyWhenNeeded) {
  // v=2 eliminated; recorded positive-occurrence clauses (minus v):
  // {x0}. If x0 is false the clause (x2 | x0) is unsatisfied without
  // x2, so x2 must flip to true; if x0 is true, x2 defaults to false.
  sat::ReconstructionStack stack;
  stack.PushEliminated(2, {{P(0)}});
  std::vector<LBool> satisfied{LBool::kTrue, LBool::kUndef, LBool::kUndef};
  stack.Extend(satisfied);
  EXPECT_EQ(satisfied[2], LBool::kFalse);
  std::vector<LBool> violated{LBool::kFalse, LBool::kUndef, LBool::kUndef};
  stack.Extend(violated);
  EXPECT_EQ(violated[2], LBool::kTrue);
}

// --- Randomized differential harness -------------------------------------

/// Random small CNFs with a random frozen set: simplify (fast and full)
/// must preserve the exact projected model set, and every simplified
/// model must reconstruct to an original model. This is the semantic
/// contract the whole enumeration layer leans on.
TEST(SimplifyPropertyTest, RandomFormulasPreserveProjectedModels) {
  util::Rng rng(20240611);
  for (int iteration = 0; iteration < 150; ++iteration) {
    const int num_vars = 3 + static_cast<int>(rng.UniformInt(8));  // 3..10
    const std::size_t num_clauses = 1 + rng.UniformInt(28);
    std::vector<std::vector<Lit>> clauses;
    for (std::size_t c = 0; c < num_clauses; ++c) {
      const std::size_t width = 1 + rng.UniformInt(3);
      std::vector<Lit> clause;
      for (std::size_t i = 0; i < width; ++i) {
        const Var v = static_cast<Var>(rng.UniformInt(
            static_cast<std::uint64_t>(num_vars)));
        clause.push_back(Lit::Make(v, rng.Bernoulli(0.5)));
      }
      clauses.push_back(std::move(clause));
    }
    const CnfFormula input = MakeFormula(num_vars, std::move(clauses));

    std::vector<Var> frozen;
    std::vector<Var> eliminable;
    for (Var v = 0; v < num_vars; ++v) {
      if (rng.Bernoulli(0.5)) {
        frozen.push_back(v);
      } else if (rng.Bernoulli(0.7)) {
        eliminable.push_back(v);
      }
    }

    SCOPED_TRACE("iteration " + std::to_string(iteration));
    CheckPreservesProjectedModels(input, frozen, eliminable,
                                  iteration % 2 == 0 ? kFast : kFull);
  }
}

// --- Plans: frozen invariant and observability ---------------------------

TEST(SimplifyPlanTest, FrozenSelectorsSurviveInEveryPlan) {
  const sc::GeneratedScenario scenario = sc::MakeDoctors(1, 60, 7);
  EngineOptions options;
  options.plan_simplify = SimplifyMode::kFast;
  const Engine engine = scenario.MakeEngine(options);
  for (const dl::FactId target : engine.SampleAnswers(3)) {
    const auto prepared = engine.Prepare(target);
    ASSERT_TRUE(prepared.ok()) << prepared.status().message();
    const auto& plan = prepared.value().plan();
    ASSERT_TRUE(plan->simplified());
    // Every database-leaf fact selector must map to a live solver
    // literal: enumeration blocks on them and decision pins them.
    for (const dl::FactId leaf : plan->encoding().database_leaves) {
      const sat::Var original = plan->encoding().node_vars.at(leaf);
      EXPECT_TRUE(plan->SolverLitFor(original).defined())
          << "database-leaf selector eliminated for leaf " << leaf;
    }
    EXPECT_LE(plan->formula().num_vars,
              static_cast<int>(plan->simplify_stats().vars_before));
    EXPECT_GE(plan->timings().simplify_seconds, 0.0);
  }
}

TEST(SimplifyPlanTest, CacheAndServiceStatsReportSimplification) {
  const sc::GeneratedScenario scenario = sc::MakeDoctors(1, 60, 7);
  EngineOptions options;
  options.plan_simplify = SimplifyMode::kFast;
  Service service(scenario.MakeEngine(options));
  const auto targets = service.engine().SampleAnswers(3);
  ASSERT_FALSE(targets.empty());
  for (const dl::FactId target : targets) {
    EnumerateRequest enumerate;
    enumerate.target = target;
    enumerate.max_members = 2;
    Request request;
    request.op = std::move(enumerate);
    auto ticket = service.Submit(request);
    ASSERT_TRUE(ticket.ok());
    ticket.value().Wait();
  }
  const PlanCacheStats cache_stats = service.engine().plan_cache_stats();
  EXPECT_GT(cache_stats.plans_simplified, 0u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.plans_simplified, cache_stats.plans_simplified);
  EXPECT_EQ(stats.simplify_vars_removed, cache_stats.simplify_vars_removed);
  EXPECT_EQ(stats.simplify_clauses_removed,
            cache_stats.simplify_clauses_removed);
}

// --- End to end: enumeration equivalence on every generator --------------

pv::ProvenanceFamily Drain(Enumeration& enumeration) {
  pv::ProvenanceFamily family;
  for (auto member = enumeration.Next(); member.has_value();
       member = enumeration.Next()) {
    family.insert(*member);
  }
  return family;
}

/// Exhaustive enumeration rendered canonically (sorted member strings):
/// the member *order* is a solver trajectory detail, the family *set* is
/// the paper's whyUN(t, D, Q) and must be byte-identical across modes.
std::set<std::string> EnumerateFamily(const Engine& engine,
                                      const std::string& target_text) {
  EnumerateRequest request;
  request.target_text = target_text;
  auto enumeration = engine.Enumerate(request);
  EXPECT_TRUE(enumeration.ok()) << enumeration.status().message();
  if (!enumeration.ok()) return {};
  return FamilyToStrings(Drain(enumeration.value()),
                         engine.model().symbols());
}

/// Serves the same targets from a simplify=off and a simplify=fast (and
/// =full) engine, through a remove/restore delta cycle, asserting the
/// enumerated families stay identical at every step. Also cross-checks
/// Decide verdicts on enumerated members and their subsets.
void CheckScenarioEquivalence(const sc::GeneratedScenario& scenario) {
  EngineOptions off_options;
  off_options.plan_simplify = SimplifyMode::kOff;
  EngineOptions fast_options;
  fast_options.plan_simplify = SimplifyMode::kFast;
  EngineOptions full_options;
  full_options.plan_simplify = SimplifyMode::kFull;
  Engine off = scenario.MakeEngine(off_options);
  Engine fast = scenario.MakeEngine(fast_options);
  Engine full = scenario.MakeEngine(full_options);

  std::vector<std::string> targets;
  for (const dl::FactId id : off.SampleAnswers(3)) {
    targets.push_back(off.FactToText(id));
  }
  ASSERT_FALSE(targets.empty());

  const auto check_phase = [&](const std::string& label) {
    for (const std::string& target : targets) {
      const std::set<std::string> expected = EnumerateFamily(off, target);
      EXPECT_EQ(EnumerateFamily(fast, target), expected)
          << scenario.scenario_name << " [" << label
          << "]: fast diverges on " << target;
      EXPECT_EQ(EnumerateFamily(full, target), expected)
          << scenario.scenario_name << " [" << label
          << "]: full diverges on " << target;
    }
  };

  check_phase("v0");

  // Decide agreement: every member enumerated under off must be a member
  // under fast, and verdicts must agree on subsets too (which may or may
  // not be members — the point is the engines agree).
  for (const std::string& target : targets) {
    EnumerateRequest request;
    request.target_text = target;
    request.max_members = 3;
    auto enumeration = off.Enumerate(request);
    ASSERT_TRUE(enumeration.ok());
    for (auto member = enumeration.value().Next(); member.has_value();
         member = enumeration.value().Next()) {
      auto prepared_fast = fast.Prepare(target);
      auto prepared_off = off.Prepare(target);
      ASSERT_TRUE(prepared_fast.ok());
      ASSERT_TRUE(prepared_off.ok());
      DecideRequest decide;
      decide.candidate = *member;
      const auto fast_verdict = prepared_fast.value().Decide(decide);
      ASSERT_TRUE(fast_verdict.ok()) << fast_verdict.status().message();
      EXPECT_TRUE(fast_verdict.value())
          << scenario.scenario_name << ": enumerated member rejected by "
          << "the simplified decision path on " << target;
      if (member->size() > 1) {
        DecideRequest subset;
        subset.candidate = *member;
        subset.candidate.pop_back();
        const auto off_sub = prepared_off.value().Decide(subset);
        const auto fast_sub = prepared_fast.value().Decide(subset);
        ASSERT_TRUE(off_sub.ok());
        ASSERT_TRUE(fast_sub.ok());
        EXPECT_EQ(fast_sub.value(), off_sub.value())
            << scenario.scenario_name << ": subset verdicts diverge on "
            << target;
      }
    }
  }

  // Through a delta (plan invalidation + rebuild under the new model),
  // then back.
  const auto& facts = scenario.database.facts();
  ASSERT_FALSE(facts.empty());
  const dl::Fact churn = facts[facts.size() / 2];
  for (Engine* engine : {&off, &fast, &full}) {
    DeltaRequest removal;
    removal.removed_facts = {churn};
    const auto stats = engine->ApplyDelta(removal);
    ASSERT_TRUE(stats.ok()) << stats.status().message();
  }
  check_phase("after-removal");
  for (Engine* engine : {&off, &fast, &full}) {
    DeltaRequest addition;
    addition.added_facts = {churn};
    const auto stats = engine->ApplyDelta(addition);
    ASSERT_TRUE(stats.ok()) << stats.status().message();
  }
  check_phase("restored");

  // The fast engine must actually have simplified its plans (the
  // equivalence above would hold vacuously if the pass never ran).
  EXPECT_GT(fast.plan_cache_stats().plans_simplified, 0u);
}

TEST(SimplifyEquivalenceTest, TransClosureSparse) {
  CheckScenarioEquivalence(
      sc::MakeTransClosure(sc::GraphKind::kSparse, 40, 60, 20240611));
}

TEST(SimplifyEquivalenceTest, TransClosureSocial) {
  CheckScenarioEquivalence(
      sc::MakeTransClosure(sc::GraphKind::kSocial, 16, 24, 20240611));
}

TEST(SimplifyEquivalenceTest, Doctors) {
  CheckScenarioEquivalence(sc::MakeDoctors(1, 100, 20240611));
}

TEST(SimplifyEquivalenceTest, Galen) {
  CheckScenarioEquivalence(sc::MakeGalen(20, 20240611));
}

TEST(SimplifyEquivalenceTest, Andersen) {
  CheckScenarioEquivalence(sc::MakeAndersen(100, 20240611));
}

TEST(SimplifyEquivalenceTest, Csda) {
  CheckScenarioEquivalence(sc::MakeCsda("httpd", 200, 20240611));
}

// --- Plans are a function of the model alone -----------------------------

/// Compiles each sampled target's plan twice on an engine without a plan
/// cache, so both are fresh builds, and requires clause-for-clause equal
/// formulas. Every simplify phase stops on a step budget, never on the
/// clock, so neither the formula nor the member order it induces may
/// depend on how fast or loaded the host is.
void CheckPlansAreReproducible(const sc::GeneratedScenario& scenario) {
  for (const SimplifyMode mode : {kFast, kFull}) {
    EngineOptions options;
    options.plan_cache_capacity = 0;
    options.plan_simplify = mode;
    const Engine engine = scenario.MakeEngine(options);
    const auto targets = engine.SampleAnswers(8);
    ASSERT_FALSE(targets.empty());
    for (const dl::FactId target : targets) {
      const auto first = engine.Prepare(target);
      const auto second = engine.Prepare(target);
      ASSERT_TRUE(first.ok()) << first.status().message();
      ASSERT_TRUE(second.ok()) << second.status().message();
      ASSERT_NE(first.value().plan(), second.value().plan());
      const CnfFormula& a = first.value().formula();
      const CnfFormula& b = second.value().formula();
      const std::string label = scenario.scenario_name + " " +
                                engine.FactToText(target) + " mode " +
                                std::to_string(static_cast<int>(mode));
      EXPECT_EQ(a.num_vars, b.num_vars) << label;
      EXPECT_TRUE(a.clauses == b.clauses) << label;
      EXPECT_TRUE(a.polarity_hints == b.polarity_hints) << label;
      EXPECT_TRUE(a.activity_hints == b.activity_hints) << label;
    }
    EXPECT_EQ(engine.plan_cache_stats().hits, 0u);
  }
}

TEST(SimplifyDeterminismTest, TransClosureSparse) {
  CheckPlansAreReproducible(
      sc::MakeTransClosure(sc::GraphKind::kSparse, 40, 60, 20240611));
}

TEST(SimplifyDeterminismTest, TransClosureSocial) {
  CheckPlansAreReproducible(
      sc::MakeTransClosure(sc::GraphKind::kSocial, 16, 24, 20240611));
}

TEST(SimplifyDeterminismTest, Doctors) {
  CheckPlansAreReproducible(sc::MakeDoctors(1, 100, 20240611));
}

TEST(SimplifyDeterminismTest, Galen) {
  CheckPlansAreReproducible(sc::MakeGalen(20, 20240611));
}

TEST(SimplifyDeterminismTest, Andersen) {
  CheckPlansAreReproducible(sc::MakeAndersen(100, 20240611));
}

TEST(SimplifyDeterminismTest, Csda) {
  CheckPlansAreReproducible(sc::MakeCsda("httpd", 200, 20240611));
}

}  // namespace
}  // namespace whyprov
