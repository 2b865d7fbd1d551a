// Tests of the incremental delta subsystem: Model tombstones and Clone,
// IncrementalEvaluator (semi-naive insertion propagation, DRed deletions,
// exact rank maintenance), and Engine::ApplyDelta (delta-vs-rebuild model
// equivalence on every scenario family, versioning, selective plan-cache
// invalidation, and snapshot isolation of in-flight prepared queries —
// the latter also under the TSan CI job).

#include <atomic>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datalog/incremental.h"
#include "datalog/parser.h"
#include "scenarios/scenarios.h"
#include "tests/workspace.h"
#include "whyprov.h"

namespace whyprov {
namespace {

using whyprov::testing::FamilyToStrings;
namespace dl = whyprov::datalog;
namespace pv = whyprov::provenance;

constexpr const char* kPathProgram = R"(
  path(X, Y) :- edge(X, Y).
  path(X, Y) :- edge(X, Z), path(Z, Y).
)";

constexpr const char* kExample1Program = R"(
  a(X) :- s(X).
  a(X) :- a(Y), a(Z), t(Y, Z, X).
)";
constexpr const char* kExample4Database =
    "s(a). s(b). t(a, a, c). t(b, b, c). t(c, c, d).";

/// The live model as (fact text -> rank): the observable content a
/// from-scratch rebuild must reproduce bit-for-bit (fact ids are
/// representation, not content).
std::map<std::string, int> ModelContents(const Engine& engine) {
  std::map<std::string, int> contents;
  const dl::Model& model = engine.model();
  for (dl::FactId id = 0; id < model.size(); ++id) {
    if (!model.alive(id)) continue;
    contents.emplace(engine.FactToText(id), model.rank(id));
  }
  return contents;
}

pv::ProvenanceFamily Drain(Enumeration& enumeration) {
  pv::ProvenanceFamily family;
  for (auto member = enumeration.Next(); member.has_value();
       member = enumeration.Next()) {
    family.insert(*member);
  }
  return family;
}

std::set<std::string> EnumerateFamily(const Engine& engine,
                                      const std::string& target_text) {
  EnumerateRequest request;
  request.target_text = target_text;
  auto enumeration = engine.Enumerate(request);
  EXPECT_TRUE(enumeration.ok()) << enumeration.status().message();
  return FamilyToStrings(Drain(enumeration.value()),
                         engine.model().symbols());
}

// --- Model tombstones ----------------------------------------------------

TEST(ModelTombstoneTest, RemoveHidesAndReviveRestores) {
  auto engine = Engine::FromText(kPathProgram, "edge(a, b).", "path");
  ASSERT_TRUE(engine.ok());
  dl::Model model = engine.value().model().Clone();
  const dl::Fact edge = model.fact(0);
  ASSERT_TRUE(model.Contains(edge));
  const std::size_t live_before = model.num_alive();

  model.Remove(0);
  EXPECT_FALSE(model.alive(0));
  EXPECT_FALSE(model.Contains(edge));
  EXPECT_FALSE(model.Find(edge).has_value());
  EXPECT_EQ(model.num_alive(), live_before - 1);
  EXPECT_TRUE(model.Relation(edge.predicate).empty());
  // The id space never shrinks: the payload stays addressable.
  EXPECT_EQ(model.fact(0), edge);

  // Revive in place: same id, new rank, back in the relation list.
  auto [id, inserted] = model.Add(edge, /*rank=*/0);
  EXPECT_EQ(id, 0u);
  EXPECT_TRUE(inserted);
  EXPECT_TRUE(model.alive(0));
  EXPECT_EQ(model.num_alive(), live_before);
  EXPECT_EQ(model.Relation(edge.predicate).size(), 1u);
}

TEST(ModelTombstoneTest, LookupIndexesTrackRemoval) {
  auto engine = Engine::FromText(
      kPathProgram, "edge(a, b). edge(a, c). edge(b, c).", "path");
  ASSERT_TRUE(engine.ok());
  dl::Model model = engine.value().model().Clone();
  const dl::Fact edge_ab = model.fact(0);
  const dl::PredicateId edge = edge_ab.predicate;
  // Build the (bound first position) index, then remove a fact behind it.
  const std::vector<dl::SymbolId> key{edge_ab.args[0]};
  ASSERT_EQ(model.Lookup(edge, 0b01, key).size(), 2u);
  model.Remove(0);
  EXPECT_EQ(model.Lookup(edge, 0b01, key).size(), 1u);
  model.Add(edge_ab, 0);
  EXPECT_EQ(model.Lookup(edge, 0b01, key).size(), 2u);
}

TEST(ModelTombstoneTest, CloneIsDeepAndIndependent) {
  auto engine = Engine::FromText(kPathProgram, "edge(a, b).", "path");
  ASSERT_TRUE(engine.ok());
  const dl::Model& original = engine.value().model();
  dl::Model copy = original.Clone();
  copy.Remove(0);
  EXPECT_FALSE(copy.alive(0));
  EXPECT_TRUE(original.alive(0));
  EXPECT_EQ(original.Relation(original.fact(0).predicate).size(), 1u);
}

// --- IncrementalEvaluator ------------------------------------------------

/// Applies (added, removed) to `engine`'s database and cross-checks the
/// incremental model against a from-scratch evaluation, rank for rank.
void CheckDeltaAgainstRebuild(const Engine& engine,
                              const std::vector<dl::Fact>& added,
                              const std::vector<dl::Fact>& removed) {
  dl::Model model = engine.model().Clone();
  dl::IncrementalEvaluator::Apply(engine.program(), model, added, removed);

  dl::Database database = engine.database();
  for (const dl::Fact& fact : removed) database.Remove(fact);
  for (const dl::Fact& fact : added) database.Insert(fact);
  const dl::Model rebuilt =
      dl::Evaluator::Evaluate(engine.program(), database);

  std::map<std::string, int> incremental_contents, rebuilt_contents;
  for (dl::FactId id = 0; id < model.size(); ++id) {
    if (!model.alive(id)) continue;
    incremental_contents.emplace(
        dl::FactToString(model.fact(id), model.symbols()), model.rank(id));
  }
  for (dl::FactId id = 0; id < rebuilt.size(); ++id) {
    if (!rebuilt.alive(id)) continue;
    rebuilt_contents.emplace(
        dl::FactToString(rebuilt.fact(id), rebuilt.symbols()),
        rebuilt.rank(id));
  }
  EXPECT_EQ(incremental_contents, rebuilt_contents);
}

TEST(IncrementalEvaluatorTest, InsertionDerivesNewFactsWithExactRanks) {
  auto engine = Engine::FromText(
      kPathProgram, "edge(a, b). edge(b, c).", "path");
  ASSERT_TRUE(engine.ok());
  const auto edge_cd = dl::Parser::ParseFact(
      engine.value().database().symbols_ptr(), "edge(c, d)");
  ASSERT_TRUE(edge_cd.ok());
  CheckDeltaAgainstRebuild(engine.value(), {edge_cd.value()}, {});
}

TEST(IncrementalEvaluatorTest, ShortcutEdgeRelaxesExistingRanks) {
  // a -> b -> c -> d, then add the shortcut a -> c: path(a, c) drops from
  // rank 2 to rank 1 and path(a, d) from rank 3 to rank 2.
  auto engine = Engine::FromText(
      kPathProgram, "edge(a, b). edge(b, c). edge(c, d).", "path");
  ASSERT_TRUE(engine.ok());
  const Engine& e = engine.value();
  EXPECT_EQ(e.model().rank(e.FactIdOf("path(a, d)").value()), 3);
  const auto shortcut =
      dl::Parser::ParseFact(e.database().symbols_ptr(), "edge(a, c)");
  ASSERT_TRUE(shortcut.ok());
  CheckDeltaAgainstRebuild(e, {shortcut.value()}, {});

  dl::Model model = e.model().Clone();
  dl::IncrementalEvaluator::Apply(e.program(), model, {shortcut.value()}, {});
  EXPECT_EQ(model.rank(*model.Find(e.model().fact(
                e.FactIdOf("path(a, d)").value()))),
            2);
}

TEST(IncrementalEvaluatorTest, DeletionChainsThroughRecursiveRules) {
  // Removing edge(a, b) kills path(a, b), path(a, c), path(a, d) — a
  // deletion cascading through the recursive rule — but leaves the b/c
  // suffix paths alone.
  auto engine = Engine::FromText(
      kPathProgram, "edge(a, b). edge(b, c). edge(c, d).", "path");
  ASSERT_TRUE(engine.ok());
  const auto edge_ab = dl::Parser::ParseFact(
      engine.value().database().symbols_ptr(), "edge(a, b)");
  ASSERT_TRUE(edge_ab.ok());
  CheckDeltaAgainstRebuild(engine.value(), {}, {edge_ab.value()});
}

TEST(IncrementalEvaluatorTest, RederivationKeepsAlternativelySupportedFacts) {
  // Two routes from a to c; deleting one leaves path(a, c) derivable (the
  // DRed rederive step must bring it back with its exact new rank).
  auto engine = Engine::FromText(
      kPathProgram, "edge(a, b). edge(b, c). edge(a, c).", "path");
  ASSERT_TRUE(engine.ok());
  const Engine& e = engine.value();
  const auto edge_ac =
      dl::Parser::ParseFact(e.database().symbols_ptr(), "edge(a, c)");
  ASSERT_TRUE(edge_ac.ok());
  CheckDeltaAgainstRebuild(e, {}, {edge_ac.value()});

  dl::Model model = e.model().Clone();
  const dl::DeltaEvalResult result = dl::IncrementalEvaluator::Apply(
      e.program(), model, {}, {edge_ac.value()});
  EXPECT_GE(result.rederived, 1u);
  const auto path_ac = model.Find(
      e.model().fact(e.FactIdOf("path(a, c)").value()));
  ASSERT_TRUE(path_ac.has_value());
  EXPECT_EQ(model.rank(*path_ac), 2);  // was 1 via the deleted direct edge
}

TEST(IncrementalEvaluatorTest, NonLinearRuleDeltaMatchesRebuild) {
  auto engine = Engine::FromText(kExample1Program, kExample4Database, "a");
  ASSERT_TRUE(engine.ok());
  const auto symbols = engine.value().database().symbols_ptr();
  const auto s_b = dl::Parser::ParseFact(symbols, "s(b)");
  const auto t_new = dl::Parser::ParseFact(symbols, "t(d, d, e)");
  ASSERT_TRUE(s_b.ok());
  ASSERT_TRUE(t_new.ok());
  // Mixed delta: drop one support of a(c), extend the chain by one hop.
  CheckDeltaAgainstRebuild(engine.value(), {t_new.value()}, {s_b.value()});
}

// --- Engine::ApplyDelta: scenario equivalence ----------------------------

/// Removes a deterministic slice of the database, checks the delta-updated
/// engine against a from-scratch rebuild (model contents and enumerated
/// families for sampled answers), then adds the slice back and checks
/// against the original engine.
void CheckScenarioDeltaEquivalence(
    const scenarios::GeneratedScenario& scenario, std::size_t num_removed) {
  Engine engine = scenario.MakeEngine();
  const std::map<std::string, int> original = ModelContents(engine);

  std::vector<dl::Fact> slice;
  const auto& facts = scenario.database.facts();
  ASSERT_GT(facts.size(), num_removed);
  const std::size_t stride = facts.size() / num_removed;
  for (std::size_t i = 0; i < num_removed; ++i) {
    slice.push_back(facts[(i * stride) % facts.size()]);
  }

  DeltaRequest removal;
  removal.removed_facts = slice;
  auto removal_stats = engine.ApplyDelta(removal);
  ASSERT_TRUE(removal_stats.ok()) << removal_stats.status().message();
  EXPECT_EQ(removal_stats.value().model_version, 1u);
  EXPECT_EQ(removal_stats.value().facts_removed, slice.size());

  dl::Database reduced = scenario.database;
  for (const dl::Fact& fact : slice) reduced.Remove(fact);
  const Engine rebuilt = Engine::FromParts(scenario.program, reduced,
                                           engine.answer_predicate());
  EXPECT_EQ(ModelContents(engine), ModelContents(rebuilt));

  // Families must agree too, not just the models: sample answers from the
  // rebuilt engine and compare exhaustive enumerations by fact text.
  util::Rng rng(11);
  for (dl::FactId target : rebuilt.SampleAnswers(3, rng)) {
    const std::string text = rebuilt.FactToText(target);
    EXPECT_EQ(EnumerateFamily(engine, text), EnumerateFamily(rebuilt, text))
        << scenario.scenario_name << ": families diverge on " << text;
  }

  // Round-trip: adding the slice back must restore the original model.
  DeltaRequest addition;
  addition.added_facts = slice;
  auto addition_stats = engine.ApplyDelta(addition);
  ASSERT_TRUE(addition_stats.ok()) << addition_stats.status().message();
  EXPECT_EQ(addition_stats.value().model_version, 2u);
  EXPECT_EQ(ModelContents(engine), original);
}

TEST(ApplyDeltaScenarioTest, TransClosureSparse) {
  CheckScenarioDeltaEquivalence(
      scenarios::MakeTransClosure(scenarios::GraphKind::kSparse, 40, 60,
                                  20240611),
      /*num_removed=*/4);
}

TEST(ApplyDeltaScenarioTest, TransClosureSocial) {
  CheckScenarioDeltaEquivalence(
      scenarios::MakeTransClosure(scenarios::GraphKind::kSocial, 16, 24,
                                  20240611),
      /*num_removed=*/3);
}

TEST(ApplyDeltaScenarioTest, Doctors) {
  CheckScenarioDeltaEquivalence(scenarios::MakeDoctors(1, 100, 20240611),
                                /*num_removed=*/4);
}

TEST(ApplyDeltaScenarioTest, Andersen) {
  CheckScenarioDeltaEquivalence(scenarios::MakeAndersen(100, 20240611),
                                /*num_removed=*/4);
}

TEST(ApplyDeltaScenarioTest, Galen) {
  CheckScenarioDeltaEquivalence(scenarios::MakeGalen(20, 20240611),
                                /*num_removed=*/3);
}

TEST(ApplyDeltaScenarioTest, Csda) {
  CheckScenarioDeltaEquivalence(scenarios::MakeCsda("httpd", 200, 20240611),
                                /*num_removed=*/4);
}

// --- Engine::ApplyDelta: API semantics -----------------------------------

TEST(ApplyDeltaTest, TextFactsAndStats) {
  auto engine = Engine::FromText(
      kPathProgram, "edge(a, b). edge(b, c).", "path");
  ASSERT_TRUE(engine.ok());
  Engine& e = engine.value();
  EXPECT_EQ(e.model_version(), 0u);

  DeltaRequest request;
  request.added_fact_texts = {"edge(c, d)"};
  auto stats = e.ApplyDelta(request);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(stats.value().model_version, 1u);
  EXPECT_EQ(stats.value().facts_added, 1u);
  EXPECT_EQ(stats.value().facts_removed, 0u);
  // edge(c, d) itself plus path(c, d), path(b, d), path(a, d).
  EXPECT_EQ(stats.value().facts_derived, 3u);
  EXPECT_GE(stats.value().facts_touched, 4u);
  EXPECT_EQ(e.model_version(), 1u);
  EXPECT_EQ(EnumerateFamily(e, "path(a, d)"),
            (std::set<std::string>{
                "{edge(a, b), edge(b, c), edge(c, d)}"}));
}

TEST(ApplyDeltaTest, NoOpDeltaKeepsVersionAndPlans) {
  auto engine = Engine::FromText(
      kPathProgram, "edge(a, b). edge(b, c).", "path");
  ASSERT_TRUE(engine.ok());
  Engine& e = engine.value();
  ASSERT_TRUE(e.Prepare("path(a, c)").ok());

  DeltaRequest request;
  request.added_fact_texts = {"edge(a, b)"};    // already present
  request.removed_fact_texts = {"edge(x, y)"};  // never present
  auto stats = e.ApplyDelta(request);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().model_version, 0u);
  EXPECT_EQ(stats.value().plans_retained, 1u);
  EXPECT_EQ(stats.value().plans_invalidated, 0u);
  EXPECT_EQ(e.model_version(), 0u);
  // The cached plan is still hot.
  const PlanCacheStats before = e.plan_cache_stats();
  ASSERT_TRUE(e.Prepare("path(a, c)").ok());
  EXPECT_EQ(e.plan_cache_stats().hits, before.hits + 1);
}

TEST(ApplyDeltaTest, RejectsIntensionalAndContradictoryDeltas) {
  auto engine = Engine::FromText(
      kPathProgram, "edge(a, b). edge(b, c).", "path");
  ASSERT_TRUE(engine.ok());
  Engine& e = engine.value();

  DeltaRequest intensional;
  intensional.added_fact_texts = {"path(a, d)"};
  auto status = e.ApplyDelta(intensional);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.status().code(), util::StatusCode::kInvalidArgument);

  DeltaRequest contradictory;
  contradictory.added_fact_texts = {"edge(a, b)"};
  contradictory.removed_fact_texts = {"edge(a, b)"};
  status = e.ApplyDelta(contradictory);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.status().code(), util::StatusCode::kInvalidArgument);

  DeltaRequest malformed;
  malformed.added_fact_texts = {"edge(a"};
  status = e.ApplyDelta(malformed);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.status().code(), util::StatusCode::kParseError);

  // None of the failures may have published a new version.
  EXPECT_EQ(e.model_version(), 0u);
}

TEST(ApplyDeltaTest, RemovedTargetBecomesUnderivable) {
  auto engine = Engine::FromText(kPathProgram, "edge(a, b).", "path");
  ASSERT_TRUE(engine.ok());
  Engine& e = engine.value();
  ASSERT_TRUE(e.FactIdOf("path(a, b)").ok());
  DeltaRequest request;
  request.removed_fact_texts = {"edge(a, b)"};
  ASSERT_TRUE(e.ApplyDelta(request).ok());
  auto id = e.FactIdOf("path(a, b)");
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), util::StatusCode::kNotFound);
  EXPECT_TRUE(e.AnswerFactIds().empty());
}

// --- Plan-cache invalidation ---------------------------------------------

TEST(ApplyDeltaPlanCacheTest, InvalidatesOnlyTouchedClosures) {
  // Two disjoint components: a -> b and x -> y. A delta in the x-branch
  // must invalidate only the x-plan; the a-plan stays hot.
  auto engine = Engine::FromText(
      kPathProgram, "edge(a, b). edge(x, y).", "path");
  ASSERT_TRUE(engine.ok());
  Engine& e = engine.value();
  auto plan_a = e.Prepare("path(a, b)");
  auto plan_x = e.Prepare("path(x, y)");
  ASSERT_TRUE(plan_a.ok());
  ASSERT_TRUE(plan_x.ok());

  DeltaRequest request;
  request.added_fact_texts = {"edge(y, z)"};
  auto stats = e.ApplyDelta(request);
  ASSERT_TRUE(stats.ok());
  // edge(y, z) creates path(y, z) and path(x, z): touches the x-closure?
  // No — path(x, y)'s closure is {path(x, y), edge(x, y)}, and the new
  // instance heads are path(y, z)/path(x, z), both new facts. Both plans
  // survive this pure extension.
  EXPECT_EQ(stats.value().plans_retained, 2u);
  EXPECT_EQ(stats.value().plans_invalidated, 0u);

  // Removing edge(x, y) kills the x-plan's closure leaf: selective.
  DeltaRequest removal;
  removal.removed_fact_texts = {"edge(x, y)"};
  stats = e.ApplyDelta(removal);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().plans_retained, 1u);
  EXPECT_EQ(stats.value().plans_invalidated, 1u);
  EXPECT_EQ(e.plan_cache_stats().invalidated, 1u);

  // The retained a-plan answers from the new version's cache, so the hit
  // counter moves and the family is unchanged.
  const PlanCacheStats before = e.plan_cache_stats();
  EXPECT_EQ(EnumerateFamily(e, "path(a, b)"),
            (std::set<std::string>{"{edge(a, b)}"}));
  EXPECT_EQ(e.plan_cache_stats().hits, before.hits + 1);
  EXPECT_EQ(e.plan_cache_stats().misses, before.misses);
}

TEST(ApplyDeltaPlanCacheTest, PinnedSnapshotKeepsItsPlanAfterUntouchedDelta) {
  // A request that pinned its snapshot just before a delta must still
  // find that version's plan: carrying an untouched plan into the
  // successor's cache leaves it valid, and cached, in the old one too.
  auto engine = Engine::FromText(
      kPathProgram, "edge(a, b). edge(x, y).", "path");
  ASSERT_TRUE(engine.ok());
  Engine& e = engine.value();
  ASSERT_TRUE(e.Prepare("path(a, b)").ok());
  const std::shared_ptr<const EngineState> pinned = e.PinSnapshot();
  const auto target = e.FactIdOf("path(a, b)");
  ASSERT_TRUE(target.ok());
  const auto plan = pinned->PlanFor(target.value());

  DeltaRequest request;
  request.added_fact_texts = {"edge(y, z)"};
  auto stats = e.ApplyDelta(request);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.value().plans_retained, 1u);
  ASSERT_EQ(stats.value().plans_invalidated, 0u);

  const PlanCacheStats before = pinned->plan_cache.stats();
  EXPECT_EQ(pinned->PlanFor(target.value()), plan);
  const PlanCacheStats after = pinned->plan_cache.stats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.invalidated, before.invalidated);
  // The new version serves the very same plan.
  EXPECT_EQ(e.PinSnapshot()->PlanFor(target.value()), plan);
}

TEST(ApplyDeltaPlanCacheTest, RankChangeInsideClosureInvalidates) {
  // The closure of path(a, c) contains path(b, c); adding edge(a, c)
  // creates a new instance with head path(a, c) — inside the closure — so
  // the plan must go, even though the family only grows.
  auto engine = Engine::FromText(
      kPathProgram, "edge(a, b). edge(b, c).", "path");
  ASSERT_TRUE(engine.ok());
  Engine& e = engine.value();
  ASSERT_TRUE(e.Prepare("path(a, c)").ok());
  DeltaRequest request;
  request.added_fact_texts = {"edge(a, c)"};
  auto stats = e.ApplyDelta(request);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().plans_invalidated, 1u);
  EXPECT_EQ(EnumerateFamily(e, "path(a, c)"),
            (std::set<std::string>{"{edge(a, b), edge(b, c)}",
                                   "{edge(a, c)}"}));
}

// --- Snapshot isolation --------------------------------------------------

TEST(ApplyDeltaSnapshotTest, PreparedQueryKeepsServingItsVersion) {
  auto engine = Engine::FromText(kExample1Program, kExample4Database, "a");
  ASSERT_TRUE(engine.ok());
  Engine& e = engine.value();
  auto prepared = e.Prepare("a(d)");
  ASSERT_TRUE(prepared.ok());
  const std::set<std::string> both{"{s(a), t(a, a, c), t(c, c, d)}",
                                   "{s(b), t(b, b, c), t(c, c, d)}"};
  const std::set<std::string> only_a{"{s(a), t(a, a, c), t(c, c, d)}"};

  DeltaRequest request;
  request.removed_fact_texts = {"s(b)"};
  ASSERT_TRUE(e.ApplyDelta(request).ok());

  // The fresh engine view serves the post-delta family...
  EXPECT_EQ(EnumerateFamily(e, "a(d)"), only_a);
  // ...while the prepared plan still serves its pinned snapshot.
  auto enumeration = prepared.value().Enumerate();
  ASSERT_TRUE(enumeration.ok());
  EXPECT_EQ(FamilyToStrings(Drain(enumeration.value()), e.model().symbols()),
            both);
}

TEST(ApplyDeltaSnapshotTest, ConcurrentReadersAndWriter) {
  // One writer thread oscillates the database (remove s(b) / add it back)
  // while reader threads hammer a pinned PreparedQuery (must always see
  // the full two-member family) and the live engine (must see one of the
  // two valid families, never a torn state). The TSan CI job runs this.
  auto engine = Engine::FromText(kExample1Program, kExample4Database, "a");
  ASSERT_TRUE(engine.ok());
  Engine& e = engine.value();
  auto prepared = e.Prepare("a(d)");
  ASSERT_TRUE(prepared.ok());
  const dl::FactId target = prepared.value().target();
  const std::set<std::string> both{"{s(a), t(a, a, c), t(c, c, d)}",
                                   "{s(b), t(b, b, c), t(c, c, d)}"};
  const std::set<std::string> only_a{"{s(a), t(a, a, c), t(c, c, d)}"};

  constexpr std::size_t kReaders = 4;
  constexpr std::size_t kRounds = 12;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (std::size_t round = 0; round < kRounds; ++round) {
      DeltaRequest remove_b;
      remove_b.removed_fact_texts = {"s(b)"};
      ASSERT_TRUE(e.ApplyDelta(remove_b).ok());
      DeltaRequest add_b;
      add_b.added_fact_texts = {"s(b)"};
      ASSERT_TRUE(e.ApplyDelta(add_b).ok());
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto pinned = prepared.value().Enumerate();
        ASSERT_TRUE(pinned.ok());
        pv::ProvenanceFamily family = Drain(pinned.value());
        EXPECT_EQ(family.size(), 2u);

        EnumerateRequest request;
        request.target = target;
        auto live = e.Enumerate(request);
        ASSERT_TRUE(live.ok());
        const auto live_family =
            FamilyToStrings(Drain(live.value()), e.model().symbols());
        EXPECT_TRUE(live_family == both || live_family == only_a)
            << "torn family of size " << live_family.size();
        EXPECT_FALSE(e.FactToText(target).empty());
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(e.model_version(), 2 * kRounds);
  EXPECT_EQ(EnumerateFamily(e, "a(d)"), both);
}

}  // namespace
}  // namespace whyprov
