// Tests of the `whyprov::Engine` facade: construction error paths, the
// Enumeration handle (caps, exhaustion, iteration), SAT backend selection
// via the SolverFactory, the prepare/execute split (PreparedQuery, plan
// cache, batch serving, multi-threaded request hammering), and
// cross-checks against the expectations of test_enumerator.cc.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/plan_cache.h"
#include "provenance/query_plan.h"
#include "scenarios/scenarios.h"
#include "util/mutex.h"
#include "tests/workspace.h"
#include "whyprov.h"

namespace whyprov {
namespace {

using whyprov::testing::FamilyToStrings;
using whyprov::testing::MemberToString;
namespace dl = whyprov::datalog;
namespace pv = whyprov::provenance;

constexpr const char* kExample1Program = R"(
  a(X) :- s(X).
  a(X) :- a(Y), a(Z), t(Y, Z, X).
)";
constexpr const char* kExample1Database =
    "s(a). t(a, a, b). t(a, a, c). t(a, a, d). t(b, c, a).";
constexpr const char* kExample4Database =
    "s(a). s(b). t(a, a, c). t(b, b, c). t(c, c, d).";

pv::ProvenanceFamily Drain(Enumeration& enumeration) {
  pv::ProvenanceFamily family;
  for (auto member = enumeration.Next(); member.has_value();
       member = enumeration.Next()) {
    family.insert(*member);
  }
  return family;
}

// --- FromText error paths ------------------------------------------------

TEST(EngineFromTextTest, UnknownAnswerPredicateIsNotFound) {
  auto engine = Engine::FromText("p(X) :- e(X).", "e(a).", "nonexistent");
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), util::StatusCode::kNotFound);
}

TEST(EngineFromTextTest, ExtensionalAnswerPredicateIsInvalidArgument) {
  auto engine = Engine::FromText("p(X) :- e(X).", "e(a).", "e");
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(EngineFromTextTest, ParseFailureIsParseError) {
  auto engine = Engine::FromText("p(X) :- :-", "e(a).", "p");
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), util::StatusCode::kParseError);
  auto bad_db = Engine::FromText("p(X) :- e(X).", "e(a", "p");
  ASSERT_FALSE(bad_db.ok());
  EXPECT_EQ(bad_db.status().code(), util::StatusCode::kParseError);
}

TEST(EngineFromTextTest, EmptyProgramIsNotFound) {
  // No rules at all: the answer predicate cannot occur, much less be
  // intensional.
  auto engine = Engine::FromText("", "e(a).", "p");
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), util::StatusCode::kNotFound);
}

TEST(EngineFromTextTest, UnknownSolverBackendIsNotFound) {
  EngineOptions options;
  options.solver_backend = "no-such-solver";
  auto engine = Engine::FromText(kExample1Program, kExample1Database, "a",
                                 options);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), util::StatusCode::kNotFound);
}

// --- Enumerate: cross-check against test_enumerator expectations ---------

TEST(EngineEnumerateTest, PaperExample1WhyUnHasSingleMember) {
  auto engine =
      Engine::FromText(kExample1Program, kExample1Database, "a");
  ASSERT_TRUE(engine.ok()) << engine.status().message();
  EnumerateRequest request;
  request.target_text = "a(d)";
  auto enumeration = engine.value().Enumerate(request);
  ASSERT_TRUE(enumeration.ok()) << enumeration.status().message();
  const pv::ProvenanceFamily family = Drain(enumeration.value());
  EXPECT_EQ(FamilyToStrings(family, engine.value().model().symbols()),
            (std::set<std::string>{"{s(a), t(a, a, d)}"}));
  EXPECT_TRUE(enumeration.value().exhausted());
  EXPECT_FALSE(enumeration.value().hit_member_cap());
  EXPECT_FALSE(enumeration.value().deadline_exceeded());
}

TEST(EngineEnumerateTest, PaperExample4WhyUnHasTwoMembers) {
  auto engine =
      Engine::FromText(kExample1Program, kExample4Database, "a");
  ASSERT_TRUE(engine.ok());
  EnumerateRequest request;
  request.target_text = "a(d)";
  auto enumeration = engine.value().Enumerate(request);
  ASSERT_TRUE(enumeration.ok());
  const pv::ProvenanceFamily family = Drain(enumeration.value());
  EXPECT_EQ(FamilyToStrings(family, engine.value().model().symbols()),
            (std::set<std::string>{"{s(a), t(a, a, c), t(c, c, d)}",
                                   "{s(b), t(b, b, c), t(c, c, d)}"}));
}

TEST(EngineEnumerateTest, RangeForIterationYieldsEveryMember) {
  auto engine =
      Engine::FromText(kExample1Program, kExample4Database, "a");
  ASSERT_TRUE(engine.ok());
  EnumerateRequest request;
  request.target_text = "a(d)";
  auto enumeration = engine.value().Enumerate(request);
  ASSERT_TRUE(enumeration.ok());
  std::size_t members = 0;
  for (const auto& member : enumeration.value()) {
    EXPECT_FALSE(member.empty());
    ++members;
  }
  EXPECT_EQ(members, 2u);
  EXPECT_EQ(enumeration.value().members_emitted(), 2u);
  EXPECT_EQ(enumeration.value().delays_ms().size(), 2u);
}

TEST(EngineEnumerateTest, MaxMembersCapsTheEnumeration) {
  auto engine =
      Engine::FromText(kExample1Program, kExample4Database, "a");
  ASSERT_TRUE(engine.ok());
  EnumerateRequest request;
  request.target_text = "a(d)";
  request.max_members = 1;
  auto enumeration = engine.value().Enumerate(request);
  ASSERT_TRUE(enumeration.ok());
  EXPECT_TRUE(enumeration.value().Next().has_value());
  EXPECT_FALSE(enumeration.value().Next().has_value());
  EXPECT_TRUE(enumeration.value().hit_member_cap());
  EXPECT_FALSE(enumeration.value().exhausted());
  // All() after the cap stays empty (the budget is spent).
  EXPECT_TRUE(enumeration.value().All().empty());
}

TEST(EngineEnumerateTest, ExhaustionIsSticky) {
  auto engine =
      Engine::FromText(kExample1Program, kExample1Database, "a");
  ASSERT_TRUE(engine.ok());
  EnumerateRequest request;
  request.target_text = "a(d)";
  auto enumeration = engine.value().Enumerate(request);
  ASSERT_TRUE(enumeration.ok());
  EXPECT_EQ(enumeration.value().All().size(), 1u);
  EXPECT_TRUE(enumeration.value().exhausted());
  EXPECT_FALSE(enumeration.value().Next().has_value());
  EXPECT_TRUE(enumeration.value().All().empty());
}

TEST(EngineEnumerateTest, MissingTargetIsInvalidArgument) {
  auto engine =
      Engine::FromText(kExample1Program, kExample1Database, "a");
  ASSERT_TRUE(engine.ok());
  auto enumeration = engine.value().Enumerate(EnumerateRequest{});
  ASSERT_FALSE(enumeration.ok());
  EXPECT_EQ(enumeration.status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST(EngineEnumerateTest, UnderivableTargetTextIsNotFound) {
  auto engine =
      Engine::FromText(kExample1Program, kExample1Database, "a");
  ASSERT_TRUE(engine.ok());
  EnumerateRequest request;
  request.target_text = "a(zzz)";
  auto enumeration = engine.value().Enumerate(request);
  ASSERT_FALSE(enumeration.ok());
  EXPECT_EQ(enumeration.status().code(), util::StatusCode::kNotFound);
}

// --- Backend selection ----------------------------------------------------

TEST(SolverFactoryTest, BuiltInBackendsAreRegistered) {
  auto& factory = sat::SolverFactory::Instance();
  EXPECT_TRUE(factory.Has("cdcl"));
  EXPECT_TRUE(factory.Has("dpll"));
  EXPECT_TRUE(factory.Has("dimacs-pipe"));
  auto cdcl = factory.Create("cdcl");
  ASSERT_TRUE(cdcl.ok());
  EXPECT_EQ(cdcl.value()->name(), "cdcl");
  auto dpll = factory.Create("dpll");
  ASSERT_TRUE(dpll.ok());
  EXPECT_EQ(dpll.value()->name(), "dpll");
}

TEST(SolverFactoryTest, UnknownBackendIsNotFound) {
  auto solver = sat::SolverFactory::Instance().Create("no-such-solver");
  ASSERT_FALSE(solver.ok());
  EXPECT_EQ(solver.status().code(), util::StatusCode::kNotFound);
}

TEST(SolverFactoryTest, DuplicateRegistrationIsRejected) {
  auto status = sat::SolverFactory::Instance().Register(
      "cdcl", [](const sat::SolverOptions&)
                  -> util::Result<std::unique_ptr<sat::SolverInterface>> {
        return util::Status::Error("never called");
      });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
}

TEST(SolverFactoryTest, DimacsPipeWithoutCommandIsNotFound) {
  unsetenv("WHYPROV_DIMACS_SOLVER");
  auto solver = sat::SolverFactory::Instance().Create("dimacs-pipe");
  ASSERT_FALSE(solver.ok());
  EXPECT_EQ(solver.status().code(), util::StatusCode::kNotFound);
}

TEST(EngineBackendTest, FailingExternalSolverIsReportedAsIncomplete) {
  // /bin/false produces no output: the pipe backend answers kUnknown,
  // and the enumeration must flag itself incomplete instead of passing
  // the empty result off as a genuinely empty family.
  setenv("WHYPROV_DIMACS_SOLVER", "/bin/false", /*overwrite=*/1);
  EngineOptions options;
  options.solver_backend = "dimacs-pipe";
  auto engine =
      Engine::FromText(kExample1Program, kExample1Database, "a", options);
  ASSERT_TRUE(engine.ok());
  EnumerateRequest request;
  request.target_text = "a(d)";
  auto enumeration = engine.value().Enumerate(request);
  ASSERT_TRUE(enumeration.ok()) << enumeration.status().message();
  EXPECT_TRUE(enumeration.value().All().empty());
  EXPECT_TRUE(enumeration.value().incomplete());

  // Decide must not misreport the give-up as "not a member".
  DecideRequest decide;
  decide.target_text = "a(d)";
  decide.candidate = {engine.value().model().fact(
      engine.value().FactIdOf("s(a)").value())};
  auto verdict = engine.value().Decide(decide);
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.status().code(), util::StatusCode::kResourceExhausted);
  unsetenv("WHYPROV_DIMACS_SOLVER");
}

TEST(EngineBackendTest, CdclAndDpllAgreeOnPaperExample) {
  for (const char* database : {kExample1Database, kExample4Database}) {
    pv::ProvenanceFamily families[2];
    int index = 0;
    for (const char* backend : {"cdcl", "dpll"}) {
      EngineOptions options;
      options.solver_backend = backend;
      auto engine =
          Engine::FromText(kExample1Program, database, "a", options);
      ASSERT_TRUE(engine.ok());
      EnumerateRequest request;
      request.target_text = "a(d)";
      auto enumeration = engine.value().Enumerate(request);
      ASSERT_TRUE(enumeration.ok()) << enumeration.status().message();
      EXPECT_EQ(enumeration.value().solver().name(), backend);
      families[index++] = Drain(enumeration.value());
    }
    EXPECT_EQ(families[0], families[1]);
    EXPECT_FALSE(families[0].empty());
  }
}

TEST(EngineBackendTest, CdclAndDpllAgreeOnAScenarioInstance) {
  // A small sparse transitive-closure instance (the Bitcoin-like
  // generator at toy scale): both backends must produce identical
  // why-provenance families for every sampled answer.
  const auto scenario = scenarios::MakeTransClosure(
      scenarios::GraphKind::kSparse, /*num_nodes=*/24, /*num_edges=*/30,
      /*seed=*/20240611);
  EngineOptions cdcl_options;
  cdcl_options.solver_backend = "cdcl";
  EngineOptions dpll_options = cdcl_options;
  dpll_options.solver_backend = "dpll";
  const Engine engines[2] = {scenario.MakeEngine(cdcl_options),
                             scenario.MakeEngine(dpll_options)};
  util::Rng rng(7);
  const auto targets = engines[0].SampleAnswers(3, rng);
  ASSERT_FALSE(targets.empty());
  for (dl::FactId target : targets) {
    const std::string target_text = engines[0].FactToText(target);
    pv::ProvenanceFamily families[2];
    for (int index = 0; index < 2; ++index) {
      EnumerateRequest request;
      request.target_text = target_text;
      request.max_members = 64;
      auto enumeration = engines[index].Enumerate(request);
      ASSERT_TRUE(enumeration.ok()) << enumeration.status().message();
      EXPECT_EQ(enumeration.value().solver().name(),
                engines[index].options().solver_backend);
      families[index] = Drain(enumeration.value());
    }
    EXPECT_EQ(families[0], families[1])
        << "backends disagree on " << target_text;
    EXPECT_FALSE(families[0].empty());
  }
}

// --- Prepare / execute ----------------------------------------------------

TEST(EnginePrepareTest, PreparedQueryServesEveryService) {
  auto engine = Engine::FromText(kExample1Program, kExample4Database, "a");
  ASSERT_TRUE(engine.ok());
  auto prepared = engine.value().Prepare("a(d)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().message();
  EXPECT_EQ(prepared.value().target_text(), "a(d)");
  EXPECT_FALSE(prepared.value().closure().nodes().empty());
  EXPECT_GT(prepared.value().formula().num_clauses(), 0u);

  // Two executions of one plan are independent full enumerations.
  const std::set<std::string> expected{"{s(a), t(a, a, c), t(c, c, d)}",
                                       "{s(b), t(b, b, c), t(c, c, d)}"};
  for (int round = 0; round < 2; ++round) {
    auto enumeration = prepared.value().Enumerate();
    ASSERT_TRUE(enumeration.ok());
    EXPECT_EQ(FamilyToStrings(Drain(enumeration.value()),
                              engine.value().model().symbols()),
              expected);
  }

  // Decide and Explain run against the same plan.
  DecideRequest decide;
  decide.candidate = {
      engine.value().model().fact(engine.value().FactIdOf("s(a)").value()),
      engine.value().model().fact(
          engine.value().FactIdOf("t(a, a, c)").value()),
      engine.value().model().fact(
          engine.value().FactIdOf("t(c, c, d)").value())};
  auto verdict = prepared.value().Decide(decide);
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(verdict.value());
  auto explanation = prepared.value().Explain();
  ASSERT_TRUE(explanation.ok());
  EXPECT_TRUE(explanation.value().tree.IsUnambiguous());
}

TEST(EnginePrepareTest, PreparedQueryOutlivesTheEngine) {
  std::optional<PreparedQuery> prepared;
  pv::ProvenanceFamily expected;
  {
    auto engine = Engine::FromText(kExample1Program, kExample4Database, "a");
    ASSERT_TRUE(engine.ok());
    auto result = engine.value().Prepare("a(d)");
    ASSERT_TRUE(result.ok());
    prepared = std::move(result).value();
    EnumerateRequest request;
    request.target_text = "a(d)";
    auto enumeration = engine.value().Enumerate(request);
    ASSERT_TRUE(enumeration.ok());
    expected = Drain(enumeration.value());
  }  // the Engine (and its Result) are gone; the plan must stay valid
  auto enumeration = prepared->Enumerate();
  ASSERT_TRUE(enumeration.ok());
  EXPECT_EQ(Drain(enumeration.value()), expected);
  auto tree = enumeration.value().ExplainLast();
  ASSERT_TRUE(tree.ok()) << tree.status().message();
}

TEST(EnginePrepareTest, EnumerationSurvivesEngineMove) {
  // Satellite of the PreparedQuery ownership model: handles share the
  // engine state, so moving the engine out of its Result (or anywhere
  // else) must not invalidate a live enumeration.
  auto engine = Engine::FromText(kExample1Program, kExample4Database, "a");
  ASSERT_TRUE(engine.ok());
  EnumerateRequest request;
  request.target_text = "a(d)";
  auto enumeration = engine.value().Enumerate(request);
  ASSERT_TRUE(enumeration.ok());
  ASSERT_TRUE(enumeration.value().Next().has_value());
  const Engine moved = std::move(engine).value();
  EXPECT_TRUE(enumeration.value().Next().has_value());
  auto tree = enumeration.value().ExplainLast();
  ASSERT_TRUE(tree.ok()) << tree.status().message();
  EXPECT_TRUE(tree.value().IsUnambiguous());
  (void)moved;
}

// --- Plan cache -----------------------------------------------------------

TEST(EnginePlanCacheTest, RepeatedRequestsSkipClosureAndEncode) {
  auto engine = Engine::FromText(kExample1Program, kExample4Database, "a");
  ASSERT_TRUE(engine.ok());
  ExplainRequest explain;
  explain.target_text = "a(d)";
  ASSERT_TRUE(engine.value().Explain(explain).ok());
  PlanCacheStats stats = engine.value().plan_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.size, 1u);

  // The second Explain and a following Enumerate reuse the cached plan:
  // the closure+encode phase runs exactly once per target.
  ASSERT_TRUE(engine.value().Explain(explain).ok());
  EnumerateRequest enumerate;
  enumerate.target_text = "a(d)";
  ASSERT_TRUE(engine.value().Enumerate(enumerate).ok());
  stats = engine.value().plan_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
}

TEST(EnginePlanCacheTest, LruEvictionRespectsCapacity) {
  EngineOptions options;
  options.plan_cache_capacity = 1;
  auto engine =
      Engine::FromText(kExample1Program, kExample1Database, "a", options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine.value().Prepare("a(d)").ok());
  ASSERT_TRUE(engine.value().Prepare("a(b)").ok());  // evicts a(d)
  ASSERT_TRUE(engine.value().Prepare("a(d)").ok());  // misses again
  const PlanCacheStats stats = engine.value().plan_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_GE(stats.evictions, 2u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.capacity, 1u);
}

TEST(EnginePlanCacheTest, ZeroCapacityDisablesCaching) {
  EngineOptions options;
  options.plan_cache_capacity = 0;
  auto engine =
      Engine::FromText(kExample1Program, kExample1Database, "a", options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine.value().Prepare("a(d)").ok());
  ASSERT_TRUE(engine.value().Prepare("a(d)").ok());
  const PlanCacheStats stats = engine.value().plan_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.size, 0u);
}

TEST(EnginePlanCacheTest, GetOrBuildCoalescesConcurrentMisses) {
  auto engine = Engine::FromText(kExample1Program, kExample1Database, "a");
  ASSERT_TRUE(engine.ok());
  const auto target = engine.value().FactIdOf("a(d)");
  ASSERT_TRUE(target.ok());

  // One real plan compiled up front; the gated build function below
  // hands it out, so the test controls when the single allowed build
  // finishes — and the waiters must be parked on the flight until then.
  auto plan = pv::QueryPlan::Build(
      engine.value().program(), engine.value().model(), target.value(),
      pv::CnfEncoder::Options(), sat::SimplifyMode::kOff);
  ASSERT_NE(plan, nullptr);

  PlanCache cache(/*capacity=*/4);
  util::Mutex gate_mutex;
  util::CondVar gate_cv;
  bool gate_open = false;
  std::atomic<std::size_t> builds{0};
  const auto build = [&] {
    ++builds;
    const util::MutexLock lock(gate_mutex);
    while (!gate_open) gate_cv.Wait(gate_mutex);
    return plan;
  };

  constexpr std::size_t kThreads = 4;
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const pv::QueryPlan>> results(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      results[i] = cache.GetOrBuild(target.value(), build);
    });
  }
  // Exactly one thread became the builder (parked on the gate); the
  // stats expose the others latching onto its flight as they arrive.
  while (cache.stats().coalesced < kThreads - 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    const util::MutexLock lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.NotifyAll();
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(builds.load(), 1u);
  for (const auto& result : results) EXPECT_EQ(result, plan);
  PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.coalesced, kThreads - 1);
  EXPECT_EQ(stats.size, 1u);

  // The flight is gone: a follow-up lookup is a plain hit, no build.
  EXPECT_EQ(cache.GetOrBuild(target.value(), build), plan);
  EXPECT_EQ(builds.load(), 1u);
  EXPECT_EQ(cache.stats().hits, stats.hits + 1);
}

// --- Concurrency ----------------------------------------------------------

namespace {

/// Shared fixture for the hammer tests: a small transitive-closure
/// instance with a few sampled targets and their serially-computed
/// expected families.
struct ConcurrencyWorkload {
  std::optional<Engine> engine;
  std::vector<dl::FactId> targets;
  std::vector<pv::ProvenanceFamily> expected;

  explicit ConcurrencyWorkload(std::size_t plan_cache_capacity) {
    const auto scenario = scenarios::MakeTransClosure(
        scenarios::GraphKind::kSparse, /*num_nodes=*/24, /*num_edges=*/30,
        /*seed=*/20240611);
    EngineOptions options;
    options.plan_cache_capacity = plan_cache_capacity;
    engine.emplace(scenario.MakeEngine(options));
    util::Rng rng(7);
    targets = engine->SampleAnswers(3, rng);
    for (dl::FactId target : targets) {
      EnumerateRequest request;
      request.target = target;
      auto enumeration = engine->Enumerate(request);
      EXPECT_TRUE(enumeration.ok());
      expected.push_back(Drain(enumeration.value()));
    }
  }
};

/// N threads hammer one shared engine with mixed Enumerate/Decide calls
/// on overlapping targets; every thread checks its results against the
/// serial ground truth.
void HammerSharedEngine(const ConcurrencyWorkload& workload) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 3;
  const Engine& engine = *workload.engine;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine, &workload, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        const std::size_t i = (t + round) % workload.targets.size();
        const dl::FactId target = workload.targets[i];
        EnumerateRequest enumerate;
        enumerate.target = target;
        auto enumeration = engine.Enumerate(enumerate);
        ASSERT_TRUE(enumeration.ok()) << enumeration.status().message();
        EXPECT_EQ(Drain(enumeration.value()), workload.expected[i]);
        DecideRequest decide;
        decide.target = target;
        decide.candidate = *workload.expected[i].begin();
        auto verdict = engine.Decide(decide);
        ASSERT_TRUE(verdict.ok()) << verdict.status().message();
        EXPECT_TRUE(verdict.value());
        // Mix in the text surface: rendering reads the symbol table that
        // concurrent parses (here: of a fresh, never-seen constant, which
        // interns) mutate. Both must go through the engine's lock.
        EXPECT_FALSE(engine.FactToText(target).empty());
        const std::string fresh = "tc(new_" + std::to_string(t) + "_" +
                                  std::to_string(round) + ", nowhere)";
        EXPECT_FALSE(engine.FactIdOf(fresh).ok());  // parses, then kNotFound
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

}  // namespace

TEST(EngineConcurrencyTest, SharedEngineWithPlanCache) {
  const ConcurrencyWorkload workload(/*plan_cache_capacity=*/64);
  HammerSharedEngine(workload);
  // The warm-up plus the hammer revisit every target many times over.
  const PlanCacheStats stats = workload.engine->plan_cache_stats();
  EXPECT_GT(stats.hits, 0u);
}

TEST(EngineConcurrencyTest, SharedEngineWithoutPlanCache) {
  // Capacity 0 forces every request to build its own plan, exercising
  // concurrent closure construction over the shared model.
  const ConcurrencyWorkload workload(/*plan_cache_capacity=*/0);
  HammerSharedEngine(workload);
}

TEST(EngineConcurrencyTest, OnePreparedPlanManyThreads) {
  const ConcurrencyWorkload workload(/*plan_cache_capacity=*/64);
  auto prepared = workload.engine->Prepare(workload.targets[0]);
  ASSERT_TRUE(prepared.ok());
  constexpr std::size_t kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&prepared, &workload] {
      auto enumeration = prepared.value().Enumerate();
      ASSERT_TRUE(enumeration.ok());
      EXPECT_EQ(Drain(enumeration.value()), workload.expected[0]);
    });
  }
  for (std::thread& thread : threads) thread.join();
}

// --- Batch serving --------------------------------------------------------
//
// Batches fan out through Service::EnumerateBatch/DecideBatch, the one
// batch path; the workload's serial families are the reference.

TEST(EngineBatchTest, EnumerateBatchMatchesSequentialResults) {
  ConcurrencyWorkload workload(/*plan_cache_capacity=*/64);
  ServiceOptions options;
  options.num_threads = 4;
  Service service(std::move(*workload.engine), options);
  // Repeat every target several times and add one unresolvable request.
  std::vector<EnumerateRequest> requests;
  for (int round = 0; round < 4; ++round) {
    for (dl::FactId target : workload.targets) {
      EnumerateRequest request;
      request.target = target;
      requests.push_back(request);
    }
  }
  EnumerateRequest bad;
  bad.target_text = "nosuchfact(x, y)";
  requests.push_back(bad);

  const BatchEnumerateResult result = service.EnumerateBatch(requests);
  ASSERT_EQ(result.outcomes.size(), requests.size());
  for (std::size_t i = 0; i + 1 < requests.size(); ++i) {
    ASSERT_TRUE(result.outcomes[i].status.ok())
        << result.outcomes[i].status.message();
    EXPECT_TRUE(result.outcomes[i].exhausted);
    pv::ProvenanceFamily family(result.outcomes[i].members.begin(),
                                result.outcomes[i].members.end());
    EXPECT_EQ(family, workload.expected[i % workload.targets.size()]);
  }
  EXPECT_FALSE(result.outcomes.back().status.ok());
  EXPECT_EQ(result.stats.requests, requests.size());
  EXPECT_EQ(result.stats.succeeded, requests.size() - 1);
  EXPECT_EQ(result.stats.failed, 1u);
  EXPECT_GT(result.stats.members_emitted, 0u);
  EXPECT_GT(result.stats.queries_per_second, 0.0);
  // The warm-up already compiled every target, so each of the 4 visits
  // per target is a hit; the unresolvable request never reaches the
  // cache.
  EXPECT_EQ(result.stats.plan_cache_hits, 4 * workload.targets.size());
  EXPECT_EQ(result.stats.plan_cache_misses, 0u);
}

TEST(EngineBatchTest, DecideBatchAgreesWithDecide) {
  ConcurrencyWorkload workload(/*plan_cache_capacity=*/64);
  ServiceOptions options;
  options.num_threads = 4;
  Service service(std::move(*workload.engine), options);
  std::vector<DecideRequest> requests;
  for (std::size_t i = 0; i < workload.targets.size(); ++i) {
    DecideRequest in_family;
    in_family.target = workload.targets[i];
    in_family.candidate = *workload.expected[i].begin();
    requests.push_back(in_family);
    DecideRequest not_in_family;
    not_in_family.target = workload.targets[i];
    not_in_family.candidate = {};  // the empty set never supports a proof
    requests.push_back(not_in_family);
  }
  const BatchDecideResult result = service.DecideBatch(requests);
  ASSERT_EQ(result.outcomes.size(), requests.size());
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    ASSERT_TRUE(result.outcomes[i].status.ok());
    EXPECT_EQ(result.outcomes[i].member, i % 2 == 0) << "request " << i;
  }
  EXPECT_EQ(result.stats.succeeded, requests.size());
  EXPECT_EQ(result.stats.failed, 0u);
  EXPECT_EQ(result.stats.plan_cache_hits, requests.size());
  EXPECT_EQ(result.stats.plan_cache_misses, 0u);
}

// --- Decide / Baseline / Explain -----------------------------------------

TEST(EngineDecideTest, MatchesTheEnumeratedFamily) {
  auto engine =
      Engine::FromText(kExample1Program, kExample4Database, "a");
  ASSERT_TRUE(engine.ok());
  const Engine& e = engine.value();

  DecideRequest in_family;
  in_family.target_text = "a(d)";
  in_family.candidate = {
      e.model().fact(e.FactIdOf("s(a)").value()),
      e.model().fact(e.FactIdOf("t(a, a, c)").value()),
      e.model().fact(e.FactIdOf("t(c, c, d)").value())};
  auto verdict = e.Decide(in_family);
  ASSERT_TRUE(verdict.ok()) << verdict.status().message();
  EXPECT_TRUE(verdict.value());

  // The whole database is a why() member but not a whyUN() member
  // (Example 2 vs Example 4 of the paper).
  DecideRequest whole_db;
  whole_db.target_text = "a(d)";
  whole_db.candidate = e.database().facts();
  whole_db.tree_class = pv::TreeClass::kUnambiguous;
  auto not_unambiguous = e.Decide(whole_db);
  ASSERT_TRUE(not_unambiguous.ok());
  EXPECT_FALSE(not_unambiguous.value());
}

TEST(EngineBaselineTest, MatchesComputeWhyAllAtOnce) {
  auto engine =
      Engine::FromText(kExample1Program, kExample1Database, "a");
  ASSERT_TRUE(engine.ok());
  BaselineRequest request;
  request.target_text = "a(d)";
  auto family = engine.value().Baseline(request);
  ASSERT_TRUE(family.ok()) << family.status().message();
  EXPECT_EQ(FamilyToStrings(family.value(),
                            engine.value().model().symbols()),
            (std::set<std::string>{
                "{s(a), t(a, a, d)}",
                "{s(a), t(a, a, b), t(a, a, c), t(a, a, d), t(b, c, a)}"}));
}

TEST(EngineExplainTest, ReturnsMemberAndValidatingTree) {
  auto engine =
      Engine::FromText(kExample1Program, kExample4Database, "a");
  ASSERT_TRUE(engine.ok());
  ExplainRequest request;
  request.target_text = "a(d)";
  auto explanation = engine.value().Explain(request);
  ASSERT_TRUE(explanation.ok()) << explanation.status().message();
  EXPECT_FALSE(explanation.value().member.empty());
  const auto target = engine.value().FactIdOf("a(d)");
  ASSERT_TRUE(target.ok());
  util::Status valid = explanation.value().tree.Validate(
      engine.value().program(), engine.value().database(),
      engine.value().model().fact(target.value()));
  EXPECT_TRUE(valid.ok()) << valid.message();
  EXPECT_TRUE(explanation.value().tree.IsUnambiguous());

  // Asking for a member beyond the family's size is kNotFound.
  request.member_index = 99;
  auto missing = engine.value().Explain(request);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), util::StatusCode::kNotFound);
}

}  // namespace
}  // namespace whyprov
