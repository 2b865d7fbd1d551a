#include "engine/engine.h"

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <utility>

#include "datalog/incremental.h"
#include "datalog/parser.h"
#include "provenance/proof_dag.h"
#include "sat/solver_factory.h"
#include "util/timer.h"

namespace whyprov {

namespace dl = whyprov::datalog;
namespace pv = whyprov::provenance;

namespace {

dl::Model EvaluateTimed(const dl::Program& program,
                        const dl::Database& database, double* seconds) {
  util::Timer timer;
  dl::Model model = dl::Evaluator::Evaluate(program, database);
  *seconds = timer.ElapsedSeconds();
  return model;
}

/// Instantiates the engine's backend: a fresh solver per execution.
util::Result<std::unique_ptr<sat::SolverInterface>> MakeSolver(
    const EngineState& state) {
  return sat::SolverFactory::Instance().Create(state.options.solver_backend);
}

/// The SAT Decide step against a prepared plan (kUnambiguous only).
util::Result<bool> ExecuteDecideSat(const EngineState& state,
                                    const pv::QueryPlan& plan,
                                    const DecideRequest& request) {
  if (request.cancellation.ShouldStop()) {
    return request.cancellation.InterruptionStatus();
  }
  auto solver = MakeSolver(state);
  if (!solver.ok()) return solver.status();
  if (request.cancellation.valid()) {
    solver.value()->SetInterruptCheck(
        [token = request.cancellation] { return token.ShouldStop(); });
    if (const auto deadline = request.cancellation.deadline()) {
      solver.value()->SetDeadlineHint(*deadline);
    }
  }
  util::Result<bool> verdict = pv::IsWhyUnMemberPrepared(
      plan, state.model, request.candidate, *solver.value());
  // An interrupted solve surfaces as the backend "giving up"; reclassify
  // it as the interruption the caller asked for.
  if (!verdict.ok() && request.cancellation.ShouldStop()) {
    return request.cancellation.InterruptionStatus();
  }
  // Propagates kResourceExhausted when the backend gives up instead of
  // misreporting "not a member".
  return verdict;
}

/// The exhaustive-reference Decide step; needs no plan (and must not
/// trigger a closure+encode compile just to learn the target).
util::Result<bool> ExecuteDecideExhaustive(const EngineState& state,
                                           dl::FactId target,
                                           const DecideRequest& request) {
  util::Result<pv::ProvenanceFamily> family = pv::EnumerateWhyExhaustive(
      state.program, state.model, target, request.tree_class,
      state.options.baseline_limits);
  if (!family.ok()) return family.status();
  std::vector<dl::Fact> candidate = request.candidate;
  std::sort(candidate.begin(), candidate.end());
  return family.value().contains(candidate);
}

/// The shared Explain tail: advance the enumeration to the requested
/// member and reconstruct its witnessing tree.
util::Result<Explanation> ExplainVia(util::Result<Enumeration> enumeration,
                                     const ExplainRequest& request) {
  if (!enumeration.ok()) return enumeration.status();
  std::optional<std::vector<dl::Fact>> member;
  for (std::size_t i = 0; i <= request.member_index; ++i) {
    member = enumeration.value().Next();
    if (!member.has_value()) {
      const util::Status interrupted =
          enumeration.value().interruption_status();
      if (!interrupted.ok()) return interrupted;
      return util::Status::NotFound(
          "the enumeration has only " +
          std::to_string(enumeration.value().members_emitted()) +
          " member(s); cannot explain member index " +
          std::to_string(request.member_index));
    }
  }
  util::Result<pv::ProofTree> tree =
      enumeration.value().ExplainLast(request.max_tree_nodes);
  if (!tree.ok()) return tree.status();
  return Explanation{std::move(*member), std::move(tree).value()};
}

/// Turns an ExplainRequest into the enumeration that serves it.
EnumerateRequest EnumerateRequestFor(const ExplainRequest& request) {
  EnumerateRequest enumerate;
  enumerate.target = request.target;
  enumerate.target_text = request.target_text;
  enumerate.max_members = request.member_index + 1;
  enumerate.cancellation = request.cancellation;
  return enumerate;
}

}  // namespace

// --- EngineState ---------------------------------------------------------

EngineState::EngineState(dl::Program program_in, dl::Database database_in,
                         dl::PredicateId answer_predicate_in,
                         EngineOptions options_in)
    : program(std::move(program_in)),
      answer_predicate(answer_predicate_in),
      options(std::move(options_in)),
      model(EvaluateTimed(program, database_in, &eval_seconds)),
      parse_mutex(std::make_shared<util::Mutex>()),
      plan_cache(options.plan_cache_capacity),
      accounting(std::make_shared<SnapshotAccounting>()),
      database_(std::move(database_in)) {
  accounted_bytes_ = model.ApproxRetainedBytes();
  accounting->retained.fetch_add(1, std::memory_order_relaxed);
  accounting->bytes.fetch_add(accounted_bytes_, std::memory_order_relaxed);
}

EngineState::EngineState(const EngineState& predecessor, dl::Model model_in,
                         std::uint64_t model_version_in, double eval_seconds_in)
    : program(predecessor.program),
      answer_predicate(predecessor.answer_predicate),
      options(predecessor.options),
      model_version(model_version_in),
      eval_seconds(eval_seconds_in),
      model(std::move(model_in)),
      parse_mutex(predecessor.parse_mutex),
      plan_cache(options.plan_cache_capacity,
                 predecessor.plan_cache.stats()),
      accounting(predecessor.accounting) {
  // At-birth attribution, sharer-weighted: chunks this delta cloned or
  // appended count (nearly) in full, storage still shared with older
  // versions counts at its shared fraction. Summing over retained
  // versions therefore approximates the chain's footprint without
  // re-walking old snapshots.
  accounted_bytes_ = model.ApproxRetainedBytes();
  accounting->retained.fetch_add(1, std::memory_order_relaxed);
  accounting->bytes.fetch_add(accounted_bytes_, std::memory_order_relaxed);
}

EngineState::~EngineState() {
  accounting->retained.fetch_sub(1, std::memory_order_relaxed);
  accounting->bytes.fetch_sub(accounted_bytes_, std::memory_order_relaxed);
}

const dl::Database& EngineState::database() const {
  const dl::Database* view = nullptr;
  {
    const util::MutexLock lock(database_mutex_);
    if (!database_.has_value()) {
      // The live rank-0 facts of the model are exactly the database of
      // this version; materialise the view once, on first demand.
      dl::Database database(model.symbols_ptr());
      for (dl::FactId id = 0; id < model.size(); ++id) {
        if (model.alive(id) && model.rank(id) == 0) {
          database.Insert(model.fact(id));
        }
      }
      database_.emplace(std::move(database));
    }
    // Write-once: the materialised view is never replaced, so the
    // reference stays valid after the lock is released.
    view = &*database_;
  }
  return *view;
}

bool EngineState::InDatabase(const dl::Fact& fact) const {
  const auto id = model.Find(fact);
  return id.has_value() && model.rank(*id) == 0;
}

std::shared_ptr<const pv::QueryPlan> EngineState::PlanFor(
    dl::FactId target) const {
  // Single-flight: concurrent misses on one target (the post-delta
  // stampede, when every hot plan was just invalidated) compile the plan
  // once and share it instead of each paying the closure+encode cost.
  return plan_cache.GetOrBuild(target, [&] {
    pv::CnfEncoder::Options encoder_options;
    encoder_options.acyclicity = options.acyclicity;
    auto plan = pv::QueryPlan::Build(program, model, target, encoder_options,
                                     options.plan_simplify);
    if (plan->simplified()) plan_cache.RecordSimplify(plan->simplify_stats());
    return plan;
  });
}

// --- Enumeration ---------------------------------------------------------

std::optional<std::vector<dl::Fact>> Enumeration::Next() {
  if (exhausted_ || hit_member_cap_ || cancelled_ || hit_deadline_) {
    return std::nullopt;
  }
  if (cancel_.cancelled()) {
    cancelled_ = true;
    return std::nullopt;
  }
  if (cancel_.expired()) {
    hit_deadline_ = true;
    return std::nullopt;
  }
  if (emitted_ >= max_members_) {
    hit_member_cap_ = true;
    return std::nullopt;
  }
  std::optional<std::vector<dl::Fact>> member = impl_->Next();
  if (!member.has_value()) {
    if (impl_->interrupted()) {
      // The token fired mid-solve; explicit cancel wins the classification
      // (both can be true when a cancelled request also had a deadline).
      if (cancel_.cancelled()) {
        cancelled_ = true;
      } else {
        hit_deadline_ = true;
      }
      return std::nullopt;
    }
    exhausted_ = true;
    return std::nullopt;
  }
  ++emitted_;
  return member;
}

std::vector<std::vector<dl::Fact>> Enumeration::All() {
  std::vector<std::vector<dl::Fact>> members;
  for (std::optional<std::vector<dl::Fact>> member = Next();
       member.has_value(); member = Next()) {
    members.push_back(std::move(*member));
  }
  return members;
}

util::Result<pv::ProofTree> Enumeration::ExplainLast(
    std::size_t max_tree_nodes) const {
  if (emitted_ == 0) {
    return util::Status::NotFound(
        "no member has been emitted yet; call Next() first");
  }
  const pv::CompressedDag dag(&impl_->closure(),
                              impl_->last_witness_choices());
  return dag.UnravelToProofTree(state_->program, state_->model,
                                max_tree_nodes);
}

// --- PreparedQuery -------------------------------------------------------

util::Result<Enumeration> PreparedQuery::ExecutePlan(
    std::shared_ptr<const EngineState> state,
    std::shared_ptr<const pv::QueryPlan> plan,
    const EnumerateRequest& request) {
  auto solver = MakeSolver(*state);
  if (!solver.ok()) return solver.status();
  const dl::FactId target = plan->target();
  auto impl = std::make_unique<pv::WhyProvenanceEnumerator>(
      state->model, std::move(plan), std::move(solver).value());
  impl->SetCancellation(request.cancellation);
  return Enumeration(std::move(state), std::move(impl), target,
                     request.max_members, request.cancellation);
}

dl::FactId PreparedQuery::target() const { return plan_->target(); }

std::string PreparedQuery::target_text() const {
  const util::MutexLock lock(*state_->parse_mutex);
  return dl::FactToString(state_->model.fact(plan_->target()),
                          state_->program.symbols());
}

const pv::PlanTimings& PreparedQuery::timings() const {
  return plan_->timings();
}

const pv::DownwardClosure& PreparedQuery::closure() const {
  return plan_->closure();
}

const pv::Encoding& PreparedQuery::encoding() const {
  return plan_->encoding();
}

const sat::CnfFormula& PreparedQuery::formula() const {
  return plan_->formula();
}

util::Result<Enumeration> PreparedQuery::Enumerate(
    const EnumerateRequest& request) const {
  return ExecutePlan(state_, plan_, request);
}

util::Result<bool> PreparedQuery::Decide(const DecideRequest& request) const {
  if (request.tree_class == pv::TreeClass::kUnambiguous) {
    return ExecuteDecideSat(*state_, *plan_, request);
  }
  return ExecuteDecideExhaustive(*state_, plan_->target(), request);
}

util::Result<Explanation> PreparedQuery::Explain(
    const ExplainRequest& request) const {
  return ExplainVia(Enumerate(EnumerateRequestFor(request)), request);
}

// --- Engine --------------------------------------------------------------

Engine::Engine(dl::Program program, dl::Database database,
               dl::PredicateId answer_predicate, EngineOptions options)
    : state_(std::make_shared<EngineState>(std::move(program),
                                           std::move(database),
                                           answer_predicate,
                                           std::move(options))) {}

util::Result<Engine> Engine::FromText(std::string_view program_text,
                                      std::string_view database_text,
                                      std::string_view answer_predicate,
                                      EngineOptions options) {
  auto symbols = std::make_shared<dl::SymbolTable>();
  util::Result<dl::Program> program =
      dl::Parser::ParseProgram(symbols, program_text);
  if (!program.ok()) return program.status();
  util::Result<dl::Database> database =
      dl::Parser::ParseDatabase(symbols, database_text);
  if (!database.ok()) return database.status();
  util::Result<dl::PredicateId> predicate =
      symbols->FindPredicate(answer_predicate);
  if (!predicate.ok()) {
    return util::Status::NotFound("answer predicate '" +
                                  std::string(answer_predicate) +
                                  "' does not occur in the program");
  }
  if (!program.value().IsIntensional(predicate.value())) {
    return util::Status::InvalidArgument("answer predicate '" +
                                         std::string(answer_predicate) +
                                         "' is not intensional");
  }
  if (!sat::SolverFactory::Instance().Has(options.solver_backend)) {
    return util::Status::NotFound("unknown SAT backend '" +
                                  options.solver_backend + "'");
  }
  return Engine(std::move(program).value(), std::move(database).value(),
                predicate.value(), std::move(options));
}

Engine Engine::FromParts(dl::Program program, dl::Database database,
                         dl::PredicateId answer_predicate,
                         EngineOptions options) {
  return Engine(std::move(program), std::move(database), answer_predicate,
                std::move(options));
}

std::vector<dl::FactId> Engine::AnswerFactIds() const {
  const auto state = snapshot();
  return state->model.Relation(state->answer_predicate);
}

std::vector<dl::FactId> Engine::SampleAnswers(std::size_t count) const {
  util::Rng rng(0);
  return SampleAnswers(count, rng);
}

std::vector<dl::FactId> Engine::SampleAnswers(std::size_t count,
                                              util::Rng& rng) const {
  std::vector<dl::FactId> answers = AnswerFactIds();
  rng.Shuffle(answers);
  if (answers.size() > count) answers.resize(count);
  return answers;
}

namespace {

/// FactIdOf against a pinned state snapshot.
util::Result<dl::FactId> FactIdOn(const EngineState& state,
                                  std::string_view fact_text) {
  // ParseFact interns constants into the shared symbol table, so parses
  // must not run concurrently (the lock is shared by all state versions).
  const util::MutexLock lock(*state.parse_mutex);
  util::Result<dl::Fact> fact =
      dl::Parser::ParseFact(state.model.symbols_ptr(), fact_text);
  if (!fact.ok()) return fact.status();
  auto id = state.model.Find(fact.value());
  if (!id.has_value()) {
    return util::Status::NotFound("fact '" + std::string(fact_text) +
                                  "' is not derivable");
  }
  return *id;
}

}  // namespace

util::Result<dl::FactId> Engine::FactIdOf(std::string_view fact_text) const {
  return FactIdOn(*snapshot(), fact_text);
}

std::string Engine::FactToText(dl::FactId id) const {
  const auto state = snapshot();
  // Rendering reads the symbol table FactIdOf may be interning into from
  // another thread, so it takes the same lock.
  const util::MutexLock lock(*state->parse_mutex);
  return dl::FactToString(state->model.fact(id), state->program.symbols());
}

std::string Engine::FactToText(const dl::Fact& fact) const {
  const auto state = snapshot();
  const util::MutexLock lock(*state->parse_mutex);
  return dl::FactToString(fact, state->program.symbols());
}

util::Result<dl::FactId> Engine::ResolveTarget(
    const EngineState& state, dl::FactId target,
    const std::string& target_text) {
  if (target != dl::kInvalidFact) return target;
  if (target_text.empty()) {
    return util::Status::InvalidArgument(
        "the request names no target: set `target` or `target_text`");
  }
  return FactIdOn(state, target_text);
}

util::Result<PreparedQuery> Engine::Prepare(
    const PrepareRequest& request) const {
  auto state = snapshot();
  util::Result<dl::FactId> target =
      ResolveTarget(*state, request.target, request.target_text);
  if (!target.ok()) return target.status();
  auto plan = state->PlanFor(target.value());
  return PreparedQuery(std::move(state), std::move(plan));
}

util::Result<PreparedQuery> Engine::Prepare(dl::FactId target) const {
  PrepareRequest request;
  request.target = target;
  return Prepare(request);
}

util::Result<PreparedQuery> Engine::Prepare(
    std::string_view target_text) const {
  PrepareRequest request;
  request.target_text = std::string(target_text);
  return Prepare(request);
}

util::Result<Enumeration> Engine::Enumerate(
    const EnumerateRequest& request) const {
  auto state = snapshot();
  util::Result<dl::FactId> target =
      ResolveTarget(*state, request.target, request.target_text);
  if (!target.ok()) return target.status();
  auto plan = state->PlanFor(target.value());
  return PreparedQuery::ExecutePlan(std::move(state), std::move(plan),
                                    request);
}

util::Result<bool> Engine::Decide(const DecideRequest& request) const {
  const auto state = snapshot();
  util::Result<dl::FactId> target =
      ResolveTarget(*state, request.target, request.target_text);
  if (!target.ok()) return target.status();
  // Only the SAT path consumes a plan; the exhaustive reference
  // algorithms must not pay (or cache-pollute with) a closure+encode.
  if (request.tree_class != pv::TreeClass::kUnambiguous) {
    return ExecuteDecideExhaustive(*state, target.value(), request);
  }
  auto plan = state->PlanFor(target.value());
  return ExecuteDecideSat(*state, *plan, request);
}

util::Result<pv::ProvenanceFamily> Engine::Baseline(
    const BaselineRequest& request) const {
  const auto state = snapshot();
  util::Result<dl::FactId> target =
      ResolveTarget(*state, request.target, request.target_text);
  if (!target.ok()) return target.status();
  return pv::ComputeWhyAllAtOnce(
      state->program, state->model, target.value(),
      request.limits.value_or(state->options.baseline_limits));
}

util::Result<Explanation> Engine::Explain(
    const ExplainRequest& request) const {
  return ExplainVia(Enumerate(EnumerateRequestFor(request)), request);
}

// --- incremental updates -------------------------------------------------

namespace {

/// Parses the request's text-form facts and appends them to `facts`.
util::Status ParseDeltaFacts(const EngineState& state,
                             const std::vector<std::string>& texts,
                             std::vector<dl::Fact>& facts) {
  for (const std::string& text : texts) {
    util::Result<dl::Fact> fact =
        dl::Parser::ParseFact(state.model.symbols_ptr(), text);
    if (!fact.ok()) return fact.status();
    facts.push_back(std::move(fact).value());
  }
  return util::Status::Ok();
}

/// Every delta fact must be extensional: intensional facts are derived,
/// not stored, so "removing" one is not a database operation.
util::Status ValidateExtensional(const EngineState& state,
                                 const std::vector<dl::Fact>& facts) {
  for (const dl::Fact& fact : facts) {
    if (!state.program.IsIntensional(fact.predicate)) continue;
    const util::MutexLock lock(*state.parse_mutex);
    return util::Status::InvalidArgument(
        "delta fact '" + dl::FactToString(fact, state.program.symbols()) +
        "' has an intensional predicate; only database facts can be "
        "added or removed");
  }
  return util::Status::Ok();
}

/// True iff the plan's downward closure contains any touched fact
/// (`touched` is sorted; iterate whichever side is smaller).
bool PlanTouchedBy(const pv::QueryPlan& plan,
                   const std::vector<dl::FactId>& touched) {
  const auto& closure = plan.closure_facts();
  if (touched.size() <= closure.size()) {
    for (dl::FactId fact : touched) {
      if (closure.contains(fact)) return true;
    }
    return false;
  }
  for (dl::FactId fact : closure) {
    if (std::binary_search(touched.begin(), touched.end(), fact)) return true;
  }
  return false;
}

}  // namespace

void Engine::AdoptRecovered(dl::Model model, std::uint64_t version) {
  const util::MutexLock update_lock(*update_mutex_);
  const auto old_state = snapshot();
  // The successor constructor inherits program/options/parse_mutex and
  // starts the plan cache from the predecessor's counters without its
  // entries — exactly right here, where every old plan is invalid.
  auto next = std::make_shared<EngineState>(*old_state, std::move(model),
                                            version, /*eval_seconds_in=*/0);
  const util::MutexLock lock(*state_mutex_);
  state_ = std::move(next);
}

util::Result<DeltaStats> Engine::ApplyDelta(const DeltaRequest& request) {
  // One delta at a time; readers keep serving the published snapshot.
  const util::MutexLock update_lock(*update_mutex_);
  util::Timer total_timer;
  const auto old_state = snapshot();

  std::vector<dl::Fact> added = request.added_facts;
  std::vector<dl::Fact> removed = request.removed_facts;
  {
    // Text-form facts intern constants into the shared symbol table.
    const util::MutexLock lock(*old_state->parse_mutex);
    util::Status status =
        ParseDeltaFacts(*old_state, request.added_fact_texts, added);
    if (!status.ok()) return status;
    status = ParseDeltaFacts(*old_state, request.removed_fact_texts, removed);
    if (!status.ok()) return status;
  }
  util::Status status = ValidateExtensional(*old_state, added);
  if (!status.ok()) return status;
  status = ValidateExtensional(*old_state, removed);
  if (!status.ok()) return status;

  // Drop no-ops and duplicates; reject add/remove of the same fact in one
  // delta (the intent is ambiguous, so make the caller pick an order).
  std::unordered_set<dl::Fact, dl::FactHash> removed_set;
  std::vector<dl::Fact> apply_removed;
  for (dl::Fact& fact : removed) {
    if (!old_state->InDatabase(fact)) continue;
    if (removed_set.insert(fact).second) {
      apply_removed.push_back(std::move(fact));
    }
  }
  std::unordered_set<dl::Fact, dl::FactHash> added_set;
  std::vector<dl::Fact> apply_added;
  for (dl::Fact& fact : added) {
    if (removed_set.contains(fact)) {
      return util::Status::InvalidArgument(
          "a delta cannot both add and remove the same fact");
    }
    if (old_state->InDatabase(fact)) continue;
    if (added_set.insert(fact).second) {
      apply_added.push_back(std::move(fact));
    }
  }

  DeltaStats stats;
  if (apply_added.empty() && apply_removed.empty()) {
    // Nothing to do: keep the current snapshot (and its hot plans).
    stats.model_version = old_state->model_version;
    stats.plans_retained = old_state->plan_cache.stats().size;
    stats.total_seconds = total_timer.ElapsedSeconds();
    return stats;
  }

  // Semi-naive delta re-evaluation on a snapshot of the model (copy-on-
  // write, so this is O(touched), not O(model)); the published model is
  // never mutated, so in-flight executions are safe. The successor's
  // database view materialises lazily from the model — a delta never
  // pays O(database) to republish the fact list.
  dl::Model model = old_state->model.Clone();
  dl::DeltaEvalResult delta = dl::IncrementalEvaluator::Apply(
      old_state->program, model, apply_added, apply_removed);
  stats.eval_seconds = total_timer.ElapsedSeconds();
  stats.facts_added = delta.base_added;
  stats.facts_removed = delta.base_removed;
  stats.facts_derived = delta.derived_added;
  stats.facts_deleted = delta.derived_deleted;
  stats.facts_rederived = delta.rederived;
  stats.facts_touched = delta.touched.size();

  const std::uint64_t version = old_state->model_version + 1;
  auto next = std::make_shared<EngineState>(*old_state, std::move(model),
                                            version, stats.eval_seconds);

  // Selective plan carry-over: a plan survives iff the delta touched
  // nothing in its downward closure — then its closure sub-hypergraph,
  // CNF encoding, and rank-greedy hints are all still exact, so the
  // successor cache shares it and it stays hot (the old version's cache
  // keeps it too: it is valid for both). The rest are dropped and
  // rebuilt lazily on their next use.
  for (const PlanCache::Entry& entry : old_state->plan_cache.Entries()) {
    if (!next->model.alive(entry.plan->target()) ||
        PlanTouchedBy(*entry.plan, delta.touched)) {
      ++stats.plans_invalidated;
      continue;
    }
    next->plan_cache.Put(entry.target, entry.plan);
    ++stats.plans_retained;
  }
  next->plan_cache.CountInvalidated(stats.plans_invalidated);

  {
    const util::MutexLock lock(*state_mutex_);
    state_ = std::move(next);
  }

  stats.model_version = version;
  stats.total_seconds = total_timer.ElapsedSeconds();
  return stats;
}

}  // namespace whyprov
