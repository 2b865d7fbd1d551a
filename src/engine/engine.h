#ifndef WHYPROV_ENGINE_ENGINE_H_
#define WHYPROV_ENGINE_ENGINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "datalog/database.h"
#include "datalog/evaluator.h"
#include "datalog/program.h"
#include "engine/plan_cache.h"
#include "provenance/acyclicity.h"
#include "provenance/baseline.h"
#include "provenance/decision.h"
#include "provenance/enumerator.h"
#include "provenance/proof_tree.h"
#include "provenance/query_plan.h"
#include "sat/simplify.h"
#include "sat/solver_interface.h"
#include "util/cancellation.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace whyprov {

/// "No cap" sentinel re-exported at the facade level.
using provenance::kNoLimit;

/// One consolidated option block for the whole engine: acyclicity
/// encoding, SAT backend, plan simplification, materialisation budgets,
/// plan-cache sizing, and the serving layer's durability. The first
/// three are the only place a query's formula and solver are chosen;
/// requests carry no overrides.
struct EngineOptions {
  /// phi_acyclic encoding used by SAT-based services.
  provenance::AcyclicityEncoding acyclicity =
      provenance::AcyclicityEncoding::kVertexElimination;
  /// SolverFactory backend name ("cdcl", "dpll", "dimacs-pipe", ...).
  std::string solver_backend = "cdcl";
  /// Budgets for the exhaustive/materialising algorithms.
  provenance::BaselineLimits baseline_limits;
  /// Plans kept by the LRU plan cache behind Enumerate/Decide/Explain
  /// (keyed by target fact; 0 disables caching).
  std::size_t plan_cache_capacity = 64;
  /// Plan-time CNF inprocessing (sat/simplify.h), run once under the
  /// plan-cache single-flight latch; every execution of the plan then
  /// replays the cheaper formula. Semantics are unchanged: the pass
  /// preserves the exact model set projected onto the fact-selector
  /// variables, so enumeration families and decision answers are
  /// identical to kOff. kFast (default) is one round under step budgets;
  /// kFull iterates with larger ones. No budget reads the clock, so the
  /// simplified formula is a function of the model alone.
  sat::SimplifyMode plan_simplify = sat::SimplifyMode::kFast;
  /// Durability (consumed by the serving layer, not the engine itself):
  /// directory holding the write-ahead delta log and checkpoints. When
  /// non-empty, Service opens a storage::DurableStore there, recovers
  /// checkpoint + WAL tail on construction, and logs every committed
  /// delta before applying it. Empty = memory-only.
  /// Deltas applied directly through Engine::ApplyDelta (bypassing the
  /// serving layer) are NOT logged.
  std::string data_dir;
  /// fsync the WAL on every append (durable against power loss, not
  /// just process crash). Off by default: the bench_durability numbers
  /// gate the non-fsync path.
  bool wal_fsync = false;
  /// Committed deltas between snapshot checkpoints; 0 = never
  /// checkpoint (recovery replays the full log).
  std::size_t checkpoint_interval = 32;
};

/// Parameters of Engine::Enumerate.
struct EnumerateRequest {
  /// The answer fact to explain; either a fact id of the engine's model
  /// or, when kInvalidFact, the parse of `target_text`. (PreparedQuery
  /// executions ignore both: the plan fixed the target at Prepare time.)
  datalog::FactId target = datalog::kInvalidFact;
  std::string target_text;
  /// Stop after this many members (kNoLimit = enumerate to exhaustion).
  std::size_t max_members = kNoLimit;
  /// Cooperative cancellation/deadline token (empty = never interrupts):
  /// checked between members *and* polled inside the SAT search, so a
  /// cancel or deadline stops a long solve promptly. The Enumeration
  /// handle reports the reason via cancelled()/deadline_exceeded().
  util::CancellationToken cancellation;
};

/// Parameters of Engine::Decide: is `candidate` a member of the
/// why-provenance of `target` w.r.t. `tree_class`?
struct DecideRequest {
  datalog::FactId target = datalog::kInvalidFact;
  std::string target_text;
  std::vector<datalog::Fact> candidate;  ///< the D' to test
  provenance::TreeClass tree_class = provenance::TreeClass::kUnambiguous;
  /// Interrupts the SAT decision mid-solve; an interrupted Decide returns
  /// kCancelled/kDeadlineExceeded instead of a verdict.
  util::CancellationToken cancellation;
};

/// Parameters of Engine::Baseline (all-at-once materialisation).
struct BaselineRequest {
  datalog::FactId target = datalog::kInvalidFact;
  std::string target_text;
  /// Engine default if unset.
  std::optional<provenance::BaselineLimits> limits;
};

/// Parameters of Engine::Explain (proof-tree reconstruction).
struct ExplainRequest {
  datalog::FactId target = datalog::kInvalidFact;
  std::string target_text;
  /// Explain the (member_index + 1)-th member of the enumeration.
  std::size_t member_index = 0;
  /// Node cap for unravelling the compressed DAG into a tree.
  std::size_t max_tree_nodes = 1u << 20;
  /// Interrupts the backing enumeration, as in EnumerateRequest.
  util::CancellationToken cancellation;
};

/// Parameters of Engine::Prepare.
struct PrepareRequest {
  datalog::FactId target = datalog::kInvalidFact;
  std::string target_text;
};

/// Parameters of Engine::ApplyDelta: a fact-level database update. Facts
/// can be given parsed or as text ("edge(a, b)"); both lists may be used
/// together. Every fact must be extensional (rules derive the rest).
/// Additions already in the database and removals not in it are no-ops.
struct DeltaRequest {
  std::vector<datalog::Fact> added_facts;
  std::vector<std::string> added_fact_texts;
  std::vector<datalog::Fact> removed_facts;
  std::vector<std::string> removed_fact_texts;
};

/// Outcome of Engine::ApplyDelta: the new model version plus counters for
/// what the delta did to the model and the plan cache.
struct DeltaStats {
  std::uint64_t model_version = 0;  ///< the engine's version after the delta
  std::size_t facts_added = 0;      ///< database facts actually inserted
  std::size_t facts_removed = 0;    ///< database facts actually removed
  std::size_t facts_derived = 0;    ///< derived facts added by propagation
  std::size_t facts_deleted = 0;    ///< derived facts deleted by DRed
  std::size_t facts_rederived = 0;  ///< deletion suspects that survived
  std::size_t facts_touched = 0;    ///< facts whose derivations/rank changed
  std::size_t plans_retained = 0;   ///< cached plans that survived the delta
  std::size_t plans_invalidated = 0;  ///< cached plans dropped by the delta
  double eval_seconds = 0;   ///< semi-naive delta evaluation time
  double total_seconds = 0;  ///< end-to-end ApplyDelta time
};

/// Result of Engine::Explain: one why-provenance member together with a
/// witnessing unambiguous proof tree.
struct Explanation {
  std::vector<datalog::Fact> member;
  provenance::ProofTree tree;
};

/// Snapshot-retention accounting of one engine (see Engine::snapshot_
/// stats): how many model-state snapshots are currently alive — the
/// published one plus every older version pinned by in-flight
/// PreparedQuery/Enumeration handles — and their approximate heap bytes.
/// Bytes are attributed at snapshot birth from the COW chunk stats,
/// weighting each chunk by its sharer count (a chunk shared by k
/// versions contributes its size once across the k), so the sum tracks
/// the chain's footprint without walking retired snapshots.
struct SnapshotStats {
  std::size_t retained_snapshots = 0;
  std::size_t approx_bytes = 0;
};

/// The shared, immutable core of an engine: the parsed inputs, the
/// evaluated least model, the options, and (logically mutable but
/// internally synchronised) the plan cache. Held by shared_ptr from the
/// engine and from every live handle (Enumeration, PreparedQuery), so
/// moving or destroying the Engine object never invalidates a handle.
/// Everything here except the plan cache and the parse mutex is
/// bitwise-immutable after construction and therefore thread-shareable.
struct EngineState {
  /// Shared retention counters of one engine's snapshot chain: every
  /// EngineState registers at construction and deregisters at
  /// destruction, so the counts reflect exactly the versions still pinned
  /// somewhere (the engine itself, or a live handle).
  struct SnapshotAccounting {
    std::atomic<std::size_t> retained{0};
    std::atomic<std::size_t> bytes{0};
  };

  EngineState(datalog::Program program_in, datalog::Database database_in,
              datalog::PredicateId answer_predicate_in,
              EngineOptions options_in);

  /// The successor state ApplyDelta builds: the delta-updated model, the
  /// bumped version, and a plan cache that starts from the predecessor's
  /// counters (retained plans are
  /// re-inserted by the caller). The parse mutex is inherited: all
  /// versions share one symbol table, so they must share the lock that
  /// guards it. The database view is NOT copied: it materialises lazily
  /// from the model on first access.
  EngineState(const EngineState& predecessor, datalog::Model model_in,
              std::uint64_t model_version_in, double eval_seconds_in);

  ~EngineState();

  /// Cache-through plan lookup: returns this version's cached plan for
  /// `target`, or builds one under `options` and caches it.
  std::shared_ptr<const provenance::QueryPlan> PlanFor(
      datalog::FactId target) const;

  /// This version's database. Version 0 stores the parsed input; delta
  /// successors materialise the view lazily from the model (the live
  /// rank-0 facts are exactly the database), so ApplyDelta never pays
  /// O(database) to republish the fact list. Thread-safe.
  const datalog::Database& database() const;

  /// True iff `fact` is a database fact of this version (answered from
  /// the model, without materialising the database view).
  bool InDatabase(const datalog::Fact& fact) const;

  datalog::Program program;
  datalog::PredicateId answer_predicate;
  EngineOptions options;
  /// Monotonic database/model version: 0 at construction, +1 per applied
  /// delta.
  std::uint64_t model_version = 0;
  // eval_seconds is written while model is initialised, so it must be
  // declared (and thus initialised) before model.
  double eval_seconds = 0;
  datalog::Model model;
  /// Serialises every engine-surface touch of the shared symbol table:
  /// fact-text parsing (ParseFact interns constants, mutating the table)
  /// and fact rendering (which reads the interned names). Made once at
  /// version 0 and shared by every later version, which share the
  /// table. Callers going straight to model().symbols() from several
  /// threads must hold it too.
  std::shared_ptr<util::Mutex> parse_mutex;
  mutable PlanCache plan_cache;
  /// Shared across the engine's versions; see SnapshotAccounting.
  std::shared_ptr<SnapshotAccounting> accounting;

 private:
  mutable util::Mutex database_mutex_;
  /// The lazily materialised database view (eager for version 0). Write
  /// -once under the mutex; the reference database() returns stays valid
  /// because the view is never re-materialised.
  mutable std::optional<datalog::Database> database_
      GUARDED_BY(database_mutex_);
  /// This version's at-birth exclusive bytes (what it adds to, and on
  /// destruction removes from, the accounting).
  std::size_t accounted_bytes_ = 0;
};

/// A live why-provenance enumeration: a move-only, range-style handle
/// unifying incremental Next(), draining All(), per-member delays, phase
/// timings, and budget outcomes. Obtained from Engine::Enumerate or
/// PreparedQuery::Enumerate; shares ownership of the engine state, so it
/// stays valid even if the Engine object is moved or destroyed.
class Enumeration {
 public:
  Enumeration(Enumeration&&) = default;
  Enumeration& operator=(Enumeration&&) = default;

  /// The next member of the family as a sorted set of database facts, or
  /// nullopt once exhausted, the member cap has been hit, or the
  /// request's token stopped the enumeration.
  std::optional<std::vector<datalog::Fact>> Next();

  /// Drains the remaining members (still subject to the request budgets).
  std::vector<std::vector<datalog::Fact>> All();

  /// Reconstructs an unambiguous proof tree witnessing the most recently
  /// emitted member. kNotFound before the first Next().
  util::Result<provenance::ProofTree> ExplainLast(
      std::size_t max_tree_nodes = 1u << 20) const;

  /// Members emitted so far through this handle.
  std::size_t members_emitted() const { return emitted_; }

  /// True once Next() returned nullopt because the solver answered UNSAT
  /// or gave up (see incomplete() to tell the two apart).
  bool exhausted() const { return exhausted_; }

  /// True if the backend answered kUnknown (e.g. a failed external
  /// solver or an exhausted conflict budget): the enumeration stopped
  /// but the emitted members may not be the whole family.
  bool incomplete() const { return impl_->incomplete(); }

  /// True once the request's max_members stopped the enumeration.
  bool hit_member_cap() const { return hit_member_cap_; }

  /// True once the request's cancellation token stopped the enumeration
  /// (between members or mid-solve).
  bool cancelled() const { return cancelled_; }

  /// True once the request's deadline (carried by the token) expired.
  bool deadline_exceeded() const { return hit_deadline_; }

  /// kCancelled/kDeadlineExceeded once the token stopped the enumeration,
  /// Ok() otherwise (including exhaustion and budget stops).
  util::Status interruption_status() const {
    if (cancelled_) return util::Status::Cancelled("the request was cancelled");
    if (hit_deadline_) {
      return util::Status::DeadlineExceeded("the request deadline passed");
    }
    return util::Status::Ok();
  }

  /// The model version of the engine-state snapshot this enumeration is
  /// pinned to (what a serving layer reports as the version it answered
  /// from).
  std::uint64_t model_version() const { return state_->model_version; }

  /// The fact being explained.
  datalog::FactId target() const { return target_; }

  /// Per-member delays in milliseconds (the paper's Figures 2/4).
  const std::vector<double>& delays_ms() const { return impl_->delays_ms(); }

  /// Closure/encode phase timings of the plan (the paper's Figures 1/3).
  /// Zero marginal cost when the plan came from the cache.
  const provenance::PlanTimings& timings() const { return impl_->timings(); }

  /// The shared plan this enumeration executes.
  const std::shared_ptr<const provenance::QueryPlan>& plan() const {
    return impl_->plan();
  }

  /// The downward closure (e.g. for size reporting).
  const provenance::DownwardClosure& closure() const {
    return impl_->closure();
  }

  /// The encoding layout (e.g. for variable/clause counts).
  const provenance::Encoding& encoding() const { return impl_->encoding(); }

  /// The SAT backend serving this enumeration.
  const sat::SolverInterface& solver() const { return impl_->solver(); }

  /// Witness choices of the most recent member (see WhyProvenanceEnumerator).
  const std::unordered_map<datalog::FactId, std::size_t>&
  last_witness_choices() const {
    return impl_->last_witness_choices();
  }

  /// Minimal input-iterator support so the handle works with range-for:
  ///   for (const auto& member : enumeration) { ... }
  class Iterator {
   public:
    using value_type = std::vector<datalog::Fact>;

    Iterator() = default;
    explicit Iterator(Enumeration* owner) : owner_(owner) { ++*this; }
    const value_type& operator*() const { return *current_; }
    Iterator& operator++() {
      current_ = owner_->Next();
      if (!current_.has_value()) owner_ = nullptr;
      return *this;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.owner_ == b.owner_;
    }
    friend bool operator!=(const Iterator& a, const Iterator& b) {
      return !(a == b);
    }

   private:
    Enumeration* owner_ = nullptr;
    std::optional<value_type> current_;
  };

  Iterator begin() { return Iterator(this); }
  Iterator end() { return Iterator(); }

 private:
  friend class Engine;
  friend class PreparedQuery;

  Enumeration(std::shared_ptr<const EngineState> state,
              std::unique_ptr<provenance::WhyProvenanceEnumerator> impl,
              datalog::FactId target, std::size_t max_members,
              util::CancellationToken cancellation)
      : state_(std::move(state)),
        impl_(std::move(impl)),
        target_(target),
        max_members_(max_members),
        cancel_(std::move(cancellation)) {}

  std::shared_ptr<const EngineState> state_;
  std::unique_ptr<provenance::WhyProvenanceEnumerator> impl_;
  datalog::FactId target_;
  std::size_t max_members_;
  util::CancellationToken cancel_;
  std::size_t emitted_ = 0;
  bool exhausted_ = false;
  bool hit_member_cap_ = false;
  bool cancelled_ = false;
  bool hit_deadline_ = false;
};

/// An immutable, thread-shareable compiled query: the downward closure and
/// CNF encoding of one target fact, plus shared ownership of the engine
/// state it was compiled against. Obtained from Engine::Prepare; cheap to
/// copy (two shared_ptrs) and safe to use from any number of threads
/// simultaneously — every execution instantiates its own fresh SAT solver
/// and replays the plan's formula into it, so executions never contend.
/// A PreparedQuery may outlive the Engine object it came from.
class PreparedQuery {
 public:
  /// The compiled target fact.
  datalog::FactId target() const;

  /// The compiled target rendered as text, e.g. "path(a, b)".
  std::string target_text() const;

  /// Closure/encode phase timings of the compile step.
  const provenance::PlanTimings& timings() const;

  /// The downward closure (e.g. for size reporting).
  const provenance::DownwardClosure& closure() const;

  /// The encoding layout (e.g. for variable/clause counts).
  const provenance::Encoding& encoding() const;

  /// The backend-neutral CNF formula (e.g. for variable/clause counts).
  const sat::CnfFormula& formula() const;

  /// The model version of the engine-state snapshot this plan is pinned
  /// to (every execution through this handle serves that version).
  std::uint64_t model_version() const { return state_->model_version; }

  /// The underlying shared plan.
  const std::shared_ptr<const provenance::QueryPlan>& plan() const {
    return plan_;
  }

  /// Starts an incremental whyUN enumeration against this plan with a
  /// fresh solver from the engine's backend. The request's plan-scoped
  /// fields (`target`, `target_text`) are ignored; the member cap and the
  /// cancellation token apply. Thread-safe: concurrent calls each get
  /// their own solver.
  util::Result<Enumeration> Enumerate(
      const EnumerateRequest& request = EnumerateRequest()) const;

  /// Decides membership of `request.candidate` against this plan
  /// (SAT-based for kUnambiguous; the exhaustive reference algorithms
  /// ignore the plan's formula but reuse the engine state). Thread-safe.
  util::Result<bool> Decide(const DecideRequest& request) const;

  /// Reconstructs one member plus a witnessing unambiguous proof tree.
  /// Thread-safe.
  util::Result<Explanation> Explain(
      const ExplainRequest& request = ExplainRequest()) const;

 private:
  friend class Engine;

  PreparedQuery(std::shared_ptr<const EngineState> state,
                std::shared_ptr<const provenance::QueryPlan> plan)
      : state_(std::move(state)), plan_(std::move(plan)) {}

  /// The shared execute step (also used by Engine's cache-through entry
  /// points): fresh solver, replay the plan, wrap the capped handle.
  static util::Result<Enumeration> ExecutePlan(
      std::shared_ptr<const EngineState> state,
      std::shared_ptr<const provenance::QueryPlan> plan,
      const EnumerateRequest& request);

  std::shared_ptr<const EngineState> state_;
  std::shared_ptr<const provenance::QueryPlan> plan_;
};

/// The unified public facade over the whole reproduction: owns parsing,
/// semi-naive evaluation, and every provenance service of the paper —
/// incremental whyUN enumeration (Section 5), membership decision
/// (Section 3), all-at-once materialisation (the Figure 5 baseline), and
/// proof-tree reconstruction — behind typed request/response structs.
/// SAT backends are pluggable via `sat::SolverFactory`.
///
/// The engine follows a compile-once/execute-many model: the expensive,
/// immutable part of a query (downward closure + CNF encoding) is a
/// `PreparedQuery` plan, built by Prepare and cached behind the request
/// entry points in an LRU plan cache; each execution then runs against a
/// fresh per-request solver. All request methods are const and
/// thread-safe — hammer one engine from as many threads as you like, or
/// serve it through `whyprov::Service` for queueing and batch fan-out.
///
/// The database is mutable between requests: ApplyDelta applies a
/// fact-level update by semi-naive delta re-evaluation (never a from-
/// scratch rebuild), publishes a fresh immutable state snapshot under a
/// bumped model version, and selectively invalidates only the cached
/// plans whose downward closure the delta touched. Requests in flight
/// (and PreparedQuery/Enumeration handles) keep serving the snapshot they
/// started on.
class Engine {
 public:
  /// Parses program/database text, resolves the answer predicate, and
  /// evaluates the least model eagerly.
  static util::Result<Engine> FromText(std::string_view program_text,
                                       std::string_view database_text,
                                       std::string_view answer_predicate,
                                       EngineOptions options = EngineOptions());

  /// Builds an engine from already-parsed pieces (evaluates eagerly).
  static Engine FromParts(datalog::Program program,
                          datalog::Database database,
                          datalog::PredicateId answer_predicate,
                          EngineOptions options = EngineOptions());

  // --- views ------------------------------------------------------------
  //
  // Views return references into the engine's *current* state snapshot.
  // They stay valid until the next ApplyDelta retires that snapshot; code
  // that must keep reading one consistent model across deltas should hold
  // a PreparedQuery (which pins its snapshot) instead.

  const datalog::Program& program() const { return snapshot()->program; }
  const datalog::Database& database() const { return snapshot()->database(); }
  const datalog::Model& model() const { return snapshot()->model; }
  datalog::PredicateId answer_predicate() const {
    return snapshot()->answer_predicate;
  }
  const EngineOptions& options() const { return snapshot()->options; }

  /// Seconds spent evaluating the least model (for version 0) or applying
  /// the latest delta (after ApplyDelta).
  double eval_seconds() const { return snapshot()->eval_seconds; }

  /// The monotonic model version: 0 at construction, +1 per ApplyDelta.
  std::uint64_t model_version() const { return snapshot()->model_version; }

  /// Hit/miss/eviction/invalidation counters of the plan cache behind the
  /// request entry points (cumulative across deltas).
  PlanCacheStats plan_cache_stats() const {
    return snapshot()->plan_cache.stats();
  }

  /// Live snapshot count and approximate retained bytes: the published
  /// state plus every older version still pinned by an in-flight
  /// PreparedQuery/Enumeration handle (long-lived tickets show up here).
  SnapshotStats snapshot_stats() const {
    const auto state = snapshot();
    SnapshotStats stats;
    stats.retained_snapshots = state->accounting->retained.load();
    stats.approx_bytes = state->accounting->bytes.load();
    return stats;
  }

  // --- incremental updates ----------------------------------------------

  /// Applies a fact-level database delta in place: removals run
  /// delete-and-rederive, additions propagate forward semi-naively, ranks
  /// are relaxed to their exact values, and a fresh state snapshot is
  /// published under `model_version() + 1`. Cached plans whose downward
  /// closure is disjoint from the touched facts are carried over (still
  /// hot); the rest are invalidated and rebuilt lazily on their next use.
  /// Thread-safe: concurrent requests keep serving the snapshot they
  /// started on, and concurrent ApplyDelta calls are serialised. Facts
  /// must be extensional; unknown predicates or malformed text fail the
  /// whole delta without publishing anything.
  util::Result<DeltaStats> ApplyDelta(const DeltaRequest& request);

  /// Pins the current state snapshot for out-of-band readers (the
  /// storage tier serializes `model` + `model_version` from it without
  /// stalling queries; checkpoint encoding must additionally hold the
  /// snapshot's parse_mutex while reading the symbol table).
  std::shared_ptr<const EngineState> PinSnapshot() const {
    return snapshot();
  }

  /// Publishes a recovered model under an explicit version (the
  /// checkpoint-restore path of the durability tier). Builds a
  /// successor state inheriting this engine's program, options, and
  /// parse mutex; the plan cache starts cold (plans compiled against
  /// the pre-recovery fact-id space would be wrong). Must run before
  /// the engine starts serving deltas for versions to stay monotonic.
  void AdoptRecovered(datalog::Model model, std::uint64_t version);

  // --- answers ----------------------------------------------------------

  /// The answer facts R(t) of the query.
  std::vector<datalog::FactId> AnswerFactIds() const;

  /// Picks `count` answers uniformly without replacement from a fixed
  /// seed of 0 (repeated calls return the same sample).
  std::vector<datalog::FactId> SampleAnswers(std::size_t count) const;

  /// Same, but driven by a caller-owned RNG stream.
  std::vector<datalog::FactId> SampleAnswers(std::size_t count,
                                             util::Rng& rng) const;

  /// Parses a fact like "path(a, b)" and returns its model id.
  /// Thread-safe (parsing is serialised internally).
  util::Result<datalog::FactId> FactIdOf(std::string_view fact_text) const;

  /// Renders a fact id / fact for display.
  std::string FactToText(datalog::FactId id) const;
  std::string FactToText(const datalog::Fact& fact) const;

  // --- prepare/execute --------------------------------------------------

  /// Compiles the target into an immutable, thread-shareable plan
  /// (downward closure + CNF encoding + variable layout, with phase
  /// timings). Goes through the plan cache, so preparing an already-hot
  /// target is free. The returned PreparedQuery shares ownership of the
  /// engine state and may outlive this Engine object.
  util::Result<PreparedQuery> Prepare(const PrepareRequest& request) const;
  util::Result<PreparedQuery> Prepare(datalog::FactId target) const;
  util::Result<PreparedQuery> Prepare(std::string_view target_text) const;

  // --- provenance services ----------------------------------------------
  //
  // Each request entry point resolves its target, fetches (or compiles and
  // caches) the plan, and executes it with a fresh per-request solver.
  // All of them are const and thread-safe.

  /// Starts an incremental whyUN enumeration for the requested answer.
  util::Result<Enumeration> Enumerate(const EnumerateRequest& request) const;

  /// Decides membership of `request.candidate` in the why-provenance
  /// family of the target w.r.t. the requested proof-tree class
  /// (SAT-based for kUnambiguous, exhaustive reference otherwise).
  util::Result<bool> Decide(const DecideRequest& request) const;

  /// Materialises the complete why(t, D, Q) family in one all-at-once
  /// fixpoint pass (the paper's Figure 5 comparator).
  util::Result<provenance::ProvenanceFamily> Baseline(
      const BaselineRequest& request) const;

  /// Reconstructs one member plus a witnessing unambiguous proof tree.
  util::Result<Explanation> Explain(const ExplainRequest& request) const;

 private:
  Engine(datalog::Program program, datalog::Database database,
         datalog::PredicateId answer_predicate, EngineOptions options);

  /// The current state snapshot (the engine's one word of mutable state,
  /// swapped atomically by ApplyDelta).
  std::shared_ptr<const EngineState> snapshot() const {
    const util::MutexLock lock(*state_mutex_);
    return state_;
  }

  /// Resolves the (id, text) target pair every request struct carries
  /// against one pinned snapshot.
  static util::Result<datalog::FactId> ResolveTarget(
      const EngineState& state, datalog::FactId target,
      const std::string& target_text);

  /// Guards reads/swaps of `state_` (behind unique_ptr to stay movable).
  std::unique_ptr<util::Mutex> state_mutex_ =
      std::make_unique<util::Mutex>();
  /// Serialises ApplyDelta calls end to end.
  std::unique_ptr<util::Mutex> update_mutex_ =
      std::make_unique<util::Mutex>();
  std::shared_ptr<const EngineState> state_ GUARDED_BY(*state_mutex_);
};

}  // namespace whyprov

#endif  // WHYPROV_ENGINE_ENGINE_H_
