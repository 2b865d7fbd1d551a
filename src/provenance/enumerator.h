#ifndef WHYPROV_PROVENANCE_ENUMERATOR_H_
#define WHYPROV_PROVENANCE_ENUMERATOR_H_

#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "datalog/ast.h"
#include "datalog/evaluator.h"
#include "datalog/program.h"
#include "provenance/cnf_encoder.h"
#include "provenance/downward_closure.h"
#include "provenance/query_plan.h"
#include "sat/solver_interface.h"
#include "util/cancellation.h"
#include "util/stats.h"

namespace whyprov::provenance {

/// "No cap" sentinel for member-count limits, shared by
/// `WhyProvenanceEnumerator::All` and the engine's `EnumerateRequest`.
inline constexpr std::size_t kNoLimit =
    std::numeric_limits<std::size_t>::max();

/// Incremental enumeration of whyUN(t, D, Q) via a SAT solver with
/// blocking clauses (Section 5.1/5.2 of the paper):
///
///   1. take a prebuilt `QueryPlan`: the downward closure of the target
///      fact plus the CNF encoding of phi(t, D, Q) (the engine builds and
///      caches plans under its EngineOptions),
///   2. replay the plan's formula into a fresh solver backend,
///   3. repeatedly ask for a model, emit db(tau), and add the blocking
///      clause over the closure's database facts S until unsatisfiable.
///
/// The plan is immutable and shared; only the solver and the emission
/// state are per-enumerator, so any number of enumerators can execute the
/// same plan concurrently. The per-member wall-clock delays (the paper's
/// Figures 2/4) are recorded on the fly.
class WhyProvenanceEnumerator {
 public:
  /// Executes a prebuilt shared plan: replays the plan's formula into the
  /// fresh `solver` and enumerates. `model` must be the model the plan was
  /// built from and must outlive the enumerator.
  WhyProvenanceEnumerator(const datalog::Model& model,
                          std::shared_ptr<const QueryPlan> plan,
                          std::unique_ptr<sat::SolverInterface> solver);

  /// Returns the next member of whyUN(t, D, Q) as a sorted set of database
  /// facts, or nullopt when the enumeration is exhausted. Never repeats a
  /// member (blocking clauses).
  std::optional<std::vector<datalog::Fact>> Next();

  /// Drains the enumeration (up to `max_members`) and returns all members.
  std::vector<std::vector<datalog::Fact>> All(
      std::size_t max_members = kNoLimit);

  /// Installs a cancellation/deadline token: Next() checks it between
  /// solver calls and the solver polls it *during* a solve, so a cancelled
  /// or expired request stops promptly even mid-search. An interrupted
  /// Next() returns nullopt without marking the enumeration exhausted —
  /// see interrupted() — and the caller classifies the reason via the
  /// token it holds.
  void SetCancellation(util::CancellationToken token);

  /// True if a cancellation and/or deadline interrupt (not exhaustion and
  /// not a backend give-up) stopped the most recent Next().
  bool interrupted() const { return interrupted_; }

  /// True if a Solve() answered kUnknown (backend failure or budget
  /// exhaustion): the enumeration stopped, but the emitted members may
  /// not be the whole family. Distinguishes "no more members" from
  /// "the solver gave up".
  bool incomplete() const { return incomplete_; }

  /// Per-member delays in milliseconds, one entry per emitted member.
  const std::vector<double>& delays_ms() const { return delays_ms_; }

  /// Phase timings of the plan (zero-cost when the plan was reused).
  const PlanTimings& timings() const { return plan_->timings(); }

  /// The shared plan this enumerator executes.
  const std::shared_ptr<const QueryPlan>& plan() const { return plan_; }

  /// The downward closure (e.g. for size reporting).
  const DownwardClosure& closure() const { return plan_->closure(); }

  /// The encoding layout (e.g. for variable/clause counts).
  const Encoding& encoding() const { return plan_->encoding(); }

  /// The underlying SAT solver (e.g. for statistics).
  const sat::SolverInterface& solver() const { return *solver_; }

  /// The witness of the most recent member: for every internal fact of the
  /// compressed proof DAG, the index (into closure().edges()) of its chosen
  /// hyperedge. Feed into `CompressedDag` to reconstruct an unambiguous
  /// proof tree for the member. Empty before the first Next().
  const std::unordered_map<datalog::FactId, std::size_t>&
  last_witness_choices() const {
    return last_witness_choices_;
  }

 private:
  const datalog::Model* model_;
  std::shared_ptr<const QueryPlan> plan_;
  std::unique_ptr<sat::SolverInterface> solver_;
  util::CancellationToken cancel_;
  std::vector<double> delays_ms_;
  std::unordered_map<datalog::FactId, std::size_t> last_witness_choices_;
  bool exhausted_ = false;
  bool incomplete_ = false;
  bool interrupted_ = false;
};

}  // namespace whyprov::provenance

#endif  // WHYPROV_PROVENANCE_ENUMERATOR_H_
