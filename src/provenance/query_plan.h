#ifndef WHYPROV_PROVENANCE_QUERY_PLAN_H_
#define WHYPROV_PROVENANCE_QUERY_PLAN_H_

#include <memory>
#include <unordered_set>
#include <vector>

#include "datalog/evaluator.h"
#include "datalog/program.h"
#include "provenance/cnf_encoder.h"
#include "provenance/downward_closure.h"
#include "sat/cnf_formula.h"
#include "sat/reconstruction.h"
#include "sat/simplify.h"

namespace whyprov::provenance {

/// Phase timings of plan construction, for the construction-time figures
/// (the paper's Figures 1/3).
struct PlanTimings {
  double closure_seconds = 0;   ///< downward-closure construction
  double encode_seconds = 0;    ///< Boolean-formula construction
  double simplify_seconds = 0;  ///< CNF inprocessing (0 when off)
};

/// The compile artifact of the prepare/execute split: the downward closure
/// of one target fact, its CNF encoding phi(t, D, Q) as a backend-neutral
/// formula, the variable layout, and the phase timings. A plan is immutable
/// after Build and carries no solver, so one plan can back any number of
/// concurrent executions — each execution replays the formula into its own
/// fresh backend via `LoadInto`.
///
/// The plan borrows nothing from the model or program it was built from
/// except fact ids; callers that share plans across threads must keep the
/// corresponding model alive (the engine's `PreparedQuery` does this with a
/// shared_ptr).
class QueryPlan {
 public:
  /// Builds the closure and the formula for `target` (a fact id of
  /// `model`, which must be the least model of (program, database)). Also
  /// precomputes the rank-greedy canonical-witness search hints that steer
  /// the first Solve of every execution (recorded into the formula).
  /// Unless `simplify` is kOff, it then runs the plan-time CNF
  /// inprocessing pass (sat/simplify.h): the stored formula is the
  /// simplified one, the fact-selector variables of the database leaves
  /// are frozen, and the reconstruction stack + variable map are kept so
  /// executions can translate models and literals between the original
  /// encoding space and the solver space.
  static std::shared_ptr<const QueryPlan> Build(
      const datalog::Program& program, const datalog::Model& model,
      datalog::FactId target, const CnfEncoder::Options& options,
      sat::SimplifyMode simplify);

  datalog::FactId target() const { return closure_.target(); }
  const DownwardClosure& closure() const { return closure_; }
  const Encoding& encoding() const { return encoding_; }

  /// The execution formula `LoadInto` replays: the simplified formula when
  /// inprocessing ran, otherwise the encoder's output verbatim. Its
  /// variable space is the solver space — map encoding variables through
  /// `SolverLitFor` before asserting or blocking on them.
  const sat::CnfFormula& formula() const { return formula_; }
  const PlanTimings& timings() const { return timings_; }

  /// True iff the plan stores a simplified formula (variable spaces may
  /// then differ; the identity fast paths below still hold when false).
  bool simplified() const { return simplified_; }
  const sat::SimplifyStats& simplify_stats() const { return simplify_stats_; }

  /// Maps an original encoding variable to its literal over the execution
  /// formula. Undefined iff the simplifier removed the variable — never
  /// the case for frozen fact-selector variables of database leaves.
  sat::Lit SolverLitFor(sat::Var original) const {
    if (!simplified_) return sat::Lit::Make(original, false);
    return var_map_[static_cast<std::size_t>(original)];
  }

  /// Reads the solver's model back into the original encoding's variable
  /// space, replaying the reconstruction stack for removed variables.
  /// Call only after a satisfiable Solve on a solver this plan was loaded
  /// into.
  std::vector<sat::LBool> ReconstructModel(
      const sat::SolverInterface& solver) const;

  /// True iff `fact` is a node of the plan's downward closure (including
  /// the target and the database leaves). This is the set an incremental
  /// delta intersects with its touched facts to decide whether the plan
  /// survives: a delta disjoint from the closure cannot change the
  /// closure's sub-hypergraph, so closure, CNF, and hints all stay exact.
  bool ClosureContains(datalog::FactId fact) const {
    return closure_facts_.contains(fact);
  }

  /// The closure's fact set (e.g. for invalidation diagnostics).
  const std::unordered_set<datalog::FactId>& closure_facts() const {
    return closure_facts_;
  }

  /// Replays the formula and search hints into a fresh backend.
  void LoadInto(sat::SolverInterface& solver) const {
    formula_.LoadInto(solver);
  }

 private:
  QueryPlan() = default;

  DownwardClosure closure_;
  std::unordered_set<datalog::FactId> closure_facts_;
  Encoding encoding_;
  sat::CnfFormula formula_;
  PlanTimings timings_;

  bool simplified_ = false;
  sat::ReconstructionStack stack_;
  std::vector<sat::Lit> var_map_;  ///< Original var -> execution literal.
  int num_original_vars_ = 0;
  sat::SimplifyStats simplify_stats_;
};

}  // namespace whyprov::provenance

#endif  // WHYPROV_PROVENANCE_QUERY_PLAN_H_
