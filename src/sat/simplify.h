#ifndef WHYPROV_SAT_SIMPLIFY_H_
#define WHYPROV_SAT_SIMPLIFY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sat/cnf_formula.h"
#include "sat/reconstruction.h"
#include "sat/types.h"

namespace whyprov::sat {

/// Plan-time CNF inprocessing. A `QueryPlan` compiles its formula once and
/// replays it into a fresh solver on every execution, so a bounded
/// simplification pass at Prepare time is amortised across every plan-cache
/// hit. `Simplify` runs (per round, in order):
///
///   1. unit propagation to fixpoint,
///   2. failed-literal probing (budgeted, trail-based with rollback),
///   3. binary-implication-graph SCC collapsing — equivalent literals are
///      substituted by a class representative,
///   4. subsumption + self-subsuming resolution (clause strengthening),
///   5. bounded variable elimination by clause distribution, restricted to
///      the caller's `eliminable` set and never allowed to grow the formula.
///
/// Semantic contract: the simplified formula has exactly the same set of
/// models as the input when both are projected onto the `frozen` variables.
/// Frozen variables are never eliminated or substituted away — each one
/// keeps its own column in the output (if propagation fixes one, the output
/// carries an explicit unit clause for it). Every model of the simplified
/// formula extends, via the returned `ReconstructionStack`, to a full model
/// of the original formula over the original variables. Blocked-clause
/// elimination is deliberately absent: it preserves satisfiability but not
/// the projected model set that enumeration needs.
///
/// Every phase stops on a step budget fixed per mode (probing counts clause
/// visits, subsumption counts subset checks, elimination counts resolvent
/// pairs); none reads the clock. The output is therefore a deterministic
/// function of the input, the frozen/eliminable sets and the mode.
enum class SimplifyMode : std::uint8_t {
  kOff = 0,   ///< Return the input untouched (identity var map).
  kFast = 1,  ///< One round, tight step budgets; bounded Prepare latency.
  kFull = 2,  ///< Iterate to fixpoint (at most 3 rounds), larger budgets.
};

struct SimplifyStats {
  std::uint64_t vars_before = 0;
  std::uint64_t vars_after = 0;
  std::uint64_t clauses_before = 0;
  std::uint64_t clauses_after = 0;
  std::uint64_t literals_before = 0;
  std::uint64_t literals_after = 0;
  std::uint64_t units_fixed = 0;        ///< Vars fixed by UP (incl. probing).
  std::uint64_t failed_literals = 0;  ///< Probes that propagated a conflict.
  std::uint64_t equivalences = 0;       ///< Vars substituted away via SCCs.
  std::uint64_t clauses_subsumed = 0;
  std::uint64_t clauses_strengthened = 0;  ///< Self-subsuming resolutions.
  std::uint64_t vars_eliminated = 0;       ///< Bounded variable elimination.
  std::uint64_t rounds = 0;
  bool budget_hit = false;  ///< Some phase stopped on its step budget.
  double seconds = 0.0;     ///< Wall time of the pass (reporting only).
};

struct SimplifyResult {
  /// The execution formula, over a compacted variable space (surviving
  /// original variables renumbered densely in increasing original order).
  CnfFormula formula;
  /// Witness records for every removed original variable (original space).
  ReconstructionStack stack;
  /// Original variable -> literal over `formula`'s variables. Undefined
  /// (`!var_map[v].defined()`) iff the simplifier removed v; every frozen
  /// variable is defined, and currently always as a positive literal.
  std::vector<Lit> var_map;
  int num_original_vars = 0;
  SimplifyStats stats;

  /// True when the simplifier proved the formula unsatisfiable outright.
  bool proven_unsat = false;

  /// Maps an original-space literal into the simplified space. The mapped
  /// literal is undefined iff the variable was removed.
  Lit MapLit(Lit original) const {
    const Lit base = var_map[static_cast<std::size_t>(original.var())];
    if (!base.defined()) return kUndefLit;
    return original.negated() ? ~base : base;
  }
};

/// Simplifies `input`. `frozen` lists variables whose projected model set
/// must be preserved exactly (they always survive); `eliminable` lists the
/// only variables bounded variable elimination may remove (auxiliary
/// Tseitin/acyclicity variables — callers must keep structural variables
/// out of it). Both may be unsorted; out-of-range entries are ignored.
/// With `mode == kOff` this is the identity transform (modulo copying).
SimplifyResult Simplify(const CnfFormula& input, const std::vector<Var>& frozen,
                        const std::vector<Var>& eliminable,
                        SimplifyMode mode);

}  // namespace whyprov::sat

#endif  // WHYPROV_SAT_SIMPLIFY_H_
