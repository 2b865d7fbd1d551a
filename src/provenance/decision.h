#ifndef WHYPROV_PROVENANCE_DECISION_H_
#define WHYPROV_PROVENANCE_DECISION_H_

#include <vector>

#include "datalog/ast.h"
#include "datalog/evaluator.h"
#include "datalog/program.h"
#include "provenance/baseline.h"
#include "provenance/proof_tree.h"
#include "provenance/query_plan.h"
#include "sat/solver_interface.h"
#include "util/status.h"

namespace whyprov::provenance {

/// The decision problem Why-Provenance[Q] (Section 3): given the least
/// model of (Q, D), an answer fact R(t), and a candidate explanation D',
/// decide membership of D' in the why-provenance family. Two kinds of
/// procedures are provided:
///
///  * a SAT-based decision for unambiguous proof trees (the NP witness of
///    Theorem 14(1): a compressed proof DAG with support exactly D'), and
///  * exhaustive reference algorithms for all four proof-tree classes,
///    used as ground truth in tests (exponential; limit-guarded).

/// SAT decision of D' in whyUN(t, D, Q) against a prebuilt shared plan:
/// replays the plan's formula into the fresh `solver`, pins the leaf
/// variables to D', and solves. `dprime` facts outside the closure's
/// database leaves make the answer trivially false. Skips the
/// closure+encode phase entirely, so repeated decisions on one target (or
/// concurrent decisions across threads, each with its own solver) pay
/// only the solve. A backend that gives up (SolveResult::kUnknown — e.g. a
/// failed external solver or an exhausted conflict budget) is reported as
/// kResourceExhausted instead of being collapsed to "not a member".
/// `model` must be the model the plan was built from.
util::Result<bool> IsWhyUnMemberPrepared(
    const QueryPlan& plan, const datalog::Model& model,
    const std::vector<datalog::Fact>& dprime, sat::SolverInterface& solver);

/// Exhaustively materialises the why-provenance family of `target` for the
/// given proof-tree class:
///   kAny          — set-of-supports fixpoint (equals the baseline),
///   kNonRecursive — path-avoiding enumeration over the closure,
///   kMinimalDepth — depth-budgeted dynamic program (budget = rank),
///   kUnambiguous  — enumeration of compressed DAGs (choice functions).
/// Exponential in general; explosion is reported via the limits.
util::Result<ProvenanceFamily> EnumerateWhyExhaustive(
    const datalog::Program& program, const datalog::Model& model,
    datalog::FactId target, TreeClass tree_class,
    const BaselineLimits& limits = BaselineLimits());

}  // namespace whyprov::provenance

#endif  // WHYPROV_PROVENANCE_DECISION_H_
