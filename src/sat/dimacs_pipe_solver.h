#ifndef WHYPROV_SAT_DIMACS_PIPE_SOLVER_H_
#define WHYPROV_SAT_DIMACS_PIPE_SOLVER_H_

#include <string>
#include <string_view>
#include <vector>

#include "sat/cnf_formula.h"
#include "sat/solver_interface.h"
#include "sat/types.h"

namespace whyprov::sat {

/// An external-process backend (registry name "dimacs-pipe"): each Solve()
/// writes the current formula (plus assumptions as unit clauses) to a
/// temporary DIMACS CNF file, runs `<command> <file>`, and parses the
/// solver's stdout. Both the SAT-competition output convention
/// ("s SATISFIABLE" + "v" model lines) and bare
/// "SATISFIABLE"/"UNSATISFIABLE" tokens are understood; the solver must
/// print the model literals to stdout (a SAT answer without a model is
/// reported as kUnknown — wrap solvers that write the model to a file,
/// like plain minisat, in a script that cats it).
///
/// The factory constructs it from the WHYPROV_DIMACS_SOLVER environment
/// variable, so e.g.
///
///   WHYPROV_DIMACS_SOLVER=kissat ./explain_cli ... --backend dimacs-pipe
///
/// plugs any drop-in DIMACS solver into the provenance pipeline without a
/// recompile. Process spawning per Solve() makes it a poor fit for the
/// many-small-solves enumeration loop; it shines for single hard decision
/// calls.
class DimacsPipeSolver : public SolverInterface {
 public:
  /// `command` is the solver invocation prefix; the CNF path is appended.
  explicit DimacsPipeSolver(std::string command,
                            SolverOptions options = SolverOptions());

  DimacsPipeSolver(const DimacsPipeSolver&) = delete;
  DimacsPipeSolver& operator=(const DimacsPipeSolver&) = delete;

  Var NewVar() override;
  int NumVars() const override { return formula_.num_vars; }
  bool AddClause(std::vector<Lit> lits) override;
  SolveResult Solve(const std::vector<Lit>& assumptions = {}) override;
  LBool ModelValue(Var v) const override { return model_[v]; }
  const SolverStats& stats() const override { return stats_; }
  bool ok() const override { return ok_; }
  std::string_view name() const override { return "dimacs-pipe"; }

  /// The configured solver command (for diagnostics).
  const std::string& command() const { return command_; }

 private:
  std::string command_;
  /// Every variable and clause added so far, written out per Solve().
  CnfFormula formula_;
  std::vector<LBool> model_;
  SolverStats stats_;
  bool ok_ = true;
};

}  // namespace whyprov::sat

#endif  // WHYPROV_SAT_DIMACS_PIPE_SOLVER_H_
