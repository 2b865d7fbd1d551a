#include "sat/dimacs_pipe_solver.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "sat/dimacs.h"

namespace whyprov::sat {

namespace {

/// Writes the formula (through the shared DIMACS writer) to a fresh
/// temporary file; returns "" on failure.
std::string WriteTempCnf(const CnfFormula& formula) {
  char path[] = "/tmp/whyprov-cnf-XXXXXX";
  const int fd = mkstemp(path);
  if (fd < 0) return "";
  const std::string text = WriteDimacs(formula);
  const bool wrote =
      write(fd, text.data(), text.size()) == static_cast<ssize_t>(text.size());
  close(fd);
  if (!wrote) {
    unlink(path);
    return "";
  }
  return path;
}

}  // namespace

DimacsPipeSolver::DimacsPipeSolver(std::string command, SolverOptions options)
    : command_(std::move(command)) {
  (void)options;
}

Var DimacsPipeSolver::NewVar() {
  model_.push_back(LBool::kUndef);
  return formula_.num_vars++;
}

bool DimacsPipeSolver::AddClause(std::vector<Lit> lits) {
  if (!ok_) return false;
  if (lits.empty()) {
    ok_ = false;
    return false;
  }
  formula_.clauses.push_back(std::move(lits));
  return true;
}

SolveResult DimacsPipeSolver::Solve(const std::vector<Lit>& assumptions) {
  if (!ok_) return SolveResult::kUnsat;
  // A spawned external process cannot be interrupted mid-run, so the
  // cooperative check only gates Solve() entry: a cancelled or expired
  // request at least skips the dump + spawn entirely.
  if (InterruptRequested()) return SolveResult::kUnknown;
  // Assumptions ride along as unit clauses of this one query only.
  const std::size_t num_clauses = formula_.clauses.size();
  for (Lit l : assumptions) formula_.clauses.push_back({l});
  const std::string path = WriteTempCnf(formula_);
  formula_.clauses.resize(num_clauses);
  if (path.empty()) return SolveResult::kUnknown;
  const std::string invocation = command_ + " " + path + " 2>/dev/null";
  FILE* pipe = popen(invocation.c_str(), "r");
  if (pipe == nullptr) {
    unlink(path.c_str());
    return SolveResult::kUnknown;
  }
  std::string output;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    output.append(buffer, n);
  }
  pclose(pipe);
  unlink(path.c_str());

  SolveResult result = SolveResult::kUnknown;
  const int num_vars = formula_.num_vars;
  std::vector<LBool> model(num_vars, LBool::kFalse);
  bool saw_model_literal = num_vars == 0;
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == 'c') continue;
    std::istringstream tokens(line);
    std::string token;
    while (tokens >> token) {
      if (token == "s" || token == "v") continue;
      if (token == "UNSATISFIABLE" || token == "UNSAT") {
        result = SolveResult::kUnsat;
      } else if (token == "SATISFIABLE" || token == "SAT") {
        result = SolveResult::kSat;
      } else {
        // A model literal (competition "v" lines or MiniSat's model line).
        char* end = nullptr;
        const long value = std::strtol(token.c_str(), &end, 10);
        if (end == nullptr || *end != '\0' || value == 0) continue;
        const long var = (value > 0 ? value : -value) - 1;
        if (var >= 0 && var < num_vars) {
          model[var] = value > 0 ? LBool::kTrue : LBool::kFalse;
          saw_model_literal = true;
        }
      }
    }
  }
  // A SAT answer without any model literals (e.g. a solver that writes
  // the model elsewhere) is unusable: treating the all-false default as a
  // model would fabricate wrong members upstream. Report kUnknown.
  if (result == SolveResult::kSat && !saw_model_literal) {
    return SolveResult::kUnknown;
  }
  if (result == SolveResult::kSat) model_ = std::move(model);
  return result;
}

}  // namespace whyprov::sat
