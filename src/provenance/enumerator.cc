#include "provenance/enumerator.h"

#include <algorithm>
#include <utility>

#include "util/timer.h"

namespace whyprov::provenance {

namespace dl = whyprov::datalog;

WhyProvenanceEnumerator::WhyProvenanceEnumerator(
    const dl::Model& model, std::shared_ptr<const QueryPlan> plan,
    std::unique_ptr<sat::SolverInterface> solver)
    : model_(&model), plan_(std::move(plan)), solver_(std::move(solver)) {
  plan_->LoadInto(*solver_);
}

void WhyProvenanceEnumerator::SetCancellation(util::CancellationToken token) {
  cancel_ = std::move(token);
  if (cancel_.valid()) {
    // The solver re-polls the same token inside its search loop, so a
    // cancel/deadline fires mid-solve, not just between members.
    solver_->SetInterruptCheck(
        [token = cancel_] { return token.ShouldStop(); });
    // A deadline additionally becomes a budget hint, so a deadline-bound
    // backend can stop at a restart boundary (kUnknown, enumeration
    // incomplete) instead of being chopped mid-search by the poll. A
    // token without one clears any hint a previous token installed.
    if (const auto deadline = cancel_.deadline()) {
      solver_->SetDeadlineHint(*deadline);
    } else {
      solver_->ClearDeadlineHint();
    }
  } else {
    solver_->SetInterruptCheck(nullptr);
    solver_->ClearDeadlineHint();
  }
}

std::optional<std::vector<dl::Fact>> WhyProvenanceEnumerator::Next() {
  if (cancel_.ShouldStop()) {
    interrupted_ = true;
    return std::nullopt;
  }
  if (exhausted_ || !solver_->ok()) {
    exhausted_ = true;
    return std::nullopt;
  }
  util::Timer timer;
  const sat::SolveResult result = solver_->Solve();
  if (result != sat::SolveResult::kSat) {
    if (result == sat::SolveResult::kUnknown && cancel_.ShouldStop()) {
      // An interrupted search is not exhaustion: the family may have more
      // members, the request just stopped wanting them.
      interrupted_ = true;
      return std::nullopt;
    }
    exhausted_ = true;
    if (result == sat::SolveResult::kUnknown) incomplete_ = true;
    return std::nullopt;
  }

  const DownwardClosure& closure = plan_->closure();
  const Encoding& encoding = plan_->encoding();

  // The solver's model is over the execution formula; witness extraction
  // needs the original encoding variables, so translate (and, for a
  // simplified plan, replay the reconstruction stack for variables the
  // inprocessing pass removed).
  const std::vector<sat::LBool> model = plan_->ReconstructModel(*solver_);

  // Record the witness: for each present internal fact, its selected
  // hyperedge (exactly one y_e is true for a present head).
  last_witness_choices_.clear();
  for (std::size_t e = 0; e < closure.edges().size(); ++e) {
    const auto edge_var =
        static_cast<std::size_t>(encoding.hyperedge_vars[e]);
    if (model[edge_var] != sat::LBool::kTrue) continue;
    const dl::FactId head = closure.edges()[e].head;
    const auto head_var =
        static_cast<std::size_t>(encoding.node_vars.at(head));
    if (model[head_var] == sat::LBool::kTrue) {
      last_witness_choices_.emplace(head, e);
    }
  }

  // db(tau): the database facts of the closure whose node variable is true.
  // Fact selectors are frozen, so each one has a live solver literal to
  // block on.
  std::vector<dl::Fact> member;
  std::vector<sat::Lit> blocking;
  blocking.reserve(encoding.database_leaves.size());
  for (dl::FactId fact : encoding.database_leaves) {
    const sat::Var var = encoding.node_vars.at(fact);
    const bool present =
        model[static_cast<std::size_t>(var)] == sat::LBool::kTrue;
    if (present) member.push_back(model_->fact(fact));
    // Blocking clause over S: flip at least one database fact.
    const sat::Lit lit = plan_->SolverLitFor(var);
    blocking.push_back(present ? ~lit : lit);
  }
  if (!solver_->AddClause(std::move(blocking))) exhausted_ = true;
  delays_ms_.push_back(timer.ElapsedMillis());
  std::sort(member.begin(), member.end());
  return member;
}

std::vector<std::vector<dl::Fact>> WhyProvenanceEnumerator::All(
    std::size_t max_members) {
  std::vector<std::vector<dl::Fact>> members;
  while (members.size() < max_members) {
    std::optional<std::vector<dl::Fact>> member = Next();
    if (!member.has_value()) break;
    members.push_back(std::move(*member));
  }
  return members;
}

}  // namespace whyprov::provenance
