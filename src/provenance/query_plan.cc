#include "provenance/query_plan.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/timer.h"

namespace whyprov::provenance {

namespace dl = whyprov::datalog;

namespace {

/// Seeds the solver's decision phases with the rank-greedy compressed DAG:
/// for every internal fact pick the hyperedge whose deepest body fact is
/// shallowest. Ranks strictly decrease along its arcs (a fact of rank r
/// has an instance with max body rank r-1), so the choice is acyclic and
/// the seeded assignment is a model of phi. The first Solve then lands on
/// it almost decision-free, and phase saving keeps later solves nearby.
/// Recorded here once at plan-build time; every execution replays the
/// hints into its own backend.
void SeedCanonicalWitness(const dl::Model& model,
                          const DownwardClosure& closure,
                          const Encoding& encoding,
                          sat::SolverInterface& solver) {
  if (encoding.trivially_unsat) return;
  std::unordered_map<dl::FactId, std::size_t> greedy;
  for (dl::FactId fact : closure.nodes()) {
    const std::vector<std::size_t>& edges = closure.EdgesWithHead(fact);
    if (edges.empty()) continue;
    std::size_t best = edges[0];
    int best_rank = std::numeric_limits<int>::max();
    for (std::size_t e : edges) {
      int max_rank = 0;
      for (dl::FactId body : closure.edges()[e].body) {
        max_rank = std::max(max_rank, model.rank(body));
      }
      if (max_rank < best_rank) {
        best_rank = max_rank;
        best = e;
      }
    }
    greedy.emplace(fact, best);
  }
  // Facts reachable from the target under the greedy choices.
  std::vector<dl::FactId> stack{closure.target()};
  std::unordered_set<dl::FactId> reachable{closure.target()};
  while (!stack.empty()) {
    const dl::FactId fact = stack.back();
    stack.pop_back();
    auto it = greedy.find(fact);
    if (it == greedy.end()) continue;
    solver.SetPolarity(encoding.hyperedge_vars[it->second], true);
    for (dl::FactId body : closure.edges()[it->second].body) {
      if (reachable.insert(body).second) stack.push_back(body);
    }
  }
  for (dl::FactId fact : reachable) {
    solver.SetPolarity(encoding.node_vars.at(fact), true);
  }
  for (const Encoding::EdgeVar& z : encoding.edge_vars) {
    auto it = greedy.find(z.from);
    if (it == greedy.end() || !reachable.contains(z.from)) continue;
    const auto& body = closure.edges()[it->second].body;
    if (std::find(body.begin(), body.end(), z.to) != body.end()) {
      solver.SetPolarity(z.var, true);
    }
  }
  // Decide the structural variables (nodes, hyperedges, arcs) before the
  // acyclicity auxiliaries: the seeded phases then reproduce the greedy
  // model with next to no conflicts, and the auxiliaries just propagate.
  for (const auto& [fact, var] : encoding.node_vars) {
    solver.BumpActivityHint(var, 1.0);
  }
  for (sat::Var var : encoding.hyperedge_vars) {
    solver.BumpActivityHint(var, 1.0);
  }
  for (const Encoding::EdgeVar& z : encoding.edge_vars) {
    solver.BumpActivityHint(z.var, 1.0);
  }
}

}  // namespace

std::shared_ptr<const QueryPlan> QueryPlan::Build(
    const dl::Program& program, const dl::Model& model, dl::FactId target,
    const CnfEncoder::Options& options, sat::SimplifyMode simplify) {
  auto plan = std::shared_ptr<QueryPlan>(new QueryPlan());

  util::Timer timer;
  plan->closure_ = DownwardClosure::Build(program, model, target);
  plan->closure_facts_.insert(plan->closure_.nodes().begin(),
                              plan->closure_.nodes().end());
  // An underivable target has an empty node list but still depends on the
  // target fact itself (re-adding it must invalidate this plan).
  plan->closure_facts_.insert(target);
  plan->timings_.closure_seconds = timer.ElapsedSeconds();

  timer.Reset();
  sat::ClauseRecorder recorder(&plan->formula_);
  plan->encoding_ = CnfEncoder::Encode(plan->closure_, recorder, options);
  SeedCanonicalWitness(model, plan->closure_, plan->encoding_, recorder);
  plan->timings_.encode_seconds = timer.ElapsedSeconds();

  if (simplify != sat::SimplifyMode::kOff &&
      !plan->encoding_.trivially_unsat) {
    timer.Reset();
    // Freeze the fact-selector variables of the database leaves: blocking
    // clauses, membership pinning, and projected-model equivalence all run
    // over them. Only the acyclicity auxiliaries (variables that are
    // neither node, hyperedge, nor arc selectors) may be eliminated.
    std::vector<sat::Var> frozen;
    frozen.reserve(plan->encoding_.database_leaves.size());
    for (dl::FactId leaf : plan->encoding_.database_leaves) {
      frozen.push_back(plan->encoding_.node_vars.at(leaf));
    }
    std::vector<bool> structural(
        static_cast<std::size_t>(plan->formula_.num_vars), false);
    for (const auto& [fact, var] : plan->encoding_.node_vars) {
      structural[static_cast<std::size_t>(var)] = true;
    }
    for (sat::Var var : plan->encoding_.hyperedge_vars) {
      structural[static_cast<std::size_t>(var)] = true;
    }
    for (const Encoding::EdgeVar& z : plan->encoding_.edge_vars) {
      structural[static_cast<std::size_t>(z.var)] = true;
    }
    std::vector<sat::Var> eliminable;
    for (sat::Var v = 0; v < plan->formula_.num_vars; ++v) {
      if (!structural[static_cast<std::size_t>(v)]) eliminable.push_back(v);
    }
    sat::SimplifyResult result =
        sat::Simplify(plan->formula_, frozen, eliminable, simplify);
    plan->formula_ = std::move(result.formula);
    plan->var_map_ = std::move(result.var_map);
    plan->stack_ = std::move(result.stack);
    plan->num_original_vars_ = result.num_original_vars;
    plan->simplify_stats_ = result.stats;
    plan->simplified_ = true;
    plan->timings_.simplify_seconds = timer.ElapsedSeconds();
  }
  return plan;
}

std::vector<sat::LBool> QueryPlan::ReconstructModel(
    const sat::SolverInterface& solver) const {
  if (!simplified_) {
    std::vector<sat::LBool> model(
        static_cast<std::size_t>(formula_.num_vars), sat::LBool::kUndef);
    for (sat::Var v = 0; v < formula_.num_vars; ++v) {
      model[static_cast<std::size_t>(v)] = solver.ModelValue(v);
    }
    return model;
  }
  std::vector<sat::LBool> model(static_cast<std::size_t>(num_original_vars_),
                                sat::LBool::kUndef);
  for (sat::Var v = 0; v < num_original_vars_; ++v) {
    const sat::Lit mapped = var_map_[static_cast<std::size_t>(v)];
    if (!mapped.defined()) continue;
    model[static_cast<std::size_t>(v)] =
        sat::EvalLit(solver.ModelValue(mapped.var()), mapped);
  }
  stack_.Extend(model);
  return model;
}

}  // namespace whyprov::provenance
