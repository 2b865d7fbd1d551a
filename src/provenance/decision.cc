#include "provenance/decision.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "provenance/cnf_encoder.h"
#include "provenance/downward_closure.h"
#include "provenance/proof_dag.h"

namespace whyprov::provenance {

namespace dl = whyprov::datalog;

namespace {

using IdSet = std::vector<dl::FactId>;  // sorted, unique
using IdFamily = std::set<IdSet>;

IdSet UnionSets(const IdSet& a, const IdSet& b) {
  IdSet out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

ProvenanceFamily ToFamily(const IdFamily& ids, const dl::Model& model) {
  ProvenanceFamily family;
  for (const IdSet& s : ids) {
    std::vector<dl::Fact> member;
    member.reserve(s.size());
    for (dl::FactId id : s) member.push_back(model.fact(id));
    std::sort(member.begin(), member.end());
    family.insert(std::move(member));
  }
  return family;
}

/// Budget-guarded product of body families, unioning supports.
util::Status ProductInto(const std::vector<const IdFamily*>& body_families,
                         std::size_t& budget, IdFamily& out) {
  bool overflow = false;
  auto product = [&](auto&& self, std::size_t index,
                     const IdSet& acc) -> void {
    if (overflow) return;
    if (budget == 0) {
      overflow = true;
      return;
    }
    --budget;
    if (index == body_families.size()) {
      out.insert(acc);
      return;
    }
    for (const IdSet& s : *body_families[index]) {
      self(self, index + 1, UnionSets(acc, s));
    }
  };
  product(product, 0, IdSet{});
  if (overflow) {
    return util::Status::ResourceExhausted(
        "exhaustive enumeration exceeded its budget");
  }
  return util::Status::Ok();
}

// --- non-recursive proof trees: path-avoiding recursion ---

util::Result<IdFamily> NonRecursiveSupports(const DownwardClosure& closure,
                                            dl::FactId fact,
                                            std::set<dl::FactId>& forbidden,
                                            std::size_t& budget) {
  if (budget == 0) {
    return util::Status::ResourceExhausted(
        "exhaustive enumeration exceeded its budget");
  }
  --budget;
  if (closure.EdgesWithHead(fact).empty()) {
    return IdFamily{IdSet{fact}};
  }
  IdFamily result;
  forbidden.insert(fact);
  for (std::size_t e : closure.EdgesWithHead(fact)) {
    const DownwardClosure::Hyperedge& edge = closure.edges()[e];
    bool blocked = false;
    std::vector<IdFamily> body_families;
    for (dl::FactId body_fact : edge.body) {
      if (forbidden.contains(body_fact)) {
        blocked = true;
        break;
      }
      util::Result<IdFamily> sub =
          NonRecursiveSupports(closure, body_fact, forbidden, budget);
      if (!sub.ok()) {
        forbidden.erase(fact);
        return sub.status();
      }
      if (sub.value().empty()) {
        blocked = true;
        break;
      }
      body_families.push_back(std::move(sub).value());
    }
    if (blocked) continue;
    std::vector<const IdFamily*> pointers;
    pointers.reserve(body_families.size());
    for (const IdFamily& f : body_families) pointers.push_back(&f);
    util::Status status = ProductInto(pointers, budget, result);
    if (!status.ok()) {
      forbidden.erase(fact);
      return status;
    }
  }
  forbidden.erase(fact);
  return result;
}

// --- minimal-depth proof trees: depth-budgeted dynamic program ---

util::Result<IdFamily> DepthBoundedSupports(
    const DownwardClosure& closure, dl::FactId fact, int depth,
    std::map<std::pair<dl::FactId, int>, IdFamily>& memo,
    std::size_t& budget) {
  if (closure.EdgesWithHead(fact).empty()) {
    return IdFamily{IdSet{fact}};
  }
  if (depth <= 0) return IdFamily{};
  auto it = memo.find({fact, depth});
  if (it != memo.end()) return it->second;
  IdFamily result;
  for (std::size_t e : closure.EdgesWithHead(fact)) {
    const DownwardClosure::Hyperedge& edge = closure.edges()[e];
    bool blocked = false;
    std::vector<IdFamily> body_families;
    for (dl::FactId body_fact : edge.body) {
      util::Result<IdFamily> sub =
          DepthBoundedSupports(closure, body_fact, depth - 1, memo, budget);
      if (!sub.ok()) return sub.status();
      if (sub.value().empty()) {
        blocked = true;
        break;
      }
      body_families.push_back(std::move(sub).value());
    }
    if (blocked) continue;
    std::vector<const IdFamily*> pointers;
    pointers.reserve(body_families.size());
    for (const IdFamily& f : body_families) pointers.push_back(&f);
    util::Status status = ProductInto(pointers, budget, result);
    if (!status.ok()) return status;
  }
  memo.emplace(std::make_pair(fact, depth), result);
  return result;
}

// --- unambiguous proof trees: enumerate compressed DAGs ---

util::Result<IdFamily> UnambiguousSupports(const DownwardClosure& closure,
                                           const dl::Model& model,
                                           std::size_t budget) {
  // Reachability-guided backtracking over choice functions: only facts
  // actually pulled into the DAG get a hyperedge assigned, and a choice
  // that would close a cycle (a body fact already reaching the head
  // through chosen arcs) is pruned immediately. Every complete assignment
  // is a valid compressed DAG (Definition 40), so its reachable database
  // leaves form a whyUN member (Proposition 41).
  IdFamily result;
  std::unordered_map<dl::FactId, std::size_t> choice;

  // Can `from` reach `to` via currently chosen hyperedges?
  auto reaches = [&](auto&& self, dl::FactId from, dl::FactId to,
                     std::set<dl::FactId>& visited) -> bool {
    if (from == to) return true;
    if (!visited.insert(from).second) return false;
    auto it = choice.find(from);
    if (it == choice.end()) return false;
    for (dl::FactId next : closure.edges()[it->second].body) {
      if (self(self, next, to, visited)) return true;
    }
    return false;
  };

  bool overflow = false;
  // `pending` holds reachable internal facts still needing a choice.
  auto enumerate = [&](auto&& self, std::vector<dl::FactId> pending) -> void {
    if (overflow) return;
    if (budget == 0) {
      overflow = true;
      return;
    }
    --budget;
    // Drop already-chosen or leaf facts.
    while (!pending.empty() &&
           (choice.contains(pending.back()) ||
            closure.EdgesWithHead(pending.back()).empty())) {
      pending.pop_back();
    }
    if (pending.empty()) {
      const CompressedDag dag(&closure, choice);
      util::Result<IdSet> support = dag.Support(model);
      if (support.ok()) result.insert(std::move(support).value());
      return;
    }
    const dl::FactId fact = pending.back();
    pending.pop_back();
    for (std::size_t e : closure.EdgesWithHead(fact)) {
      const DownwardClosure::Hyperedge& edge = closure.edges()[e];
      // Prune choices that close a cycle.
      bool cyclic = false;
      for (dl::FactId body_fact : edge.body) {
        std::set<dl::FactId> visited;
        if (reaches(reaches, body_fact, fact, visited)) {
          cyclic = true;
          break;
        }
      }
      if (cyclic) continue;
      choice.emplace(fact, e);
      std::vector<dl::FactId> next_pending = pending;
      for (dl::FactId body_fact : edge.body) {
        next_pending.push_back(body_fact);
      }
      self(self, std::move(next_pending));
      choice.erase(fact);
    }
  };
  enumerate(enumerate, {closure.target()});
  if (overflow) {
    return util::Status::ResourceExhausted(
        "exhaustive enumeration exceeded its budget");
  }
  return result;
}

}  // namespace

util::Result<bool> IsWhyUnMemberPrepared(const QueryPlan& plan,
                                         const dl::Model& model,
                                         const std::vector<dl::Fact>& dprime,
                                         sat::SolverInterface& solver) {
  const DownwardClosure& closure = plan.closure();
  if (!closure.derivable()) return false;

  // Map D' to closure leaves; facts outside the closure cannot be in any
  // support, so the answer is immediately negative.
  std::unordered_set<dl::FactId> dprime_ids;
  for (const dl::Fact& fact : dprime) {
    auto id = model.Find(fact);
    if (!id.has_value()) return false;
    bool is_leaf = false;
    for (dl::FactId leaf : closure.DatabaseLeaves()) {
      if (leaf == *id) {
        is_leaf = true;
        break;
      }
    }
    if (!is_leaf) return false;
    dprime_ids.insert(*id);
  }

  const Encoding& encoding = plan.encoding();
  if (encoding.trivially_unsat) return false;
  plan.LoadInto(solver);
  // Pin the leaves: support must be exactly D'.
  for (dl::FactId leaf : closure.DatabaseLeaves()) {
    // Fact selectors are frozen under plan simplification, so the mapped
    // literal is always defined (identity for an unsimplified plan).
    const sat::Lit lit = plan.SolverLitFor(encoding.node_vars.at(leaf));
    if (!solver.AddUnit(dprime_ids.contains(leaf) ? lit : ~lit)) {
      return false;
    }
  }
  const sat::SolveResult result = solver.Solve();
  if (result == sat::SolveResult::kUnknown) {
    return util::Status::ResourceExhausted(
        "the SAT backend gave up without deciding membership");
  }
  return result == sat::SolveResult::kSat;
}

util::Result<ProvenanceFamily> EnumerateWhyExhaustive(
    const dl::Program& program, const dl::Model& model, dl::FactId target,
    TreeClass tree_class, const BaselineLimits& limits) {
  if (tree_class == TreeClass::kAny) {
    return ComputeWhyAllAtOnce(program, model, target, limits);
  }
  const DownwardClosure closure =
      DownwardClosure::Build(program, model, target);
  if (!closure.derivable()) return ProvenanceFamily{};
  std::size_t budget = limits.max_combinations;
  util::Result<IdFamily> ids = util::Status::Error("unreachable");
  switch (tree_class) {
    case TreeClass::kNonRecursive: {
      std::set<dl::FactId> forbidden;
      ids = NonRecursiveSupports(closure, target, forbidden, budget);
      break;
    }
    case TreeClass::kMinimalDepth: {
      std::map<std::pair<dl::FactId, int>, IdFamily> memo;
      ids = DepthBoundedSupports(closure, target, model.rank(target), memo,
                                 budget);
      break;
    }
    case TreeClass::kUnambiguous:
      ids = UnambiguousSupports(closure, model, budget);
      break;
    case TreeClass::kAny:
      break;  // handled above
  }
  if (!ids.ok()) return ids.status();
  return ToFamily(ids.value(), model);
}

}  // namespace whyprov::provenance
