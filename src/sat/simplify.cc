#include "sat/simplify.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/timer.h"

namespace whyprov::sat {

namespace {

/// The per-mode limits: technique rounds plus one step budget per phase.
struct Budgets {
  int max_rounds;
  std::int64_t probe;
  std::int64_t subsume;
  std::int64_t eliminate;
};

constexpr Budgets kFastBudgets{1, 200'000, 500'000, 200'000};
constexpr Budgets kFullBudgets{3, 2'000'000, 5'000'000, 2'000'000};

std::uint64_t SigOf(const std::vector<Lit>& lits) {
  std::uint64_t sig = 0;
  for (Lit lit : lits) {
    sig |= std::uint64_t{1} << (static_cast<std::uint32_t>(lit.index()) & 63u);
  }
  return sig;
}

/// The working clause database: tombstoned clauses plus lazy occurrence
/// lists (entries may point at deleted clauses or at clauses that no longer
/// contain the literal; every consumer re-validates).
struct Clause {
  std::vector<Lit> lits;  ///< Sorted by literal code, deduplicated.
  std::uint64_t sig = 0;
  bool deleted = false;
};

class Simplifier {
 public:
  Simplifier(const CnfFormula& input, const std::vector<Var>& frozen,
             const std::vector<Var>& eliminable, const Budgets& budgets)
      : input_(input),
        budgets_(budgets),
        num_vars_(input.num_vars),
        assign_(static_cast<std::size_t>(input.num_vars), LBool::kUndef),
        removed_(static_cast<std::size_t>(input.num_vars), 0),
        frozen_(static_cast<std::size_t>(input.num_vars), 0),
        eliminable_(static_cast<std::size_t>(input.num_vars), 0),
        occs_(2 * static_cast<std::size_t>(input.num_vars)) {
    for (Var v : frozen) {
      if (v >= 0 && v < num_vars_) frozen_[static_cast<std::size_t>(v)] = 1;
    }
    for (Var v : eliminable) {
      if (v >= 0 && v < num_vars_) eliminable_[static_cast<std::size_t>(v)] = 1;
    }
  }

  SimplifyResult Run() {
    stats_.vars_before = static_cast<std::uint64_t>(num_vars_);
    stats_.clauses_before = input_.num_clauses();
    stats_.literals_before = input_.num_literals();

    Ingest();
    Propagate();
    std::uint64_t previous = ChangeCounter();
    for (int round = 0; round < budgets_.max_rounds && !unsat_; ++round) {
      ++stats_.rounds;
      ProbeRound();
      if (unsat_) break;
      CollapseEquivalences();
      if (unsat_) break;
      SubsumeRound();
      if (unsat_) break;
      EliminateRound();
      if (unsat_) break;
      const std::uint64_t now = ChangeCounter();
      if (now == previous) break;
      previous = now;
    }
    return BuildResult();
  }

 private:
  // --- shared machinery ----------------------------------------------------

  std::uint64_t ChangeCounter() const {
    return stats_.units_fixed + stats_.equivalences + stats_.clauses_subsumed +
           stats_.clauses_strengthened + stats_.vars_eliminated;
  }

  bool LitSatisfied(Lit lit) const {
    return EvalLit(assign_[static_cast<std::size_t>(lit.var())], lit) ==
           LBool::kTrue;
  }

  bool LitFalsified(Lit lit) const {
    return EvalLit(assign_[static_cast<std::size_t>(lit.var())], lit) ==
           LBool::kFalse;
  }

  void Enqueue(Lit lit) { queue_.push_back(lit); }

  /// Normalizes and stores a clause, evaluating it against the current
  /// assignment. Satisfied clauses and tautologies are dropped; an empty
  /// clause flips the UNSAT flag; a unit clause is stored *and* enqueued
  /// (propagation deletes it once the assignment lands).
  void AddClauseInternal(std::vector<Lit> lits) {
    std::vector<Lit> kept;
    kept.reserve(lits.size());
    for (Lit lit : lits) {
      if (LitSatisfied(lit)) return;
      if (!LitFalsified(lit)) kept.push_back(lit);
    }
    std::sort(kept.begin(), kept.end());
    kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
    for (std::size_t i = 0; i + 1 < kept.size(); ++i) {
      if (kept[i].var() == kept[i + 1].var()) return;  // tautology
    }
    if (kept.empty()) {
      unsat_ = true;
      return;
    }
    if (kept.size() == 1) Enqueue(kept[0]);
    const int index = static_cast<int>(clauses_.size());
    Clause clause;
    clause.sig = SigOf(kept);
    clause.lits = std::move(kept);
    clauses_.push_back(std::move(clause));
    for (Lit lit : clauses_.back().lits) {
      occs_[static_cast<std::size_t>(lit.index())].push_back(index);
    }
  }

  void Ingest() {
    if (input_.contains_empty_clause) unsat_ = true;
    clauses_.reserve(input_.clauses.size());
    for (const std::vector<Lit>& clause : input_.clauses) {
      if (unsat_) return;
      AddClauseInternal(clause);
    }
  }

  bool ClauseContains(const Clause& clause, Lit lit) const {
    return std::binary_search(clause.lits.begin(), clause.lits.end(), lit);
  }

  void DeleteClause(int index) {
    clauses_[static_cast<std::size_t>(index)].deleted = true;
  }

  /// Removes `lit` from a live clause known to contain it.
  void ShrinkClause(int index, Lit lit) {
    Clause& clause = clauses_[static_cast<std::size_t>(index)];
    clause.lits.erase(
        std::find(clause.lits.begin(), clause.lits.end(), lit));
    clause.sig = SigOf(clause.lits);
    if (clause.lits.empty()) {
      unsat_ = true;
    } else if (clause.lits.size() == 1) {
      Enqueue(clause.lits[0]);
    }
  }

  /// Drains the unit queue: assigns each literal, deletes satisfied
  /// clauses, and strips falsified literals (possibly cascading).
  void Propagate() {
    while (queue_head_ < queue_.size() && !unsat_) {
      const Lit lit = queue_[queue_head_++];
      const auto v = static_cast<std::size_t>(lit.var());
      const LBool want = lit.negated() ? LBool::kFalse : LBool::kTrue;
      if (assign_[v] != LBool::kUndef) {
        if (assign_[v] != want) unsat_ = true;
        continue;
      }
      assign_[v] = want;
      ++stats_.units_fixed;
      if (!frozen_[v] && !removed_[v]) {
        // Frozen variables keep their column (the compaction step emits an
        // explicit unit clause); everything else is recovered via the stack.
        stack_.PushUnit(lit.var(), want == LBool::kTrue);
        removed_[v] = 1;
      }
      for (int index : occs_[static_cast<std::size_t>(lit.index())]) {
        Clause& clause = clauses_[static_cast<std::size_t>(index)];
        if (clause.deleted || !ClauseContains(clause, lit)) continue;
        clause.deleted = true;
      }
      const Lit falsified = ~lit;
      for (int index : occs_[static_cast<std::size_t>(falsified.index())]) {
        Clause& clause = clauses_[static_cast<std::size_t>(index)];
        if (clause.deleted || !ClauseContains(clause, falsified)) continue;
        ShrinkClause(index, falsified);
        if (unsat_) return;
      }
    }
    if (queue_head_ == queue_.size()) {
      queue_.clear();
      queue_head_ = 0;
    }
  }

  // --- failed-literal probing ----------------------------------------------

  /// Propagates `probe` on a temporary trail without touching any clause;
  /// returns true iff propagation hits a conflict. Always rolls back.
  bool ProbeConflicts(Lit probe, std::int64_t& budget) {
    probe_trail_.clear();
    probe_queue_.clear();
    probe_queue_.push_back(probe);
    bool conflict = false;
    for (std::size_t head = 0; head < probe_queue_.size() && !conflict;
         ++head) {
      const Lit lit = probe_queue_[head];
      const auto v = static_cast<std::size_t>(lit.var());
      const LBool want = lit.negated() ? LBool::kFalse : LBool::kTrue;
      if (assign_[v] != LBool::kUndef) {
        if (assign_[v] != want) conflict = true;
        continue;
      }
      assign_[v] = want;
      probe_trail_.push_back(lit.var());
      const Lit falsified = ~lit;
      for (int index : occs_[static_cast<std::size_t>(falsified.index())]) {
        const Clause& clause = clauses_[static_cast<std::size_t>(index)];
        if (clause.deleted) continue;
        --budget;
        bool satisfied = false;
        Lit unassigned = kUndefLit;
        int num_unassigned = 0;
        for (Lit other : clause.lits) {
          const LBool value =
              EvalLit(assign_[static_cast<std::size_t>(other.var())], other);
          if (value == LBool::kTrue) {
            satisfied = true;
            break;
          }
          if (value == LBool::kUndef) {
            ++num_unassigned;
            unassigned = other;
          }
        }
        if (satisfied) continue;
        if (num_unassigned == 0) {
          conflict = true;
          break;
        }
        if (num_unassigned == 1) probe_queue_.push_back(unassigned);
      }
    }
    for (Var v : probe_trail_) {
      assign_[static_cast<std::size_t>(v)] = LBool::kUndef;
    }
    return conflict;
  }

  void ProbeRound() {
    std::int64_t budget = budgets_.probe;
    for (Var v = 0; v < num_vars_; ++v) {
      if (budget <= 0) {
        stats_.budget_hit = true;
        return;
      }
      const auto index = static_cast<std::size_t>(v);
      if (removed_[index] || assign_[index] != LBool::kUndef) continue;
      for (const bool negated : {false, true}) {
        if (assign_[index] != LBool::kUndef) break;
        const Lit probe = Lit::Make(v, negated);
        if (ProbeConflicts(probe, budget)) {
          ++stats_.failed_literals;
          Enqueue(~probe);
          Propagate();
          if (unsat_) return;
        }
        if (budget <= 0) break;
      }
    }
  }

  // --- equivalent-literal substitution -------------------------------------

  /// Rewrites every live occurrence of ±`v` into the corresponding phase of
  /// `rep` (where v ≡ rep). Clauses that become tautologies are deleted.
  void SubstituteVar(Var v, Lit rep) {
    for (const bool negated : {false, true}) {
      const Lit from = Lit::Make(v, negated);
      const Lit to = negated ? ~rep : rep;
      // Copy: rewriting appends to `to`'s occurrence list, never `from`'s.
      const std::vector<int> occ =
          occs_[static_cast<std::size_t>(from.index())];
      for (int index : occ) {
        Clause& clause = clauses_[static_cast<std::size_t>(index)];
        if (clause.deleted || !ClauseContains(clause, from)) continue;
        if (ClauseContains(clause, ~to)) {
          // v ∨ ¬rep ∨ … is a tautology under v ≡ rep.
          clause.deleted = true;
          continue;
        }
        clause.lits.erase(
            std::find(clause.lits.begin(), clause.lits.end(), from));
        if (!ClauseContains(clause, to)) {
          clause.lits.insert(
              std::upper_bound(clause.lits.begin(), clause.lits.end(), to),
              to);
          occs_[static_cast<std::size_t>(to.index())].push_back(index);
        }
        clause.sig = SigOf(clause.lits);
        if (clause.lits.size() == 1) Enqueue(clause.lits[0]);
      }
    }
  }

  /// Tarjan SCC over the binary implication graph; every nontrivial
  /// component is collapsed onto a representative literal (frozen variables
  /// preferred so they are never substituted away).
  void CollapseEquivalences() {
    const std::size_t num_lits = 2 * static_cast<std::size_t>(num_vars_);
    std::vector<std::vector<std::int32_t>> adj(num_lits);
    bool any_binary = false;
    for (const Clause& clause : clauses_) {
      if (clause.deleted || clause.lits.size() != 2) continue;
      const Lit a = clause.lits[0];
      const Lit b = clause.lits[1];
      adj[static_cast<std::size_t>((~a).index())].push_back(b.index());
      adj[static_cast<std::size_t>((~b).index())].push_back(a.index());
      any_binary = true;
    }
    if (!any_binary) return;

    constexpr std::int32_t kUnvisited = -1;
    std::vector<std::int32_t> order(num_lits, kUnvisited);
    std::vector<std::int32_t> low(num_lits, 0);
    std::vector<std::int32_t> comp(num_lits, kUnvisited);
    std::vector<std::int32_t> scc_stack;
    std::vector<std::uint8_t> on_stack(num_lits, 0);
    std::int32_t next_order = 0;
    std::int32_t next_comp = 0;

    struct Frame {
      std::int32_t node;
      std::size_t edge;
    };
    std::vector<Frame> dfs;
    for (std::size_t root = 0; root < num_lits; ++root) {
      if (order[root] != kUnvisited) continue;
      dfs.push_back(Frame{static_cast<std::int32_t>(root), 0});
      while (!dfs.empty()) {
        Frame& frame = dfs.back();
        const auto node = static_cast<std::size_t>(frame.node);
        if (frame.edge == 0) {
          order[node] = low[node] = next_order++;
          scc_stack.push_back(frame.node);
          on_stack[node] = 1;
        }
        bool descended = false;
        while (frame.edge < adj[node].size()) {
          const std::int32_t next = adj[node][frame.edge++];
          const auto next_index = static_cast<std::size_t>(next);
          if (order[next_index] == kUnvisited) {
            dfs.push_back(Frame{next, 0});
            descended = true;
            break;
          }
          if (on_stack[next_index]) {
            low[node] = std::min(low[node], order[next_index]);
          }
        }
        if (descended) continue;
        if (low[node] == order[node]) {
          while (true) {
            const std::int32_t member = scc_stack.back();
            scc_stack.pop_back();
            on_stack[static_cast<std::size_t>(member)] = 0;
            comp[static_cast<std::size_t>(member)] = next_comp;
            if (member == frame.node) break;
          }
          ++next_comp;
        }
        dfs.pop_back();
        if (!dfs.empty()) {
          const auto parent = static_cast<std::size_t>(dfs.back().node);
          low[parent] = std::min(low[parent], low[node]);
        }
      }
    }

    std::vector<std::vector<Lit>> members(static_cast<std::size_t>(next_comp));
    for (std::size_t code = 0; code < num_lits; ++code) {
      const Lit lit = Lit::Make(static_cast<Var>(code / 2), (code & 1) != 0);
      const auto v = static_cast<std::size_t>(lit.var());
      if (removed_[v] || assign_[v] != LBool::kUndef) continue;
      members[static_cast<std::size_t>(comp[code])].push_back(lit);
    }

    std::vector<std::uint8_t> handled(static_cast<std::size_t>(next_comp), 0);
    for (std::size_t code = 0; code < num_lits; ++code) {
      const Lit lit = Lit::Make(static_cast<Var>(code / 2), (code & 1) != 0);
      const auto v = static_cast<std::size_t>(lit.var());
      if (removed_[v] || assign_[v] != LBool::kUndef) continue;
      const auto c = static_cast<std::size_t>(comp[code]);
      if (handled[c] || members[c].size() < 2) continue;
      const auto mirror = static_cast<std::size_t>(comp[(~lit).index()]);
      if (mirror == c) {
        unsat_ = true;  // l ≡ ¬l
        return;
      }
      handled[c] = 1;
      handled[mirror] = 1;
      // Representative: frozen variable if the class has one, lowest
      // variable id as tie-break. Lit order within a class is by code, so
      // the scan is deterministic.
      Lit rep = kUndefLit;
      for (Lit member : members[c]) {
        if (!rep.defined()) {
          rep = member;
          continue;
        }
        const bool member_frozen =
            frozen_[static_cast<std::size_t>(member.var())] != 0;
        const bool rep_frozen =
            frozen_[static_cast<std::size_t>(rep.var())] != 0;
        if (member_frozen != rep_frozen) {
          if (member_frozen) rep = member;
        } else if (member.var() < rep.var()) {
          rep = member;
        }
      }
      for (Lit member : members[c]) {
        if (member == rep) continue;
        const Var u = member.var();
        const Lit rep_for_u = member.negated() ? ~rep : rep;  // u ≡ rep_for_u
        SubstituteVar(u, rep_for_u);
        if (frozen_[static_cast<std::size_t>(u)]) {
          // A frozen member stays alive: tie it to the representative with
          // two binaries so it remains functionally determined, no stack
          // entry (the solver assigns it directly).
          AddClauseInternal({Lit::Make(u, true), rep_for_u});
          AddClauseInternal({Lit::Make(u, false), ~rep_for_u});
        } else {
          stack_.PushEquiv(u, rep_for_u);
          removed_[static_cast<std::size_t>(u)] = 1;
          ++stats_.equivalences;
        }
        if (unsat_) return;
      }
    }
    Propagate();
  }

  // --- subsumption + self-subsuming resolution -----------------------------

  bool IsSubset(const std::vector<Lit>& small, const std::vector<Lit>& big,
                Lit flipped) const {
    // Checks (small \ {flipped}) ∪ {~flipped} ⊆ big; pass kUndefLit for a
    // plain subset test. Both sides are sorted, but the flip breaks order
    // on the left, so each literal is looked up individually.
    for (Lit lit : small) {
      const Lit wanted = lit == flipped ? ~lit : lit;
      if (!std::binary_search(big.begin(), big.end(), wanted)) return false;
    }
    return true;
  }

  void SubsumeRound() {
    std::int64_t budget = budgets_.subsume;
    const auto num_clauses = static_cast<int>(clauses_.size());
    for (int ci = 0; ci < num_clauses; ++ci) {
      if (budget <= 0) {
        stats_.budget_hit = true;
        break;
      }
      const Clause& self = clauses_[static_cast<std::size_t>(ci)];
      if (self.deleted || self.lits.empty()) continue;
      // Pivot on the literal with the shortest occurrence list.
      Lit pivot = self.lits[0];
      for (Lit lit : self.lits) {
        if (occs_[static_cast<std::size_t>(lit.index())].size() <
            occs_[static_cast<std::size_t>(pivot.index())].size()) {
          pivot = lit;
        }
      }
      for (int other : occs_[static_cast<std::size_t>(pivot.index())]) {
        if (other == ci) continue;
        Clause& candidate = clauses_[static_cast<std::size_t>(other)];
        if (candidate.deleted || candidate.lits.size() < self.lits.size()) {
          continue;
        }
        if ((self.sig & ~candidate.sig) != 0) continue;
        --budget;
        if (IsSubset(self.lits, candidate.lits, kUndefLit)) {
          candidate.deleted = true;
          ++stats_.clauses_subsumed;
        }
      }
      // Self-subsuming resolution: if flipping one literal of this clause
      // makes it a subset of another, that literal's negation can be
      // deleted from the other clause.
      for (Lit flip : self.lits) {
        // Signature of (self \ {flip}) ∪ {~flip}.
        std::uint64_t flip_sig =
            std::uint64_t{1}
            << (static_cast<std::uint32_t>((~flip).index()) & 63u);
        for (Lit lit : self.lits) {
          if (lit == flip) continue;
          flip_sig |= std::uint64_t{1}
                      << (static_cast<std::uint32_t>(lit.index()) & 63u);
        }
        for (int other : occs_[static_cast<std::size_t>((~flip).index())]) {
          if (other == ci) continue;
          Clause& candidate = clauses_[static_cast<std::size_t>(other)];
          if (candidate.deleted ||
              candidate.lits.size() < self.lits.size()) {
            continue;
          }
          if ((flip_sig & ~candidate.sig) != 0) continue;
          --budget;
          if (!ClauseContains(candidate, ~flip)) continue;
          if (IsSubset(self.lits, candidate.lits, flip)) {
            ShrinkClause(other, ~flip);
            ++stats_.clauses_strengthened;
            if (unsat_) return;
          }
        }
        if (budget <= 0) break;
      }
    }
    Propagate();
  }

  // --- bounded variable elimination ----------------------------------------

  /// Resolves `pos` (contains v) with `neg` (contains ¬v) on v; returns
  /// false for a tautological resolvent.
  bool Resolve(const Clause& pos, const Clause& neg, Var v,
               std::vector<Lit>& out) const {
    out.clear();
    for (Lit lit : pos.lits) {
      if (lit.var() != v) out.push_back(lit);
    }
    for (Lit lit : neg.lits) {
      if (lit.var() != v) out.push_back(lit);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    for (std::size_t i = 0; i + 1 < out.size(); ++i) {
      if (out[i].var() == out[i + 1].var()) return false;
    }
    return true;
  }

  void EliminateRound() {
    constexpr std::size_t kMaxPairs = 400;
    std::int64_t budget = budgets_.eliminate;
    std::vector<int> pos;
    std::vector<int> neg;
    std::vector<std::vector<Lit>> resolvents;
    std::vector<Lit> resolvent;
    for (Var v = 0; v < num_vars_; ++v) {
      if (budget <= 0) {
        stats_.budget_hit = true;
        break;
      }
      const auto index = static_cast<std::size_t>(v);
      if (!eliminable_[index] || frozen_[index] || removed_[index] ||
          assign_[index] != LBool::kUndef) {
        continue;
      }
      pos.clear();
      neg.clear();
      const Lit pos_lit = Lit::Make(v, false);
      const Lit neg_lit = Lit::Make(v, true);
      for (int ci : occs_[static_cast<std::size_t>(pos_lit.index())]) {
        const Clause& clause = clauses_[static_cast<std::size_t>(ci)];
        if (!clause.deleted && ClauseContains(clause, pos_lit)) {
          pos.push_back(ci);
        }
      }
      for (int ci : occs_[static_cast<std::size_t>(neg_lit.index())]) {
        const Clause& clause = clauses_[static_cast<std::size_t>(ci)];
        if (!clause.deleted && ClauseContains(clause, neg_lit)) {
          neg.push_back(ci);
        }
      }
      if (pos.size() * neg.size() > kMaxPairs) continue;
      const std::size_t limit = pos.size() + neg.size();  // no growth
      resolvents.clear();
      bool within_bound = true;
      for (int pi : pos) {
        for (int ni : neg) {
          --budget;
          if (Resolve(clauses_[static_cast<std::size_t>(pi)],
                      clauses_[static_cast<std::size_t>(ni)], v, resolvent)) {
            resolvents.push_back(resolvent);
            if (resolvents.size() > limit) {
              within_bound = false;
              break;
            }
          }
        }
        if (!within_bound) break;
      }
      if (!within_bound) continue;
      // Commit: record the positive-occurrence clauses (minus v) for
      // witness reconstruction, swap the clauses for the resolvents.
      std::vector<std::vector<Lit>> witness;
      witness.reserve(pos.size());
      for (int pi : pos) {
        const Clause& clause = clauses_[static_cast<std::size_t>(pi)];
        std::vector<Lit> rest;
        rest.reserve(clause.lits.size() - 1);
        for (Lit lit : clause.lits) {
          if (lit.var() != v) rest.push_back(lit);
        }
        witness.push_back(std::move(rest));
      }
      stack_.PushEliminated(v, std::move(witness));
      removed_[index] = 1;
      ++stats_.vars_eliminated;
      for (int pi : pos) DeleteClause(pi);
      for (int ni : neg) DeleteClause(ni);
      for (std::vector<Lit>& lits : resolvents) {
        AddClauseInternal(std::move(lits));
        if (unsat_) return;
      }
    }
    Propagate();
  }

  // --- output --------------------------------------------------------------

  SimplifyResult BuildResult() {
    SimplifyResult result;
    result.num_original_vars = num_vars_;
    result.proven_unsat = unsat_;
    result.var_map.assign(static_cast<std::size_t>(num_vars_), kUndefLit);
    result.stats = stats_;
    CnfFormula& formula = result.formula;

    Var next = 0;
    for (Var v = 0; v < num_vars_; ++v) {
      const auto index = static_cast<std::size_t>(v);
      if (unsat_ ? frozen_[index] == 0 : removed_[index] != 0) continue;
      result.var_map[index] = Lit::Make(next++, false);
    }
    formula.num_vars = next;

    if (unsat_) {
      formula.contains_empty_clause = true;
      formula.clauses.push_back({});
    } else {
      // Fixed frozen variables first (ascending), as explicit units.
      for (Var v = 0; v < num_vars_; ++v) {
        const auto index = static_cast<std::size_t>(v);
        if (!frozen_[index] || assign_[index] == LBool::kUndef) continue;
        const Lit mapped = result.var_map[index];
        formula.clauses.push_back(
            {Lit::Make(mapped.var(), assign_[index] == LBool::kFalse)});
      }
      for (const Clause& clause : clauses_) {
        if (clause.deleted) continue;
        std::vector<Lit> mapped;
        mapped.reserve(clause.lits.size());
        for (Lit lit : clause.lits) {
          const Lit base = result.var_map[static_cast<std::size_t>(lit.var())];
          mapped.push_back(lit.negated() ? ~base : base);
        }
        std::sort(mapped.begin(), mapped.end());
        formula.clauses.push_back(std::move(mapped));
      }
      for (const auto& [var, prefer_true] : input_.polarity_hints) {
        const Lit mapped = result.var_map[static_cast<std::size_t>(var)];
        if (!mapped.defined()) continue;
        formula.polarity_hints.emplace_back(mapped.var(),
                                            prefer_true != mapped.negated());
      }
      for (const auto& [var, amount] : input_.activity_hints) {
        const Lit mapped = result.var_map[static_cast<std::size_t>(var)];
        if (!mapped.defined()) continue;
        formula.activity_hints.emplace_back(mapped.var(), amount);
      }
    }

    result.stack = std::move(stack_);
    result.stats.vars_after = static_cast<std::uint64_t>(formula.num_vars);
    result.stats.clauses_after = formula.num_clauses();
    result.stats.literals_after = formula.num_literals();
    return result;
  }

  const CnfFormula& input_;
  const Budgets budgets_;
  const Var num_vars_;

  std::vector<Clause> clauses_;
  std::vector<LBool> assign_;
  std::vector<std::uint8_t> removed_;
  std::vector<std::uint8_t> frozen_;
  std::vector<std::uint8_t> eliminable_;
  std::vector<std::vector<int>> occs_;  ///< Lazy, indexed by literal code.

  std::vector<Lit> queue_;
  std::size_t queue_head_ = 0;
  std::vector<Var> probe_trail_;
  std::vector<Lit> probe_queue_;

  ReconstructionStack stack_;
  SimplifyStats stats_;
  bool unsat_ = false;
};

SimplifyResult IdentityResult(const CnfFormula& input) {
  SimplifyResult result;
  result.formula = input;
  result.num_original_vars = input.num_vars;
  result.var_map.reserve(static_cast<std::size_t>(input.num_vars));
  for (Var v = 0; v < input.num_vars; ++v) {
    result.var_map.push_back(Lit::Make(v, false));
  }
  result.proven_unsat = input.contains_empty_clause;
  result.stats.vars_before = result.stats.vars_after =
      static_cast<std::uint64_t>(input.num_vars);
  result.stats.clauses_before = result.stats.clauses_after =
      input.num_clauses();
  result.stats.literals_before = result.stats.literals_after =
      input.num_literals();
  return result;
}

}  // namespace

SimplifyResult Simplify(const CnfFormula& input, const std::vector<Var>& frozen,
                        const std::vector<Var>& eliminable,
                        SimplifyMode mode) {
  if (mode == SimplifyMode::kOff) return IdentityResult(input);
  util::Timer timer;
  Simplifier simplifier(input, frozen, eliminable,
                        mode == SimplifyMode::kFull ? kFullBudgets
                                                    : kFastBudgets);
  SimplifyResult result = simplifier.Run();
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace whyprov::sat
