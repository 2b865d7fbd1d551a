#include "oracle.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "common.h"
#include "datalog/parser.h"
#include "net/whyprov_c.h"

namespace provbench {

namespace wp = whyprov;

namespace {

/// Plans the oracle keeps hot: more than any workload's target count, so
/// a memo entry is only recomputed when a delta really touched its plan.
constexpr std::size_t kOraclePlanCache = 4096;

std::uint8_t Code(const wp::util::Status& status) {
  return static_cast<std::uint8_t>(status.code());
}

}  // namespace

std::uint64_t HashMembers(const std::vector<std::vector<std::string>>& members,
                          std::size_t count) {
  MemberHash hash;
  for (std::size_t i = 0; i < std::min(count, members.size()); ++i) {
    for (const std::string& fact : members[i]) hash.AddFact(fact);
    hash.EndMember();
  }
  return hash.value();
}

wp::util::Result<std::unique_ptr<Oracle>> Oracle::Create(
    const Workload& workload) {
  wp::EngineOptions options;
  options.plan_cache_capacity = kOraclePlanCache;
  auto engine = wp::Engine::FromText(workload.program_text,
                                     workload.database_text,
                                     workload.answer_predicate, options);
  if (!engine.ok()) return engine.status();
  return std::unique_ptr<Oracle>(new Oracle(std::move(engine).value()));
}

wp::util::Result<std::vector<std::vector<std::string>>> FirstMembers(
    const wp::Engine& engine, const std::string& target, std::uint32_t cap,
    std::uint64_t* propagations) {
  auto prepared = engine.Prepare(target);
  if (!prepared.ok()) return prepared.status();
  wp::EnumerateRequest request;
  request.max_members = cap;
  auto enumeration = prepared.value().Enumerate(request);
  if (!enumeration.ok()) return enumeration.status();
  std::vector<std::vector<std::string>> members;
  while (auto member = enumeration.value().Next()) {
    std::vector<std::string> facts;
    facts.reserve(member->size());
    for (const auto& fact : *member) facts.push_back(engine.FactToText(fact));
    members.push_back(std::move(facts));
  }
  if (propagations != nullptr) {
    *propagations = enumeration.value().solver().stats().propagations;
  }
  return members;
}

Oracle::Memo& Oracle::Refresh(const Workload& workload, std::uint32_t target) {
  Memo& memo = memo_[target];
  auto prepared = engine_.Prepare(workload.targets[target]);
  if (!prepared.ok()) {
    memo = Memo();
    memo.status = Code(prepared.status());
    return memo;
  }
  if (memo.plan == prepared.value().plan()) return memo;
  memo = Memo();
  memo.plan = prepared.value().plan();
  memo.base = engine_.model_version() == base_version_;
  auto members =
      FirstMembers(engine_, workload.targets[target],
                   std::max(workload.spec->enumerate_cap, kKnownMembers));
  if (!members.ok()) {
    memo.status = Code(members.status());
    return memo;
  }
  memo.members = std::move(members).value();
  memo.verdicts.assign(workload.known[target].size(), -1);
  return memo;
}

Outcome Oracle::Expect(const Workload& workload, const Request& request) {
  Memo& memo = Refresh(workload, request.target);
  if (memo.status != WHYPROV_OK) return Outcome{memo.status, 0};
  switch (request.op) {
    case Op::kEnumerate:
      return Outcome{WHYPROV_OK,
                     HashMembers(memo.members, workload.spec->enumerate_cap)};
    case Op::kDecide: {
      // Under the plan the known members came from, a known member is a
      // member: expect true without asking Decide. Only after a delta
      // replaced the plan does the engine's own Decide set the verdict.
      if (memo.base) return Outcome{WHYPROV_OK, 1};
      std::int8_t& verdict = memo.verdicts[request.member];
      if (verdict < 0) {
        wp::DecideRequest decide;
        decide.target_text = workload.targets[request.target];
        {
          const auto state = engine_.PinSnapshot();
          const wp::util::MutexLock lock(*state->parse_mutex);
          for (const std::string& text :
               workload.known[request.target][request.member]) {
            auto fact = wp::datalog::Parser::ParseFact(
                state->model.symbols_ptr(), text);
            if (!fact.ok()) return Outcome{Code(fact.status()), 0};
            decide.candidate.push_back(std::move(fact).value());
          }
        }
        auto decided = engine_.Decide(decide);
        if (!decided.ok()) return Outcome{Code(decided.status()), 0};
        verdict = decided.value() ? 1 : 0;
      }
      return Outcome{WHYPROV_OK, static_cast<std::uint64_t>(verdict)};
    }
    case Op::kExplain: {
      if (request.member < memo.members.size()) {
        return Outcome{WHYPROV_OK,
                       HashMembers({memo.members[request.member]}, 1)};
      }
      wp::ExplainRequest explain;
      explain.target_text = workload.targets[request.target];
      explain.member_index = request.member;
      auto explained = engine_.Explain(explain);
      return Outcome{explained.ok() ? std::uint8_t{WHYPROV_UNKNOWN}
                                    : Code(explained.status()),
                     0};
    }
    case Op::kDelta:
      break;
  }
  return Outcome{WHYPROV_UNKNOWN, 0};
}

wp::util::Result<std::uint64_t> Oracle::Apply(const Workload& workload,
                                              const Request& request) {
  const Delta delta = workload.DeltaOf(request);
  wp::DeltaRequest apply;
  apply.added_fact_texts = delta.added;
  apply.removed_fact_texts = delta.removed;
  auto stats = engine_.ApplyDelta(apply);
  if (!stats.ok()) return stats.status();
  return stats.value().model_version;
}

Verdict Verify(const Workload& workload, std::vector<Record> records,
               Oracle& oracle) {
  Verdict verdict;
  auto report = [&](const char* what, const Record& record) {
    ++verdict.mismatches;
    if (verdict.mismatches <= 5) {
      std::fprintf(stderr,
                   "oracle: %s (op %d, target %u, member %u, version %llu, "
                   "status %u)\n",
                   what, static_cast<int>(record.request.op),
                   record.request.target, record.request.member,
                   static_cast<unsigned long long>(record.version),
                   record.outcome.status);
    }
  };

  // The writer's deltas by the version each produced.
  std::map<std::uint64_t, const Record*> deltas;
  for (const Record& record : records) {
    if (record.request.op != Op::kDelta) continue;
    ++verdict.checked;
    if (record.outcome.status != WHYPROV_OK ||
        !deltas.emplace(record.version, &record).second) {
      report("delta failed or reused a version", record);
    }
  }
  const std::uint64_t base = oracle.engine().model_version();
  const std::uint64_t newest = deltas.empty() ? base : deltas.rbegin()->first;
  // Version v is live at most from the send of the delta producing it to
  // the end of the delta replacing it.
  auto live_from = [&](std::uint64_t v) {
    const auto it = deltas.find(v);
    return it == deltas.end() ? -1e300 : it->second->send;
  };
  auto live_to = [&](std::uint64_t v) {
    const auto it = deltas.find(v + 1);
    return it == deltas.end() ? 1e300 : it->second->end;
  };

  // (version, read) pairs to check, in version order.
  std::vector<std::pair<std::uint64_t, std::size_t>> checks;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& read = records[i];
    if (read.request.op == Op::kDelta) continue;
    ++verdict.checked;
    if (read.outcome.status != WHYPROV_OK && read.version == 0) {
      for (std::uint64_t v = base; v <= newest; ++v) {
        if (live_from(v) <= read.end && live_to(v) >= read.send) {
          checks.emplace_back(v, i);
        }
      }
    } else {
      checks.emplace_back(read.version, i);
    }
  }
  std::stable_sort(checks.begin(), checks.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<bool> matched(records.size(), false);
  std::uint64_t version = base;
  for (const auto& [at, i] : checks) {
    while (version < at) {
      const auto it = deltas.find(version + 1);
      if (it == deltas.end()) break;
      auto applied = oracle.Apply(workload, it->second->request);
      if (!applied.ok() || applied.value() != version + 1) break;
      version = applied.value();
    }
    if (version != at) continue;
    const Record& read = records[i];
    const Outcome expected = oracle.Expect(workload, read.request);
    if (expected.status == read.outcome.status &&
        (expected.status != WHYPROV_OK || expected.hash == read.outcome.hash)) {
      matched[i] = true;
    }
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].request.op != Op::kDelta && !matched[i]) {
      report("answer differs from the in-process engine", records[i]);
    }
  }
  return verdict;
}

}  // namespace provbench
