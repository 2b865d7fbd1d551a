#include "workload.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <utility>

#include "oracle.h"

namespace provbench {

namespace wp = whyprov;
namespace sc = whyprov::scenarios;

namespace {

/// The scenario generators' seed: fixed, so every --seed serves the same
/// database and a run's spread comes from the request side only.
constexpr std::uint64_t kScenarioSeed = 20240611;

/// Plans the served engine caches by default (EngineOptions).
constexpr std::size_t kPlanCacheCapacity = 64;

/// A hot set is chosen from this many random candidates per target. Drawn
/// from the measured work of every answer of recursive-hot, the hot set's
/// mean solver work spreads by ~0.07 (interquartile range over median)
/// across seeds with 8 per target, and qps with it; with 32, by ~0.04.
constexpr std::size_t kCandidatesPerTarget = 32;

/// Seeds one independent stream per (seed, purpose, index).
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t purpose,
                      std::uint64_t index) {
  return seed * 0x9e3779b97f4a7c15ULL ^ (purpose << 40) ^ index;
}

}  // namespace

const std::vector<Spec>& Specs() {
  // Read rates are about a third of each workload's closed-loop qps on a
  // 4-vCPU host, and probe write rates about a third of the writer's
  // back-to-back delta rate, so a short host stall queues few requests
  // (see README.md).
  static const std::vector<Spec> specs = {
      {"recursive-hot",
       [] {
         return sc::MakeTransClosure(sc::GraphKind::kSocial, 96, 300,
                                     kScenarioSeed);
       },
       /*hot_targets=*/16, /*enumerate_cap=*/32, /*read_rate=*/100,
       /*write_rate=*/100, /*churn=*/false, "edge(zprobe0, zprobe1)",
       /*edge_pool=*/64, /*wal=*/false},
      {"nonrecursive-wide",
       [] { return sc::MakeDoctors(1, 2000, kScenarioSeed); },
       /*hot_targets=*/0, /*enumerate_cap=*/8, /*read_rate=*/1200,
       /*write_rate=*/15, /*churn=*/false, "patientof(zprobe0, zprobe1)",
       /*edge_pool=*/64, /*wal=*/false},
      {"churn",
       [] {
         return sc::MakeTransClosure(sc::GraphKind::kSparse, 600, 900,
                                     kScenarioSeed);
       },
       /*hot_targets=*/64, /*enumerate_cap=*/8, /*read_rate=*/1500,
       /*write_rate=*/15, /*churn=*/true, "",
       /*edge_pool=*/128, /*wal=*/true},
  };
  return specs;
}

const Spec* FindSpec(std::string_view name) {
  for (const Spec& spec : Specs()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

void RenderScenario(const Spec& spec, Workload& workload) {
  const sc::GeneratedScenario scenario = spec.make();
  workload.spec = &spec;
  workload.program_text = scenario.program.ToString();
  workload.database_text = scenario.database.ToString();
  workload.answer_predicate = scenario.answer_predicate;
}

Delta Workload::DeltaOf(const Request& request) const {
  const std::string& fact =
      request.edge ? edges[(request.delta / 2) % edges.size()]
                   : std::string(spec->probe_fact);
  const bool first_of_pair = request.delta % 2 == 0;
  // An edge is removed first and restored second; the probe added first.
  if (first_of_pair == request.edge) return Delta{{}, {fact}};
  return Delta{{fact}, {}};
}

std::size_t Workload::WarmTargets() const {
  return std::min(targets.size(), kPlanCacheCapacity);
}

wp::util::Status Generate(std::uint64_t seed, std::size_t threads,
                          Workload& workload) {
  const Spec& spec = *workload.spec;
  workload.seed = seed;

  // A scratch engine with the default plan cache, so the candidates'
  // plans are evicted as the scan goes and do not raise the peak RSS.
  auto built = wp::Engine::FromText(workload.program_text,
                                    workload.database_text,
                                    workload.answer_predicate);
  if (!built.ok()) return built.status();
  const wp::Engine& engine = built.value();
  std::vector<wp::datalog::FactId> answers = engine.AnswerFactIds();
  if (answers.empty()) {
    return wp::util::Status::Error("the scenario has no answers");
  }
  std::sort(answers.begin(), answers.end());
  wp::util::Rng rng(SubSeed(seed, 1, 0));
  rng.Shuffle(answers);
  if (spec.hot_targets > 0) {
    answers.resize(
        std::min(answers.size(), kCandidatesPerTarget * spec.hot_targets));
  }

  // Every candidate's first members, and the solver work they took, on
  // `threads` threads at once (the engine's calls are thread-safe).
  struct Candidate {
    std::uint64_t work = 0;
    std::string target;
    std::vector<std::vector<std::string>> members;
    wp::util::Status status;
  };
  std::vector<Candidate> candidates(answers.size());
  std::atomic<std::size_t> next{0};
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < std::max<std::size_t>(1, threads); ++t) {
      workers.emplace_back([&] {
        for (std::size_t i = next++; i < answers.size(); i = next++) {
          Candidate& candidate = candidates[i];
          candidate.target = engine.FactToText(answers[i]);
          auto members = FirstMembers(engine, candidate.target,
                                      spec.enumerate_cap, &candidate.work);
          if (!members.ok()) {
            candidate.status = members.status();
          } else if (members.value().empty()) {
            candidate.status = wp::util::Status::Error(
                "answer " + candidate.target + " has no members");
          } else {
            candidate.members = std::move(members).value();
          }
        }
      });
    }
  }
  for (const Candidate& candidate : candidates) {
    if (!candidate.status.ok()) return candidate.status;
  }
  if (spec.hot_targets > 0 && candidates.size() > spec.hot_targets) {
    // The hot set takes the candidates at evenly spaced quantiles of
    // solver work, so every seed's set spans the same cost distribution
    // (the seed still draws the candidates, and so the targets).
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& x, const Candidate& y) {
                       return x.work < y.work;
                     });
    std::vector<Candidate> hot;
    for (std::size_t s = 0; s < spec.hot_targets; ++s) {
      hot.push_back(std::move(
          candidates[(2 * s + 1) * candidates.size() / (2 * spec.hot_targets)]));
    }
    rng.Shuffle(hot);
    candidates = std::move(hot);
  }
  for (Candidate& candidate : candidates) {
    if (candidate.members.size() > kKnownMembers) {
      candidate.members.resize(kKnownMembers);
    }
    workload.targets.push_back(std::move(candidate.target));
    workload.known.push_back(std::move(candidate.members));
    workload.work.push_back(candidate.work);
  }

  // The edge pool: every database fact in a warm target's closure.
  std::map<std::string, std::uint32_t> edges;
  for (std::uint32_t t = 0; t < workload.WarmTargets(); ++t) {
    auto prepared = engine.Prepare(workload.targets[t]);
    if (!prepared.ok()) return prepared.status();
    for (wp::datalog::FactId id : prepared.value().plan()->closure_facts()) {
      if (engine.model().rank(id) == 0) {
        edges.emplace(engine.FactToText(id), t);
      }
    }
  }
  std::vector<std::pair<std::string, std::uint32_t>> pool(edges.begin(),
                                                          edges.end());
  wp::util::Rng pick(SubSeed(seed, 2, 0));
  pick.Shuffle(pool);
  if (pool.size() > spec.edge_pool) pool.resize(spec.edge_pool);
  if (pool.empty()) {
    return wp::util::Status::Error("the warm closures hold no edges");
  }
  for (auto& [edge, target] : pool) {
    workload.edges.push_back(std::move(edge));
    workload.edge_targets.push_back(target);
  }
  return wp::util::Status::Ok();
}

ReaderStream::ReaderStream(const Workload& workload, std::uint64_t phase,
                           std::size_t reader, std::size_t readers)
    : workload_(workload),
      rng_(SubSeed(workload.seed, 3 + phase, reader)),
      block_{Op::kEnumerate, Op::kEnumerate, Op::kEnumerate, Op::kEnumerate,
             Op::kEnumerate, Op::kEnumerate, Op::kEnumerate, Op::kDecide,
             Op::kDecide,    Op::kExplain},
      in_block_(block_.size()),
      // Cycling readers start evenly spread over the cycle.
      cursor_(workload.targets.size() * reader / std::max<std::size_t>(
                                                     readers, 1) +
              phase * 7919) {
  if (workload.spec->hot_targets > 0) {
    for (std::uint32_t t = 0; t < workload.targets.size(); ++t) {
      order_.push_back(t);
    }
    rng_.Shuffle(order_);
  }
}

Request ReaderStream::Next() {
  if (in_block_ == block_.size()) {
    rng_.Shuffle(block_);
    in_block_ = 0;
  }
  Request request;
  request.op = block_[in_block_++];
  const std::size_t n = workload_.targets.size();
  const std::size_t k = per_op_[static_cast<int>(request.op)]++;
  const bool hot = !order_.empty();
  request.target = hot ? order_[k % n]
                       : static_cast<std::uint32_t>(cursor_++ % n);
  if (request.op != Op::kEnumerate) {
    // On a hot set, a target's next request of this op takes its next
    // known member.
    const std::size_t known = workload_.known[request.target].size();
    request.member = static_cast<std::uint32_t>((hot ? k / n : k) % known);
  }
  return request;
}

}  // namespace provbench
