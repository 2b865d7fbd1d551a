#ifndef WHYPROV_BENCH_BENCH_RUNNERS_H_
#define WHYPROV_BENCH_BENCH_RUNNERS_H_

// Measurement drivers shared by the figure benchmarks. Everything runs
// through the `whyprov::Engine` facade.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "whyprov.h"

namespace whyprov::bench {

/// One bar of Figures 1/3: the time to build the downward closure and the
/// Boolean formula for one sampled tuple. `eval_seconds` is the (shared)
/// model-evaluation time — the paper's per-tuple bars include the DLV run
/// over the database, whose role our semi-naive evaluation plays, so the
/// per-bar total is eval + closure + encode.
struct ConstructionBar {
  std::string tuple_label;
  double eval_seconds = 0;
  double closure_seconds = 0;
  double encode_seconds = 0;
  std::size_t closure_nodes = 0;
  std::size_t closure_edges = 0;
  std::size_t cnf_variables = 0;

  double total_seconds() const {
    return eval_seconds + closure_seconds + encode_seconds;
  }
};

/// One box of Figures 2/4: the delay distribution of incrementally
/// enumerating members for one sampled tuple.
struct DelayBox {
  std::string tuple_label;
  util::Summary summary_ms;
  std::size_t members = 0;
  bool hit_member_cap = false;
  bool hit_timeout = false;
};

struct TupleRun {
  ConstructionBar construction;
  DelayBox delays;
};

/// Evaluates one suite entry, samples `kTuplesPerDatabase` answers
/// uniformly (like the paper), and runs the full pipeline per tuple.
/// `enumerate` controls whether the delay phase runs (Figures 2/4) or
/// only construction is measured (Figures 1/3).
inline std::vector<TupleRun> RunSuiteEntry(const SuiteEntry& entry,
                                           bool enumerate) {
  std::vector<TupleRun> runs;
  auto scenario = entry.make();
  const whyprov::Engine engine = scenario.MakeEngine();
  const double eval_seconds = engine.eval_seconds();

  util::Rng rng(kSuiteSeed ^ 0x7u);
  const auto targets = engine.SampleAnswers(kTuplesPerDatabase, rng);
  int index = 0;
  for (auto target : targets) {
    TupleRun run;
    run.construction.tuple_label = "t" + std::to_string(++index);
    // Prepare = the measured closure+encode compile step (the engines of
    // Figures 1/3); the enumeration below is a pure execution against it.
    auto prepared = engine.Prepare(target);
    if (!prepared.ok()) {
      std::fprintf(stderr, "prepare failed: %s\n",
                   prepared.status().message().c_str());
      continue;
    }
    run.construction.eval_seconds = eval_seconds;
    run.construction.closure_seconds =
        prepared.value().timings().closure_seconds;
    run.construction.encode_seconds =
        prepared.value().timings().encode_seconds;
    run.construction.closure_nodes =
        prepared.value().closure().nodes().size();
    run.construction.closure_edges =
        prepared.value().closure().edges().size();
    run.construction.cnf_variables =
        static_cast<std::size_t>(prepared.value().formula().num_vars);

    if (enumerate) {
      // The per-tuple time limit is the request's cancellation deadline,
      // polled between members and inside each solve.
      util::CancellationSource deadline;
      deadline.SetTimeout(kEnumerationTimeoutSeconds);
      whyprov::EnumerateRequest request;
      request.max_members = kMaxMembersPerTuple;
      request.cancellation = deadline.token();
      auto enumeration = prepared.value().Enumerate(request);
      if (!enumeration.ok()) {
        std::fprintf(stderr, "enumerate failed: %s\n",
                     enumeration.status().message().c_str());
        continue;
      }
      run.delays.tuple_label = run.construction.tuple_label;
      while (enumeration.value().Next().has_value()) {
      }
      // The CDCL deadline hint can end a solve at a restart boundary just
      // before the deadline, which reports incomplete() instead.
      run.delays.hit_timeout = enumeration.value().deadline_exceeded() ||
                               enumeration.value().incomplete();
      run.delays.hit_member_cap = enumeration.value().hit_member_cap();
      run.delays.members = enumeration.value().members_emitted();
      util::SampleSet samples;
      for (double ms : enumeration.value().delays_ms()) samples.Add(ms);
      run.delays.summary_ms = samples.Summarize();
    }
    runs.push_back(std::move(run));
  }
  return runs;
}

/// Prints the Figures 1/3 rows for one suite entry.
inline void PrintConstructionRows(const SuiteEntry& entry,
                                  const std::vector<TupleRun>& runs) {
  for (const auto& run : runs) {
    const auto& bar = run.construction;
    std::printf(
        "%-14s %-14s %-4s total=%8.3fs  (eval=%7.3fs closure=%7.3fs "
        "formula=%7.3fs)  closure: %zu nodes, %zu hyperedges, %zu vars\n",
        entry.scenario.c_str(), entry.database.c_str(),
        bar.tuple_label.c_str(), bar.total_seconds(), bar.eval_seconds,
        bar.closure_seconds, bar.encode_seconds, bar.closure_nodes,
        bar.closure_edges, bar.cnf_variables);
  }
}

/// Prints the Figures 2/4 rows (box-plot five-number summaries) for one
/// suite entry.
inline void PrintDelayRows(const SuiteEntry& entry,
                           const std::vector<TupleRun>& runs) {
  for (const auto& run : runs) {
    const auto& box = run.delays;
    const auto& s = box.summary_ms;
    std::printf(
        "%-14s %-14s %-4s members=%-6zu%s delays(ms): min=%9.4f q1=%9.4f "
        "med=%9.4f q3=%9.4f max=%9.4f\n",
        entry.scenario.c_str(), entry.database.c_str(),
        box.tuple_label.c_str(), box.members,
        box.hit_timeout ? " [timeout]" : (box.hit_member_cap ? " [cap]" : ""),
        s.min, s.q1, s.median, s.q3, s.max);
  }
}

}  // namespace whyprov::bench

#endif  // WHYPROV_BENCH_BENCH_RUNNERS_H_
