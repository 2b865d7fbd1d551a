// Ablation A (design choice, Section 5.2 of the paper): the acyclicity
// encoding. The paper chose vertex elimination (Rankooh & Rintanen 2022)
// over the naive transitive-closure encoding because its variable count is
// O(n * delta) instead of O(n^2). This bench quantifies that choice on
// closures of increasing connectivity: sparse chains (TransClosure
// bitcoin-like), dense social graphs (facebook-like), and Galen.

#include <cstdio>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "whyprov.h"

namespace {

using namespace whyprov::bench;  // NOLINT(build/namespaces): bench shorthand
namespace pv = whyprov::provenance;

void BM_AcyclicityEncoding(benchmark::State& state, const SuiteEntry entry,
                           pv::AcyclicityEncoding encoding) {
  for (auto _ : state) {
    auto scenario = entry.make();
    whyprov::EngineOptions options;
    options.acyclicity = encoding;
    const whyprov::Engine engine = scenario.MakeEngine(options);
    whyprov::util::Rng rng(kSuiteSeed ^ 0x9u);
    const auto targets = engine.SampleAnswers(3, rng);

    double encode_total = 0;
    double solve_total = 0;
    double aux_vars = 0;
    double clauses = 0;
    for (auto target : targets) {
      whyprov::EnumerateRequest request;
      request.target = target;
      auto enumeration = engine.Enumerate(request);
      if (!enumeration.ok()) continue;
      encode_total += enumeration.value().timings().encode_seconds;
      aux_vars += static_cast<double>(
          enumeration.value().encoding().acyclicity.auxiliary_variables);
      clauses += static_cast<double>(
          enumeration.value().encoding().acyclicity.clauses);
      whyprov::util::Timer timer;
      enumeration.value().Next();  // first member: one SAT solve
      solve_total += timer.ElapsedSeconds();
    }
    state.counters["encode_s"] = encode_total;
    state.counters["first_solve_s"] = solve_total;
    state.counters["acyc_aux_vars"] = aux_vars;
    state.counters["acyc_clauses"] = clauses;
    std::printf(
        "%-14s %-14s %-20s encode=%8.4fs first-solve=%8.4fs aux-vars=%.0f "
        "clauses=%.0f\n",
        entry.scenario.c_str(), entry.database.c_str(),
        pv::AcyclicityEncodingName(encoding).c_str(), encode_total,
        solve_total, aux_vars, clauses);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "Ablation A: acyclicity encodings (transitive closure vs vertex "
      "elimination), 3 tuples per database\n\n");
  std::vector<SuiteEntry> entries = TransClosureSuite();
  // Galen D4's transitive-closure encoding exceeds the machine's memory
  // (the quadratic variable count is the point of the ablation), so the
  // sweep stops at D3.
  auto galen = GalenSuite();
  for (std::size_t i = 0; i + 1 < galen.size(); ++i) {
    entries.push_back(galen[i]);
  }
  for (const auto& entry : entries) {
    for (auto encoding : {pv::AcyclicityEncoding::kTransitiveClosure,
                          pv::AcyclicityEncoding::kVertexElimination}) {
      benchmark::RegisterBenchmark(
          ("AblationA/" + entry.scenario + "/" + entry.database + "/" +
           pv::AcyclicityEncodingName(encoding))
              .c_str(),
          BM_AcyclicityEncoding, entry, encoding)
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
