// bench_net: queries/sec and p50/p99 latency of the network serving
// tier — the wire-protocol server (net/server.h) over the C ABI
// (net/whyprov_c.h) — measured from the socket side.
//
// Each configuration evaluates one scenario database, publishes it
// through whyprov_service_create + net::Server on an ephemeral loopback
// port, and drives it with N concurrent client connections. Every
// client runs its own synchronous request loop (submit, read frames
// until the final one) so a configuration with `clients` connections
// measures the full stack: frame encode/decode, the per-connection
// reader/responder threads, ABI submission, SAT enumeration, and the
// streamed member batches flowing back through the bounded
// MemberStream. Latency is request-write to final-frame as seen by the
// client — the number a remote caller actually experiences, queue wait
// and socket time included.
//
// The workload mixes the two read verbs the way a provenance debugger
// does: mostly streaming enumerations (capped, batched member frames)
// with a SAT membership decision every few requests, cycling through
// the sampled answer targets. No deltas: the point of this benchmark is
// the serving tier's overhead and concurrency, not snapshot churn
// (bench_service covers that in-process).
//
// Usage:
//   bench_net [--requests=N] [--reps=R] [--out=PATH]
//
// CI compares the JSON against the committed BENCH_net.json baseline via
// bench/check_regression.py: rows are keyed by (scenario, database,
// clients), queries_per_second may not drop more than the
// throughput threshold, and p99_seconds may not grow more than the
// latency threshold.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "net/client.h"
#include "net/server.h"
#include "net/whyprov_c.h"
#include "util/timer.h"

namespace {

using whyprov::bench::SuiteEntry;

constexpr std::size_t kDefaultRequests = 200;
constexpr std::size_t kMaxMembersPerRequest = 8;
/// Of every 5 requests: 1 SAT decide, 4 streaming enumerations.
constexpr std::size_t kMixPeriod = 5;

struct Run {
  std::string scenario;
  std::string database;
  std::size_t clients = 0;
  std::size_t requests = 0;
  std::size_t enumerates = 0;
  std::size_t decides = 0;
  std::size_t succeeded = 0;
  std::size_t failed = 0;
  double wall_seconds = 0;
  double queries_per_second = 0;
  double p50_seconds = 0;
  double p99_seconds = 0;
};

/// The same scaled-down representatives bench_service serves, now pushed
/// through the socket. Kept small: every request pays a SAT call plus
/// two socket round-trips, and CI runs the whole suite per PR.
std::vector<SuiteEntry> NetSuite() {
  using whyprov::bench::kSuiteSeed;
  namespace scenarios = whyprov::scenarios;
  return {
      {"TransClosure", "Dbitcoin~",
       [] {
         return scenarios::MakeTransClosure(scenarios::GraphKind::kSparse,
                                            600, 900, kSuiteSeed);
       }},
      {"Doctors-1", "D1",
       [] { return scenarios::MakeDoctors(1, 400, kSuiteSeed); }},
      {"Andersen", "D1",
       [] { return scenarios::MakeAndersen(500, kSuiteSeed); }},
  };
}

double Percentile(std::vector<double> sorted_values, double q) {
  if (sorted_values.empty()) return 0;
  const std::size_t index = static_cast<std::size_t>(
      q * static_cast<double>(sorted_values.size() - 1));
  return sorted_values[index];
}

/// What one client thread reports back.
struct ClientTally {
  std::size_t enumerates = 0;
  std::size_t decides = 0;
  std::size_t succeeded = 0;
  std::size_t failed = 0;
  std::vector<double> latencies;
};

/// One connection's synchronous request loop. Offsets the target cycle
/// by the client index so concurrent connections spread across the
/// serving set instead of convoying on one plan.
void ClientLoop(std::uint16_t port, const std::vector<std::string>& targets,
                const std::vector<std::vector<std::string>>& candidates,
                std::size_t client_index, std::size_t request_count,
                ClientTally& tally) {
  auto client = whyprov::net::Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    tally.failed = request_count;
    return;
  }
  tally.latencies.reserve(request_count);
  for (std::size_t i = 0; i < request_count; ++i) {
    const std::size_t target_index = (client_index + i) % targets.size();
    whyprov::util::Timer timer;
    whyprov::util::Result<whyprov::net::Outcome> outcome =
        whyprov::util::Status::Error("unsent");
    if (i % kMixPeriod == kMixPeriod - 1 &&
        !candidates[target_index].empty()) {
      outcome = client.value().Decide(targets[target_index],
                                      candidates[target_index]);
      ++tally.decides;
    } else {
      outcome = client.value().Enumerate(targets[target_index],
                                         kMaxMembersPerRequest,
                                         /*deadline_seconds=*/0,
                                         /*stream=*/true);
      ++tally.enumerates;
    }
    tally.latencies.push_back(timer.ElapsedSeconds());
    if (outcome.ok() && outcome.value().ok()) {
      ++tally.succeeded;
    } else {
      ++tally.failed;
    }
  }
}

/// Runs `total_requests` split across `clients` concurrent connections
/// against the already-listening server; keeps the best rep.
void RunNetWorkload(std::uint16_t port, std::size_t clients,
                    const std::vector<std::string>& targets,
                    const std::vector<std::vector<std::string>>& candidates,
                    std::size_t total_requests, std::size_t reps, Run& run) {
  if (targets.empty()) return;
  for (std::size_t rep = 0; rep < std::max<std::size_t>(1, reps); ++rep) {
    std::vector<ClientTally> tallies(clients);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    const std::size_t per_client =
        std::max<std::size_t>(1, total_requests / clients);
    whyprov::util::Timer timer;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back(ClientLoop, port, std::cref(targets),
                           std::cref(candidates), c, per_client,
                           std::ref(tallies[c]));
    }
    for (std::thread& thread : threads) thread.join();
    const double wall_seconds = timer.ElapsedSeconds();

    std::size_t enumerates = 0, decides = 0, succeeded = 0, failed = 0;
    std::vector<double> latencies;
    latencies.reserve(per_client * clients);
    for (ClientTally& tally : tallies) {
      enumerates += tally.enumerates;
      decides += tally.decides;
      succeeded += tally.succeeded;
      failed += tally.failed;
      latencies.insert(latencies.end(), tally.latencies.begin(),
                       tally.latencies.end());
    }
    const double qps = wall_seconds > 0
                           ? static_cast<double>(latencies.size()) /
                                 wall_seconds
                           : 0;
    if (rep == 0 || qps > run.queries_per_second) {
      std::sort(latencies.begin(), latencies.end());
      run.requests = latencies.size();
      run.enumerates = enumerates;
      run.decides = decides;
      run.succeeded = succeeded;
      run.failed = failed;
      run.wall_seconds = wall_seconds;
      run.queries_per_second = qps;
      run.p50_seconds = Percentile(latencies, 0.50);
      run.p99_seconds = Percentile(std::move(latencies), 0.99);
    }
  }
}

void WriteJson(std::FILE* out, const std::vector<Run>& runs) {
  std::fprintf(out, "[\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& run = runs[i];
    std::fprintf(
        out,
        "  {\"scenario\": \"%s\", \"database\": \"%s\", \"clients\": %zu, "
        "\"requests\": %zu, \"enumerates\": %zu, \"decides\": %zu, "
        "\"succeeded\": %zu, \"failed\": %zu, \"wall_seconds\": %.6f, "
        "\"queries_per_second\": %.2f, \"p50_seconds\": %.6f, "
        "\"p99_seconds\": %.6f}%s\n",
        run.scenario.c_str(), run.database.c_str(), run.clients, run.requests,
        run.enumerates, run.decides, run.succeeded, run.failed,
        run.wall_seconds, run.queries_per_second, run.p50_seconds,
        run.p99_seconds, i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
}

}  // namespace

int main(int argc, char** argv) {
  whyprov::bench::BenchFlags flags;
  flags.requests = kDefaultRequests;
  flags.reps = 1;
  flags.out = "BENCH_net.json";
  if (!whyprov::bench::ParseBenchFlags(argc, argv, "bench_net", flags)) {
    return 2;
  }

  const std::vector<std::size_t> client_counts = {1, 4};
  std::vector<Run> runs;
  for (const SuiteEntry& entry : NetSuite()) {
    auto scenario = entry.make();

    // The serving set: sample the answer targets from a throwaway
    // in-process engine (the ABI deliberately has no sampling verb —
    // a remote caller brings its own targets), rendered to the text
    // form the wire carries.
    auto probe = scenario.MakeEngine();
    std::vector<std::string> targets;
    for (whyprov::datalog::FactId id :
         probe.SampleAnswers(whyprov::bench::kTuplesPerDatabase)) {
      targets.push_back(probe.FactToText(id));
    }

    // The served stack: everything from here runs behind the socket.
    whyprov_options options;
    whyprov_options_init(&options);
    options.queue_capacity = 64;
    whyprov_service* service = nullptr;
    char error_message[256];
    if (whyprov_service_create(scenario.program.ToString().c_str(),
                               scenario.database.ToString().c_str(),
                               scenario.answer_predicate.c_str(), &options,
                               &service, error_message,
                               sizeof(error_message)) != WHYPROV_OK) {
      std::fprintf(stderr, "error: cannot serve %s: %s\n",
                   entry.scenario.c_str(), error_message);
      return 1;
    }
    whyprov::net::Server server(service);
    if (auto status = server.Start(0); !status.ok()) {
      std::fprintf(stderr, "error: cannot start server for %s: %s\n",
                   entry.scenario.c_str(), status.message().c_str());
      return 1;
    }

    // One true member per target as the Decide candidate, warmed
    // through the wire itself (also primes the plan cache).
    std::vector<std::vector<std::string>> candidates(targets.size());
    {
      auto warm = whyprov::net::Client::Connect("127.0.0.1", server.port());
      if (warm.ok()) {
        for (std::size_t i = 0; i < targets.size(); ++i) {
          auto outcome = warm.value().Enumerate(targets[i], 1);
          if (outcome.ok() && outcome.value().ok() &&
              !outcome.value().final.members.empty()) {
            candidates[i] = outcome.value().final.members.front();
          }
        }
      }
    }

    for (std::size_t clients : client_counts) {
      Run run;
      run.scenario = entry.scenario;
      run.database = entry.database;
      run.clients = clients;
      RunNetWorkload(server.port(), clients, targets, candidates,
                     flags.requests, flags.reps, run);
      std::printf(
          "%-14s %-12s clients=%-2zu %8.1f q/s  p50 %.4fs  "
          "p99 %.4fs  (%zu enum / %zu decide, %zu ok / %zu failed)\n",
          run.scenario.c_str(), run.database.c_str(), run.clients,
          run.queries_per_second, run.p50_seconds, run.p99_seconds,
          run.enumerates, run.decides, run.succeeded, run.failed);
      runs.push_back(std::move(run));
    }

    server.Stop();
    whyprov_service_destroy(service);
  }

  std::FILE* out = std::fopen(flags.out.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", flags.out.c_str());
    return 1;
  }
  WriteJson(out, runs);
  std::fclose(out);
  std::printf("wrote %s\n", flags.out.c_str());
  return 0;
}
