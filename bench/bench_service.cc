// bench_service: queries/sec and p50/p99 latency of the asynchronous
// serving front door, `whyprov::Service`, under a mixed read/delta
// workload.
//
// Each configuration evaluates one scenario database, wraps the engine
// in a service, and replays a submission workload mixing the three
// serving verbs: enumerations (the bulk), SAT membership decisions, and
// ApplyDelta writes that alternately remove and restore one database
// fact (so the database is stationary across reps while plans keep
// getting selectively invalidated — the churn pattern a live deployment
// sees). Requests are admitted through the service's bounded queue; a
// full queue makes the submitter wait on the oldest in-flight ticket,
// exactly like a backpressured client.
//
// Per-request latency is admission -> completion (queue wait + execution)
// as reported by the ticket's Response; the JSON records the p50/p99
// quantiles next to the throughput so the regression gate can hold both.
//
// Usage:
//   bench_service [--requests=N] [--reps=R] [--out=PATH]
//
// CI compares the JSON against the committed BENCH_service.json baseline
// via bench/check_regression.py: queries_per_second may not drop more
// than the throughput threshold, and p99_seconds may not grow more than
// the latency threshold.

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "whyprov.h"

namespace {

using whyprov::bench::SuiteEntry;
namespace dl = whyprov::datalog;

constexpr std::size_t kDefaultRequests = 200;
constexpr std::size_t kMaxMembersPerRequest = 8;
/// Of every 20 requests: 1 delta write, 4 decides, 15 enumerations.
constexpr std::size_t kMixPeriod = 20;
constexpr std::size_t kDecidesPerPeriod = 4;

struct Run {
  std::string scenario;
  std::string database;
  /// Plan-time CNF simplification mode of the engines under test. The
  /// service bench always serves at the engine default (fast) — the key
  /// exists so rows stay addressable alongside bench_throughput's
  /// off/fast pairs in check_regression.py's row identity.
  std::string simplify = "fast";
  std::size_t threads_requested = 0;
  std::size_t threads = 0;
  std::size_t requests = 0;
  std::size_t enumerates = 0;
  std::size_t decides = 0;
  std::size_t deltas = 0;
  std::size_t succeeded = 0;
  std::size_t failed = 0;
  std::uint64_t rejected = 0;  ///< admission refusals ridden out
  double wall_seconds = 0;
  double queries_per_second = 0;
  double p50_seconds = 0;
  double p99_seconds = 0;
  /// Flood rows only (empty qos = ordinary mixed-workload row): the
  /// scheduler under test ("fair" or "fifo"), the lane this row's
  /// latency quantiles describe, and the number of flooding batch
  /// tenants. check_regression.py keys rows on these and gates the
  /// fair-vs-fifo interactive p99 ratio.
  std::string qos;
  std::string lane;
  std::size_t tenants = 0;
};

/// The same scaled-down representatives the throughput bench serves.
std::vector<SuiteEntry> ServiceSuite() {
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

/// Admits `request`, riding out a full queue by waiting on the oldest
/// unfinished ticket (the backpressured-client pattern). Counts refusals.
whyprov::Ticket SubmitWithBackpressure(whyprov::Service& service,
                                       const whyprov::Request& request,
                                       std::vector<whyprov::Ticket>& tickets,
                                       std::uint64_t& rejected) {
  while (true) {
    auto ticket = service.Submit(request);
    if (ticket.ok()) return std::move(ticket).value();
    ++rejected;
    for (const whyprov::Ticket& earlier : tickets) {
      if (earlier.valid() && !earlier.done()) {
        earlier.WaitFor(0.01);
        break;
      }
    }
  }
}

/// The mixed read/delta workload against one service.
void RunMixedWorkload(whyprov::Service& service, std::size_t total_requests,
                      std::size_t reps, Run& run) {
  // The serving set: sampled answer targets, plus one true member per
  // target as the Decide candidate (warmed through the service itself).
  const auto targets =
      service.engine().SampleAnswers(whyprov::bench::kTuplesPerDatabase);
  std::vector<std::vector<dl::Fact>> candidates(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    whyprov::EnumerateRequest warm;
    warm.target = targets[i];
    warm.max_members = 1;
    whyprov::Request request;
    request.op = warm;
    auto ticket = service.Submit(request);
    if (!ticket.ok()) continue;
    const whyprov::Response& response = ticket.value().Wait();
    if (response.status.ok() && !response.members.empty()) {
      candidates[i] = response.members.front();
    }
  }

  // The delta slice: one database fact per write, removed then restored.
  // Copied by value: database() references the current snapshot, which the
  // workload's own deltas retire mid-loop (a reference here dangles and the
  // per-rep delta count goes nondeterministic).
  const std::vector<dl::Fact> db_facts =
      service.engine().database().facts();
  const dl::Fact churn_fact =
      db_facts.empty() ? dl::Fact() : db_facts[db_facts.size() / 2];

  if (targets.empty()) return;

  for (std::size_t rep = 0; rep < std::max<std::size_t>(1, reps); ++rep) {
    std::vector<whyprov::Ticket> tickets;
    tickets.reserve(total_requests);
    std::uint64_t rejected = 0;
    bool fact_removed = false;
    std::size_t enumerates = 0, decides = 0, deltas = 0;
    whyprov::util::Timer timer;
    for (std::size_t i = 0; i < total_requests; ++i) {
      const std::size_t target_index = i % targets.size();
      whyprov::Request request;
      const std::size_t phase = i % kMixPeriod;
      if (phase == kMixPeriod - 1 && !db_facts.empty()) {
        whyprov::DeltaRequest delta;
        if (fact_removed) {
          delta.added_facts = {churn_fact};
        } else {
          delta.removed_facts = {churn_fact};
        }
        fact_removed = !fact_removed;
        request.op = std::move(delta);
        ++deltas;
      } else if (phase < kDecidesPerPeriod &&
                 !candidates[target_index].empty()) {
        whyprov::DecideRequest decide;
        decide.target = targets[target_index];
        decide.candidate = candidates[target_index];
        request.op = std::move(decide);
        ++decides;
      } else {
        whyprov::EnumerateRequest enumerate;
        enumerate.target = targets[target_index];
        enumerate.max_members = kMaxMembersPerRequest;
        request.op = std::move(enumerate);
        ++enumerates;
      }
      tickets.push_back(
          SubmitWithBackpressure(service, request, tickets, rejected));
    }

    std::size_t succeeded = 0, failed = 0;
    std::vector<double> latencies;
    latencies.reserve(tickets.size());
    for (const whyprov::Ticket& ticket : tickets) {
      const whyprov::Response& response = ticket.Wait();
      if (response.status.ok()) {
        ++succeeded;
      } else {
        ++failed;
      }
      latencies.push_back(response.queue_seconds + response.exec_seconds);
    }
    const double wall_seconds = timer.ElapsedSeconds();
    const double qps =
        wall_seconds > 0
            ? static_cast<double>(tickets.size()) / wall_seconds
            : 0;
    if (rep == 0 || qps > run.queries_per_second) {
      std::sort(latencies.begin(), latencies.end());
      run.requests = tickets.size();
      run.enumerates = enumerates;
      run.decides = decides;
      run.deltas = deltas;
      run.succeeded = succeeded;
      run.failed = failed;
      run.rejected = rejected;
      run.wall_seconds = wall_seconds;
      run.queries_per_second = qps;
      run.p50_seconds = Percentile(latencies, 0.50);
      run.p99_seconds = Percentile(std::move(latencies), 0.99);
    }
  }
}

/// The adversarial mixed-tenant flood: `kFloodBatchTenants` batch
/// tenants saturate the queue with wide enumerations while one
/// interactive tenant threads narrow point queries through the same
/// front door (4 batch submissions per interactive one, so the queue is
/// batch-dominated throughout). Per-lane latency quantiles make the QoS
/// win measurable: under FIFO the interactive p99 is queue-depth
/// execution times; with the fair scheduler the interactive lane
/// overtakes the flood. check_regression.py gates the fair/fifo
/// interactive-p99 ratio self-relatively (same run, same hardware).
constexpr std::size_t kFloodBatchTenants = 4;
/// Members per flooding enumeration: wide enough that each batch task
/// costs real SAT work (the head-of-line blocking the probe measures).
constexpr std::size_t kFloodBatchMembers = 64;

std::vector<Run> RunFloodConfiguration(const SuiteEntry& entry, bool fair,
                                       std::size_t total_requests,
                                       std::size_t reps) {
  auto scenario = entry.make();
  whyprov::ServiceOptions service_options;
  // Two workers regardless of the host: the flood must actually queue
  // (on a many-core box an all-core pool drains the queue as fast as
  // one submitter fills it and both schedulers look alike).
  service_options.num_threads = 2;
  service_options.queue_capacity = 64;
  service_options.fair_queueing = fair;
  whyprov::Service service(scenario.MakeEngine(whyprov::EngineOptions()),
                           service_options);

  const auto targets =
      service.engine().SampleAnswers(whyprov::bench::kTuplesPerDatabase);

  Run interactive;
  interactive.scenario = entry.scenario;
  interactive.database = entry.database;
  interactive.threads_requested = 2;
  interactive.threads = 2;
  interactive.qos = fair ? "fair" : "fifo";
  interactive.lane = "interactive";
  interactive.tenants = kFloodBatchTenants;
  Run batch = interactive;
  batch.lane = "batch";
  if (targets.empty()) return {interactive, batch};

  for (std::size_t rep = 0; rep < std::max<std::size_t>(1, reps); ++rep) {
    std::vector<whyprov::Ticket> tickets;
    std::vector<bool> is_interactive;
    tickets.reserve(total_requests);
    is_interactive.reserve(total_requests);
    std::uint64_t rejected = 0;
    whyprov::util::Timer timer;
    for (std::size_t i = 0; i < total_requests; ++i) {
      // Period of kFloodBatchTenants + 1: the flood, then one probe.
      const std::size_t phase = i % (kFloodBatchTenants + 1);
      const bool probe = phase == kFloodBatchTenants;
      whyprov::EnumerateRequest enumerate;
      enumerate.target = targets[i % targets.size()];
      // Wide batch enumerations vs one-member interactive probes: the
      // adversarial shape — cheap queries stuck behind expensive ones —
      // is exactly what the lanes exist for.
      enumerate.max_members = probe ? 1 : kFloodBatchMembers;
      whyprov::Request request;
      request.op = std::move(enumerate);
      request.qos_class = probe ? whyprov::qos::QosClass::kInteractive
                                : whyprov::qos::QosClass::kBatch;
      request.tenant =
          probe ? "latency-probe" : "flood-" + std::to_string(phase);
      tickets.push_back(
          SubmitWithBackpressure(service, request, tickets, rejected));
      is_interactive.push_back(probe);
    }

    std::size_t lane_requests[2] = {0, 0};
    std::size_t lane_succeeded[2] = {0, 0};
    std::size_t lane_failed[2] = {0, 0};
    std::vector<double> lane_latencies[2];
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      const whyprov::Response& response = tickets[i].Wait();
      const std::size_t lane = is_interactive[i] ? 0 : 1;
      ++lane_requests[lane];
      ++(response.status.ok() ? lane_succeeded : lane_failed)[lane];
      lane_latencies[lane].push_back(response.queue_seconds +
                                     response.exec_seconds);
    }
    const double wall_seconds = timer.ElapsedSeconds();
    // Best rep = the one with the best overall throughput (the same
    // selection rule as the mixed workload, applied to both lanes of
    // the rep together so the two rows describe one run).
    const double qps =
        wall_seconds > 0
            ? static_cast<double>(tickets.size()) / wall_seconds
            : 0;
    const double best_so_far =
        interactive.wall_seconds > 0
            ? static_cast<double>(interactive.requests + batch.requests) /
                  interactive.wall_seconds
            : 0;
    if (rep == 0 || qps > best_so_far) {
      Run* rows[2] = {&interactive, &batch};
      for (std::size_t lane = 0; lane < 2; ++lane) {
        Run& row = *rows[lane];
        std::sort(lane_latencies[lane].begin(), lane_latencies[lane].end());
        row.requests = lane_requests[lane];
        row.enumerates = lane_requests[lane];
        row.succeeded = lane_succeeded[lane];
        row.failed = lane_failed[lane];
        row.rejected = rejected;
        row.wall_seconds = wall_seconds;
        row.queries_per_second =
            wall_seconds > 0
                ? static_cast<double>(lane_requests[lane]) / wall_seconds
                : 0;
        row.p50_seconds = Percentile(lane_latencies[lane], 0.50);
        row.p99_seconds =
            Percentile(std::move(lane_latencies[lane]), 0.99);
      }
    }
  }
  return {interactive, batch};
}

Run RunConfiguration(const SuiteEntry& entry, std::size_t threads,
                     std::size_t total_requests, std::size_t reps) {
  auto scenario = entry.make();
  whyprov::EngineOptions engine_options;
  whyprov::ServiceOptions service_options;
  service_options.num_threads = threads;
  service_options.queue_capacity = 64;

  Run run;
  run.scenario = entry.scenario;
  run.database = entry.database;
  run.threads_requested = threads;
  run.threads = whyprov::util::ResolveThreadCount(threads);
  whyprov::Service service(scenario.MakeEngine(engine_options),
                           service_options);
  RunMixedWorkload(service, total_requests, reps, run);
  return run;
}

void WriteJson(std::FILE* out, const std::vector<Run>& runs) {
  std::fprintf(out, "[\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& run = runs[i];
    // Flood rows carry the extra identity fields the regression gate
    // keys on; ordinary rows keep the historical schema.
    std::string qos_fields;
    if (!run.qos.empty()) {
      qos_fields = "\"qos\": \"" + run.qos + "\", \"lane\": \"" + run.lane +
                   "\", \"tenants\": " + std::to_string(run.tenants) + ", ";
    }
    std::fprintf(
        out,
        "  {\"scenario\": \"%s\", \"database\": \"%s\", "
        "\"simplify\": \"%s\", %s"
        "\"threads_requested\": %zu, \"threads\": %zu, "
        "\"requests\": %zu, \"enumerates\": %zu, \"decides\": %zu, "
        "\"deltas\": %zu, \"succeeded\": %zu, \"failed\": %zu, "
        "\"rejected\": %llu, \"wall_seconds\": %.6f, "
        "\"queries_per_second\": %.2f, \"p50_seconds\": %.6f, "
        "\"p99_seconds\": %.6f}%s\n",
        run.scenario.c_str(), run.database.c_str(), run.simplify.c_str(),
        qos_fields.c_str(), run.threads_requested,
        run.threads, run.requests, run.enumerates, run.decides,
        run.deltas, run.succeeded, run.failed,
        static_cast<unsigned long long>(run.rejected), run.wall_seconds,
        run.queries_per_second, run.p50_seconds, run.p99_seconds,
        i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
}

}  // namespace

int main(int argc, char** argv) {
  whyprov::bench::BenchFlags flags;
  flags.requests = kDefaultRequests;
  flags.reps = 1;
  flags.out = "BENCH_service.json";
  if (!whyprov::bench::ParseBenchFlags(argc, argv, "bench_service", flags)) {
    return 2;
  }

  // Configurations per scenario: 1 worker thread and one per core.
  std::vector<Run> runs;
  for (const SuiteEntry& entry : ServiceSuite()) {
    for (const std::size_t threads : {1, 0}) {
      runs.push_back(RunConfiguration(entry, threads, flags.requests,
                                      flags.reps));
      const Run& run = runs.back();
      std::printf(
          "%-14s %-12s threads=%-2zu %8.1f q/s  p50 %.4fs  "
          "p99 %.4fs  (%zu enum / %zu decide / %zu delta, %zu ok / "
          "%zu failed)\n",
          run.scenario.c_str(), run.database.c_str(), run.threads,
          run.queries_per_second, run.p50_seconds, run.p99_seconds,
          run.enumerates, run.decides, run.deltas, run.succeeded, run.failed);
    }
  }

  // The QoS flood: one scenario, fair scheduler vs plain FIFO, per-lane
  // rows. TransClosure's enumerations are expensive enough that an
  // interactive probe stuck behind a FIFO queue of them measures real
  // head-of-line blocking; the gate is self-relative so one scenario
  // suffices.
  const SuiteEntry flood_entry{"TransClosure", "Dbitcoin~", [] {
    return whyprov::scenarios::MakeTransClosure(
        whyprov::scenarios::GraphKind::kSparse, 600, 900,
        whyprov::bench::kSuiteSeed);
  }};
  for (const bool fair : {true, false}) {
    for (Run& run : RunFloodConfiguration(flood_entry, fair, flags.requests,
                                          flags.reps)) {
      std::printf(
          "%-14s %-12s flood qos=%-4s lane=%-11s %8.1f q/s  p50 %.4fs  "
          "p99 %.4fs  (%zu ok / %zu failed)\n",
          run.scenario.c_str(), run.database.c_str(), run.qos.c_str(),
          run.lane.c_str(), run.queries_per_second, run.p50_seconds,
          run.p99_seconds, run.succeeded, run.failed);
      runs.push_back(std::move(run));
    }
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
