// bench_durability: the cost of the durability tier, measured two ways.
//
//   throughput:  committed-delta throughput through `whyprov::Service`
//                with the write-ahead log on versus off (same scenario,
//                same alternating remove/restore churn), including the
//                periodic checkpoints the WAL-on configuration writes.
//                `deltas_per_second` is the headline; check_regression.py
//                --min-wal-throughput gates the WAL-on rate at >= 0.75x
//                the WAL-off rate *within the same run* (self-relative,
//                so the gate holds on any hardware).
//
//   recovery:    wall time to rebuild a serving stack from a data
//                directory whose WAL tail holds k committed deltas
//                (checkpointing disabled so every record replays — the
//                worst case). `build_seconds` is the same engine built
//                without a data directory, so the difference is the
//                replay share; `recovery_seconds` trends linearly in k
//                because the log is replayed through the normal
//                ApplyDelta path.
//
// Usage:
//   bench_durability [--requests=N] [--reps=R] [--out=PATH]
//
//   --requests=N  deltas per throughput configuration (default 200)
//   --reps=R      repetitions; the best (max-throughput / min-time) rep
//                 is reported (default 3)
//   --out=PATH    output path (default BENCH_durability.json)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "util/timer.h"
#include "whyprov.h"

namespace {

using whyprov::bench::SuiteEntry;
namespace dl = whyprov::datalog;

constexpr std::size_t kDefaultDeltas = 200;
const std::size_t kTailLengths[] = {32, 128, 512};

struct Run {
  std::string scenario;
  std::string database;
  std::string wal;  // "on" or "off"
  std::size_t deltas = 0;
  std::size_t tail_records = 0;  ///< recovery rows only
  double wall_seconds = 0;
  double deltas_per_second = 0;
  double build_seconds = 0;     ///< recovery rows: engine without data dir
  double recovery_seconds = 0;  ///< recovery rows: engine + replayed tail
  std::uint64_t wal_appends = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t checkpoints_written = 0;
  std::uint64_t replayed_deltas = 0;
  bool recovery_row = false;
};

/// Small representatives (the throughput bench's scaled databases): the
/// WAL cost being measured is per-delta framing + I/O, not evaluation.
std::vector<SuiteEntry> DurabilitySuite() {
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
  };
}

/// A fresh empty directory under the system temp dir (recreated per use
/// so every configuration starts from an empty log).
std::string FreshDataDir(const std::string& tag) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "whyprov_bench_durability" /
      tag;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir.string();
}

/// Applies `count` deltas (alternating remove/restore of one database
/// fact) through the service one at a time and returns the wall time.
/// Takes the fact by value: references into the engine's snapshot die
/// at the first applied delta.
double ChurnDeltas(whyprov::Service& service, const dl::Fact churn_fact,
                   std::size_t count) {
  bool fact_removed = false;
  whyprov::util::Timer timer;
  for (std::size_t i = 0; i < count; ++i) {
    whyprov::DeltaRequest delta;
    if (fact_removed) {
      delta.added_facts = {churn_fact};
    } else {
      delta.removed_facts = {churn_fact};
    }
    fact_removed = !fact_removed;
    whyprov::Request request;
    request.op = std::move(delta);
    auto ticket = service.Submit(request);
    if (!ticket.ok()) {
      std::fprintf(stderr, "error: delta submit failed: %s\n",
                   ticket.status().message().c_str());
      std::exit(1);
    }
    (void)ticket.value().Wait();
  }
  return timer.ElapsedSeconds();
}

Run MeasureThroughput(const SuiteEntry& entry, const std::string& wal_mode,
                      std::size_t deltas, std::size_t reps) {
  const bool wal_on = wal_mode == "on";
  Run run;
  run.scenario = entry.scenario;
  run.database = entry.database;
  run.wal = wal_mode;
  run.deltas = deltas;

  for (std::size_t rep = 0; rep < std::max<std::size_t>(1, reps); ++rep) {
    auto scenario = entry.make();
    whyprov::EngineOptions engine_options;
    if (wal_on) {
      engine_options.data_dir =
          FreshDataDir(entry.scenario + "_tp_" + std::to_string(rep));
      // A production-like cadence: every checkpoint costs two fsyncs
      // (tmp file + directory rename), so at the default interval of
      // 32 the checkpoint share of a sub-second measurement window is
      // pure filesystem jitter. 128 keeps >= 3 checkpoints in every
      // measured run while letting the per-delta WAL cost dominate.
      engine_options.checkpoint_interval = 128;
    }
    whyprov::ServiceOptions service_options;
    whyprov::Service service(scenario.MakeEngine(engine_options),
                             service_options);
    if (!service.durability_status().ok()) {
      std::fprintf(stderr, "error: durable store open failed: %s\n",
                   service.durability_status().message().c_str());
      std::exit(1);
    }
    const std::vector<dl::Fact>& db_facts = service.engine().database().facts();
    if (db_facts.empty()) continue;
    const dl::Fact churn_fact = db_facts[db_facts.size() / 2];

    const double wall_seconds = ChurnDeltas(service, churn_fact, deltas);
    const double rate =
        wall_seconds > 0 ? static_cast<double>(deltas) / wall_seconds : 0;
    if (rep == 0 || rate > run.deltas_per_second) {
      run.wall_seconds = wall_seconds;
      run.deltas_per_second = rate;
      const whyprov::ServiceStats stats = service.stats();
      run.wal_appends = stats.wal_appends;
      run.wal_bytes = stats.wal_bytes;
      run.checkpoints_written = stats.checkpoints_written;
    }
  }
  return run;
}

Run MeasureRecovery(const SuiteEntry& entry, std::size_t tail_records,
                    std::size_t reps) {
  Run run;
  run.scenario = entry.scenario;
  run.database = entry.database;
  run.wal = "on";
  run.tail_records = tail_records;
  run.recovery_row = true;

  // Populate one data directory with a tail of `tail_records` committed
  // deltas; checkpointing off, so recovery replays every record.
  const std::string data_dir =
      FreshDataDir(entry.scenario + "_rec_" + std::to_string(tail_records));
  whyprov::EngineOptions durable_options;
  durable_options.data_dir = data_dir;
  durable_options.checkpoint_interval = 0;
  {
    auto scenario = entry.make();
    whyprov::Service service(scenario.MakeEngine(durable_options),
                             whyprov::ServiceOptions());
    const std::vector<dl::Fact>& db_facts = service.engine().database().facts();
    if (db_facts.empty()) return run;
    ChurnDeltas(service, db_facts[db_facts.size() / 2], tail_records);
  }

  for (std::size_t rep = 0; rep < std::max<std::size_t>(1, reps); ++rep) {
    // Baseline: the same engine with no data directory to recover.
    auto scenario = entry.make();
    whyprov::util::Timer timer;
    {
      whyprov::EngineOptions cold_options;
      whyprov::Service service(scenario.MakeEngine(cold_options),
                               whyprov::ServiceOptions());
      const double build = timer.ElapsedSeconds();
      if (rep == 0 || build < run.build_seconds) run.build_seconds = build;
    }

    // Recovery: the same engine plus the replayed WAL tail.
    auto again = entry.make();
    timer.Reset();
    whyprov::Service recovered(again.MakeEngine(durable_options),
                               whyprov::ServiceOptions());
    const double recovery = timer.ElapsedSeconds();
    const whyprov::ServiceStats stats = recovered.stats();
    if (stats.recovery_replayed_deltas != tail_records) {
      std::fprintf(stderr,
                   "error: recovery replayed %llu of %zu logged deltas\n",
                   static_cast<unsigned long long>(
                       stats.recovery_replayed_deltas),
                   tail_records);
      std::exit(1);
    }
    if (rep == 0 || recovery < run.recovery_seconds) {
      run.recovery_seconds = recovery;
      run.replayed_deltas = stats.recovery_replayed_deltas;
    }
  }
  return run;
}

void WriteJson(std::FILE* out, const std::vector<Run>& runs) {
  std::fprintf(out, "[\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& run = runs[i];
    if (run.recovery_row) {
      std::fprintf(
          out,
          "  {\"scenario\": \"%s\", \"database\": \"%s\", \"wal\": \"%s\", "
          "\"tail_records\": %zu, \"build_seconds\": %.6f, "
          "\"recovery_seconds\": %.6f, \"replayed_deltas\": %llu}%s\n",
          run.scenario.c_str(), run.database.c_str(), run.wal.c_str(),
          run.tail_records, run.build_seconds, run.recovery_seconds,
          static_cast<unsigned long long>(run.replayed_deltas),
          i + 1 < runs.size() ? "," : "");
    } else {
      std::fprintf(
          out,
          "  {\"scenario\": \"%s\", \"database\": \"%s\", \"wal\": \"%s\", "
          "\"deltas\": %zu, \"wall_seconds\": %.6f, "
          "\"deltas_per_second\": %.2f, \"wal_appends\": %llu, "
          "\"wal_bytes\": %llu, \"checkpoints_written\": %llu}%s\n",
          run.scenario.c_str(), run.database.c_str(), run.wal.c_str(),
          run.deltas, run.wall_seconds, run.deltas_per_second,
          static_cast<unsigned long long>(run.wal_appends),
          static_cast<unsigned long long>(run.wal_bytes),
          static_cast<unsigned long long>(run.checkpoints_written),
          i + 1 < runs.size() ? "," : "");
    }
  }
  std::fprintf(out, "]\n");
}

}  // namespace

int main(int argc, char** argv) {
  whyprov::bench::BenchFlags flags;
  flags.requests = kDefaultDeltas;
  flags.reps = 3;
  flags.out = "BENCH_durability.json";
  if (!whyprov::bench::ParseBenchFlags(argc, argv, "bench_durability",
                                       flags)) {
    return 2;
  }

  std::vector<Run> runs;
  for (const SuiteEntry& entry : DurabilitySuite()) {
    for (const char* wal_mode : {"off", "on"}) {
      Run run = MeasureThroughput(entry, wal_mode, flags.requests, flags.reps);
      std::printf(
          "%-14s %-12s wal=%-3s  %zu deltas in %8.5fs  %10.2f deltas/s  "
          "(%llu appends, %llu bytes, %llu checkpoints)\n",
          run.scenario.c_str(), run.database.c_str(), run.wal.c_str(),
          run.deltas, run.wall_seconds, run.deltas_per_second,
          static_cast<unsigned long long>(run.wal_appends),
          static_cast<unsigned long long>(run.wal_bytes),
          static_cast<unsigned long long>(run.checkpoints_written));
      runs.push_back(std::move(run));
    }
    for (const std::size_t tail : kTailLengths) {
      Run run = MeasureRecovery(entry, tail, flags.reps);
      std::printf(
          "%-14s %-12s recovery tail=%-4zu build %8.5fs  recover %8.5fs  "
          "(%llu replayed)\n",
          run.scenario.c_str(), run.database.c_str(), run.tail_records,
          run.build_seconds, run.recovery_seconds,
          static_cast<unsigned long long>(run.replayed_deltas));
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
