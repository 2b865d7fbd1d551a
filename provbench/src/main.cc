// provbench: the why-provenance serving benchmark.
//
//   provbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--scratch DIR] [--git-sha SHA]
//
// Each workload serves one generated scenario from an in-process
// net::Server over whyprov_service_create (one shard, default engine
// options, default worker count) and drives it over loopback with the
// public net::Client, using at most nproc threads and connections.
//
// --trace 0 measures end to end:
//   * set-up (service create + Server::Start + one warm-up Enumerate per
//     hot target), repeated and reported as the median;
//   * then kRounds rounds, each of:
//   * a closed-loop phase (each connection sends its next request when
//     the previous final frame arrived) that gives qps;
//   * an open-loop phase at the workload's fixed offered rate, where each
//     request is timed from its due time, so a stall is charged to the
//     requests queued behind it; every read latency comes from here;
//   * on the probe workloads, a sub-phase where the writer alone sends
//     deltas at its own rate (on churn it writes beside the readers).
//   Each figure is the median of its per-round values.
// --trace 1 replays the read mix three ways — (A) in-process at one
// thread through the engine's public calls, (B) Service::Submit ->
// Ticket::Wait, (C) over the wire — then closure-edge remove/restore
// pairs in process, with spans around each call, and reports per-layer
// times and counts plus the tracing overhead.
//
// Every answer is checked against an in-process oracle engine. The last
// line of stdout is one JSON object: correct, attempted, failed, metrics.

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "net/client.h"
#include "net/server.h"
#include "net/whyprov_c.h"
#include "oracle.h"
#include "service/service.h"
#include "storage/durable_store.h"
#include "trace.h"
#include "transport.h"
#include "workload.h"

namespace provbench {
namespace {

namespace wp = whyprov;
namespace fs = std::filesystem;

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 9;
/// Share of --seconds the closed loop gets; the open loop gets the rest,
/// less the probe writer's sub-phase.
constexpr double kClosedShare = 0.3;
/// The probe writer's sub-phases last for at least this many deltas in
/// all, and at least kDeltaShare of --seconds; but at most half of it.
constexpr double kDeltaSamples = 100;
constexpr double kDeltaShare = 0.15;
/// The traced run's closure-edge replay makes at least this many
/// remove/restore pairs, so the WAL reaches a checkpoint.
constexpr std::size_t kMinEdgePairs = 17;
/// Checkpoint interval of the WAL (the serving default, stated in output).
constexpr std::size_t kCheckpointInterval = 32;

struct Flags {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 45;
  int trace = 0;
  std::string scratch = ".bench_build/provbench/scratch";
  std::string git_sha = "unknown";
};

bool ParseFlags(int argc, char** argv, Flags& flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "provbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      flags.workload = value;
    } else if (flag == "--seed") {
      flags.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      flags.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      flags.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--scratch") {
      flags.scratch = value;
    } else if (flag == "--git-sha") {
      flags.git_sha = value;
    } else {
      std::fprintf(stderr, "provbench: unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "provbench: bad value for %s: %s\n", flag.c_str(),
                   value.c_str());
      return false;
    }
  }
  if (flags.seconds <= 0 || (flags.trace != 0 && flags.trace != 1)) {
    std::fprintf(stderr, "provbench: need --seconds > 0 and --trace 0|1\n");
    return false;
  }
  return true;
}

std::size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(2, CPU_COUNT(&set));
  }
  return std::max(2u, std::thread::hardware_concurrency());
}

/// Returns freed heap to the system and restarts the peak resident set
/// from the current one, so rss_mb leaves out the workload generator's
/// scratch engine.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

// --- the served stack ---------------------------------------------------------

/// One whyprov_service behind one net::Server.
class Served {
 public:
  Served() = default;
  ~Served() {
    if (server_ != nullptr) server_->Stop();
    whyprov_service_destroy(service_);
  }
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;

  /// Creates and starts the stack; `data_dir` empty = memory-only.
  wp::util::Status Start(const Workload& workload, const std::string& data_dir) {
    whyprov_options options;
    whyprov_options_init(&options);
    options.num_shards = 1;
    if (!data_dir.empty()) {
      options.data_dir = data_dir.c_str();
      options.wal_fsync = 0;
      options.checkpoint_interval = kCheckpointInterval;
    }
    char error[256] = "";
    if (whyprov_service_create(workload.program_text.c_str(),
                               workload.database_text.c_str(),
                               workload.answer_predicate.c_str(), &options,
                               &service_, error, sizeof(error)) != WHYPROV_OK) {
      return wp::util::Status::Error(std::string("service create: ") + error);
    }
    server_ = std::make_unique<wp::net::Server>(service_);
    return server_->Start(0);
  }

  std::uint16_t port() const { return server_->port(); }

 private:
  whyprov_service* service_ = nullptr;
  std::unique_ptr<wp::net::Server> server_;
};

/// Creates a fresh data directory for one stack (churn only).
std::string FreshDataDir(const Workload& workload, const std::string& scratch,
                         const std::string& name) {
  if (!workload.spec->wal) return "";
  const fs::path dir = fs::path(scratch) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Starts a stack and warms it: one Enumerate per warm target. Returns
/// the seconds that took (the set-up time).
wp::util::Result<double> SetUp(const Workload& workload,
                               const std::string& data_dir,
                               std::unique_ptr<Served>& served) {
  const double start = Now();
  served = std::make_unique<Served>();
  if (auto status = served->Start(workload, data_dir); !status.ok()) {
    return status;
  }
  auto client = wp::net::Client::Connect("127.0.0.1", served->port());
  if (!client.ok()) return client.status();
  for (std::size_t i = 0; i < workload.WarmTargets(); ++i) {
    auto outcome = client.value().Enumerate(
        workload.targets[i], workload.spec->enumerate_cap,
        kRequestDeadlineSeconds, /*stream=*/true, /*batch_size=*/1);
    if (!outcome.ok() || !outcome.value().ok()) {
      return wp::util::Status::Error("warm-up of " + workload.targets[i] +
                                     " failed");
    }
  }
  return Now() - start;
}

// --- load generation ----------------------------------------------------------

/// One answered request: when it was due, its latency and, for an
/// Enumerate that streamed a member, its first-member delay (ms).
struct Sample {
  Op op;
  double due;
  double ms;
  double ttfm_ms;  ///< < 0 when no member arrived
};

/// What one or more connections saw.
struct Tally {
  std::vector<Record> records;
  std::vector<Sample> samples;
  std::vector<double> latency_ms[4];  ///< per Op, from due time
  std::vector<double> all_ms;         ///< every answered request
  std::vector<double> lateness_periods;  ///< (send - due) / period
  std::vector<double> lateness_ms;
  std::vector<double> queue_ms;
  std::vector<double> exec_ms;
  std::size_t attempted = 0;
  std::size_t answered = 0;  ///< OK, or NOT_FOUND for the oracle to judge
  std::size_t refused = 0;
  std::size_t deadline_missed = 0;
  std::size_t failed = 0;  ///< any other error, refusals and deadlines too
  std::size_t bytes = 0;
  std::size_t frames = 0;

  /// Records one timed call; `due` is when it should have been sent.
  void Add(const CallResult& call, double due, double period) {
    Keep(call);
    ++attempted;
    bytes += call.bytes;
    frames += call.frames;
    const std::uint8_t status = call.record.outcome.status;
    if (status == WHYPROV_OK || status == WHYPROV_NOT_FOUND) {
      ++answered;
      const double ms = (call.end - due) * 1e3;
      latency_ms[static_cast<int>(call.record.request.op)].push_back(ms);
      all_ms.push_back(ms);
      samples.push_back(Sample{
          call.record.request.op, due, ms,
          call.first_member > 0 ? (call.first_member - due) * 1e3 : -1.0});
      queue_ms.push_back(call.queue_seconds * 1e3);
      exec_ms.push_back(call.exec_seconds * 1e3);
    } else {
      ++failed;
      if (status == WHYPROV_RESOURCE_EXHAUSTED) ++refused;
      if (status == WHYPROV_DEADLINE_EXCEEDED) ++deadline_missed;
    }
    if (period > 0) {
      lateness_ms.push_back((call.send - due) * 1e3);
      lateness_periods.push_back((call.send - due) / period);
    }
  }

  /// Keeps `call` for the oracle only.
  void Keep(const CallResult& call) {
    records.push_back(call.record);
    records.back().send = call.send;
    records.back().end = call.end;
  }

  void Merge(Tally&& other) {
    auto append = [](auto& into, auto& from) {
      into.insert(into.end(), std::make_move_iterator(from.begin()),
                  std::make_move_iterator(from.end()));
    };
    append(records, other.records);
    append(samples, other.samples);
    for (int op = 0; op < 4; ++op) append(latency_ms[op], other.latency_ms[op]);
    append(all_ms, other.all_ms);
    append(lateness_periods, other.lateness_periods);
    append(lateness_ms, other.lateness_ms);
    append(queue_ms, other.queue_ms);
    append(exec_ms, other.exec_ms);
    attempted += other.attempted;
    answered += other.answered;
    refused += other.refused;
    deadline_missed += other.deadline_missed;
    failed += other.failed;
    bytes += other.bytes;
    frames += other.frames;
  }

  const std::vector<double>& of(Op op) const {
    return latency_ms[static_cast<int>(op)];
  }
};

/// A --trace 0 run alternates its phases in this many rounds, and qps and
/// the read p50s are medians of their per-round values. So each figure samples the whole run, and a stretch
/// the host spent elsewhere moves one round rather than the result.
constexpr std::size_t kRounds = 9;

/// The q-quantile of `op`'s latencies (first-member delays when `ttfm`).
double PhasePercentile(const Tally& tally, Op op, bool ttfm, double q) {
  std::vector<double> values;
  for (const Sample& sample : tally.samples) {
    if (sample.op != op || (ttfm && sample.ttfm_ms < 0)) continue;
    values.push_back(ttfm ? sample.ttfm_ms : sample.ms);
  }
  return Percentile(std::move(values), q);
}

/// Answered requests per second completed in [start, start + seconds).
double PhaseRate(const Tally& tally, double start, double seconds) {
  std::size_t done = 0;
  for (const Sample& sample : tally.samples) {
    const double end = sample.due + sample.ms / 1e3;
    if (end >= start && end < start + seconds) ++done;
  }
  return static_cast<double>(done) / seconds;
}

using CallerFactory = std::function<std::unique_ptr<Caller>(std::size_t)>;

/// The writer's position in its delta sequence, shared across phases so
/// deltas stay strict remove/restore (or add/remove) pairs.
struct Writer {
  explicit Writer(bool edges) : edges(edges) {}
  bool edges;  ///< closure edges, else the probe fact
  std::uint64_t next = 0;
  Request Take() {
    Request request;
    request.op = Op::kDelta;
    request.delta = next++;
    request.edge = edges;
    return request;
  }
  bool mid_pair() const { return next % 2 == 1; }
};

/// Runs `threads` connections, each with its own caller, and merges
/// their tallies. Returns the wall time.
double RunThreads(std::size_t threads, const CallerFactory& make,
                  const std::function<void(std::size_t, Caller&, Tally&)>& body,
                  Tally& total) {
  std::vector<Tally> tallies(threads);
  std::vector<std::unique_ptr<Caller>> callers;
  for (std::size_t c = 0; c < threads; ++c) callers.push_back(make(c));
  const double start = Now();
  {
    std::vector<std::jthread> workers;
    for (std::size_t c = 0; c < threads; ++c) {
      workers.emplace_back(
          [&, c] { body(c, *callers[c], tallies[c]); });
    }
  }
  const double wall = Now() - start;
  for (Tally& tally : tallies) total.Merge(std::move(tally));
  return wall;
}

void SleepUntil(double when) {
  const auto target = Clock::time_point(std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(when)));
  std::this_thread::sleep_until(target);
}

/// The writer connection: deltas at the workload's write rate, each
/// timed from its due time (so the write load is the same whatever the
/// deltas cost). A pair left open at the end is completed, kept for the
/// oracle but not timed.
void RunWriter(const Workload& workload, Caller& caller, Writer& writer,
               double start, double end, Tally& tally) {
  const double period = 1.0 / workload.spec->write_rate;
  for (double due = start; due < end; due += period) {
    SleepUntil(due);
    tally.Add(caller.Call(writer.Take()), due, period);
  }
  if (writer.mid_pair()) tally.Keep(caller.Call(writer.Take()));
}

/// Closed loop: every connection sends its next request when the
/// previous one completed. With a `writer`, connection 0 writes at the
/// workload's write rate instead. Returns the wall time.
double RunClosed(const Workload& workload, const CallerFactory& make,
                 std::size_t connections, double seconds, std::uint64_t phase,
                 Writer* writer, Tally& tally) {
  const std::size_t writers = writer != nullptr ? 1 : 0;
  const std::size_t readers = connections - writers;
  const double end = Now() + seconds;
  return RunThreads(
      connections, make,
      [&](std::size_t c, Caller& caller, Tally& mine) {
        if (c < writers) {
          RunWriter(workload, caller, *writer, Now(), end, mine);
          return;
        }
        ReaderStream stream(workload, phase, c - writers, readers);
        while (Now() < end) {
          const CallResult call = caller.Call(stream.Next());
          mine.Add(call, call.send, 0);
        }
      },
      tally);
}

/// Open loop: the readers share the workload's read rate on evenly
/// staggered schedules (with a `writer`, connection 0 writes at the
/// write rate instead of reading). A request whose predecessor is still
/// outstanding at its due time is sent on completion and timed from its
/// due time. Returns the first due time.
double RunOpen(const Workload& workload, const CallerFactory& make,
               std::size_t connections, double seconds, std::uint64_t phase,
               Writer* writer, Tally& tally) {
  const std::size_t writers = writer != nullptr ? 1 : 0;
  const std::size_t readers = connections - writers;
  const double start = Now() + 0.02;
  const double end = start + seconds;
  RunThreads(
      connections, make,
      [&](std::size_t c, Caller& caller, Tally& mine) {
        if (c < writers) {
          RunWriter(workload, caller, *writer, start, end, mine);
          return;
        }
        const std::size_t r = c - writers;
        const double period =
            static_cast<double>(readers) / workload.spec->read_rate;
        ReaderStream stream(workload, phase, r, readers);
        for (double due = start + static_cast<double>(r) /
                                      workload.spec->read_rate;
             due < end; due += period) {
          SleepUntil(due);
          mine.Add(caller.Call(stream.Next()), due, period);
        }
      },
      tally);
  return start;
}

/// The probe writer's own sub-phase: its connection alone, at the write
/// rate, so no read queues behind a delta and no delta behind a read.
void RunDeltas(const Workload& workload, const CallerFactory& make,
               double seconds, Writer& writer, Tally& tally) {
  const double start = Now() + 0.02;
  RunThreads(
      1, make,
      [&](std::size_t, Caller& caller, Tally& mine) {
        RunWriter(workload, caller, writer, start, start + seconds, mine);
      },
      tally);
}

CallerFactory WireFactory(const Workload& workload, std::uint16_t port,
                          std::vector<std::unique_ptr<Tracer>>* tracers) {
  return [&workload, port, tracers](std::size_t) -> std::unique_ptr<Caller> {
    auto client = wp::net::Client::Connect("127.0.0.1", port);
    if (!client.ok()) {
      std::fprintf(stderr, "provbench: connect: %s\n",
                   client.status().message().c_str());
      std::exit(1);
    }
    Tracer* tracer = nullptr;
    if (tracers != nullptr) {
      tracers->push_back(std::make_unique<Tracer>());
      tracer = tracers->back().get();
    }
    return std::make_unique<WireCaller>(workload, std::move(client).value(),
                                        tracer);
  };
}

// --- output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer), "%s\"%s\": {\"value\": %.10g, "
                  "\"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    json += buffer;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// The host header: one line of JSON that every output starts with.
void PrintHeader(const Flags& flags, const Workload& workload,
                 std::size_t nproc) {
  const Spec& spec = *workload.spec;
  std::printf(
      "host {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %zu, \"connections\": %zu, "
      "\"server_workers\": %zu, \"compiler\": \"%s\", \"build_type\": "
      "\"%s\", \"git_sha\": \"%s\", \"targets\": %zu, \"read_rate\": %g, "
      "\"write_rate\": %g, \"enumerate_cap\": %u, "
      "\"propagations_per_target\": %.1f, \"writes\": \"%s\", "
      "\"flush\": \"%s\"}\n",
      spec.name, static_cast<unsigned long long>(flags.seed), flags.seconds,
      flags.trace, nproc, nproc, nproc, Compiler().c_str(),
      PROVBENCH_BUILD_TYPE, flags.git_sha.c_str(), workload.targets.size(),
      spec.read_rate, spec.write_rate, spec.enumerate_cap,
      std::accumulate(workload.work.begin(), workload.work.end(), 0.0) /
          static_cast<double>(std::max<std::size_t>(1, workload.work.size())),
      spec.churn ? "remove/restore closure edges beside the reads"
                 : "add/remove a probe fact, writer alone",
      spec.wal ? "WAL on, fsync off, checkpoint every 32 deltas"
               : "memory-only (no WAL)");
}

/// One informational line per phase: sample counts, errors, and how late
/// the open-loop generator ran — flagged as behind when more than one
/// request in twenty went out over a full period late.
void PrintPhase(const char* name, const Tally& tally, double wall) {
  const double late_p99 = Percentile(tally.lateness_ms, 0.99);
  const bool behind = Percentile(tally.lateness_periods, 0.95) > 1.0;
  std::printf(
      "phase {\"phase\": \"%s\", \"wall_s\": %.3f, \"attempted\": %zu, "
      "\"answered\": %zu, \"refused\": %zu, \"deadline_missed\": %zu, "
      "\"failed\": %zu, \"error_rate\": %.6f, \"enumerates\": %zu, "
      "\"decides\": %zu, \"explains\": %zu, \"deltas\": %zu, "
      "\"lateness_p99_ms\": %.3f, \"generator_behind\": %s}\n",
      name, wall, tally.attempted, tally.answered, tally.refused,
      tally.deadline_missed, tally.failed,
      tally.attempted == 0 ? 0.0
                           : static_cast<double>(tally.failed) /
                                 static_cast<double>(tally.attempted),
      tally.of(Op::kEnumerate).size(), tally.of(Op::kDecide).size(),
      tally.of(Op::kExplain).size(), tally.of(Op::kDelta).size(), late_p99,
      behind ? "true" : "false");
  if (behind) {
    std::fprintf(stderr,
                 "provbench: WARNING: the %s generator fell behind its "
                 "schedule (lateness p99 %.1f ms)\n",
                 name, late_p99);
  }
}

// --- runs ---------------------------------------------------------------------

struct Context {
  Flags flags;
  std::size_t nproc = 0;
  std::string scratch;
  Workload workload;
  std::unique_ptr<Oracle> oracle;  ///< at the base version until Verify
};

/// Builds a fresh oracle at the base version for `workload`.
std::unique_ptr<Oracle> FreshOracle(const Workload& workload) {
  auto oracle = Oracle::Create(workload);
  if (!oracle.ok()) {
    std::fprintf(stderr, "provbench: oracle: %s\n",
                 oracle.status().message().c_str());
    std::exit(1);
  }
  oracle.value()->Reserve(workload.targets.size());
  return std::move(oracle).value();
}

/// Repeats the set-up, keeping the last stack; returns the set-up times.
std::vector<double> SetUpRepeatedly(Context& ctx, int reps,
                                    std::unique_ptr<Served>& served) {
  std::vector<double> times;
  for (int rep = 0; rep < reps; ++rep) {
    served.reset();
    const std::string dir =
        FreshDataDir(ctx.workload, ctx.scratch, "wal-" + std::to_string(rep));
    auto seconds = SetUp(ctx.workload, dir, served);
    if (!seconds.ok()) {
      std::fprintf(stderr, "provbench: set-up: %s\n",
                   seconds.status().message().c_str());
      std::exit(1);
    }
    times.push_back(seconds.value());
  }
  return times;
}

int RunEndToEnd(Context& ctx) {
  std::unique_ptr<Served> served;
  const std::vector<double> setup = SetUpRepeatedly(ctx, kSetupReps, served);
  const CallerFactory wire = WireFactory(ctx.workload, served->port(), nullptr);

  // Churn writes beside the readers; a probe writer gets a sub-phase.
  // Each phase's share of --seconds is split evenly over the rounds.
  const bool beside = ctx.workload.spec->churn;
  const double closed_seconds = ctx.flags.seconds * kClosedShare;
  const double delta_seconds =
      beside ? 0
             : std::min(ctx.flags.seconds / 2,
                        std::max(ctx.flags.seconds * kDeltaShare,
                                 kDeltaSamples /
                                     ctx.workload.spec->write_rate));
  const double open_seconds =
      ctx.flags.seconds - closed_seconds - delta_seconds;
  const double rounds = static_cast<double>(kRounds);
  Writer writer(/*edges=*/beside);
  Writer* const reads_writer = beside ? &writer : nullptr;
  Tally closed;
  Tally open;
  Tally deltas;
  double closed_wall = 0;
  std::vector<double> qps;
  std::vector<double> enum_p50;
  std::vector<double> ttfm_p50;
  std::vector<double> decide_p50;
  for (std::size_t round = 0; round < kRounds; ++round) {
    Tally closed_round;
    const double closed_start = Now();
    closed_wall += RunClosed(ctx.workload, wire, ctx.nproc,
                             closed_seconds / rounds, 10 + 2 * round,
                             reads_writer, closed_round);
    qps.push_back(PhaseRate(closed_round, closed_start,
                            closed_seconds / rounds));
    Tally open_round;
    RunOpen(ctx.workload, wire, ctx.nproc, open_seconds / rounds,
            11 + 2 * round, reads_writer, open_round);
    enum_p50.push_back(PhasePercentile(open_round, Op::kEnumerate, false, 0.5));
    ttfm_p50.push_back(PhasePercentile(open_round, Op::kEnumerate, true, 0.5));
    decide_p50.push_back(PhasePercentile(open_round, Op::kDecide, false, 0.5));
    closed.Merge(std::move(closed_round));
    open.Merge(std::move(open_round));
    if (!beside) {
      RunDeltas(ctx.workload, wire, delta_seconds / rounds, writer, deltas);
    }
  }
  PrintPhase("closed", closed, closed_wall);
  PrintPhase("open", open, open_seconds);
  if (!beside) PrintPhase("deltas", deltas, delta_seconds);
  const Tally& written = beside ? open : deltas;

  std::vector<Record> records = closed.records;
  for (const Tally* tally : {&open, &deltas}) {
    records.insert(records.end(), tally->records.begin(),
                   tally->records.end());
  }
  const Verdict verdict = Verify(ctx.workload, std::move(records), *ctx.oracle);
  const double rss = PeakRssMb();
  served.reset();

  std::printf("oracle {\"checked\": %zu, \"mismatches\": %zu}\n",
              verdict.checked, verdict.mismatches);
  // The per-round values behind each median, to judge a run's steadiness.
  std::string line = "rounds {";
  const std::pair<const char*, const std::vector<double>*> per_round[] = {
      {"qps", &qps}, {"enum_p50_ms", &enum_p50},
      {"ttfm_p50_ms", &ttfm_p50}, {"decide_p50_ms", &decide_p50}};
  for (const auto& [name, values] : per_round) {
    line += std::string(line.size() > 8 ? "], " : "") + "\"" + name + "\": [";
    for (std::size_t i = 0; i < values->size(); ++i) {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%s%.4g", i == 0 ? "" : ", ",
                    (*values)[i]);
      line += buffer;
    }
  }
  std::printf("%s]}\n", line.c_str());
  const std::size_t attempted =
      closed.attempted + open.attempted + deltas.attempted;
  const std::size_t failed = closed.failed + open.failed + deltas.failed;
  PrintResult(
      verdict.mismatches == 0 && failed == 0 && attempted > 0, attempted,
      failed,
      {
          {"setup_s", Median(setup), "s"},
          {"qps", Median(qps), "req/s"},
          {"enum_p50_ms", Median(enum_p50), "ms"},
          {"ttfm_p50_ms", Median(ttfm_p50), "ms"},
          {"decide_p50_ms", Median(decide_p50), "ms"},
          // Deltas are few: their median spans every round.
          {"delta_p50_ms", Percentile(written.of(Op::kDelta), 0.50), "ms"},
          {"rss_mb", rss, "MiB"},
      });
  return 0;
}

/// Concatenates several tracers' spans into one buffer (parents re-based).
std::vector<Span> MergeSpans(
    const std::vector<std::unique_ptr<Tracer>>& tracers) {
  std::vector<Span> all;
  for (std::size_t t = 0; t < tracers.size(); ++t) {
    const auto base = static_cast<std::uint32_t>(all.size());
    for (Span span : tracers[t]->spans()) {
      if (span.parent != 0) span.parent += base;
      span.request |= static_cast<std::uint64_t>(t) << 48;
      all.push_back(span);
    }
  }
  return all;
}

int RunTraced(Context& ctx) {
  const Workload& workload = ctx.workload;
  const double budget = ctx.flags.seconds;
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t mismatches = 0;
  auto check = [&](const char* name, const Tally& tally,
                   std::vector<Record> records) {
    attempted += tally.attempted;
    failed += tally.failed;
    if (records.empty()) return;
    auto oracle = FreshOracle(workload);
    const Verdict verdict = Verify(workload, std::move(records), *oracle);
    mismatches += verdict.mismatches;
    std::printf("oracle {\"path\": \"%s\", \"checked\": %zu, "
                "\"mismatches\": %zu}\n",
                name, verdict.checked, verdict.mismatches);
  };

  // datalog: least-model evaluation, as the scenario's own MakeEngine.
  std::vector<double> eval;
  for (int rep = 0; rep < 3; ++rep) {
    const auto scenario = workload.spec->make();
    const double start = Now();
    const wp::Engine evaluated = scenario.MakeEngine();
    eval.push_back(Now() - start);
  }
  // The replayed engine is built from the served text, so it numbers
  // facts as the served stack does and the oracle can check its answers.
  auto built = wp::Engine::FromText(workload.program_text,
                                    workload.database_text,
                                    workload.answer_predicate);
  if (!built.ok()) return 1;
  wp::Engine engine = std::move(built).value();

  // (A) in-process, one thread, through the engine's public calls: the
  // read mix on warm plans, then closure-edge pairs.
  const std::string a_dir = (fs::path(ctx.scratch) / "inprocess-wal").string();
  fs::remove_all(a_dir);
  wp::storage::DurabilityOptions durability;
  durability.data_dir = a_dir;
  durability.checkpoint_interval = kCheckpointInterval;
  auto store = wp::storage::DurableStore::Open(durability);
  if (!store.ok()) {
    std::fprintf(stderr, "provbench: store: %s\n",
                 store.status().message().c_str());
    return 1;
  }
  Tracer a_tracer;
  InProcessCaller in_process(workload, engine, *store.value(), a_tracer);
  // Warm the hot plans first, as the served set-up does.
  for (std::size_t i = 0; i < workload.WarmTargets(); ++i) {
    Request warm;
    warm.target = static_cast<std::uint32_t>(i);
    in_process.Call(warm);
  }
  // The readers' streams in turn: their due-time order in the open loop.
  const wp::PlanCacheStats cache_before = engine.plan_cache_stats();
  std::vector<ReaderStream> streams;
  for (std::size_t r = 0; r < ctx.nproc; ++r) {
    streams.emplace_back(workload, 2, r, ctx.nproc);
  }
  Tally a_reads;
  const double a_reads_end = Now() + budget * 0.2;
  for (std::size_t i = 0; Now() < a_reads_end; ++i) {
    const CallResult call = in_process.Call(streams[i % streams.size()].Next());
    a_reads.Add(call, call.send, 0);
  }
  const wp::PlanCacheStats cache_after = engine.plan_cache_stats();
  // Each pair: read a target whose closure holds the edge (so its plan is
  // cached), remove the edge, read it again (the plan is rebuilt, or the
  // target is gone), restore the edge, read it once more. That times
  // delete-and-rederive, selective invalidation and plan rebuild, and the
  // WAL appends and checkpoints of a real delta.
  Writer edge_writer(/*edges=*/true);
  Tally a_edges;
  const double a_edges_end = Now() + budget * 0.1;
  for (std::size_t pair = 0; pair < kMinEdgePairs || Now() < a_edges_end;
       ++pair) {
    Request read;
    read.target = workload.edge_targets[pair % workload.edges.size()];
    a_edges.Add(in_process.Call(read), 0, 0);
    for (int half = 0; half < 2; ++half) {
      a_edges.Add(in_process.Call(edge_writer.Take()), 0, 0);
      a_edges.Add(in_process.Call(read), 0, 0);
    }
  }
  {
    std::vector<Record> records = a_reads.records;
    records.insert(records.end(), a_edges.records.begin(),
                   a_edges.records.end());
    check("inprocess", a_reads, std::move(records));
    attempted += a_edges.attempted;
    failed += a_edges.failed;
  }
  const std::vector<Span>& a_spans = a_tracer.spans();
  const LayerCounts& counts = in_process.counts();
  const auto wal = store.value()->counters();

  // (B) Service::Submit -> Ticket::Wait at the server's worker count.
  Tally b_tally;
  double b_wall = 0;
  {
    wp::EngineOptions options;
    options.data_dir = FreshDataDir(workload, ctx.scratch, "service-wal");
    options.checkpoint_interval = kCheckpointInterval;
    auto b_engine = wp::Engine::FromText(workload.program_text,
                                         workload.database_text,
                                         workload.answer_predicate, options);
    if (!b_engine.ok()) return 1;
    wp::Service service(std::move(b_engine).value());
    const CallerFactory make = [&](std::size_t) -> std::unique_ptr<Caller> {
      return std::make_unique<ServiceCaller>(workload, service);
    };
    // Warm as the served set-up does.
    ServiceCaller warm_caller(workload, service);
    Tally warm_tally;
    for (std::size_t i = 0; i < workload.WarmTargets(); ++i) {
      Request warm;
      warm.target = static_cast<std::uint32_t>(i);
      warm_tally.Add(warm_caller.Call(warm), 0, 0);
    }
    b_wall = RunClosed(workload, make, ctx.nproc, budget * 0.2, 3, nullptr,
                       b_tally);
    std::vector<Record> records = warm_tally.records;
    records.insert(records.end(), b_tally.records.begin(),
                   b_tally.records.end());
    check("service", b_tally, std::move(records));
  }
  PrintPhase("service", b_tally, b_wall);

  // (C) over the wire: untraced, then traced, on one served stack.
  std::unique_ptr<Served> served;
  SetUpRepeatedly(ctx, 1, served);
  Tally c_plain;
  const double c_plain_wall =
      RunClosed(workload, WireFactory(workload, served->port(), nullptr),
                ctx.nproc, budget * 0.2, 4, nullptr, c_plain);
  PrintPhase("wire", c_plain, c_plain_wall);
  std::vector<std::unique_ptr<Tracer>> c_tracers;
  Tally c_traced;
  const double c_traced_wall =
      RunClosed(workload, WireFactory(workload, served->port(), &c_tracers),
                ctx.nproc, budget * 0.2, 5, nullptr, c_traced);
  PrintPhase("wire-traced", c_traced, c_traced_wall);
  {
    std::vector<Record> records = c_plain.records;
    records.insert(records.end(), c_traced.records.begin(),
                   c_traced.records.end());
    check("wire", c_plain, std::move(records));
    attempted += c_traced.attempted;
    failed += c_traced.failed;
  }
  served.reset();

  // Spans out.
  const std::string stem = (fs::path(ctx.scratch).parent_path() /
                            (std::string("spans-") + workload.spec->name +
                             "-seed" + std::to_string(ctx.flags.seed)))
                               .string();
  const std::vector<Span> c_spans = MergeSpans(c_tracers);
  if (!WriteSpans(stem + "-inprocess.tsv", a_spans) ||
      !WriteSpans(stem + "-wire.tsv", c_spans)) {
    std::fprintf(stderr, "provbench: cannot write spans under %s\n",
                 stem.c_str());
  }
  std::printf("spans {\"inprocess\": \"%s-inprocess.tsv\", \"wire\": "
              "\"%s-wire.tsv\"}\n",
              stem.c_str(), stem.c_str());

  // Per-layer metrics.
  const SelfTimes self = ComputeSelfTimes(a_spans);
  const double requests = static_cast<double>(std::max<std::size_t>(1, self.roots));
  auto per_request_ms = [&](Layer layer) {
    return self.seconds[static_cast<std::size_t>(layer)] * 1e3 / requests;
  };
  auto median_ms = [&](const char* name) {
    return Median(Durations(a_spans, name)) * 1e3;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double plans = static_cast<double>(counts.plans_built);
  const double deltas = static_cast<double>(counts.deltas);
  const double enumerations = static_cast<double>(counts.enumerations);
  const double hits = static_cast<double>(cache_after.hits - cache_before.hits);
  const double misses =
      static_cast<double>(cache_after.misses - cache_before.misses);
  // A, B and C all replay the read mix alone, so their p50s compare the
  // same requests.
  const double a_p50 = Percentile(a_reads.all_ms, 0.5);
  const double b_p50 = Percentile(b_tally.all_ms, 0.5);
  const double c_p50 = Percentile(c_plain.all_ms, 0.5);
  const double covered =
      self.root_seconds > 0
          ? 1.0 - self.seconds[static_cast<std::size_t>(Layer::kRequest)] /
                      self.root_seconds
          : 0.0;
  const double c_requests = static_cast<double>(std::max<std::size_t>(1, c_plain.attempted));
  metrics = {
      {"datalog.eval_s", Median(eval), "s"},
      {"datalog.delta_ms", median_ms("engine.apply_delta"), "ms"},
      {"datalog.delta_eval_ms", median_ms("datalog.delta_eval"), "ms"},
      {"datalog.facts_touched_per_delta", ratio(counts.facts_touched, deltas),
       "count"},
      {"provenance.closure_ms", median_ms("provenance.closure"), "ms"},
      {"provenance.encode_ms", median_ms("provenance.encode"), "ms"},
      {"provenance.closure_facts", ratio(counts.closure_facts, plans), "count"},
      {"provenance.cnf_clauses", ratio(counts.cnf_clauses, plans), "count"},
      {"provenance.explain_ms", median_ms("provenance.explain"), "ms"},
      {"sat.simplify_ms", median_ms("sat.simplify"), "ms"},
      {"sat.clauses_removed_ratio",
       ratio(counts.clauses_removed, counts.cnf_clauses), "ratio"},
      {"sat.load_ms", median_ms("sat.load"), "ms"},
      {"sat.first_member_ms", median_ms("sat.first_member"), "ms"},
      {"sat.member_ms", median_ms("sat.member"), "ms"},
      {"sat.conflicts_per_request", ratio(counts.conflicts, enumerations),
       "count"},
      {"sat.propagations_per_request", ratio(counts.propagations, enumerations),
       "count"},
      {"sat.decide_ms", median_ms("sat.decide"), "ms"},
      {"engine.plan_hit_ratio", ratio(hits, hits + misses), "ratio"},
      {"engine.plan_invalidations_per_delta",
       ratio(counts.plans_invalidated, deltas), "count"},
      {"engine.prepare_hit_us", median_ms("engine.prepare_hit") * 1e3, "us"},
      {"engine.prepare_miss_ms", median_ms("engine.prepare_miss"), "ms"},
      {"engine.resolve_us", median_ms("engine.resolve") * 1e3, "us"},
      {"engine.render_us_per_fact", median_ms("engine.render") * 1e3, "us"},
      {"service.queue_ms_p50", Percentile(b_tally.queue_ms, 0.50), "ms"},
      {"service.queue_ms_p99", Percentile(b_tally.queue_ms, 0.99), "ms"},
      {"service.exec_ms", Percentile(b_tally.exec_ms, 0.50), "ms"},
      {"service.overhead_ms", b_p50 - a_p50, "ms"},
      {"net.overhead_ms", c_p50 - b_p50, "ms"},
      {"net.bytes_per_request", static_cast<double>(c_plain.bytes) / c_requests,
       "bytes"},
      {"net.frames_per_request",
       static_cast<double>(c_plain.frames) / c_requests, "count"},
      {"storage.append_us", median_ms("storage.append") * 1e3, "us"},
      {"storage.checkpoint_ms", median_ms("storage.checkpoint"), "ms"},
      {"storage.wal_bytes_per_delta",
       ratio(static_cast<double>(wal.wal_bytes),
             static_cast<double>(wal.wal_appends)),
       "bytes"},
      {"self.engine_ms", per_request_ms(Layer::kEngine), "ms"},
      {"self.provenance_ms", per_request_ms(Layer::kProvenance), "ms"},
      {"self.sat_ms", per_request_ms(Layer::kSat), "ms"},
      {"self.datalog_ms", per_request_ms(Layer::kDatalog), "ms"},
      {"self.storage_ms", per_request_ms(Layer::kStorage), "ms"},
      {"self.uncovered_ms", per_request_ms(Layer::kRequest), "ms"},
      {"trace.coverage", covered, "ratio"},
      {"trace.overhead_qps",
       static_cast<double>(c_traced.answered) / c_traced_wall -
           static_cast<double>(c_plain.answered) / c_plain_wall,
       "req/s"},
      {"trace.overhead_enum_p50_ms",
       Percentile(c_traced.of(Op::kEnumerate), 0.5) -
           Percentile(c_plain.of(Op::kEnumerate), 0.5),
       "ms"},
  };
  const bool correct = mismatches == 0 && failed == 0 && covered >= 0.9;
  if (covered < 0.9) {
    std::fprintf(stderr, "provbench: layer self times cover only %.3f of the "
                 "in-process request time\n", covered);
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace provbench

int main(int argc, char** argv) {
  using namespace provbench;
  Context ctx;
  if (!ParseFlags(argc, argv, ctx.flags)) return 2;
  const Spec* spec = FindSpec(ctx.flags.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "provbench: unknown workload '%s'\n",
                 ctx.flags.workload.c_str());
    return 2;
  }
  ctx.nproc = Nproc();
  ctx.scratch = (fs::path(ctx.flags.scratch) /
                 ("run-" + std::to_string(static_cast<long>(getpid()))))
                    .string();
  fs::remove_all(ctx.scratch);
  fs::create_directories(ctx.scratch);

  RenderScenario(*spec, ctx.workload);
  if (auto status = Generate(ctx.flags.seed, ctx.nproc, ctx.workload);
      !status.ok()) {
    std::fprintf(stderr, "provbench: generate: %s\n",
                 status.message().c_str());
    return 1;
  }
  ctx.oracle = FreshOracle(ctx.workload);
  ResetPeakRss();
  PrintHeader(ctx.flags, ctx.workload, ctx.nproc);
  const int code = ctx.flags.trace == 1 ? RunTraced(ctx) : RunEndToEnd(ctx);
  fs::remove_all(ctx.scratch);
  return code;
}
