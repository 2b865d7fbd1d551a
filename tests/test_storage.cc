// Tests of the durability tier: WAL framing and torn-tail recovery,
// checkpoint encode/decode exactness, and — the core contract — a
// serving stack restarted from checkpoint + WAL tail must serve
// byte-identical answers to the never-restarted process, across all six
// scenario generators with interleaved deltas. Kill points are
// simulated by truncating and corrupting the on-disk files directly. The CI runs
// this binary under ThreadSanitizer.

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "scenarios/scenarios.h"
#include "storage/checkpoint.h"
#include "storage/durable_store.h"
#include "storage/wal.h"
#include "tests/workspace.h"
#include "whyprov.h"

namespace whyprov {
namespace {

using whyprov::testing::MemberToString;
namespace dl = whyprov::datalog;

/// A fresh empty data directory under the system temp dir.
std::string TempDataDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "whyprov_test_storage" / name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  return dir.string();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- WAL framing and torn tails ------------------------------------------

TEST(WalRecordTest, EncodeDecodeRoundTrip) {
  storage::WalRecord record;
  record.sequence = 7;
  record.added = {"edge(a, b)", "edge(b, c)"};
  record.removed = {"edge(c, d)"};
  const std::string payload = storage::EncodeWalRecord(record);
  auto decoded = storage::DecodeWalRecord(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded.value().sequence, 7u);
  EXPECT_EQ(decoded.value().added, record.added);
  EXPECT_EQ(decoded.value().removed, record.removed);
  EXPECT_EQ(storage::EncodeWalRecord(decoded.value()), payload);
}

TEST(WalRecordTest, RejectsUnknownTypeAndTruncation) {
  storage::WalRecord record;
  record.sequence = 1;
  record.added = {"edge(a, b)"};
  std::string payload = storage::EncodeWalRecord(record);
  std::string bad_type = payload;
  bad_type[0] = '\x7f';
  EXPECT_FALSE(storage::DecodeWalRecord(bad_type).ok());
  EXPECT_FALSE(
      storage::DecodeWalRecord(std::string_view(payload).substr(0, 5)).ok());
  EXPECT_FALSE(storage::DecodeWalRecord(payload + "x").ok());
}

TEST(WalFileTest, AppendThenReopenRecoversEveryRecord) {
  // Both modes: without fsync and with one fsync per append (wal_fsync).
  for (const bool fsync_each : {false, true}) {
    SCOPED_TRACE(fsync_each ? "fsync_each" : "no fsync");
    const std::string dir =
        TempDataDir(fsync_each ? "wal_reopen_fsync" : "wal_reopen");
    const std::string path = dir + "/delta.wal";
    {
      auto wal = storage::WriteAheadLog::Open(path, fsync_each);
      ASSERT_TRUE(wal.ok()) << wal.status().message();
      for (int i = 0; i < 3; ++i) {
        auto written =
            wal.value().Append({"edge(a" + std::to_string(i) + ", b)"}, {});
        ASSERT_TRUE(written.ok()) << written.status().message();
        EXPECT_GT(written.value(), 0u);
      }
      EXPECT_EQ(wal.value().last_sequence(), 3u);
    }
    auto reopened = storage::WriteAheadLog::Open(path, fsync_each);
    ASSERT_TRUE(reopened.ok()) << reopened.status().message();
    EXPECT_FALSE(reopened.value().truncated_torn_tail());
    ASSERT_EQ(reopened.value().recovered().size(), 3u);
    EXPECT_EQ(reopened.value().recovered()[2].sequence, 3u);
    EXPECT_EQ(reopened.value().recovered()[1].added,
              std::vector<std::string>{"edge(a1, b)"});
  }
}

TEST(WalFileTest, TornTailIsTruncatedAndAppendsContinue) {
  const std::string dir = TempDataDir("wal_torn");
  const std::string path = dir + "/delta.wal";
  {
    auto wal = storage::WriteAheadLog::Open(path, false);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value().Append({"edge(a, b)"}, {}).ok());
    ASSERT_TRUE(wal.value().Append({"edge(b, c)"}, {}).ok());
  }
  const std::string intact = ReadFileBytes(path);
  // A crash mid-append leaves a short tail: half of a third record.
  WriteFileBytes(path, intact + std::string("\x20\x00\x00\x00\xde\xad", 6));
  {
    auto wal = storage::WriteAheadLog::Open(path, false);
    ASSERT_TRUE(wal.ok()) << wal.status().message();
    EXPECT_TRUE(wal.value().truncated_torn_tail());
    ASSERT_EQ(wal.value().recovered().size(), 2u);
    // The torn bytes are gone from disk and the sequence continues.
    ASSERT_TRUE(wal.value().Append({}, {"edge(a, b)"}).ok());
    EXPECT_EQ(wal.value().last_sequence(), 3u);
  }
  EXPECT_EQ(ReadFileBytes(path).substr(0, intact.size()), intact);
  auto reopened = storage::WriteAheadLog::Open(path, false);
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE(reopened.value().truncated_torn_tail());
  EXPECT_EQ(reopened.value().recovered().size(), 3u);
}

TEST(WalFileTest, CorruptCrcDropsTheRecordAndItsSuffix) {
  const std::string dir = TempDataDir("wal_crc");
  const std::string path = dir + "/delta.wal";
  std::size_t first_record_end = 0;
  {
    auto wal = storage::WriteAheadLog::Open(path, false);
    ASSERT_TRUE(wal.ok());
    auto first = wal.value().Append({"edge(a, b)"}, {});
    ASSERT_TRUE(first.ok());
    first_record_end = storage::kWalMagic.size() + 1 + first.value();
    ASSERT_TRUE(wal.value().Append({"edge(b, c)"}, {}).ok());
  }
  std::string bytes = ReadFileBytes(path);
  bytes[first_record_end + 10] ^= '\x01';  // flip a bit inside record 2
  WriteFileBytes(path, bytes);
  auto wal = storage::WriteAheadLog::Open(path, false);
  ASSERT_TRUE(wal.ok()) << wal.status().message();
  EXPECT_TRUE(wal.value().truncated_torn_tail());
  ASSERT_EQ(wal.value().recovered().size(), 1u);
  EXPECT_EQ(wal.value().recovered()[0].added,
            std::vector<std::string>{"edge(a, b)"});
}

TEST(WalReplayTest, StopsAtOversizedLengthAndBadSequence) {
  // An absurd length field cannot be honest: nothing valid follows.
  std::string oversized(8, '\0');
  oversized[0] = '\x01';
  oversized[3] = '\x7f';
  const storage::WalReplay replay = storage::ReplayWalBuffer(oversized);
  EXPECT_TRUE(replay.records.empty());
  EXPECT_TRUE(replay.torn_tail);
  EXPECT_EQ(replay.valid_bytes, 0u);
}

// --- checkpoint exactness -------------------------------------------------

TEST(CheckpointTest, RoundTripIsByteExactAfterChurn) {
  auto scenario =
      scenarios::MakeTransClosure(scenarios::GraphKind::kSparse, 40, 60, 7);
  Engine engine = scenario.MakeEngine();
  // Remove and restore one fact so some relation's insertion order
  // diverges from id order (revival appends at the end) — the case
  // where set-equality of facts would not reproduce enumeration order.
  const std::string churn =
      dl::FactToString(scenario.database.facts().front(),
                       scenario.database.symbols());
  DeltaRequest remove;
  remove.removed_fact_texts = {churn};
  ASSERT_TRUE(engine.ApplyDelta(remove).ok());
  DeltaRequest restore;
  restore.added_fact_texts = {churn};
  ASSERT_TRUE(engine.ApplyDelta(restore).ok());

  const std::shared_ptr<const EngineState> state = engine.PinSnapshot();
  const std::string image =
      storage::EncodeCheckpoint(state->model, state->model_version,
                                /*wal_records_folded=*/2);

  // Restore over a freshly parsed stack (same generator, same seed).
  auto fresh =
      scenarios::MakeTransClosure(scenarios::GraphKind::kSparse, 40, 60, 7);
  Engine fresh_engine = fresh.MakeEngine();
  auto recovered = storage::DecodeCheckpoint(
      image, fresh_engine.PinSnapshot()->model.symbols_ptr());
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(recovered.value().model_version, state->model_version);
  EXPECT_EQ(recovered.value().wal_records_folded, 2u);
  // Exactness: re-encoding the restored model reproduces the image.
  EXPECT_EQ(storage::EncodeCheckpoint(recovered.value().model,
                                      state->model_version, 2),
            image);
}

TEST(CheckpointTest, CorruptImagesFailCleanly) {
  auto scenario =
      scenarios::MakeTransClosure(scenarios::GraphKind::kSparse, 40, 60, 7);
  Engine engine = scenario.MakeEngine();
  const std::shared_ptr<const EngineState> state = engine.PinSnapshot();
  const std::string image =
      storage::EncodeCheckpoint(state->model, state->model_version, 0);
  const auto symbols = state->model.symbols_ptr();

  EXPECT_FALSE(storage::DecodeCheckpoint("", symbols).ok());
  EXPECT_FALSE(storage::DecodeCheckpoint("junk", symbols).ok());
  std::string flipped = image;
  flipped[flipped.size() / 2] ^= '\x01';
  EXPECT_FALSE(storage::DecodeCheckpoint(flipped, symbols).ok());
  std::string truncated = image.substr(0, image.size() - 3);
  EXPECT_FALSE(storage::DecodeCheckpoint(truncated, symbols).ok());
}

// --- the restart-equivalence harness --------------------------------------

using SubmitFn = std::function<Response(Request)>;

SubmitFn Submitter(Service& service) {
  return [&service](Request request) {
    auto ticket = service.Submit(std::move(request));
    EXPECT_TRUE(ticket.ok()) << ticket.status().message();
    if (!ticket.ok()) return Response();
    return ticket.value().Take();
  };
}

/// A scripted mixed workload: enumerate / decide over every target, interleaved with awaited
/// remove-then-restore deltas, rendered into a transcript. Because the
/// churn ends fully restored, the post-script state equals the base
/// state — so a recovered stack replaying the log must reproduce this
/// exact transcript when the script runs again.
std::vector<std::string> RunScript(const SubmitFn& submit,
                                   const std::vector<std::string>& targets,
                                   const std::vector<std::string>& churn,
                                   const dl::SymbolTable& symbols) {
  std::vector<std::string> transcript;
  std::vector<std::vector<dl::Fact>> candidates(targets.size());

  const auto read_phase = [&](const std::string& label) {
    for (std::size_t i = 0; i < targets.size(); ++i) {
      EnumerateRequest enumerate;
      enumerate.target_text = targets[i];
      enumerate.max_members = 8;
      Request request;
      request.op = std::move(enumerate);
      Response response = submit(std::move(request));
      std::string line =
          label + " enum " + targets[i] + " " +
          std::string(util::StatusCodeName(response.status.code()));
      for (const auto& member : response.members) {
        line += " " + MemberToString(member, symbols);
      }
      transcript.push_back(std::move(line));
      if (candidates[i].empty() && !response.members.empty()) {
        candidates[i] = response.members.front();
      }
      if (!candidates[i].empty()) {
        DecideRequest decide;
        decide.target_text = targets[i];
        decide.candidate = candidates[i];
        Request decide_request;
        decide_request.op = std::move(decide);
        Response verdict = submit(std::move(decide_request));
        transcript.push_back(
            label + " decide " + targets[i] + " " +
            std::string(util::StatusCodeName(verdict.status.code())) +
            (verdict.status.ok()
                 ? (verdict.member ? " member" : " non-member")
                 : ""));
      }
    }
  };

  read_phase("v0");
  for (std::size_t d = 0; d < churn.size(); ++d) {
    DeltaRequest remove;
    remove.removed_fact_texts = {churn[d]};
    Request request;
    request.op = std::move(remove);
    Response response = submit(std::move(request));
    transcript.push_back(
        "del " + churn[d] + " " +
        std::string(util::StatusCodeName(response.status.code())));
    read_phase("d" + std::to_string(d));
  }
  for (std::size_t d = 0; d < churn.size(); ++d) {
    DeltaRequest restore;
    restore.added_fact_texts = {churn[d]};
    Request request;
    request.op = std::move(restore);
    Response response = submit(std::move(request));
    transcript.push_back(
        "add " + churn[d] + " " +
        std::string(util::StatusCodeName(response.status.code())));
  }
  read_phase("restored");
  return transcript;
}

/// Samples targets and churn facts from a scenario deterministically.
void ScenarioScript(const scenarios::GeneratedScenario& scenario,
                    std::size_t num_targets, std::size_t num_churn,
                    std::vector<std::string>& targets,
                    std::vector<std::string>& churn) {
  Engine probe = scenario.MakeEngine();
  for (const dl::FactId id : probe.SampleAnswers(num_targets)) {
    targets.push_back(probe.FactToText(id));
  }
  const std::vector<dl::Fact>& facts = scenario.database.facts();
  for (std::size_t i = 1; i <= num_churn && i <= facts.size(); ++i) {
    const dl::Fact& fact = facts[(i * facts.size()) / (num_churn + 1)];
    churn.push_back(dl::FactToString(fact, scenario.database.symbols()));
  }
}

/// The core durability contract, exercised three ways on one scenario:
///  1. a WAL-on service must serve the exact transcript of a WAL-off
///     reference (durability is invisible to answers);
///  2. a stack restarted from checkpoint + WAL tail must serve it again
///     (byte-identical post-recovery answers);
///  3. with the checkpoint corrupted, recovery must fall back to
///     full-log replay and still serve it.
void CheckDurableEquivalence(const scenarios::GeneratedScenario& scenario,
                             const std::string& dir_name) {
  std::vector<std::string> targets;
  std::vector<std::string> churn;
  ScenarioScript(scenario, /*num_targets=*/3, /*num_churn=*/2, targets,
                 churn);
  ASSERT_FALSE(targets.empty());

  Service reference(scenario.MakeEngine());
  const std::vector<std::string> expected =
      RunScript(Submitter(reference), targets, churn, *scenario.symbols);

  const std::string data_dir = TempDataDir(dir_name);
  EngineOptions durable_options;
  durable_options.data_dir = data_dir;
  durable_options.checkpoint_interval = 1;  // checkpoint after every delta
  const std::uint64_t deltas = 2 * churn.size();

  {
    Service durable(scenario.MakeEngine(durable_options));
    ASSERT_TRUE(durable.durability_status().ok())
        << durable.durability_status().message();
    EXPECT_EQ(RunScript(Submitter(durable), targets, churn,
                        *scenario.symbols),
              expected)
        << scenario.scenario_name << ": WAL-on serving diverged";
    const ServiceStats stats = durable.stats();
    EXPECT_EQ(stats.wal_appends, deltas);
    EXPECT_GT(stats.wal_bytes, 0u);
    EXPECT_GE(stats.checkpoints_written, 1u);
    EXPECT_EQ(stats.recovery_replayed_deltas, 0u);
  }

  {
    Service recovered(scenario.MakeEngine(durable_options));
    ASSERT_TRUE(recovered.durability_status().ok())
        << recovered.durability_status().message();
    // The last checkpoint folded every record (interval 1), so the
    // replayed tail is empty — recovery came from the snapshot.
    EXPECT_EQ(recovered.stats().recovery_replayed_deltas, 0u);
    EXPECT_EQ(RunScript(Submitter(recovered), targets, churn,
                        *scenario.symbols),
              expected)
        << scenario.scenario_name << ": post-recovery answers diverged";
  }

  // Kill point: the checkpoint is corrupt. The WAL is never compacted,
  // so full-log replay (now 2x `deltas` records) must reproduce the
  // same state.
  std::string image = ReadFileBytes(data_dir + "/model.ckpt");
  ASSERT_FALSE(image.empty());
  image[image.size() / 2] ^= '\x01';
  WriteFileBytes(data_dir + "/model.ckpt", image);
  {
    Service replayed(scenario.MakeEngine(durable_options));
    ASSERT_TRUE(replayed.durability_status().ok())
        << replayed.durability_status().message();
    EXPECT_EQ(replayed.stats().recovery_replayed_deltas, 2 * deltas);
    EXPECT_EQ(RunScript(Submitter(replayed), targets, churn,
                        *scenario.symbols),
              expected)
        << scenario.scenario_name << ": full-log replay diverged";
  }
}

// The six scenario generators: recovery must be invisible in the
// results on every one of them, across interleaved deltas.

TEST(DurableEquivalenceTest, TransClosureSparse) {
  CheckDurableEquivalence(
      scenarios::MakeTransClosure(scenarios::GraphKind::kSparse, 40, 60,
                                  20240611),
      "svc_tc_sparse");
}

TEST(DurableEquivalenceTest, TransClosureSocial) {
  CheckDurableEquivalence(
      scenarios::MakeTransClosure(scenarios::GraphKind::kSocial, 16, 24,
                                  20240611),
      "svc_tc_social");
}

TEST(DurableEquivalenceTest, Doctors) {
  CheckDurableEquivalence(scenarios::MakeDoctors(1, 100, 20240611),
                          "svc_doctors");
}

TEST(DurableEquivalenceTest, Andersen) {
  CheckDurableEquivalence(scenarios::MakeAndersen(100, 20240611),
                          "svc_andersen");
}

TEST(DurableEquivalenceTest, Galen) {
  CheckDurableEquivalence(scenarios::MakeGalen(20, 20240611), "svc_galen");
}

TEST(DurableEquivalenceTest, Csda) {
  CheckDurableEquivalence(scenarios::MakeCsda("httpd", 200, 20240611),
                          "svc_csda");
}

// --- kill points through the full service ---------------------------------

TEST(DurableServiceTest, TornWalTailReplaysThePrefix) {
  auto scenario =
      scenarios::MakeTransClosure(scenarios::GraphKind::kSparse, 40, 60, 7);
  std::vector<std::string> targets;
  std::vector<std::string> churn;
  ScenarioScript(scenario, 3, 2, targets, churn);

  const std::string data_dir = TempDataDir("svc_torn");
  EngineOptions durable_options;
  durable_options.data_dir = data_dir;
  durable_options.checkpoint_interval = 0;  // pure WAL, no checkpoint
  {
    Service durable(scenario.MakeEngine(durable_options));
    RunScript(Submitter(durable), targets, churn, *scenario.symbols);
    EXPECT_EQ(durable.stats().wal_appends, 2 * churn.size());
  }

  // Kill point: the process died mid-append — the final record is torn.
  const std::string wal_path = data_dir + "/delta.wal";
  const std::string bytes = ReadFileBytes(wal_path);
  WriteFileBytes(wal_path, bytes.substr(0, bytes.size() - 5));

  Service recovered(scenario.MakeEngine(durable_options));
  ASSERT_TRUE(recovered.durability_status().ok())
      << recovered.durability_status().message();
  // Every complete record replays; the torn final record is dropped.
  EXPECT_EQ(recovered.stats().recovery_replayed_deltas,
            2 * churn.size() - 1);
  // The lost record was the restore of churn[1]: the recovered state
  // must match a reference that stopped one delta short.
  Service reference(scenario.MakeEngine());
  for (std::size_t d = 0; d + 1 < churn.size(); ++d) {
    DeltaRequest remove;
    remove.removed_fact_texts = {churn[d]};
    Request request;
    request.op = std::move(remove);
    (void)Submitter(reference)(std::move(request));
  }
  // Replay d0..: the script removes churn[0], churn[1], then restores
  // churn[0], churn[1]; losing the last record leaves churn[1] removed.
  DeltaRequest remove_last;
  remove_last.removed_fact_texts = {churn.back()};
  Request remove_request;
  remove_request.op = std::move(remove_last);
  (void)Submitter(reference)(std::move(remove_request));
  DeltaRequest restore_first;
  restore_first.added_fact_texts = {churn.front()};
  Request restore_request;
  restore_request.op = std::move(restore_first);
  (void)Submitter(reference)(std::move(restore_request));

  for (const std::string& target : targets) {
    EnumerateRequest enumerate;
    enumerate.target_text = target;
    enumerate.max_members = 8;
    Request recovered_request, reference_request;
    recovered_request.op = enumerate;
    reference_request.op = enumerate;
    Response from_recovered =
        Submitter(recovered)(std::move(recovered_request));
    Response from_reference =
        Submitter(reference)(std::move(reference_request));
    ASSERT_EQ(from_recovered.status.code(), from_reference.status.code())
        << target;
    ASSERT_EQ(from_recovered.members.size(), from_reference.members.size())
        << target;
    for (std::size_t m = 0; m < from_recovered.members.size(); ++m) {
      EXPECT_EQ(MemberToString(from_recovered.members[m], *scenario.symbols),
                MemberToString(from_reference.members[m], *scenario.symbols))
          << target;
    }
  }
}

TEST(DurableServiceTest, CountersSurfaceThroughStats) {
  auto ws = testing::MakeWorkspace(
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Y) :- edge(X, Z), path(Z, Y).",
      "edge(a, b). edge(b, c).");
  const auto predicate = ws.symbols->FindPredicate("path");
  ASSERT_TRUE(predicate.ok());
  const std::string data_dir = TempDataDir("svc_counters");
  EngineOptions durable_options;
  durable_options.data_dir = data_dir;
  durable_options.checkpoint_interval = 2;
  {
    Service service(Engine::FromParts(ws.program, ws.database,
                                      predicate.value(), durable_options));
    ASSERT_TRUE(service.durability_status().ok());
    for (int i = 0; i < 4; ++i) {
      DeltaRequest delta;
      delta.added_fact_texts = {"edge(c, d" + std::to_string(i) + ")"};
      Request request;
      request.op = std::move(delta);
      Response response = Submitter(service)(std::move(request));
      ASSERT_TRUE(response.status.ok()) << response.status.message();
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.wal_appends, 4u);
    EXPECT_GT(stats.wal_bytes, 0u);
    EXPECT_EQ(stats.checkpoints_written, 2u);  // interval 2, 4 deltas
  }
  Service recovered(Engine::FromParts(ws.program, ws.database,
                                      predicate.value(), durable_options));
  ASSERT_TRUE(recovered.durability_status().ok());
  EXPECT_EQ(recovered.stats().recovery_replayed_deltas, 0u);
  EnumerateRequest enumerate;
  enumerate.target_text = "path(a, d3)";
  Request request;
  request.op = std::move(enumerate);
  Response response = Submitter(recovered)(std::move(request));
  EXPECT_TRUE(response.status.ok()) << response.status.message();
  EXPECT_FALSE(response.members.empty());
}

}  // namespace
}  // namespace whyprov
