// Tests of the wire protocol and the TCP serving tier (src/net/): frame
// encode/decode round trips for every frame kind, rejection of
// truncated/oversized/malformed/unknown frames, and the server over a
// real loopback socket — byte-identical results vs the in-process
// engine across the scenario generators, streaming member batches,
// wire deadlines, submission-order responses, protocol-violation
// handling, and the mid-stream client disconnect that must cancel the
// enumeration and release its pinned model snapshot.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/client.h"
#include "net/server.h"
#include "net/whyprov_c.h"
#include "net/wire.h"
#include "scenarios/scenarios.h"
#include "whyprov.h"

namespace whyprov::net {
namespace {

constexpr const char* kDiamondProgram = R"(
  path(X, Y) :- edge(X, Y).
  path(X, Y) :- edge(X, Z), path(Z, Y).
)";
constexpr const char* kDiamondDatabase = R"(
  edge(a, m1). edge(m1, b).
  edge(a, m2). edge(m2, b).
  edge(a, m3). edge(m3, b).
  edge(a, m4). edge(m4, b).
  edge(a, m5). edge(m5, b).
  edge(a, m6). edge(m6, b).
)";
constexpr std::size_t kDiamondMembers = 6;
constexpr const char* kTarget = "path(a, b)";

// --- wire round trips ------------------------------------------------------

TEST(WireRoundTripTest, EnumerateFrame) {
  EnumerateFrame frame;
  frame.request_id = 0x0123456789abcdefULL;
  frame.target = "path(a, b)";
  frame.max_members = 42;
  frame.deadline_seconds = 1.5;
  frame.stream = 1;
  frame.batch_size = 7;
  auto decoded = DecodeEnumerate(Encode(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded.value().request_id, frame.request_id);
  EXPECT_EQ(decoded.value().target, frame.target);
  EXPECT_EQ(decoded.value().max_members, frame.max_members);
  EXPECT_EQ(decoded.value().deadline_seconds, frame.deadline_seconds);
  EXPECT_EQ(decoded.value().stream, frame.stream);
  EXPECT_EQ(decoded.value().batch_size, frame.batch_size);
}

TEST(WireRoundTripTest, DecideFrame) {
  DecideFrame frame;
  frame.request_id = 7;
  frame.target = "path(a, b)";
  frame.tree_class = WHYPROV_TREE_MINIMAL_DEPTH;
  frame.candidate_facts = {"edge(a, m1)", "edge(m1, b)"};
  frame.deadline_seconds = -1.0;  // negative survives the f64 bit cast
  auto decoded = DecodeDecide(Encode(frame));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().request_id, frame.request_id);
  EXPECT_EQ(decoded.value().target, frame.target);
  EXPECT_EQ(decoded.value().tree_class, frame.tree_class);
  EXPECT_EQ(decoded.value().candidate_facts, frame.candidate_facts);
  EXPECT_EQ(decoded.value().deadline_seconds, frame.deadline_seconds);
}

TEST(WireRoundTripTest, ExplainFrame) {
  ExplainFrame frame;
  frame.request_id = 9;
  frame.target = "a(d)";
  frame.member_index = 3;
  frame.deadline_seconds = 0.25;
  auto decoded = DecodeExplain(Encode(frame));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().request_id, frame.request_id);
  EXPECT_EQ(decoded.value().target, frame.target);
  EXPECT_EQ(decoded.value().member_index, frame.member_index);
  EXPECT_EQ(decoded.value().deadline_seconds, frame.deadline_seconds);
}

TEST(WireRoundTripTest, DeltaFrame) {
  DeltaFrame frame;
  frame.request_id = 11;
  frame.added_facts = {"edge(x, y)"};
  frame.removed_facts = {"edge(a, m1)", "edge(a, m2)"};
  auto decoded = DecodeDelta(Encode(frame));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().request_id, frame.request_id);
  EXPECT_EQ(decoded.value().added_facts, frame.added_facts);
  EXPECT_EQ(decoded.value().removed_facts, frame.removed_facts);
}

TEST(WireRoundTripTest, StatsFrame) {
  StatsFrame frame;
  frame.request_id = 13;
  auto decoded = DecodeStats(Encode(frame));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().request_id, frame.request_id);
}

TEST(WireRoundTripTest, MembersFrame) {
  MembersFrame frame;
  frame.request_id = 17;
  frame.members = {{"edge(a, m1)", "edge(m1, b)"}, {"edge(a, m2)"}, {}};
  auto decoded = DecodeMembers(Encode(frame));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().request_id, frame.request_id);
  EXPECT_EQ(decoded.value().members, frame.members);
}

TEST(WireRoundTripTest, FinalFrameEnumerateKind) {
  FinalFrame frame;
  frame.request_id = 19;
  frame.status_code = WHYPROV_OK;
  frame.status_message = "";
  frame.kind = kFrameEnumerate;
  frame.model_version = 3;
  frame.members_emitted = 2;
  frame.enumerate_flags = WHYPROV_ENUM_EXHAUSTED;
  frame.members = {{"edge(a, m1)", "edge(m1, b)"}, {"edge(a, m2)"}};
  auto decoded = DecodeFinal(Encode(frame));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().request_id, frame.request_id);
  EXPECT_EQ(decoded.value().kind, frame.kind);
  EXPECT_EQ(decoded.value().model_version, frame.model_version);
  EXPECT_EQ(decoded.value().members_emitted, frame.members_emitted);
  EXPECT_EQ(decoded.value().enumerate_flags, frame.enumerate_flags);
  EXPECT_EQ(decoded.value().members, frame.members);
}

TEST(WireRoundTripTest, FinalFrameDecideKind) {
  FinalFrame frame;
  frame.request_id = 23;
  frame.kind = kFrameDecide;
  frame.verdict = 1;
  auto decoded = DecodeFinal(Encode(frame));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().kind, kFrameDecide);
  EXPECT_EQ(decoded.value().verdict, 1);
}

TEST(WireRoundTripTest, FinalFrameExplainKind) {
  FinalFrame frame;
  frame.request_id = 29;
  frame.kind = kFrameExplain;
  frame.status_code = WHYPROV_OK;
  frame.has_explanation = 1;
  frame.explanation_member = {"edge(a, m1)", "edge(m1, b)"};
  frame.proof_tree = "path(a, b)\n  edge(a, m1)\n";
  auto decoded = DecodeFinal(Encode(frame));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().has_explanation, 1);
  EXPECT_EQ(decoded.value().explanation_member, frame.explanation_member);
  EXPECT_EQ(decoded.value().proof_tree, frame.proof_tree);
}

TEST(WireRoundTripTest, FinalFrameDeltaKind) {
  FinalFrame frame;
  frame.request_id = 31;
  frame.kind = kFrameDelta;
  frame.status_code = WHYPROV_RESOURCE_EXHAUSTED;
  frame.status_message = "queue full";
  frame.has_delta = 1;
  frame.delta.model_version = 4;
  frame.delta.facts_removed = 2;
  frame.delta.plans_invalidated = 5;
  auto decoded = DecodeFinal(Encode(frame));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().status_code, WHYPROV_RESOURCE_EXHAUSTED);
  EXPECT_EQ(decoded.value().status_message, "queue full");
  EXPECT_EQ(decoded.value().has_delta, 1);
  EXPECT_EQ(decoded.value().delta.model_version, 4u);
  EXPECT_EQ(decoded.value().delta.facts_removed, 2u);
  EXPECT_EQ(decoded.value().delta.plans_invalidated, 5u);
}

TEST(WireRoundTripTest, ErrorFrame) {
  ErrorFrame frame;
  frame.request_id = 0;
  frame.status_code = WHYPROV_INVALID_ARGUMENT;
  frame.message = "unknown frame type 127";
  auto decoded = DecodeError(Encode(frame));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().status_code, frame.status_code);
  EXPECT_EQ(decoded.value().message, frame.message);
}

TEST(WireRoundTripTest, StatsReplyFrame) {
  StatsReplyFrame frame;
  frame.request_id = 37;
  frame.stats.submitted = 100;
  frame.stats.completed = 90;
  frame.stats.queries_per_second = 123.5;
  frame.stats.model_version = 7;
  frame.stats.retained_snapshots = 2;
  frame.stats.snapshot_alarm = 1;
  frame.stats.num_shards = 4;
  auto decoded = DecodeStatsReply(Encode(frame));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().request_id, frame.request_id);
  EXPECT_EQ(decoded.value().stats.submitted, 100u);
  EXPECT_EQ(decoded.value().stats.completed, 90u);
  EXPECT_EQ(decoded.value().stats.queries_per_second, 123.5);
  EXPECT_EQ(decoded.value().stats.model_version, 7u);
  EXPECT_EQ(decoded.value().stats.retained_snapshots, 2u);
  EXPECT_EQ(decoded.value().stats.snapshot_alarm, 1);
  EXPECT_EQ(decoded.value().stats.num_shards, 4u);
}

// --- wire rejection paths --------------------------------------------------

TEST(WireRejectionTest, EveryTruncationOfABodyFails) {
  EnumerateFrame enumerate;
  enumerate.request_id = 1;
  enumerate.target = "path(a, b)";
  enumerate.batch_size = 3;
  const std::string body = Encode(enumerate);
  // One truncation point is valid by design: cutting exactly before the
  // appended QoS identity tail (u8 qos_class + empty tenant string =
  // 5 bytes) yields a well-formed pre-QoS frame, which must keep
  // decoding (with the default identity) for backward compatibility.
  // Every other prefix fails.
  const std::size_t pre_qos_size = body.size() - 5;
  for (std::size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_EQ(DecodeEnumerate(body.substr(0, cut)).ok(),
              cut == pre_qos_size)
        << "prefix of " << cut << " bytes";
  }

  FinalFrame final;
  final.request_id = 2;
  final.kind = kFrameEnumerate;
  final.members = {{"edge(a, m1)", "edge(m1, b)"}};
  const std::string final_body = Encode(final);
  for (std::size_t cut = 0; cut < final_body.size(); ++cut) {
    EXPECT_FALSE(DecodeFinal(final_body.substr(0, cut)).ok());
  }
}

TEST(WireRejectionTest, TrailingGarbageFails) {
  StatsFrame frame;
  frame.request_id = 5;
  EXPECT_FALSE(DecodeStats(Encode(frame) + "x").ok());
  DeltaFrame delta;
  delta.request_id = 6;
  delta.added_facts = {"edge(a, b)"};
  EXPECT_FALSE(DecodeDelta(Encode(delta) + std::string(1, '\0')).ok());
}

TEST(WireRejectionTest, HostileListCountFailsWithoutAllocating) {
  // request_id, then a string-list count of ~4 billion with no elements:
  // the reader must reject the count against the remaining bytes instead
  // of trying to reserve for it.
  WireWriter writer;
  writer.PutU64(1);
  writer.PutU32(0xfffffff0u);
  EXPECT_FALSE(DecodeDelta(writer.buffer()).ok());
  WireWriter members;
  members.PutU64(2);
  members.PutU32(0xfffffff0u);
  EXPECT_FALSE(DecodeMembers(members.buffer()).ok());
}

TEST(WireRejectionTest, NonCanonicalStatsReplyAlarmFails) {
  // Shrunken fuzzer finding: a stats reply whose snapshot_alarm byte is
  // 2 used to decode successfully (as "alarm set") but re-encode as 1,
  // violating the encode/decode symmetry the protocol documents. The
  // encoder only writes 0 or 1; anything else is now malformed.
  StatsReplyFrame frame;
  frame.request_id = 9;
  frame.stats.snapshot_alarm = true;
  std::string body = Encode(frame);
  // The alarm flag sits after request_id, ten u64 counters, the f64
  // rate, and four more u64s: 8 + 80 + 8 + 32 = byte 128.
  ASSERT_EQ(body[128], 1);
  EXPECT_TRUE(DecodeStatsReply(body).ok());
  body[128] = 2;
  EXPECT_FALSE(DecodeStatsReply(body).ok());
}

TEST(WireRejectionTest, UnknownFinalKindFails) {
  WireWriter writer;
  writer.PutU64(1);   // request_id
  writer.PutU8(0);    // status
  writer.PutString(""); // message
  writer.PutU8(0x66);   // kind: not a request type
  writer.PutU64(0);     // model_version
  EXPECT_FALSE(DecodeFinal(writer.buffer()).ok());
}

// --- the served stack ------------------------------------------------------

/// RAII bundle of whyprov_service_create + Server on an ephemeral port.
struct ServedStack {
  explicit ServedStack(const std::string& program,
                       const std::string& database,
                       const std::string& answer = "path",
                       const whyprov_options* options = nullptr) {
    char error[256] = {0};
    if (whyprov_service_create(program.c_str(), database.c_str(),
                               answer.c_str(), options, &service, error,
                               sizeof(error)) != WHYPROV_OK) {
      ADD_FAILURE() << "service create failed: " << error;
      return;
    }
    server = std::make_unique<Server>(service);
    const auto started = server->Start(0);
    if (!started.ok()) {
      ADD_FAILURE() << "server start failed: " << started.message();
      server.reset();
    }
  }
  ~ServedStack() {
    if (server) server->Stop();
    whyprov_service_destroy(service);
  }
  ServedStack(const ServedStack&) = delete;
  ServedStack& operator=(const ServedStack&) = delete;

  bool ok() const { return service != nullptr && server != nullptr; }
  std::uint16_t port() const { return server->port(); }

  whyprov_service* service = nullptr;
  std::unique_ptr<Server> server;
};

Client MustConnect(const ServedStack& stack) {
  auto client = Client::Connect("127.0.0.1", stack.port());
  EXPECT_TRUE(client.ok()) << client.status().message();
  return client.ok() ? std::move(client).value() : Client();
}

// --- loopback vs in-process equivalence ------------------------------------

/// The in-process reference: the family of `target` enumerated directly
/// by the engine, rendered to the same text the ABI emits.
std::vector<std::vector<std::string>> ReferenceFamily(
    Engine& engine, const std::string& target, std::size_t max_members) {
  EnumerateRequest request;
  request.target_text = target;
  request.max_members = max_members;
  auto enumeration = engine.Enumerate(request);
  EXPECT_TRUE(enumeration.ok()) << enumeration.status().message();
  std::vector<std::vector<std::string>> family;
  if (!enumeration.ok()) return family;
  for (auto member = enumeration.value().Next(); member.has_value();
       member = enumeration.value().Next()) {
    std::vector<std::string> rendered;
    rendered.reserve(member->size());
    for (const auto& fact : *member) {
      rendered.push_back(engine.FactToText(fact));
    }
    family.push_back(std::move(rendered));
  }
  return family;
}

TEST(NetEquivalenceTest, LoopbackMatchesInProcessAcrossScenarios) {
  constexpr std::uint64_t kSeed = 20240611;
  constexpr std::size_t kCap = 4;  // same cap both sides => same prefix
  namespace sc = whyprov::scenarios;
  struct Case {
    const char* name;
    std::function<sc::GeneratedScenario()> make;
  };
  const std::vector<Case> cases = {
      {"TransClosure/sparse",
       [] {
         return sc::MakeTransClosure(sc::GraphKind::kSparse, 40, 60, kSeed);
       }},
      {"TransClosure/social",
       [] {
         return sc::MakeTransClosure(sc::GraphKind::kSocial, 16, 24, kSeed);
       }},
      {"Doctors", [] { return sc::MakeDoctors(1, 60, kSeed); }},
      {"Galen", [] { return sc::MakeGalen(20, kSeed); }},
      {"Andersen", [] { return sc::MakeAndersen(80, kSeed); }},
      {"CSDA", [] { return sc::MakeCsda("httpd", 120, kSeed); }},
  };

  for (const Case& test_case : cases) {
    SCOPED_TRACE(test_case.name);
    const sc::GeneratedScenario scenario = test_case.make();
    const std::string program_text = scenario.program.ToString();
    const std::string database_text = scenario.database.ToString();

    // In-process reference engine, built from the exact text the server
    // gets, so symbol ids — and therefore rendering and enumeration
    // order — are decided identically on both sides.
    auto reference = Engine::FromText(program_text, database_text,
                                      scenario.answer_predicate);
    ASSERT_TRUE(reference.ok()) << reference.status().message();
    std::vector<std::string> targets;
    for (datalog::FactId id : reference.value().SampleAnswers(2)) {
      targets.push_back(reference.value().FactToText(id));
    }
    ASSERT_FALSE(targets.empty());

    ServedStack stack(program_text, database_text,
                      scenario.answer_predicate);
    ASSERT_TRUE(stack.ok());
    Client client = MustConnect(stack);
    ASSERT_TRUE(client.connected());

    for (const std::string& target : targets) {
      SCOPED_TRACE(target);
      const auto expected =
          ReferenceFamily(reference.value(), target, kCap);

      auto materialised = client.Enumerate(target, kCap);
      ASSERT_TRUE(materialised.ok()) << materialised.status().message();
      ASSERT_TRUE(materialised.value().ok())
          << materialised.value().final.status_message;
      EXPECT_EQ(materialised.value().final.members, expected);

      auto streamed = client.Enumerate(target, kCap, /*deadline=*/0,
                                       /*stream=*/true, /*batch_size=*/1);
      ASSERT_TRUE(streamed.ok()) << streamed.status().message();
      ASSERT_TRUE(streamed.value().ok());
      EXPECT_EQ(streamed.value().streamed_members, expected);
      EXPECT_TRUE(streamed.value().final.members.empty());
      EXPECT_EQ(streamed.value().final.members_emitted, expected.size());
    }
  }
}

// --- serving behaviour over the socket -------------------------------------

TEST(NetServerTest, FullVerbSurfaceOverOneConnection) {
  ServedStack stack(kDiamondProgram, kDiamondDatabase);
  ASSERT_TRUE(stack.ok());
  Client client = MustConnect(stack);

  auto enumerated = client.Enumerate(kTarget);
  ASSERT_TRUE(enumerated.ok());
  ASSERT_TRUE(enumerated.value().ok());
  EXPECT_EQ(enumerated.value().final.members.size(), kDiamondMembers);
  EXPECT_TRUE(enumerated.value().final.enumerate_flags &
              WHYPROV_ENUM_EXHAUSTED);

  auto decided = client.Decide(
      kTarget, enumerated.value().final.members.front());
  ASSERT_TRUE(decided.ok());
  EXPECT_EQ(decided.value().final.verdict, 1);

  auto explained = client.Explain(kTarget, 0);
  ASSERT_TRUE(explained.ok());
  ASSERT_TRUE(explained.value().ok());
  EXPECT_EQ(explained.value().final.has_explanation, 1);
  EXPECT_FALSE(explained.value().final.proof_tree.empty());

  auto delta = client.ApplyDelta({}, {"edge(a, m1)"});
  ASSERT_TRUE(delta.ok());
  ASSERT_TRUE(delta.value().ok());
  EXPECT_EQ(delta.value().final.has_delta, 1);
  EXPECT_EQ(delta.value().final.delta.model_version, 1u);

  auto after = client.Enumerate(kTarget);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().final.members.size(), kDiamondMembers - 1);
  EXPECT_EQ(after.value().final.model_version, 1u);

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_GE(stats.value().submitted, 5u);
  EXPECT_EQ(stats.value().model_version, 1u);
  EXPECT_EQ(stats.value().num_shards, 1u);
}

TEST(NetServerTest, PipelinedResponsesArriveInSubmissionOrder) {
  ServedStack stack(kDiamondProgram, kDiamondDatabase);
  ASSERT_TRUE(stack.ok());
  Client client = MustConnect(stack);
  // Fire four requests back to back, then read their finals: the server
  // must answer in submission order (AwaitFinal fails on any other id).
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    EnumerateFrame frame;
    frame.request_id = client.NextRequestId();
    frame.target = kTarget;
    frame.max_members = 1 + static_cast<std::uint64_t>(i % 2);
    ASSERT_TRUE(client.Send(frame).ok());
    ids.push_back(frame.request_id);
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    auto outcome = client.AwaitFinal(ids[i]);
    ASSERT_TRUE(outcome.ok()) << outcome.status().message();
    EXPECT_EQ(outcome.value().final.members.size(), 1 + i % 2);
  }
}

TEST(NetServerTest, FailedRequestLeavesTheConnectionUsable) {
  ServedStack stack(kDiamondProgram, kDiamondDatabase);
  ASSERT_TRUE(stack.ok());
  Client client = MustConnect(stack);
  // An unresolvable target fails the request — as a final frame, not a
  // connection error.
  auto bad = client.Enumerate("path(nosuch, nodes)");
  ASSERT_TRUE(bad.ok()) << bad.status().message();
  EXPECT_FALSE(bad.value().ok());
  EXPECT_FALSE(bad.value().final.status_message.empty());
  // The session keeps serving.
  auto good = client.Enumerate(kTarget, 1);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good.value().ok());
}

TEST(NetServerTest, UnknownTreeClassIsAnInvalidArgumentFinal) {
  ServedStack stack(kDiamondProgram, kDiamondDatabase);
  ASSERT_TRUE(stack.ok());
  Client client = MustConnect(stack);
  // The DECIDE body decodes (tree_class is a plain u8), but the byte names
  // no proof-tree class: the request fails at submission, before any plan
  // or closure is built, and the session keeps serving.
  DecideFrame frame;
  frame.request_id = client.NextRequestId();
  frame.target = kTarget;
  frame.candidate_facts = {"edge(a, m1)", "edge(m1, b)"};
  frame.tree_class = 7;
  ASSERT_TRUE(client.Send(frame).ok());
  auto outcome = client.AwaitFinal(frame.request_id);
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  EXPECT_EQ(outcome.value().code(), WHYPROV_INVALID_ARGUMENT);

  auto decided = client.Decide(kTarget, {"edge(a, m1)", "edge(m1, b)"});
  ASSERT_TRUE(decided.ok()) << decided.status().message();
  ASSERT_TRUE(decided.value().ok());
  EXPECT_EQ(decided.value().final.verdict, 1);

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(stats.value().submitted, 1u);
}

TEST(NetServerTest, OversizedStreamBatchIsAnInvalidArgumentFinal) {
  ServedStack stack(kDiamondProgram, kDiamondDatabase);
  ASSERT_TRUE(stack.ok());
  Client client = MustConnect(stack);
  // The responder buffers a whole member batch before writing it, so a
  // batch_size past kMaxBatchSize would switch backpressure off: the
  // request fails before submission and the session keeps serving.
  EnumerateFrame frame;
  frame.request_id = client.NextRequestId();
  frame.target = kTarget;
  frame.stream = 1;
  frame.batch_size = kMaxBatchSize + 1;
  ASSERT_TRUE(client.Send(frame).ok());
  auto refused = client.AwaitFinal(frame.request_id);
  ASSERT_TRUE(refused.ok()) << refused.status().message();
  EXPECT_EQ(refused.value().code(), WHYPROV_INVALID_ARGUMENT);
  EXPECT_TRUE(refused.value().streamed_members.empty());

  // The cap itself streams as usual.
  auto streamed = client.Enumerate(kTarget, 0, 0, /*stream=*/true,
                                   /*batch_size=*/kMaxBatchSize);
  ASSERT_TRUE(streamed.ok()) << streamed.status().message();
  ASSERT_TRUE(streamed.value().ok());
  EXPECT_EQ(streamed.value().streamed_members.size(), kDiamondMembers);

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(stats.value().submitted, 1u);
}

TEST(NetServerTest, StatsReplyCarriesTheTenantRows) {
  ServedStack stack(kDiamondProgram, kDiamondDatabase);
  ASSERT_TRUE(stack.ok());
  Client client = MustConnect(stack);
  // A tenant name over 63 bytes is refused at submission with an
  // INVALID_ARGUMENT final; it gets no row and the session keeps serving.
  client.SetQos(WHYPROV_QOS_BATCH, std::string(64, 't'));
  auto refused = client.Enumerate(kTarget, 1);
  ASSERT_TRUE(refused.ok()) << refused.status().message();
  EXPECT_EQ(refused.value().code(), WHYPROV_INVALID_ARGUMENT);
  client.SetQos(WHYPROV_QOS_BATCH, "t");
  auto outcome = client.Enumerate(kTarget, 1);
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  ASSERT_TRUE(outcome.value().ok());

  auto reply = client.StatsWithTenants();
  ASSERT_TRUE(reply.ok()) << reply.status().message();
  ASSERT_EQ(reply.value().tenants.size(), 1u);
  const WireTenantStats& row = reply.value().tenants[0];
  EXPECT_EQ(row.tenant, "t");
  EXPECT_EQ(row.qos_class, WHYPROV_QOS_BATCH);
  EXPECT_GE(row.served, 1u);
  EXPECT_EQ(row.queued, 0u);
  EXPECT_EQ(row.rejected, 0u);
  EXPECT_EQ(row.cost_served, 0.0);
}

TEST(NetServerTest, WireDeadlinePropagatesToTheCancellationToken) {
  whyprov_options options;
  whyprov_options_init(&options);
  options.num_threads = 1;
  ServedStack stack(kDiamondProgram, kDiamondDatabase, "path", &options);
  ASSERT_TRUE(stack.ok());

  // Park the single worker from the ABI side: a capacity-1 streaming
  // enumeration nobody consumes blocks its producer deterministically.
  whyprov_ticket* blocker = nullptr;
  ASSERT_EQ(whyprov_submit_enumerate(stack.service, kTarget, 0, 0,
                                     /*stream_capacity=*/1, &blocker),
            WHYPROV_OK);

  // Low-level pipelining: the synchronous Enumerate would block on the
  // final frame, which cannot come until the blocker is destroyed — so
  // send the doomed request first, release the worker, then await.
  Client client = MustConnect(stack);
  EnumerateFrame doomed;
  doomed.request_id = client.NextRequestId();
  doomed.target = kTarget;
  doomed.deadline_seconds = 1e-9;  // expired by the time any worker looks
  ASSERT_TRUE(client.Send(doomed).ok());

  whyprov_ticket_destroy(blocker);  // closes the stream; worker resumes
  auto outcome = client.AwaitFinal(doomed.request_id);
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  EXPECT_EQ(outcome.value().code(), WHYPROV_DEADLINE_EXCEEDED);
}

// --- protocol violations ---------------------------------------------------

TEST(NetProtocolTest, MalformedBodyIsAnsweredAfterOwedResponses) {
  ServedStack stack(kDiamondProgram, kDiamondDatabase);
  ASSERT_TRUE(stack.ok());
  Client client = MustConnect(stack);

  EnumerateFrame owed;
  owed.request_id = client.NextRequestId();
  owed.target = kTarget;
  owed.max_members = 1;
  ASSERT_TRUE(client.Send(owed).ok());
  ASSERT_TRUE(client.SendRaw(kFrameDecide, "not a decide body").ok());

  // First the final frame the valid request is owed...
  auto outcome = client.AwaitFinal(owed.request_id);
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  EXPECT_TRUE(outcome.value().ok());

  // ...then the connection-level error frame, then EOF.
  std::uint8_t type = 0;
  std::string body;
  ASSERT_TRUE(client.ReadFrameRaw(&type, &body).ok());
  EXPECT_EQ(type, kFrameError);
  auto error = DecodeError(body);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error.value().status_code, WHYPROV_INVALID_ARGUMENT);
  EXPECT_EQ(client.ReadFrameRaw(&type, &body).code(),
            util::StatusCode::kNotFound);
}

TEST(NetProtocolTest, UnknownFrameTypeIsRejected) {
  ServedStack stack(kDiamondProgram, kDiamondDatabase);
  ASSERT_TRUE(stack.ok());
  Client client = MustConnect(stack);
  ASSERT_TRUE(client.SendRaw(0x7f, "").ok());
  std::uint8_t type = 0;
  std::string body;
  ASSERT_TRUE(client.ReadFrameRaw(&type, &body).ok());
  EXPECT_EQ(type, kFrameError);
  auto error = DecodeError(body);
  ASSERT_TRUE(error.ok());
  EXPECT_NE(error.value().message.find("unknown frame type"),
            std::string::npos);
}

TEST(NetProtocolTest, OversizedFrameIsRejectedBeforeItIsRead) {
  ServedStack stack(kDiamondProgram, kDiamondDatabase);
  ASSERT_TRUE(stack.ok());
  Client client = MustConnect(stack);
  // A hand-built length prefix over the cap: the server must refuse on
  // the prefix alone, never allocating or waiting for the body.
  const std::uint32_t length = kMaxFrameBytes + 1;
  std::uint8_t prefix[4] = {
      static_cast<std::uint8_t>(length & 0xff),
      static_cast<std::uint8_t>((length >> 8) & 0xff),
      static_cast<std::uint8_t>((length >> 16) & 0xff),
      static_cast<std::uint8_t>((length >> 24) & 0xff),
  };
  ASSERT_TRUE(client.SendBytes(prefix, sizeof(prefix)).ok());
  std::uint8_t type = 0;
  std::string body;
  ASSERT_TRUE(client.ReadFrameRaw(&type, &body).ok());
  EXPECT_EQ(type, kFrameError);
  auto error = DecodeError(body);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error.value().status_code, WHYPROV_INVALID_ARGUMENT);
}

TEST(NetProtocolTest, ZeroLengthFrameIsRejected) {
  ServedStack stack(kDiamondProgram, kDiamondDatabase);
  ASSERT_TRUE(stack.ok());
  Client client = MustConnect(stack);
  const std::uint8_t prefix[4] = {0, 0, 0, 0};
  ASSERT_TRUE(client.SendBytes(prefix, sizeof(prefix)).ok());
  std::uint8_t type = 0;
  std::string body;
  ASSERT_TRUE(client.ReadFrameRaw(&type, &body).ok());
  EXPECT_EQ(type, kFrameError);
}

// --- disconnects and shutdown ----------------------------------------------

TEST(NetDisconnectTest, MidStreamDisconnectReleasesThePinnedSnapshot) {
  // A wide diamond: enough members that the streamed enumeration is
  // still in flight when the delta lands (each attempt that loses that
  // race restores the database and retries).
  constexpr std::size_t kRoutes = 48;
  std::string database;
  for (std::size_t i = 0; i < kRoutes; ++i) {
    const std::string mid = "r" + std::to_string(i);
    database += "edge(a, " + mid + "). edge(" + mid + ", b).\n";
  }
  whyprov_options options;
  whyprov_options_init(&options);
  options.num_threads = 2;  // the delta must run beside the enumeration
  ServedStack stack(kDiamondProgram, database, "path", &options);
  ASSERT_TRUE(stack.ok());

  const auto retained = [&] {
    whyprov_stats stats;
    whyprov_service_stats(stack.service, &stats);
    return stats.retained_snapshots;
  };

  bool pinned = false;
  for (int attempt = 0; attempt < 25 && !pinned; ++attempt) {
    Client victim = MustConnect(stack);
    EnumerateFrame frame;
    frame.request_id = 1;
    frame.target = kTarget;
    frame.stream = 1;
    frame.batch_size = 1;
    ASSERT_TRUE(victim.Send(frame).ok());
    // One member batch guarantees the enumeration started (and pinned
    // the current model snapshot).
    std::uint8_t type = 0;
    std::string body;
    ASSERT_TRUE(victim.ReadFrameRaw(&type, &body).ok());
    ASSERT_EQ(type, kFrameMembers);

    Client writer = MustConnect(stack);
    auto delta = writer.ApplyDelta({}, {"edge(a, r0)"});
    ASSERT_TRUE(delta.ok());
    ASSERT_TRUE(delta.value().ok());

    if (retained() >= 2) {
      // The enumeration's snapshot outlived the delta: now vanish
      // mid-stream. The server's reader sees EOF and cancels the
      // ticket, which must release the pin.
      pinned = true;
      victim.Close();
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (retained() > 1 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      EXPECT_EQ(retained(), 1u)
          << "disconnect did not release the pinned snapshot";
    } else {
      // The enumeration finished before the delta; reset and retry.
      victim.Close();
      auto restore = writer.ApplyDelta({"edge(a, r0)"}, {});
      ASSERT_TRUE(restore.ok());
    }
  }
  EXPECT_TRUE(pinned)
      << "the enumeration never overlapped the delta in 25 attempts";
}

TEST(NetServerTest, StopClosesLiveSessionsAndJoins) {
  auto stack = std::make_unique<ServedStack>(kDiamondProgram,
                                             kDiamondDatabase);
  ASSERT_TRUE(stack->ok());
  Client client = MustConnect(*stack);
  auto warm = client.Enumerate(kTarget, 1);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(stack->server->connections_accepted(), 1u);

  stack->server->Stop();
  // The connection is gone: the next read reports EOF (or a reset).
  std::uint8_t type = 0;
  std::string body;
  EXPECT_FALSE(client.ReadFrameRaw(&type, &body).ok());
  // Stop is idempotent, and destruction after Stop is clean.
  stack->server->Stop();
  stack.reset();
}

}  // namespace
}  // namespace whyprov::net
