// Tests of the asynchronous `whyprov::Service` layer: submission and
// tickets for every request kind, streaming with backpressure, admission
// control (kResourceExhausted), deadlines (kDeadlineExceeded), and
// cooperative cancellation (kCancelled) — including mid-enumeration
// cancels that must release their snapshot without blocking other
// in-flight requests. The CI runs this binary under ThreadSanitizer.

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sat/solver.h"
#include "tests/workspace.h"
#include "whyprov.h"

namespace whyprov {
namespace {

using whyprov::testing::FamilyToStrings;
namespace dl = whyprov::datalog;
namespace pv = whyprov::provenance;

constexpr const char* kExample1Program = R"(
  a(X) :- s(X).
  a(X) :- a(Y), a(Z), t(Y, Z, X).
)";
constexpr const char* kExample1Database =
    "s(a). t(a, a, b). t(a, a, c). t(a, a, d). t(b, c, a).";
constexpr const char* kExample4Database =
    "s(a). s(b). t(a, a, c). t(b, b, c). t(c, c, d).";

// A reachability query whose whyUN family for path(a, b) has exactly one
// member per parallel a->mI->b route: a deterministic way to get a
// multi-member enumeration that outlives a few Next() calls.
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

Engine MakeEngine(const char* program, const char* database,
                  const char* answer) {
  auto engine = Engine::FromText(program, database, answer);
  EXPECT_TRUE(engine.ok()) << engine.status().message();
  return std::move(engine).value();
}

Request EnumerateOp(std::string target_text,
                    std::size_t max_members = provenance::kNoLimit,
                    double deadline_seconds = 0) {
  EnumerateRequest enumerate;
  enumerate.target_text = std::move(target_text);
  enumerate.max_members = max_members;
  Request request;
  request.op = std::move(enumerate);
  request.deadline_seconds = deadline_seconds;
  return request;
}

// --- submission basics ---------------------------------------------------

TEST(ServiceSubmitTest, EnumerateTicketMatchesDirectEngineCall) {
  Service service(MakeEngine(kExample1Program, kExample4Database, "a"));
  auto ticket = service.Submit(EnumerateOp("a(d)"));
  ASSERT_TRUE(ticket.ok()) << ticket.status().message();
  const Response& response = ticket.value().Wait();
  ASSERT_TRUE(response.status.ok()) << response.status.message();
  EXPECT_EQ(response.kind, RequestKind::kEnumerate);
  EXPECT_TRUE(response.exhausted);
  EXPECT_EQ(response.members_emitted, 2u);
  EXPECT_EQ(response.model_version, 0u);
  pv::ProvenanceFamily family(response.members.begin(),
                              response.members.end());
  EXPECT_EQ(FamilyToStrings(family, service.engine().model().symbols()),
            (std::set<std::string>{"{s(a), t(a, a, c), t(c, c, d)}",
                                   "{s(b), t(b, b, c), t(c, c, d)}"}));
  EXPECT_TRUE(ticket.value().done());
  EXPECT_GT(ticket.value().id(), 0u);
}

TEST(ServiceSubmitTest, DecideTicketAnswersMembership) {
  Service service(MakeEngine(kExample1Program, kExample1Database, "a"));
  const auto engine_target = service.engine().FactIdOf("a(d)");
  ASSERT_TRUE(engine_target.ok());

  DecideRequest yes;
  yes.target = engine_target.value();
  yes.candidate = {service.engine().database().facts()[0],   // s(a)
                   service.engine().database().facts()[3]};  // t(a, a, d)
  Request request;
  request.op = yes;
  auto ticket = service.Submit(std::move(request));
  ASSERT_TRUE(ticket.ok());
  const Response& response = ticket.value().Wait();
  ASSERT_TRUE(response.status.ok()) << response.status.message();
  EXPECT_EQ(response.kind, RequestKind::kDecide);
  EXPECT_TRUE(response.member);

  DecideRequest no = yes;
  no.candidate = {service.engine().database().facts()[0]};  // s(a) alone
  Request no_request;
  no_request.op = no;
  auto no_ticket = service.Submit(std::move(no_request));
  ASSERT_TRUE(no_ticket.ok());
  const Response& no_response = no_ticket.value().Wait();
  ASSERT_TRUE(no_response.status.ok());
  EXPECT_FALSE(no_response.member);
}

TEST(ServiceSubmitTest, ExplainTicketCarriesTree) {
  Service service(MakeEngine(kExample1Program, kExample1Database, "a"));
  ExplainRequest explain;
  explain.target_text = "a(d)";
  Request request;
  request.op = explain;
  auto ticket = service.Submit(std::move(request));
  ASSERT_TRUE(ticket.ok());
  const Response& response = ticket.value().Wait();
  ASSERT_TRUE(response.status.ok()) << response.status.message();
  EXPECT_EQ(response.kind, RequestKind::kExplain);
  ASSERT_TRUE(response.explanation.has_value());
  EXPECT_FALSE(response.explanation->member.empty());
}

TEST(ServiceSubmitTest, ApplyDeltaPublishesNewVersionAndReadsFollow) {
  Service service(MakeEngine(kDiamondProgram, kDiamondDatabase, "path"));
  DeltaRequest delta;
  delta.removed_fact_texts = {"edge(a, m6)"};
  Request request;
  request.op = delta;
  auto ticket = service.Submit(std::move(request));
  ASSERT_TRUE(ticket.ok());
  const Response& response = ticket.value().Wait();
  ASSERT_TRUE(response.status.ok()) << response.status.message();
  EXPECT_EQ(response.kind, RequestKind::kApplyDelta);
  ASSERT_TRUE(response.delta.has_value());
  EXPECT_EQ(response.model_version, 1u);

  auto after = service.Submit(EnumerateOp("path(a, b)"));
  ASSERT_TRUE(after.ok());
  const Response& after_response = after.value().Wait();
  ASSERT_TRUE(after_response.status.ok());
  EXPECT_EQ(after_response.members_emitted, kDiamondMembers - 1);
  EXPECT_EQ(after_response.model_version, 1u);
}

// --- streaming -----------------------------------------------------------

TEST(ServiceStreamTest, BoundedStreamDeliversEveryMember) {
  Service service(MakeEngine(kDiamondProgram, kDiamondDatabase, "path"));
  EnumerateRequest enumerate;
  enumerate.target_text = "path(a, b)";
  // Capacity 1: the producer must block on every member until we pop —
  // the backpressure path, not just the happy path.
  auto streamed = service.Stream(std::move(enumerate), /*stream_capacity=*/1);
  ASSERT_TRUE(streamed.ok()) << streamed.status().message();
  auto [ticket, stream] = std::move(streamed).value();
  std::size_t popped = 0;
  while (auto member = stream->Pop()) {
    EXPECT_FALSE(member->empty());
    ++popped;
  }
  EXPECT_EQ(popped, kDiamondMembers);
  EXPECT_TRUE(stream->finished());
  EXPECT_TRUE(stream->final_status().ok());
  const Response& response = ticket.Wait();
  EXPECT_TRUE(response.status.ok());
  EXPECT_EQ(response.members_emitted, kDiamondMembers);
  EXPECT_TRUE(response.members.empty()) << "streamed members must not be "
                                           "materialised in the response";
}

TEST(ServiceStreamTest, ConsumerCloseCancelsTheRequest) {
  Service service(MakeEngine(kDiamondProgram, kDiamondDatabase, "path"));
  EnumerateRequest enumerate;
  enumerate.target_text = "path(a, b)";
  auto streamed = service.Stream(std::move(enumerate), /*stream_capacity=*/1);
  ASSERT_TRUE(streamed.ok());
  auto [ticket, stream] = std::move(streamed).value();
  auto first = stream->Pop();
  ASSERT_TRUE(first.has_value());
  stream->Close();  // walk away after one member
  const Response& response = ticket.Wait();
  EXPECT_EQ(response.status.code(), util::StatusCode::kCancelled);
  EXPECT_FALSE(stream->Pop().has_value());
}

// --- cancellation --------------------------------------------------------

TEST(ServiceCancelTest, CancelMidEnumerationReportsCancelledAndReleases) {
  Service service(MakeEngine(kDiamondProgram, kDiamondDatabase, "path"));
  EnumerateRequest enumerate;
  enumerate.target_text = "path(a, b)";
  auto streamed = service.Stream(std::move(enumerate), /*stream_capacity=*/1);
  ASSERT_TRUE(streamed.ok());
  auto [ticket, stream] = std::move(streamed).value();
  // Pop one member so the enumeration is provably mid-flight (between
  // Next() calls, with more members pending), then cancel the ticket.
  ASSERT_TRUE(stream->Pop().has_value());
  ticket.Cancel();
  const Response& response = ticket.Wait();
  EXPECT_EQ(response.status.code(), util::StatusCode::kCancelled);

  // The cancelled ticket released its snapshot: a delta applies cleanly
  // and later requests serve the new version without blocking.
  DeltaRequest delta;
  delta.removed_fact_texts = {"edge(a, m1)"};
  Request delta_request;
  delta_request.op = delta;
  auto delta_ticket = service.Submit(std::move(delta_request));
  ASSERT_TRUE(delta_ticket.ok());
  const Response& delta_response = delta_ticket.value().Wait();
  ASSERT_TRUE(delta_response.status.ok())
      << delta_response.status.message();
  EXPECT_EQ(delta_response.model_version, 1u);

  auto after = service.Submit(EnumerateOp("path(a, b)"));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().Wait().members_emitted, kDiamondMembers - 1);

  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.cancelled, 1u);
  EXPECT_GE(stats.succeeded, 2u);
}

TEST(ServiceCancelTest, CancelBeforeExecutionNeverTouchesTheEngine) {
  ServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 4;
  Service service(MakeEngine(kDiamondProgram, kDiamondDatabase, "path"),
                  options);
  // Block the single worker on a full stream...
  EnumerateRequest blocker;
  blocker.target_text = "path(a, b)";
  auto streamed = service.Stream(std::move(blocker), /*stream_capacity=*/1);
  ASSERT_TRUE(streamed.ok());
  auto [blocker_ticket, blocker_stream] = std::move(streamed).value();
  // ...queue a second request behind it and cancel it while it waits.
  auto queued = service.Submit(EnumerateOp("path(a, b)"));
  ASSERT_TRUE(queued.ok());
  queued.value().Cancel();
  blocker_stream->Close();  // free the worker
  const Response& queued_response = queued.value().Wait();
  EXPECT_EQ(queued_response.status.code(), util::StatusCode::kCancelled);
  EXPECT_EQ(queued_response.members_emitted, 0u);
  blocker_ticket.Wait();
}

// --- deadlines -----------------------------------------------------------

TEST(ServiceDeadlineTest, DeadlineExpiredInQueueIsDeadlineExceeded) {
  ServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 4;
  Service service(MakeEngine(kDiamondProgram, kDiamondDatabase, "path"),
                  options);
  EnumerateRequest blocker;
  blocker.target_text = "path(a, b)";
  auto streamed = service.Stream(std::move(blocker), /*stream_capacity=*/1);
  ASSERT_TRUE(streamed.ok());
  auto [blocker_ticket, blocker_stream] = std::move(streamed).value();
  // A nanosecond deadline is long gone by the time the worker frees up.
  auto doomed =
      service.Submit(EnumerateOp("path(a, b)", provenance::kNoLimit,
                                 /*deadline_seconds=*/1e-9));
  ASSERT_TRUE(doomed.ok());
  blocker_stream->Close();
  const Response& response = doomed.value().Wait();
  EXPECT_EQ(response.status.code(), util::StatusCode::kDeadlineExceeded);
  blocker_ticket.Wait();
  EXPECT_GE(service.stats().deadline_exceeded, 1u);
}

TEST(EnumerationTokenTest, ExpiredDeadlineStopsBetweenMembers) {
  Engine engine = MakeEngine(kDiamondProgram, kDiamondDatabase, "path");
  util::CancellationSource source;
  source.SetTimeout(1e-9);
  EnumerateRequest request;
  request.target_text = "path(a, b)";
  request.cancellation = source.token();
  auto enumeration = engine.Enumerate(request);
  ASSERT_TRUE(enumeration.ok());
  EXPECT_FALSE(enumeration.value().Next().has_value());
  EXPECT_TRUE(enumeration.value().deadline_exceeded());
  EXPECT_FALSE(enumeration.value().cancelled());
  EXPECT_FALSE(enumeration.value().exhausted());
  EXPECT_EQ(enumeration.value().interruption_status().code(),
            util::StatusCode::kDeadlineExceeded);
}

TEST(EnumerationTokenTest, CancelBetweenNextCallsReportsCancelled) {
  Engine engine = MakeEngine(kDiamondProgram, kDiamondDatabase, "path");
  util::CancellationSource source;
  EnumerateRequest request;
  request.target_text = "path(a, b)";
  request.cancellation = source.token();
  auto enumeration = engine.Enumerate(request);
  ASSERT_TRUE(enumeration.ok());
  EXPECT_TRUE(enumeration.value().Next().has_value());
  source.Cancel();
  EXPECT_FALSE(enumeration.value().Next().has_value());
  EXPECT_TRUE(enumeration.value().cancelled());
  EXPECT_FALSE(enumeration.value().exhausted());
  EXPECT_EQ(enumeration.value().interruption_status().code(),
            util::StatusCode::kCancelled);
  EXPECT_EQ(enumeration.value().members_emitted(), 1u);
}

TEST(EnumerationTokenTest, SolverPollAbandonsTheSearchMidSolve) {
  // An always-true interrupt makes the backend return kUnknown instead of
  // searching — the in-solve half of the cancellation path.
  sat::Solver solver;
  const sat::Var x = solver.NewVar();
  const sat::Var y = solver.NewVar();
  solver.AddBinary(sat::Lit::Make(x, false), sat::Lit::Make(y, false));
  solver.SetInterruptCheck([] { return true; });
  EXPECT_EQ(solver.Solve(), sat::SolveResult::kUnknown);
  solver.SetInterruptCheck(nullptr);
  EXPECT_EQ(solver.Solve(), sat::SolveResult::kSat);
}

TEST(EnumerationTokenTest, DecideHonoursCancelledToken) {
  Engine engine = MakeEngine(kExample1Program, kExample1Database, "a");
  util::CancellationSource source;
  source.Cancel();
  DecideRequest request;
  request.target_text = "a(d)";
  request.candidate = {engine.database().facts()[0]};
  request.cancellation = source.token();
  auto verdict = engine.Decide(request);
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.status().code(), util::StatusCode::kCancelled);
}

// --- admission control ---------------------------------------------------

TEST(ServiceAdmissionTest, FullQueueRejectsWithResourceExhausted) {
  ServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 1;
  Service service(MakeEngine(kDiamondProgram, kDiamondDatabase, "path"),
                  options);
  // Occupy the worker (blocked on its full stream)...
  EnumerateRequest blocker;
  blocker.target_text = "path(a, b)";
  auto streamed = service.Stream(std::move(blocker), /*stream_capacity=*/1);
  ASSERT_TRUE(streamed.ok());
  auto [blocker_ticket, blocker_stream] = std::move(streamed).value();
  ASSERT_TRUE(blocker_stream->Pop().has_value());  // ensure it is running
  // ...fill the one queue slot...
  auto queued = service.Submit(EnumerateOp("path(a, b)"));
  ASSERT_TRUE(queued.ok());
  // ...and watch admission control refuse the overflow.
  auto rejected = service.Submit(EnumerateOp("path(a, b)"));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kResourceExhausted);
  EXPECT_GE(service.stats().rejected, 1u);

  blocker_stream->Close();
  blocker_ticket.Wait();
  const Response& queued_response = queued.value().Wait();
  EXPECT_TRUE(queued_response.status.ok());
  EXPECT_EQ(queued_response.members_emitted, kDiamondMembers);
}

// --- snapshots across writes ---------------------------------------------

TEST(ServiceSnapshotTest, InFlightTicketKeepsItsSnapshotAcrossDelta) {
  ServiceOptions options;
  options.num_threads = 2;  // the delta must run beside the enumeration
  Service service(MakeEngine(kDiamondProgram, kDiamondDatabase, "path"),
                  options);
  EnumerateRequest enumerate;
  enumerate.target_text = "path(a, b)";
  auto streamed = service.Stream(std::move(enumerate), /*stream_capacity=*/1);
  ASSERT_TRUE(streamed.ok());
  auto [ticket, stream] = std::move(streamed).value();
  ASSERT_TRUE(stream->Pop().has_value());  // the enumeration is in flight

  DeltaRequest delta;
  delta.removed_fact_texts = {"edge(a, m1)", "edge(a, m2)"};
  Request delta_request;
  delta_request.op = delta;
  auto delta_ticket = service.Submit(std::move(delta_request));
  ASSERT_TRUE(delta_ticket.ok());
  const Response& delta_response = delta_ticket.value().Wait();
  ASSERT_TRUE(delta_response.status.ok())
      << delta_response.status.message();
  EXPECT_EQ(delta_response.model_version, 1u);

  // The in-flight enumeration still drains the *old* snapshot: all six
  // members, not the four the new version has.
  std::size_t drained = 1;
  while (stream->Pop().has_value()) ++drained;
  EXPECT_EQ(drained, kDiamondMembers);
  const Response& response = ticket.Wait();
  EXPECT_TRUE(response.status.ok());
  EXPECT_EQ(response.model_version, 0u);

  auto after = service.Submit(EnumerateOp("path(a, b)"));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().Wait().members_emitted, kDiamondMembers - 2);
}

// --- mixed concurrent workload (the TSan meat) ---------------------------

TEST(ServiceConcurrencyTest, MixedWorkloadFromManySubmittersCompletes) {
  ServiceOptions options;
  options.num_threads = 4;
  options.queue_capacity = 256;
  Service service(MakeEngine(kDiamondProgram, kDiamondDatabase, "path"),
                  options);
  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kPerSubmitter = 12;
  std::atomic<std::size_t> ok_count{0};
  std::atomic<std::size_t> interrupted_count{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&service, &ok_count, &interrupted_count, t] {
      for (std::size_t i = 0; i < kPerSubmitter; ++i) {
        Request request;
        if (i % 6 == 5) {
          DeltaRequest delta;  // remove + restore: stationary database
          if ((i / 6) % 2 == 0) {
            delta.removed_fact_texts = {"edge(m3, b)"};
          } else {
            delta.added_fact_texts = {"edge(m3, b)"};
          }
          request.op = std::move(delta);
        } else if (i % 6 == 4) {
          DecideRequest decide;
          decide.target_text = "path(a, b)";
          decide.candidate = {};  // empty candidate: cheap, valid, false
          request.op = std::move(decide);
        } else {
          request = EnumerateOp("path(a, b)", /*max_members=*/4);
        }
        auto ticket = service.Submit(std::move(request));
        if (!ticket.ok()) continue;  // admission rejections are fine
        if (t == 0 && i % 5 == 0) ticket.value().Cancel();
        const Response& response = ticket.value().Wait();
        if (response.status.ok()) {
          ok_count.fetch_add(1);
        } else {
          EXPECT_TRUE(response.status.code() ==
                          util::StatusCode::kCancelled ||
                      response.status.code() ==
                          util::StatusCode::kResourceExhausted)
              << response.status.message();
          interrupted_count.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, ok_count.load() + interrupted_count.load());
  EXPECT_GT(ok_count.load(), 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  // A ticket completes inside its worker task, so the in_flight gauge can
  // trail the last Wait() by the task's return path; give it a beat.
  for (int i = 0; i < 10000 && service.stats().in_flight != 0; ++i) {
    std::this_thread::yield();
  }
  EXPECT_EQ(service.stats().in_flight, 0u);
}

// --- stats: throughput, versions, snapshot accounting --------------------

TEST(ServiceStatsTest, ReportsThroughputVersionAndSnapshotRetention) {
  ServiceOptions options;
  options.num_threads = 2;  // the delta must run beside the blocked stream
  Service service(MakeEngine(kDiamondProgram, kDiamondDatabase, "path"),
                  options);
  auto first = service.Submit(EnumerateOp("path(a, b)"));
  ASSERT_TRUE(first.ok());
  first.value().Wait();

  ServiceStats stats = service.stats();
  EXPECT_GT(stats.queries_per_second, 0.0);
  EXPECT_EQ(stats.model_version, 0u);
  EXPECT_EQ(stats.retained_snapshots, 1u);  // just the published state
  EXPECT_GT(stats.retained_snapshot_bytes, 0u);

  // An in-flight streaming enumeration pins its snapshot across deltas:
  // the retired version must show up in the retention gauges until the
  // stream finishes. With no GC policy, retention is still bounded: each
  // version nothing pins is freed when the next delta publishes, so the
  // count stays at two however many deltas land while the stream stalls.
  EnumerateRequest enumerate;
  enumerate.target_text = "path(a, b)";
  auto streamed = service.Stream(std::move(enumerate), /*stream_capacity=*/1);
  ASSERT_TRUE(streamed.ok());
  auto [ticket, stream] = std::move(streamed).value();
  ASSERT_TRUE(stream->Pop().has_value());  // provably mid-flight

  constexpr std::uint64_t kDeltas = 6;
  for (std::uint64_t version = 1; version <= kDeltas; ++version) {
    // Remove and restore edge(a, m1) in turn.
    DeltaRequest delta;
    if (version % 2 == 1) {
      delta.removed_fact_texts = {"edge(a, m1)"};
    } else {
      delta.added_fact_texts = {"edge(a, m1)"};
    }
    Request delta_request;
    delta_request.op = delta;
    auto delta_ticket = service.Submit(std::move(delta_request));
    ASSERT_TRUE(delta_ticket.ok());
    ASSERT_TRUE(delta_ticket.value().Wait().status.ok());

    stats = service.stats();
    EXPECT_EQ(stats.model_version, version);
    EXPECT_EQ(stats.retained_snapshots, 2u)
        << "the pinned v0 snapshot plus the published v" << version;
  }

  while (stream->Pop().has_value()) {
  }
  ticket.Wait();
  EXPECT_EQ(service.stats().retained_snapshots, 1u)
      << "draining the stream must release the retired snapshot";
}

// --- blocking batch conveniences -----------------------------------------

TEST(ServiceBatchTest, EnumerateBatchMatchesSequentialEngineCalls) {
  const Engine engine = MakeEngine(kExample1Program, kExample4Database, "a");
  std::vector<EnumerateRequest> requests(3);
  requests[0].target_text = "a(d)";
  requests[1].target_text = "a(c)";
  requests[2].target_text = "a(nonexistent)";

  ServiceOptions options;
  options.num_threads = 2;
  options.queue_capacity = 2;  // smaller than the batch: exercises feeding
  Service service(MakeEngine(kExample1Program, kExample4Database, "a"),
                  options);
  const BatchEnumerateResult served = service.EnumerateBatch(requests);

  ASSERT_EQ(served.outcomes.size(), requests.size());
  std::size_t members = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    auto direct = engine.Enumerate(requests[i]);
    ASSERT_EQ(served.outcomes[i].status.ok(), direct.ok()) << "request " << i;
    if (!direct.ok()) {
      EXPECT_EQ(served.outcomes[i].status.code(), direct.status().code());
      continue;
    }
    const std::vector<std::vector<dl::Fact>> expected = direct.value().All();
    EXPECT_EQ(served.outcomes[i].members, expected) << "request " << i;
    EXPECT_TRUE(served.outcomes[i].exhausted);
    members += expected.size();
  }
  EXPECT_EQ(served.stats.succeeded, 2u);
  EXPECT_EQ(served.stats.failed, 1u);
  EXPECT_EQ(served.stats.members_emitted, members);
}

TEST(ServiceBatchTest, DecideBatchMatchesSequentialEngineCalls) {
  const Engine engine = MakeEngine(kExample1Program, kExample1Database, "a");
  std::vector<DecideRequest> requests(2);
  requests[0].target_text = "a(d)";
  requests[0].candidate = {engine.database().facts()[0],
                           engine.database().facts()[3]};
  requests[1].target_text = "a(d)";
  requests[1].candidate = {engine.database().facts()[0]};

  Service service(MakeEngine(kExample1Program, kExample1Database, "a"));
  const BatchDecideResult served = service.DecideBatch(requests);
  ASSERT_EQ(served.outcomes.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const util::Result<bool> direct = engine.Decide(requests[i]);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(served.outcomes[i].status.ok());
    EXPECT_EQ(served.outcomes[i].member, direct.value()) << "request " << i;
  }
}

// --- shutdown ------------------------------------------------------------

TEST(ServiceShutdownTest, DestructionDrainsAdmittedRequests) {
  std::vector<Ticket> tickets;
  {
    ServiceOptions options;
    options.num_threads = 1;
    Service service(MakeEngine(kDiamondProgram, kDiamondDatabase, "path"),
                    options);
    for (int i = 0; i < 6; ++i) {
      auto ticket = service.Submit(EnumerateOp("path(a, b)"));
      ASSERT_TRUE(ticket.ok());
      tickets.push_back(std::move(ticket).value());
    }
    // ~Service drains the queue before joining.
  }
  for (const Ticket& ticket : tickets) {
    EXPECT_TRUE(ticket.done());
    EXPECT_TRUE(ticket.Wait().status.ok());
  }
}

}  // namespace
}  // namespace whyprov
